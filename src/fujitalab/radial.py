"""Radial grids, radial fields and weighted Lebesgue norms.

Radially symmetric functions on R^N are represented by their nodal values
on a one-dimensional grid 0 < r_1 < ... < r_M.  The default grid is
uniform in log r, which resolves both the origin (where the degenerate
diffusivity |x|^(-s1) lives) and the far field with the same relative
resolution.  Norms are weighted Lebesgue norms

    ||u||_{q,w} = ( omega_{N-1} * int |u(r)|^q r^(N-1+w) dr )^(1/q),

computed by the trapezoid rule on the grid; the trapezoid cell widths
coincide with the finite-volume cell widths used by the evolution
schemes, so discrete mass bookkeeping is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "RadialGrid",
    "RadialField",
    "lq_norm",
    "weighted_integral",
    "sphere_area",
    "gaussian_profile",
    "bump_profile",
    "zero_profile",
    "powerlaw_profile",
    "field_from_callable",
]

SPACING_UNIFORM = "uniform"
SPACING_LOG = "uniform-in-log"
SPACING_MAPPED = "mapped"


def sphere_area(dimension: float) -> float:
    """Surface measure of the unit sphere in dimension d: 2 pi^(d/2)/Gamma(d/2).

    Accepts non-integer dimensions, which arise for transformed radial
    problems with an effective dimension.
    """
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


def _detect_spacing(nodes: np.ndarray) -> str:
    d = np.diff(nodes)
    if np.allclose(d, d[0], rtol=1e-9, atol=0.0):
        return SPACING_UNIFORM
    dl = np.diff(np.log(nodes))
    if np.allclose(dl, dl[0], rtol=1e-9, atol=0.0):
        return SPACING_LOG
    return SPACING_MAPPED


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing positive radial nodes with a spacing tag.

    ``sigma1`` records the degeneracy weight the grid was built to resolve;
    it is bookkeeping only and does not enter any computation here.
    """

    nodes: np.ndarray
    spacing: str = SPACING_MAPPED
    sigma1: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.nodes, dtype=float)
        if r.ndim != 1 or r.size < 16:
            raise ValueError("grid needs at least 16 nodes")
        if not (r[0] > 0.0 and np.all(np.diff(r) > 0.0)):
            raise ValueError("nodes must be strictly increasing and positive")
        object.__setattr__(self, "nodes", r)

    @staticmethod
    def log_spaced(r_max: float, m: int = 1024, r_min: float = None,
                   sigma1: float = 0.0) -> "RadialGrid":
        """Log-uniform grid on [r_min, r_max]; r_min defaults to 1e-4 * r_max."""
        if r_min is None:
            r_min = 1e-4 * r_max
        nodes = np.geomspace(r_min, r_max, m)
        nodes[-1] = r_max
        return RadialGrid(nodes, SPACING_LOG, sigma1)

    @staticmethod
    def log_commensurate(r_max: float, m: int = 1024, lam: float = 2.0,
                         r_min: float = None, sigma1: float = 0.0) -> "RadialGrid":
        """Log-uniform grid whose step divides log(lam) exactly.

        On such a grid the dilation r -> lam * r is an integer shift of the
        node index, so rescaling a field needs no interpolation at all.  The
        node count is chosen as close to ``m`` as the divisibility allows and
        r_max is kept exact; r_min moves down slightly to absorb the rounding.
        """
        if lam <= 0.0 or lam == 1.0:
            raise ValueError("dilation factor must be positive and != 1")
        if r_min is None:
            r_min = 1e-4 * r_max
        span = math.log(r_max / r_min)
        step = math.log(max(lam, 1.0 / lam))
        k = max(1, round(step * (m - 1) / span))
        h = step / k
        mm = int(math.ceil(span / h - 1e-12)) + 1
        nodes = r_max * np.exp(-h * np.arange(mm - 1, -1, -1))
        nodes[-1] = r_max
        return RadialGrid(nodes, SPACING_LOG, sigma1)

    @staticmethod
    def uniform(r_max: float, m: int = 1024, r_min: float = None,
                sigma1: float = 0.0) -> "RadialGrid":
        """Uniformly spaced grid on [r_min, r_max]."""
        if r_min is None:
            r_min = r_max / m
        nodes = np.linspace(r_min, r_max, m)
        return RadialGrid(nodes, SPACING_UNIFORM, sigma1)

    @staticmethod
    def from_nodes(nodes, sigma1: float = 0.0) -> "RadialGrid":
        nodes = np.asarray(nodes, dtype=float)
        return RadialGrid(nodes, _detect_spacing(nodes), sigma1)

    @property
    def m(self) -> int:
        return self.nodes.size

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    def cell_widths(self) -> np.ndarray:
        """Trapezoid weights: half-cells at both ends, midpoint cells inside."""
        r = self.nodes
        w = np.empty_like(r)
        h = np.diff(r)
        w[0] = 0.5 * h[0]
        w[-1] = 0.5 * h[-1]
        w[1:-1] = 0.5 * (h[:-1] + h[1:])
        return w


@dataclass(frozen=True)
class RadialField:
    """Nodal values of a radial function together with its ambient dimension.

    ``dimension`` may be non-integer (effective dimension after a change of
    variables); it feeds the surface-measure factor of every norm.
    """

    grid: RadialGrid
    values: np.ndarray
    dimension: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.nodes.shape:
            raise ValueError("values shape %s does not match grid size %d"
                             % (v.shape, self.grid.m))
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite; overflow belongs "
                             "to the solver error channel, not the container")
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "RadialField":
        return replace(self, values=np.asarray(values, dtype=float))


def lq_norm(fld: RadialField, q: float, weight: float = 0.0) -> float:
    """Weighted L^q norm of a radial field by trapezoid quadrature.

    weight is the extra radial power in the measure r^(N-1+weight) dr; use
    weight = sigma1 with q = 1 for the conserved weighted mass, weight = 0
    for plain Lebesgue norms.  q = inf returns max |u| (weight ignored).
    """
    if not (q >= 1.0):
        raise ValueError("need q >= 1, got %r" % (q,))
    v = np.abs(fld.values)
    if math.isinf(q):
        return float(v.max(initial=0.0))
    r = fld.grid.nodes
    dens = v ** q * r ** (fld.dimension - 1.0 + weight)
    total = sphere_area(fld.dimension) * float(dens @ fld.grid.cell_widths())
    return total ** (1.0 / q)


def weighted_integral(fld: RadialField, weight: float = 0.0) -> float:
    """Signed integral omega_{N-1} int u(r) r^(N-1+weight) dr (no absolute value)."""
    r = fld.grid.nodes
    dens = fld.values * r ** (fld.dimension - 1.0 + weight)
    return sphere_area(fld.dimension) * float(dens @ fld.grid.cell_widths())


# ---------------------------------------------------------------------------
# named radial profiles
# ---------------------------------------------------------------------------

def gaussian_profile(center: float, width: float,
                     amplitude: float) -> Callable[[np.ndarray], np.ndarray]:
    """amplitude * exp(-(r-center)^2 / (2 width^2))."""
    if width <= 0.0:
        raise ValueError("gaussian width must be positive")

    def f(r):
        r = np.asarray(r, dtype=float)
        return amplitude * np.exp(-((r - center) ** 2) / (2.0 * width * width))
    f.mass_sign = int(np.sign(amplitude))
    f.label = "gaussian(%g, %g, %g)" % (center, width, amplitude)
    return f


def bump_profile(support: float,
                 amplitude: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth bump supported on [0, support], peak value = amplitude at r = 0."""
    if support <= 0.0:
        raise ValueError("bump support must be positive")

    def f(r):
        r = np.asarray(r, dtype=float)
        x2 = (r / support) ** 2
        out = np.zeros_like(r)
        inside = x2 < 1.0
        # exp(1 - 1/(1-x^2)) is C-infinity and equals 1 at the origin
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - x2[inside]))
        return out
    f.mass_sign = int(np.sign(amplitude))
    f.label = "bump(%g, %g)" % (support, amplitude)
    return f


def zero_profile() -> Callable[[np.ndarray], np.ndarray]:
    def f(r):
        return np.zeros_like(np.asarray(r, dtype=float))
    f.mass_sign = 0
    f.label = "zero"
    return f


def powerlaw_profile(decay: float,
                     amplitude: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """amplitude * r^(-decay); the borderline datum for smoothing studies.

    With decay = N/a this profile sits on the integrability edge of L^a, so
    its evolution under the degenerate semigroup realizes the L^a -> L^b
    smoothing rate as an exact power law in t.
    """
    def f(r):
        r = np.asarray(r, dtype=float)
        return amplitude * r ** (-decay)
    f.mass_sign = int(np.sign(amplitude))
    f.label = "powerlaw(%g, %g)" % (decay, amplitude)
    return f


def field_from_callable(grid: RadialGrid, fn, dimension: float) -> RadialField:
    """Sample a radial callable on the grid nodes."""
    return RadialField(grid, np.asarray(fn(grid.nodes), dtype=float), dimension)
