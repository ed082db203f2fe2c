"""Radial grids, radial fields, Lebesgue norms and weighted integrals.

Radially symmetric functions on R^N are represented by their nodal values
on a one-dimensional grid 0 < r_1 < ... < r_M; the equation's radial
weights belong to the operator (semigroup.SemigroupOp.weight), not to the
grid.  The default grid is uniform in log r, which resolves both the
origin (where the degenerate diffusivity |x|^(-s1) lives) and the far
field with the same relative resolution.  Norms are the Lebesgue norms

    ||u||_q = ( omega_{N-1} * int |u(r)|^q r^(N-1) dr )^(1/q),

and weighted_integral takes the signed integral against r^(N-1+w), both
computed by the trapezoid rule on the grid.  The trapezoid cell widths
are the finite-volume cell widths of the evolution schemes at every node
but the last: SemigroupOp widens the last cell to the zero ghost node
beyond r_max (h[-1] where the grid has h[-1]/2), so weighted_integral
measures the operator's conserved mass exactly only for data that vanish
at the last node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import Overflow

__all__ = [
    "RadialGrid",
    "RadialField",
    "Trajectory",
    "lq_norm",
    "weighted_integral",
    "sphere_area",
    "gaussian_profile",
    "bump_profile",
    "zero_profile",
    "powerlaw_profile",
    "field_from_callable",
]


def sphere_area(dimension: float) -> float:
    """Surface measure of the unit sphere in dimension d: 2 pi^(d/2)/Gamma(d/2).

    Accepts non-integer dimensions, which arise for transformed radial
    problems with an effective dimension.
    """
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """At least 16 increasing positive nodes, and nothing else."""

    nodes: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.nodes, dtype=float)
        if r.ndim != 1 or r.size < 16:
            raise ValueError("grid needs at least 16 nodes")
        if not (r[0] > 0.0 and np.all(np.diff(r) > 0.0)):
            raise ValueError("nodes must be strictly increasing and positive")
        object.__setattr__(self, "nodes", r)

    @staticmethod
    def log_spaced(r_max: float, m: int = 1024,
                   r_min: float = None) -> "RadialGrid":
        """Log-uniform grid on [r_min, r_max]; r_min defaults to 1e-4 * r_max."""
        if r_min is None:
            r_min = 1e-4 * r_max
        if not 0.0 < r_min < r_max:
            raise ValueError("need 0 < r_min < r_max, got %g and %g"
                             % (r_min, r_max))
        nodes = np.geomspace(r_min, r_max, m)
        nodes[-1] = r_max
        return RadialGrid(nodes)

    @staticmethod
    def log_commensurate(r_max: float, m: int = 1024, lam: float = 2.0,
                         r_min: float = None) -> "RadialGrid":
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
        return RadialGrid(nodes)

    @property
    def m(self) -> int:
        return self.nodes.size

    def cell_widths(self) -> np.ndarray:
        """Trapezoid weights: half-cells at both ends, midpoint cells inside."""
        h = np.diff(self.nodes)
        w = np.empty_like(self.nodes)
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


class Trajectory:
    """Snapshots at increasing positive times.

    ``values`` has one row per time, on the grid and in the dimension of
    ``like``, so lq_norm(trajectory, q) gives the norm of every row.
    """

    def __init__(self, times: np.ndarray, values, like: RadialField):
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if not (t[0] > 0.0 and np.all(np.diff(t) > 0.0)):
            raise ValueError("times must be positive and strictly increasing")
        v = np.asarray(values, dtype=float)
        if v.shape != (t.size, like.grid.m):
            raise ValueError("need values of shape (%d, %d), got %s"
                             % (t.size, like.grid.m, v.shape))
        self.times, self.values = t, v
        self.grid, self.dimension = like.grid, like.dimension

    def norms(self, q: float) -> np.ndarray:
        """L^q norm of every stored time; Overflow where one is inf."""
        out = lq_norm(self, q)
        if not all(map(math.isfinite, out)):
            raise Overflow("an L^%g norm overflowed" % q)
        return np.array(out)

    def x_norm(self, mu: float, r: float) -> float:
        """The X-norm sup_j times[j]^mu ||values[j]||_{L^r}."""
        out = 0.0
        for t, n in zip(self.times, self.norms(r)):
            out = max(out, t ** mu * n)
        return out


def lq_norm(fld: RadialField, q: float):
    """L^q norm of a radial field, measure r^(N-1) dr, by trapezoid quadrature.

    Values stacked one profile per row (a Trajectory) give the list of row
    norms, each the bits of its 1-D norm: a 1-D dot per row, as a 2-D
    matmul may sum in another order.  q = inf returns max |u|; a norm
    that overflows is inf, with no warning.  For the conserved weighted
    mass use weighted_integral.
    """
    if not (q >= 1.0):
        raise ValueError("need q >= 1, got %r" % (q,))
    v = np.abs(fld.values)
    if math.isinf(q):
        return v.max(axis=-1, initial=0.0).tolist()
    with np.errstate(over="ignore"):
        v **= q
        v *= fld.grid.nodes ** (fld.dimension - 1.0)
    cells, area = fld.grid.cell_widths(), sphere_area(fld.dimension)
    out = [(area * float(row @ cells)) ** (1.0 / q)
           for row in np.atleast_2d(v)]
    return out if v.ndim > 1 else out[0]


def weighted_integral(fld: RadialField, weight: float = 0.0) -> float:
    """Signed integral omega_{N-1} int u(r) r^(N-1+weight) dr (no absolute value)."""
    dens = fld.values * fld.grid.nodes ** (fld.dimension - 1.0 + weight)
    return sphere_area(fld.dimension) * float(dens @ fld.grid.cell_widths())


# ---------------------------------------------------------------------------
# named radial profiles
# ---------------------------------------------------------------------------

def gaussian_profile(center: float, width: float,
                     amplitude: float) -> Callable[[np.ndarray], np.ndarray]:
    """amplitude * exp(-(r-center)^2 / (2 width^2))."""
    if not (width > 0.0 and 2.0 * width * width > 0.0):
        raise ValueError("gaussian width %g must be positive, and 2 width^2 "
                         "must not underflow to 0" % width)

    @np.errstate(over="ignore")     # far from the center exp(-inf) = 0
    def f(r):
        r = np.asarray(r, dtype=float)
        return amplitude * np.exp(-((r - center) ** 2) / (2.0 * width * width))
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
    return f


def zero_profile() -> Callable[[np.ndarray], np.ndarray]:
    def f(r):
        return np.zeros_like(np.asarray(r, dtype=float))
    return f


def powerlaw_profile(decay: float,
                     amplitude: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """amplitude * r^(-decay); the borderline datum for smoothing studies.

    With decay = N/a this profile sits on the integrability edge of L^a, so
    its evolution under the degenerate semigroup realizes the L^a -> L^b
    smoothing rate as an exact power law in t.
    """
    @np.errstate(over="ignore", invalid="ignore")   # non-finite, no warning
    def f(r):
        r = np.asarray(r, dtype=float)
        return amplitude * r ** (-decay)
    return f


def field_from_callable(grid: RadialGrid, fn, dimension: float) -> RadialField:
    """Sample a radial callable on the grid nodes."""
    return RadialField(grid, np.asarray(fn(grid.nodes), dtype=float), dimension)
