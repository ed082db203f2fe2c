"""Untimed output checks for one op.

An op passes when its exit code is 0, every CSV its command writes has the
``# params:`` line and the command's header row, every data cell is a
number (not NaN) or empty, and the quality values in the comment lines sit
inside the acceptance tolerances:

* semigroup-check: fitted smoothing slope within 10% of theory
* capacity-fit: time and space slopes within 5% of theory, R^2 >= 0.99,
  nonexistence predicted and both fitted slopes negative
* mild-solve, local-solve: ``converged: True``
* blowup-scan: a finite bracket with lo < hi
* transform-check: a recorded run status
"""

import csv
import math
import os
import re
from typing import List

from fujitalab.blowup import SCAN_CSV_COLUMNS
from fujitalab.capacity import FIT_CSV_COLUMNS
from fujitalab.exponents import REPORT_CSV_COLUMNS
from fujitalab.mild import CONVERGENCE_CSV_COLUMNS, TRAJECTORY_CSV_COLUMNS

OUTPUTS = {
    "exponents": {"exponents.csv": REPORT_CSV_COLUMNS},
    "transform-check": {"transform_check.csv": ["t", "residual_sup"]},
    "semigroup-check": {"semigroup_check.csv": ["t", "norm"]},
    "mild-solve": {"mild_trajectory.csv": TRAJECTORY_CSV_COLUMNS,
                   "mild_convergence.csv": CONVERGENCE_CSV_COLUMNS},
    "blowup-scan": {"blowup_scan.csv": SCAN_CSV_COLUMNS},
    "capacity-fit": {"capacity_fit.csv": FIT_CSV_COLUMNS},
    "local-solve": {"local_trajectory.csv": TRAJECTORY_CSV_COLUMNS},
}
# columns holding words rather than numbers
TEXT_COLUMNS = {"outcome", "regime"}

_NUM = r"([-+0-9.eEinfa]+)"


def _read(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    return lines, comments, list(csv.reader(body))


def _value(comments: List[str], pattern: str) -> float:
    for line in comments:
        m = re.search(pattern, line)
        if m:
            return float(m.group(1))
    raise ValueError("no comment matches %r" % pattern)


def _quality(command: str, comments: List[str]) -> List[str]:
    bad = []
    text = "\n".join(comments)
    if command == "semigroup-check":
        err = _value(comments, r"rel_err=" + _NUM)
        if not err <= 0.10:
            bad.append("smoothing slope off theory by %.3g" % err)
    elif command == "capacity-fit":
        for kind in ("time", "space"):
            fitted = _value(comments, kind + r" fit: fitted=" + _NUM)
            theory = _value(comments, kind + r" fit: .*theory=" + _NUM)
            r2 = _value(comments, kind + r" fit: .*r_squared=" + _NUM)
            if not abs(fitted - theory) <= 0.05 * abs(theory):
                bad.append("%s slope %g vs theory %g" % (kind, fitted, theory))
            if not r2 >= 0.99:
                bad.append("%s fit R^2 %g" % (kind, r2))
        if "nonexistence predicted: True; fitted slopes negative: True" \
                not in text:
            bad.append("capacity verdict line missing or negative")
    elif command in ("mild-solve", "local-solve"):
        if not re.search(r"^converged: True", text, re.M):
            bad.append("fixed point not converged")
    elif command == "blowup-scan":
        m = re.search(r"bracket: \[" + _NUM + ", " + _NUM + r"\]", text)
        if m is None:
            bad.append("no bracket line")
        else:
            lo, hi = float(m.group(1)), float(m.group(2))
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                bad.append("bracket [%g, %g] not finite" % (lo, hi))
    elif command == "transform-check":
        if "run status: " not in text:
            bad.append("no run status line")
    return bad


def check_op(command: str, out_dir: str) -> List[str]:
    """Problems found in one successful op's artifacts (empty when fine)."""
    bad = []
    for name, header in OUTPUTS[command].items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            bad.append("missing %s" % name)
            continue
        lines, comments, rows = _read(path)
        if not lines[0].startswith("# params: command=%s " % command):
            bad.append("%s: first line is not the # params: record" % name)
        if not rows or rows[0] != list(header):
            bad.append("%s: header row differs from %s" % (name, header))
            continue
        if len(rows) < 2:
            bad.append("%s: no data rows" % name)
        numeric = [k for k, col in enumerate(header) if col not in TEXT_COLUMNS]
        for row in rows[1:]:
            if len(row) != len(header):
                bad.append("%s: ragged row %r" % (name, row))
                break
            try:
                ok = not any(math.isnan(float(row[k])) for k in numeric
                             if row[k])
            except ValueError:
                ok = False
            if not ok:
                bad.append("%s: non-numeric row %r" % (name, row))
                break
        try:
            bad.extend("%s: %s" % (name, b) for b in _quality(command, comments))
        except ValueError as exc:
            bad.append("%s: %s" % (name, exc))
    return bad


def same_bytes(dir_a: str, dir_b: str) -> bool:
    """True when both directories hold the same files with equal bytes."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True
