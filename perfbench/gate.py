"""Correctness gate: checks every item a workload produces and counts failures.

The gate reads only the CSV tables the commands wrote; it never imports the
package under test.

* sweep rows: theta and z echo the generated input exactly; every number is
  finite; the closed form and the finite-difference oracle agree to a
  relative gap below 1e-6, or 1e-4 for the joint scheme, with the gap taken
  against max(analytic, 1e-6 * qfi) as in tests/test_oracle.py; and
  ratio_to_qfi <= 1 (1e-12 slack for rounding).
* montecarlo blocks: at most 5% of trials off the search-interval interior
  (the CLI's own check), and a variance ratio inside the two-sided
  chi-square interval for the used trial count at false-alarm rate
  ``MC_ALPHA`` per block.  A failing block fails all of its trials.
* figure tables: every row matches the stored reference within
  ``FIGURE_RTOL`` relative, plus an absolute floor of ``FIGURE_ATOL_FRAC``
  times the largest magnitude in that column.
"""

from __future__ import annotations

import csv
import gzip
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

ORACLE_RTOL = 1e-6
JOINT_ORACLE_RTOL = 1e-4
QFI_SLACK = 1e-12
MC_NON_INTERIOR = 0.05
MC_ALPHA = 1e-5
FIGURE_RTOL = 1e-9
FIGURE_ATOL_FRAC = 1e-12

REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count, problem):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def chi2_ratio_interval(dof, alpha):
    """Two-sided interval for s^2 / sigma^2 = chi2_dof / dof at false-alarm
    rate alpha, by the Wilson-Hilferty cube-root normal approximation."""
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    c = 2.0 / (9.0 * dof)
    return (1.0 - c - z * math.sqrt(c)) ** 3, (1.0 - c + z * math.sqrt(c)) ** 3


def check_sweep(out_dir, expect):
    verdict = Verdict(attempted=len(expect))
    try:
        rows = _read(Path(out_dir) / "sweep.csv")
    except OSError as exc:
        verdict.fail(len(expect), f"sweep.csv unreadable: {exc}")
        return verdict
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    if len(body) != len(expect):
        verdict.fail(max(0, len(expect) - len(body)), f"{len(body)} rows, expected {len(expect)}")
    col = {name: i for i, name in enumerate(header)}
    for row, (scheme, theta, z) in zip(body, expect):
        problem = _sweep_row_problem(row, col, scheme, theta, z)
        if problem:
            verdict.fail(1, f"row {row[col['run']]}/{row[col['index']]}: {problem}")
    return verdict


def _sweep_row_problem(row, col, scheme, theta, z):
    try:
        values = {
            name: float(row[col[name]])
            for name in (
                "theta_rad", "analytic_fisher", "oracle_fisher", "qfi", "ratio_to_qfi",
                "cr_delta_theta_rad",
            )
        }
        got_z = float(row[col["z_m"]]) if row[col["z_m"]] else None
    except (KeyError, IndexError, ValueError) as exc:
        return f"malformed row: {exc}"
    if row[col["scheme"]] != scheme or values["theta_rad"] != theta or got_z != z:
        got = (row[col["scheme"]], values["theta_rad"], got_z)
        return f"echoes {got!r}, expected {(scheme, theta, z)!r}"
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        return f"non-finite {', '.join(bad)}"
    analytic, oracle, qfi = values["analytic_fisher"], values["oracle_fisher"], values["qfi"]
    gap = abs(analytic - oracle) / max(analytic, 1e-6 * qfi, 1e-300)
    limit = JOINT_ORACLE_RTOL if scheme == "joint" else ORACLE_RTOL
    if not gap < limit:
        return f"closed form vs oracle gap {gap:.3e} >= {limit:g}"
    if values["ratio_to_qfi"] > 1.0 + QFI_SLACK:
        return f"ratio_to_qfi {values['ratio_to_qfi']!r} > 1"
    return None


def check_montecarlo(out_dir, trials, schemes):
    verdict = Verdict(attempted=trials * len(schemes))
    try:
        rows = _read(Path(out_dir) / "montecarlo.csv")
    except OSError as exc:
        verdict.fail(verdict.attempted, f"montecarlo.csv unreadable: {exc}")
        return verdict
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    col = {name: i for i, name in enumerate(header)}
    if len(body) != len(schemes):
        missing = max(0, len(schemes) - len(body))
        verdict.fail(trials * missing, f"{len(body)} blocks, expected {len(schemes)}")
    for row, scheme in zip(body, schemes):
        problem = _montecarlo_problem(row, col, scheme, trials)
        if problem:
            verdict.fail(trials, f"{scheme}: {problem}")
    return verdict


def _montecarlo_problem(row, col, scheme, trials):
    try:
        got_trials = int(row[col["trials"]])
        used = int(row[col["used_trials"]])
        non_interior = int(row[col["non_interior"]])
        ratio = float(row[col["ratio"]])
    except (KeyError, IndexError, ValueError) as exc:
        return f"malformed row: {exc}"
    if row[col["scheme"]] != scheme or got_trials != trials or used + non_interior != trials:
        return (
            f"block reports {row[col['scheme']]} with {got_trials} trials "
            f"({used} used + {non_interior})"
        )
    if non_interior > MC_NON_INTERIOR * trials:
        return f"{non_interior}/{trials} trials off the interior"
    if used < 2:
        return "fewer than two usable trials"
    lo, hi = chi2_ratio_interval(used - 1, MC_ALPHA)
    if not lo <= ratio <= hi:
        return f"variance ratio {ratio:.4f} outside [{lo:.4f}, {hi:.4f}] (alpha {MC_ALPHA:g})"
    return None


def reference_rows(name):
    with gzip.open(REFERENCE / f"{name}.gz", "rt", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_figures(out_dir, tables):
    verdict = Verdict(attempted=sum(tables.values()))
    for name, count in tables.items():
        try:
            rows = _read(Path(out_dir) / name)
        except OSError as exc:
            verdict.fail(count, f"{name} unreadable: {exc}")
            continue
        verdict.add(_compare_table(name, rows, reference_rows(name), count))
    return verdict


def _compare_table(name, rows, reference, count):
    verdict = Verdict()
    if rows == reference:
        return verdict
    if rows[:1] != reference[:1] or len(rows) != len(reference):
        verdict.fail(count, f"{name}: header or row count differs from the reference")
        return verdict
    ref = [[float(v) for v in r] for r in reference[1:]]
    floors = [FIGURE_ATOL_FRAC * max(abs(r[j]) for r in ref) for j in range(len(ref[0]))]
    for index, (row, expected) in enumerate(zip(rows[1:], ref)):
        try:
            got = [float(v) for v in row]
        except ValueError:
            got = []
        if len(got) != len(expected) or any(
            not abs(g - e) <= FIGURE_RTOL * abs(e) + floor
            for g, e, floor in zip(got, expected, floors)
        ):
            verdict.fail(1, f"{name} row {index}: {row} vs reference {reference[index + 1]}")
    return verdict


CHECKS = {
    "sweep-fisher": check_sweep,
    "montecarlo-mle": check_montecarlo,
    "coldstart-figures": check_figures,
}


def check(plan, out_dir):
    return CHECKS[plan.workload](out_dir, *plan.expect)
