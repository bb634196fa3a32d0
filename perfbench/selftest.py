#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
1. every workload, plain and traced, emits exactly the metrics listed in
   BENCHMARK.json, each with its listed unit;
2. the counting model subclasses return values identical to the plain models;
3. a corrupted sweep row, Monte Carlo block and figure row fed to the
   correctness gate are counted as failed.
Exits 0 when all pass.
"""

import csv
import json
import shutil
import sys

import gate
import run
import tracing
from inputs import WORKLOADS, make_plan

SEED = 12345
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def expected_units(section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def metrics_match_benchmark_json(work):
    outputs = {}
    for workload in WORKLOADS:
        plan = make_plan(workload, SEED, tiny=True)
        for trace in (0, 1):
            run_dir = work / f"{workload}-trace{trace}"
            run_dir.mkdir(parents=True)
            (run_dir / "config.yaml").write_text(plan.config, encoding="utf-8")
            if trace:
                ok, verdict, metrics, _ = run.traced_run(plan, run_dir, SEED)
                want = expected_units("per_layer")
            else:
                ok, verdict, metrics, _ = run.end_to_end(plan, run_dir, 0.1, setup_repeats=1)
                want = expected_units("end_to_end")
            got = {name: entry["unit"] for name, entry in metrics.items()}
            label = f"{workload} trace {trace}"
            check(ok and verdict.failed == 0, f"{label}: gate passes ({verdict.problems[:3]})")
            check(got == want, f"{label}: metric names and units match BENCHMARK.json"
                  + ("" if got == want else f" (missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, "
                     f"units {[n for n in want if n in got and got[n] != want[n]]})"))
            numeric = all(isinstance(e["value"], (int, float)) for e in metrics.values())
            check(numeric, f"{label}: every value is a number")
        outputs[workload] = work / f"{workload}-trace0" / "out"
    return outputs


def counting_models_match_plain():
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np
    from tiltsense import BeamParams, PolarizationState, schemes

    tracer = tracing.Tracer()
    models = tracing.counting_models(tracer)
    beam = BeamParams.from_wavelength(633e-9, 1e-3, 1e-3)
    pol = PolarizationState.from_bloch(1.2, 0.4)
    z = 2.0 * beam.rayleigh_range
    args = {
        schemes.PositionModel: (beam, z),
        schemes.QuadrantModel: (beam, z, 2e-4),
        schemes.PolarizationModel: (beam, pol),
        schemes.ConditionedPolarizationModel: (beam, z, 1.3e-3),
        schemes.PositionPolarizationModel: (beam, pol, z),
    }
    xs = (0.7e-3, np.linspace(-4e-3, 6e-3, 257))
    with tracer.span("selftest"):
        for plain_cls, counting_cls in models.items():
            plain, counted = plain_cls(*args[plain_cls]), counting_cls(*args[plain_cls])
            same = True
            for name in tracing.DENSITY_METHODS:
                if hasattr(plain, name) != hasattr(counted, name):
                    same = False
                if not hasattr(plain, name):
                    continue
                for theta in (-2e-6, 0.0, 1.5e-6):
                    calls = [()] if name == "probabilities" else [(x,) for x in xs]
                    for extra in calls:
                        a = np.asarray(getattr(plain, name)(theta, *extra))
                        b = np.asarray(getattr(counted, name)(theta, *extra))
                        same = same and a.dtype == b.dtype and np.array_equal(a, b)
            check(same, f"{counting_cls.__name__} returns the plain model's values")
    check(tracer.leaves["schemes"][0] > 0, "counting models recorded their calls")


def corrupt(src, dst, name, edit):
    with open(src / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    dst.mkdir(parents=True, exist_ok=True)
    with open(dst / name, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def gate_counts_corruption(outputs, work):
    plan = make_plan("sweep-fisher", SEED, tiny=True)
    header = ("run", "index", "scheme", "theta_rad", "z_m", "analytic_fisher", "oracle_fisher")
    col = {name: i for i, name in enumerate(header)}

    def bad_oracle(rows):
        row = rows[1]
        row[col["oracle_fisher"]] = repr(1.01 * float(row[col["analytic_fisher"]]))

    corrupt(outputs["sweep-fisher"], work / "bad-sweep", "sweep.csv", bad_oracle)
    verdict = gate.check(plan, work / "bad-sweep")
    rows = len(plan.expect[0])
    check(verdict.failed == 1 and verdict.attempted == rows,
          f"a sweep row with a 1% oracle gap counts as 1 failed of {rows} ({verdict.failed})")

    plan = make_plan("montecarlo-mle", SEED, tiny=True)

    def bad_ratio(rows):
        rows[2][10] = "5.0e+01"  # quadrant block's variance ratio

    corrupt(outputs["montecarlo-mle"], work / "bad-mc", "montecarlo.csv", bad_ratio)
    verdict = gate.check(plan, work / "bad-mc")
    trials = plan.expect[0]
    check(verdict.failed == trials,
          f"a Monte Carlo block with ratio 50 fails its {trials} trials ({verdict.failed})")

    plan = make_plan("coldstart-figures", SEED, tiny=True)
    bad = work / "bad-figures"
    shutil.copytree(outputs["coldstart-figures"], bad)

    def bad_value(rows):
        rows[1000][1] = repr(float(rows[1000][1]) * (1 + 1e-6))  # near the beam center

    corrupt(outputs["coldstart-figures"], bad, "figure4c.csv", bad_value)
    verdict = gate.check(plan, bad)
    check(verdict.failed == 1,
          f"a figure row off by 1e-6 relative counts as 1 failed ({verdict.failed})")


def main():
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    counting_models_match_plain()
    outputs = metrics_match_benchmark_json(work)
    gate_counts_corruption(outputs, work)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
