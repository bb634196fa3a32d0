#!/usr/bin/env python3
"""tiltsense benchmark: cold-start CLI workloads, gated, with a traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each tiltsense command runs in a
fresh interpreter (``python3 -m tiltsense`` with ``src`` on PYTHONPATH), one
child process at a time, with ``--threads 1`` and a one-thread BLAS.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it, and ``perfbench/out/``, hold the details.

--trace 0  sets up (one warm-up, then ``SETUP_REPEATS`` timed
           ``validate-config`` runs), then repeats the workload's commands
           for about ``--seconds`` (at least once) and reports end-to-end
           medians over those passes.  Every timed command runs between two
           runs of ``calibrate.py``, and its times are scaled by them to a
           host of fixed speed (``CAL_REF_S``), so that the shared host's
           slow spells cancel.
--trace 1  runs the workload once plainly and once under ``traced.py``,
           checks that both wrote byte-identical CSV tables, and reports
           per-layer figures.  Layers the workload leaves idle are measured
           on a tiny version of the other workloads (the probe), so every
           per-layer metric has a value; ``trace.coverage_frac`` and the
           self-time tables come from the workload alone.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import gate
import tracing
from inputs import WORKLOADS, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# a fixed scale: calibrated times are seconds on a host where calibrate.py
# takes this long (a typical time on a 2-vCPU Xeon VM at 2.1 GHz)
CAL_REF_S = 0.9


@dataclass
class Rep:
    """One pass over a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    # calibrate.py's mean wall and CPU time around this pass
    cal_wall_s: float = 0.0
    cal_cpu_s: float = 0.0
    verdict: gate.Verdict = field(default_factory=gate.Verdict)
    traces: list = field(default_factory=list)


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # numpy's and scipy's BLAS each start a worker pool at import whose threads
    # spin for a while; on two vCPUs they compete with the command's only work
    # thread, and timings swung by ~15% with the neighbours' load
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


class Child(NamedTuple):
    wall_s: float
    cpu_s: float  # user + sys
    peak_rss_mb: float
    code: int
    # launch and reap times on the monotonic clock the traced child also uses
    start_ns: int
    end_ns: int


def run_child(argv, log_path):
    """Run argv to completion, appending its output to log_path."""
    with open(log_path, "ab") as log:
        log.write(("$ " + " ".join(argv) + "\n").encode())
        log.flush()
        start = time.perf_counter_ns()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        (end - start) * 1e-9, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        proc.returncode, start, end,
    )


def run_rep(plan, run_dir, label, traced=False):
    """Run every command of ``plan`` once into run_dir/label and gate the output."""
    out = run_dir / label
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = run_dir / "config.yaml"
    rep = Rep()
    failed_commands = []
    for number, template in enumerate(plan.commands):
        argv = [arg.format(config=config, out=out) for arg in template]
        trace_path = out / f"trace-{number}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace_path)] + argv
        else:
            argv = [sys.executable, "-m", "tiltsense"] + argv
        child = run_child(argv, run_dir / "commands.log")
        rep.wall_s += child.wall_s
        rep.cpu_s += child.cpu_s
        rep.peak_rss_mb = max(rep.peak_rss_mb, child.peak_rss_mb)
        if child.code != 0:
            failed_commands.append(f"{template[0]} exited {child.code}")
        elif traced:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            tracing.add_interpreter_spans(trace, child.start_ns, child.end_ns)
            rep.traces.append(trace)
    rep.verdict = gate.check(plan, out)
    if failed_commands:
        # a command that did not finish fails every item of the pass
        rep.verdict.failed = rep.verdict.attempted
        rep.verdict.problems[:0] = failed_commands
    return rep


def csv_tables(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}


def calibrate(run_dir):
    """One run of the fixed reference work in calibrate.py."""
    child = run_child([sys.executable, str(BENCH / "calibrate.py")], run_dir / "commands.log")
    if child.code != 0:
        raise RuntimeError(f"calibrate.py exited {child.code}; see {run_dir / 'commands.log'}")
    return child


def host_speed(before, after):
    """Calibration wall and CPU seconds around a timed command: the mean of
    the reference runs just before and just after it."""
    return (before.wall_s + after.wall_s) / 2.0, (before.cpu_s + after.cpu_s) / 2.0


def measure_setup(plan, run_dir, repeats):
    """Fresh-interpreter validate-config on the workload's config, each timed
    run between two calibration runs.  The first run is an untimed warm-up
    that also fills the bytecode caches.  Returns raw and calibrated times."""
    config = str(run_dir / "config.yaml")
    argv = [sys.executable, "-m", "tiltsense", "validate-config", "--config", config]
    raw, calibrated, problems = [], [], []
    before = None
    for attempt in range(repeats + 1):
        child = run_child(argv, run_dir / "commands.log")
        if child.code != 0:
            problems.append(f"validate-config exited {child.code}")
        if not repeats:
            break
        after = calibrate(run_dir)
        if before is not None:
            cal_wall, _ = host_speed(before, after)
            raw.append(child.wall_s)
            calibrated.append(child.wall_s * CAL_REF_S / cal_wall)
        before = after
    return raw, calibrated, problems


def environment():
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu_model = next(models, None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = result.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(plan, run_dir, seconds, setup_repeats=SETUP_REPEATS):
    setup_raw, setup_calibrated, setup_problems = measure_setup(plan, run_dir, setup_repeats)
    # calibration runs alternate with the passes, and each pass is scaled by
    # the mean of the two next to it; repeat while another pass and its
    # calibration are expected to end within the time budget, so the number
    # of passes does not flip on small speed changes
    reps = []
    before = calibrate(run_dir)
    calibrations = [before]
    start = time.perf_counter()
    cycle_s = 0.0
    while not reps or time.perf_counter() - start + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        rep = run_rep(plan, run_dir, "out")
        after = calibrate(run_dir)
        calibrations.append(after)
        rep.cal_wall_s, rep.cal_cpu_s = host_speed(before, after)
        reps.append(rep)
        before = after
        cycle_s = time.perf_counter() - cycle_start
    verdict = gate.Verdict(problems=list(setup_problems))
    for rep in reps:
        verdict.add(rep.verdict)
    walls = [r.wall_s * CAL_REF_S / r.cal_wall_s for r in reps]
    cpus = [r.cpu_s * CAL_REF_S / r.cal_cpu_s for r in reps]
    metrics = {
        "setup_s": metric(statistics.median(setup_calibrated), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "items_per_s": metric(
            statistics.median(
                (r.verdict.attempted - r.verdict.failed) / wall for r, wall in zip(reps, walls)
            ),
            "1/s",
        ),
        "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in reps), "MB"),
        "correct_frac": metric((verdict.attempted - verdict.failed) / verdict.attempted, "frac"),
    }
    details = {
        "setup_s": setup_raw,
        "setup_s_calibrated": setup_calibrated,
        "calibration_wall_s": [c.wall_s for c in calibrations],
        "calibration_cpu_s": [c.cpu_s for c in calibrations],
        "reps": [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "cal_wall_s": r.cal_wall_s,
             "cal_cpu_s": r.cal_cpu_s, "wall_s_calibrated": wall, "cpu_s_calibrated": cpu,
             "peak_rss_mb": r.peak_rss_mb, "attempted": r.verdict.attempted,
             "failed": r.verdict.failed}
            for r, wall, cpu in zip(reps, walls, cpus)
        ],
    }
    ok = not setup_problems and verdict.failed == 0
    return ok, verdict, metrics, details


def layer_tables(traces):
    """Self time per layer, and the same with leaf calls folded into their
    caller's layer, in ms, over the given command traces."""
    self_ms = dict.fromkeys(tracing.LAYERS, 0.0)
    folded_ms = dict.fromkeys(tracing.LAYERS, 0.0)
    for trace in traces:
        for layer, ns in tracing.layer_self_ns(trace["spans"]).items():
            self_ms[layer] += ns * 1e-6
        for layer, ns in tracing.layer_self_ns(trace["spans"], fold_leaves=True).items():
            folded_ms[layer] += ns * 1e-6
    return self_ms, folded_ms


def traced_run(plan, run_dir, seed):
    _, _, setup_problems = measure_setup(plan, run_dir, 0)
    plain = run_rep(plan, run_dir, "plain")
    traced = run_rep(plan, run_dir, "traced", traced=True)
    verdict = gate.Verdict(problems=list(setup_problems))
    verdict.add(plain.verdict)
    verdict.add(traced.verdict)
    if csv_tables(run_dir / "plain") != csv_tables(run_dir / "traced"):
        verdict.fail(traced.verdict.attempted, "traced CSV tables differ from the untraced ones")

    probe_traces = []
    for other in WORKLOADS:
        if other == plan.workload:
            continue
        probe_plan = make_plan(other, seed, tiny=True)
        probe_dir = run_dir / f"probe-{other}"
        probe_dir.mkdir()
        (probe_dir / "config.yaml").write_text(probe_plan.config, encoding="utf-8")
        probe = run_rep(probe_plan, probe_dir, "traced", traced=True)
        verdict.add(probe.verdict)
        probe_traces.extend(probe.traces)

    workload_figures = tracing.summarize(traced.traces)
    figures = tracing.summarize(probe_traces)
    figures.update(workload_figures)
    from_probe = sorted(set(figures) - set(workload_figures))
    figures["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {name: metric(value, units.get(name)) for name, value in sorted(figures.items())}
    self_ms, folded_ms = layer_tables(traced.traces)
    details = {
        "plain_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "from_probe": from_probe,
        "self_ms": self_ms,
        "self_ms_leaves_folded": folded_ms,
        "dominant_layer": max(folded_ms, key=folded_ms.get),
    }
    ok = not setup_problems and verdict.failed == 0
    return ok, verdict, metrics, details


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "tiltsense" / "cli.py").is_file():
        print(f"no tiltsense sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    plan = make_plan(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.yaml").write_text(plan.config, encoding="utf-8")

    env = environment()
    print("environment: " + json.dumps(env))
    if args.trace:
        ok, verdict, metrics, details = traced_run(plan, run_dir, args.seed)
    else:
        ok, verdict, metrics, details = end_to_end(plan, run_dir, args.seconds)
    for problem in verdict.problems:
        print("problem: " + problem)
    for name, entry in metrics.items():
        print(f"{name:45s} {entry['value']:.6g} {entry['unit']}")
    for key in ("self_ms", "self_ms_leaves_folded"):
        if key in details:
            print(f"{key}: " + ", ".join(f"{k} {v:.0f}" for k, v in details[key].items()))
    if "dominant_layer" in details:
        print("dominant layer (leaf calls folded into their caller): " + details["dominant_layer"])
    result = {
        "correct": ok,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, details=details, problems=verdict.problems)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
