#!/usr/bin/env python3
"""Regenerate the stored figure tables the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs ``figure3`` and ``figure4`` on the coldstart-figures config and writes
each CSV table gzipped to perfbench/reference/.  Run it only when a change is
meant to alter the figure data, and say so in that change.
"""

import gzip
import shutil
import sys

from inputs import FIGURE_TABLES, make_plan
from run import WORK, run_child
from gate import REFERENCE


def main():
    plan = make_plan("coldstart-figures", 0)
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.yaml"
    config.write_text(plan.config, encoding="utf-8")
    for template in plan.commands[1:]:
        argv = [arg.format(config=config, out=work) for arg in template]
        child = run_child([sys.executable, "-m", "tiltsense"] + argv, work / "commands.log")
        if child.code != 0:
            print(f"{argv[0]} exited {child.code}; see {work / 'commands.log'}", file=sys.stderr)
            return 1
    REFERENCE.mkdir(exist_ok=True)
    for name in FIGURE_TABLES:
        data = (work / name).read_bytes()
        # mtime=0 keeps the archive bytes reproducible
        with open(REFERENCE / f"{name}.gz", "wb") as raw, gzip.GzipFile(
            filename=name, mode="wb", fileobj=raw, mtime=0, compresslevel=9
        ) as fh:
            fh.write(data)
    print(f"wrote {len(FIGURE_TABLES)} tables to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
