"""Schema-stable CSV/JSON emission and reproducibility sidecars, into an existing directory.

CSV is the normative output: fixed header, fixed column order, full-precision
scientific notation, newline-terminated rows.  Reruns with the same inputs
produce byte-identical files.
"""

from __future__ import annotations

import math
from itertools import repeat


def format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17e}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write the header, then one line per row.

    A row of floats only is formatted with one prebuilt ``%.17e`` format, which
    gives the bytes that ``format_value`` and ``csv.writer`` give it: no such
    field needs quoting.  Any other row goes through both.
    """
    import csv  # here, so that validate-config does not load it

    formats = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if all(map(isinstance, row, repeat(float))):
                n = len(row)
                if n not in formats:
                    formats[n] = ",".join(("%.17e",) * n) + "\n"
                fh.write(formats[n] % tuple(row))
            else:
                writer.writerow([format_value(v) for v in row])


def _json_safe(value):
    # strict JSON has no Infinity/NaN literals
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(path, header, rows) -> None:
    import json

    records = [dict(zip(header, (_json_safe(v) for v in row))) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")


def write_sidecar(path, *, command, argv, version, seed=None, config_text=None, outputs=()):
    """Everything needed to reproduce the run byte-for-byte."""
    payload = {
        "command": command,
        "argv": list(argv),
        "package_version": version,
        "seed": seed,
        "outputs": list(outputs),
        "config": config_text,
    }
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
