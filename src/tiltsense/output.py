"""Schema-stable CSV/JSON emission and reproducibility sidecars, into an existing directory.

CSV is the normative output: fixed header, fixed column order, full-precision
scientific notation, newline-terminated rows.  Reruns with the same inputs
produce byte-identical files.
"""

from __future__ import annotations

import math


def format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17e}"
    return str(value)


def format_column(values) -> list:
    """The CSV field of each float of ``values``: the text ``format_value`` gives it.

    One ``%`` call formats the whole column, which is faster than one call a value.
    """
    return ("%.17e\n" * len(values) % tuple(values)).split("\n")[:-1]


def write_csv(path, header, rows, *, formatted=False) -> None:
    """Write the header, then one line per row.

    A row holds values, each written as ``format_value`` gives it and quoted as
    ``csv.writer`` quotes it.  With ``formatted``, each row holds its fields'
    text already, such as ``format_column`` gives for finite floats, which
    needs no quoting: the rows are only joined, with no test of a field's
    type, and the table is written in one ``write`` call.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if formatted:
            fh.write("\n".join([",".join(header), *map(",".join, rows), ""]))
            return
        import csv  # here, so that neither validate-config nor the figures load it

        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)


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
