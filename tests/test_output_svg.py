import csv
import io
import json
import math
import re
import xml.dom.minidom

import numpy as np

from tiltsense.output import format_value, write_csv, write_json, write_sidecar
from tiltsense.svgplot import HEIGHT, WIDTH, LineChart, nice_ticks


def test_format_value():
    assert format_value(1.5) == "1.50000000000000000e+00"
    assert format_value(3) == "3"
    assert format_value(True) == "true"
    assert format_value("a; b") == "a; b"


def test_write_csv_bytes_are_stable(tmp_path):
    header = ("a", "b")
    rows = [(1, 0.1), (2, 0.2)]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(p1, header, rows)
    write_csv(p2, header, rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.splitlines()[0] == "a,b"
    assert "1.00000000000000006e-01" in text  # full precision, scientific
    assert text.endswith("\n")


def test_write_json_records(tmp_path):
    path = tmp_path / "rows.json"
    write_json(path, ("x", "y"), [(1, 2.0)])
    data = json.loads(path.read_text())
    assert data == [{"x": 1, "y": 2.0}]


def test_write_json_strict_on_nonfinite(tmp_path):
    # infinite Cramer-Rao bounds (zero Fisher) must stay valid strict JSON
    path = tmp_path / "rows.json"
    write_json(path, ("a", "b"), [(float("inf"), float("nan"))])
    data = json.loads(path.read_text())
    assert data == [{"a": None, "b": None}]


def test_sidecar_contents(tmp_path):
    path = tmp_path / "run.meta.json"
    write_sidecar(
        path, command="fisher", argv=["fisher", "--config", "c.yaml"],
        version="0.1.0", seed=7, config_text="beam: {}", outputs=["fisher.csv"],
    )
    data = json.loads(path.read_text())
    assert data["command"] == "fisher"
    assert data["seed"] == 7
    assert data["config"] == "beam: {}"
    assert data["outputs"] == ["fisher.csv"]


def test_nice_ticks_cover_range():
    ticks = nice_ticks(0.0, 10.0)
    assert ticks[0] >= 0.0 and ticks[-1] <= 10.0
    assert len(ticks) >= 3
    ticks = nice_ticks(-1e-6, 1e-6)
    assert min(ticks) >= -1e-6 and max(ticks) <= 1e-6


def test_linechart_renders_valid_svg(tmp_path):
    chart = LineChart("demo", "x", "y")
    xs = np.linspace(0, 1, 50)
    chart.add(xs, np.sin(xs), label="sine")
    chart.add(xs, np.cos(xs), label="cosine")
    path = tmp_path / "demo.svg"
    chart.write(path)
    text = path.read_text()
    xml.dom.minidom.parseString(text)
    assert text.count("<polyline") == 2
    assert "sine" in text and "cosine" in text
    assert "demo" in text


def test_linechart_handles_flat_curve(tmp_path):
    chart = LineChart("flat", "x", "y")
    chart.add([0.0, 1.0], [2.0, 2.0])
    text = chart.to_svg()
    xml.dom.minidom.parseString(text)
    assert "<polyline" in text


def _reference_csv(header, rows):
    # the row-by-row writer that write_csv's all-float fast path must match
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buffer.getvalue().encode("utf-8")


def test_write_csv_matches_the_row_by_row_writer(tmp_path):
    header = ("a", "b", "c")
    rows = [
        (1, True, 'say "x, y"'),
        (0.1, np.float64(0.2), -0.0),
        [math.nan, math.inf, -math.inf],
        (np.float64(1e-320), 5e-324, 1.7976931348623157e308),
        (3, 2.5, False),
        (np.int64(7), np.nan, "plain"),
        (2.0, 3.0, 4.0),
        (),
        (1.0,),
    ]
    path = tmp_path / "mixed.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == _reference_csv(header, rows)

    x = np.linspace(-1.0, 1.0, 101)
    floats = list(zip(x.tolist(), np.sin(x).tolist(), (x / 3.0).tolist()))
    write_csv(path, header, floats)
    assert path.read_bytes() == _reference_csv(header, floats)


def _reference_points(chart):
    # per-point polylines, the loop that LineChart.to_svg's array code replaces
    plot_w = WIDTH - 86 - 24
    plot_h = HEIGHT - 40 - 58
    xs = [float(v) for c in chart.curves for v in c.x if math.isfinite(v)]
    ys = [float(v) for c in chart.curves for v in c.y if math.isfinite(v)]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + (abs(x_lo) or 1.0)
    if y_hi == y_lo:
        pad = abs(y_lo) or 1.0
        y_lo, y_hi = y_lo - 0.05 * pad, y_hi + 0.05 * pad
    else:
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    return [
        " ".join(
            f"{86 + (float(x) - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
            f"{40 + plot_h - (float(y) - y_lo) / (y_hi - y_lo) * plot_h:.2f}"
            for x, y in zip(c.x, c.y)
            if math.isfinite(x) and math.isfinite(y)
        )
        for c in chart.curves
    ]


def test_linechart_points_match_the_per_point_reference():
    x = [0.0, 0.5, math.nan, 1.5, 2.0, math.inf, 3.0]
    y = [1.0, -math.inf, 2.0, math.nan, -0.5, 0.25, 1e-3]
    from_lists = LineChart("t", "x", "y").add(x, y).add(x[:4], [-0.0, 0.0, 4.0, 5.0])
    from_arrays = LineChart("t", "x", "y").add(np.array(x), np.array(y))
    from_arrays.add(np.array(x[:4]), np.array([-0.0, 0.0, 4.0, 5.0]))
    text = from_lists.to_svg()
    assert text == from_arrays.to_svg()
    points = re.findall(r'<polyline points="([^"]*)"', text)
    assert points == _reference_points(from_lists)
    assert len(points[0].split()) == 3

    flat = LineChart("flat", "x", "y").add([2.0, 2.0], [math.nan, math.nan])
    assert re.findall(r'<polyline points="([^"]*)"', flat.to_svg()) == [""]

    x = np.linspace(-3e-3, 3e-3, 601)
    chart = LineChart("t", "x", "y").add(x, np.exp(-x * x / 1e-6)).add(x, np.where(x < 0, np.nan, x))
    assert re.findall(r'<polyline points="([^"]*)"', chart.to_svg()) == _reference_points(chart)
