import csv
import io
import json
import math
import re
import xml.dom.minidom

import numpy as np
import pytest

from tiltsense.output import format_column, format_value, write_csv, write_json, write_sidecar
from tiltsense.svgplot import HEIGHT, TICKS, WIDTH, LineChart, nice_ticks


def test_format_value():
    assert format_value(1.5) == "1.50000000000000000e+00"
    assert format_value(3) == "3"
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
        path, command="sweep", argv=["sweep", "--config", "c.yaml"],
        version="0.1.0", seed=7, config_text="beam: {}", outputs=["sweep.csv"],
    )
    data = json.loads(path.read_text())
    assert data["command"] == "sweep"
    assert data["seed"] == 7
    assert data["config"] == "beam: {}"
    assert data["outputs"] == ["sweep.csv"]


def test_nice_ticks_cover_range():
    ticks = nice_ticks(0.0, 10.0)
    assert ticks[0] >= 0.0 and ticks[-1] <= 10.0
    assert len(ticks) >= 3
    ticks = nice_ticks(-1e-6, 1e-6)
    assert min(ticks) >= -1e-6 and max(ticks) <= 1e-6
    # a bound that is not finite, or a span past the float range, gets the unit ticks
    assert nice_ticks(math.nan, 1.0) == nice_ticks(0.0, math.inf) == nice_ticks(-1e308, 1e308) == [0.0, 1.0]


def test_nice_ticks_end_on_a_span_of_a_few_ulps():
    # panels 4c and 4d of a w0 = 1e-20 m beam span two ulps of xi = 1 mm: the step is
    # below ulp(t), so t += step stalls, and the tick loop once never ended
    lo, hi = 1e-3, 1e-3 + 4.336808689942018e-19
    ticks = nice_ticks(lo, hi)
    assert 1 <= len(ticks) <= TICKS + 1
    assert ticks == sorted(set(ticks))
    assert lo <= ticks[0] and ticks[-1] <= hi


def test_linechart_renders_valid_svg(tmp_path):
    xs = np.linspace(0, 1, 50)
    chart = LineChart("demo", "x", "y", xs, [(np.sin(xs), "sine"), (np.cos(xs), "cosine")])
    path = tmp_path / "demo.svg"
    chart.write(path)
    text = path.read_text()
    xml.dom.minidom.parseString(text)
    assert text.count("<polyline") == 2
    assert "sine" in text and "cosine" in text
    assert "demo" in text


def test_linechart_handles_flat_curve(tmp_path):
    text = LineChart("flat", "x", "y", [0.0, 1.0], [([2.0, 2.0], "")]).to_svg()
    xml.dom.minidom.parseString(text)
    assert "<polyline" in text


def test_linechart_escapes_its_text():
    chart = LineChart("a < b & c", "x <m>", "y & z", [0.0, 1.0], [([1.0, 2.0], "p > q")])
    texts = xml.dom.minidom.parseString(chart.to_svg()).getElementsByTagName("text")
    data = {node.firstChild.data for node in texts}
    assert {"a < b & c", "x <m>", "y & z", "p > q"} <= data


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_linechart_refuses_a_non_finite_value_naming_its_curve(bad):
    x = [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match=rf"^x is not finite at index 1: {bad!r}$"):
        LineChart("t", "x", "y", [0.0, bad, 2.0], [([1.0, 2.0, 3.0], "a")])
    with pytest.raises(ValueError, match=rf"^curve 1 'b' is not finite at index 2: {bad!r}$"):
        LineChart("t", "x", "y", np.array(x), [([1.0, 2.0, 3.0], "a"), (np.array([1.0, 2.0, bad]), "b")])


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


def test_formatted_columns_write_the_bytes_of_float_rows(tmp_path):
    # the figures format each column once and pass the text with formatted=True
    x = np.linspace(-1.0, 1.0, 101).tolist()
    extremes = [5e-324, -0.0, 1.7976931348623157e308, 1e-320] * 25 + [0.1]
    columns = [x, np.sin(x).tolist(), extremes]
    header = ("a", "b", "c")
    rows = list(zip(*columns))
    write_csv(tmp_path / "text.csv", header, list(zip(*map(format_column, columns))), formatted=True)
    assert (tmp_path / "text.csv").read_bytes() == _reference_csv(header, rows)
    assert format_column(extremes) == [format_value(v) for v in extremes]
    assert format_column([]) == []


def _reference_points(chart):
    # per-point polylines, the loop that LineChart.to_svg's one % call per curve replaces
    plot_w = WIDTH - 86 - 24
    plot_h = HEIGHT - 40 - 58
    ys = [v for y, _ in chart.curves for v in y]
    x_lo, x_hi = (min(chart.x), max(chart.x)) if chart.x else (0.0, 1.0)
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
            for x, y in zip(chart.x, curve)
        )
        for curve, _ in chart.curves
    ]


def test_linechart_points_match_the_per_point_reference():
    x = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    y = [1.0, -2.0, 2.0, 0.0, -0.5, 0.25, 1e-3]
    flat = [-0.0, 0.0, 4.0, 5.0, 5.0, 5.0, 5.0]
    from_lists = LineChart("t", "x", "y", x, [(y, "a"), (flat, "")])
    from_arrays = LineChart("t", "x", "y", np.array(x), [(np.array(y), "a"), (np.array(flat), "")])
    text = from_lists.to_svg()
    assert text == from_arrays.to_svg()
    points = re.findall(r'<polyline points="([^"]*)"', text)
    assert points == _reference_points(from_lists)
    assert len(points[0].split()) == len(x)

    flat = LineChart("flat", "x", "y", [2.0, 2.0], [([1.0, 1.0], "")])
    assert re.findall(r'<polyline points="([^"]*)"', flat.to_svg()) == _reference_points(flat)

    x = np.linspace(-3e-3, 3e-3, 601)
    chart = LineChart("t", "x", "y", x, [(np.exp(-x * x / 1e-6), ""), (np.where(x < 0, 0.0, x), "")])
    assert re.findall(r'<polyline points="([^"]*)"', chart.to_svg()) == _reference_points(chart)
