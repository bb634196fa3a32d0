"""Every file the CLI writes on the pinned cases is byte-identical to its pin.

The pins in ``output_pins.json`` were recorded with numpy 2.4.6 on x86-64
Linux with glibc 2.36, whose libm ``exp`` the figures and densities call
through ``math.exp``.  Another numpy release may move the Monte Carlo streams
(Philox doubles and normals), and another libm may move any density by an ulp.
``tests/output_pins.py`` lists the cases and rewrites the pins.
"""

import json

import pytest

from output_pins import PINS, cases, hashes, moved

PINNED = json.loads(PINS.read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(cases())


@pytest.mark.parametrize("case", sorted(PINNED))
def test_outputs_match_their_pins(tmp_path, case):
    assert hashes(case, tmp_path) == PINNED[case]


def test_moved_names_each_changed_pin():
    old = {"a": {"x.csv": "0" * 64, "y.csv": "1" * 64}, "b": {"z.svg": "2" * 64}}
    new = {"a": {"x.csv": "0" * 64, "y.csv": "3" * 64}, "c": {"z.svg": "2" * 64}}
    assert moved(old, old) == []
    assert moved(old, new) == [
        f"a y.csv: {'1' * 12} -> {'3' * 12}",
        f"b z.svg: {'2' * 12} -> -",
        f"c z.svg: - -> {'2' * 12}",
    ]
