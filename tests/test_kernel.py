"""The shared cube-weight and coboundary kernel, its fault hooks, and the
validation of windows where they enter."""

import re
from pathlib import Path

import pytest

from latcoh import (BasisCapError, LatcohError, Region, faults,
                    spinc_representatives, stabilize)
from latcoh.engine import _sublevel_points
from latcoh.lattice import cofaces, offset_cube_weight

from conftest import chain, e8

SRC = Path(__file__).resolve().parent.parent / "src" / "latcoh"


def test_each_fault_has_exactly_one_site():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += re.findall(r'faults\.is_active\(\s*"([^"]+)"\s*\)',
                            path.read_text())
    assert sorted(sites) == sorted(faults.FAULTS)


def test_offset_cube_weight_holes_and_maximum():
    points = {(0, 0): 0, (1, 0): 3, (0, 1): 1, (1, 1): 2}
    memo = {}
    assert offset_cube_weight(points.get, memo, ((0, 0), 0b11)) == 3
    assert offset_cube_weight(points.get, memo, ((0, 0), 0b10)) == 1
    # A corner missing from the point map makes the cube inadmissible.
    assert offset_cube_weight(points.get, memo, ((1, 0), 0b01)) is None
    assert offset_cube_weight(points.get, memo, ((0, 1), 0b11)) is None


def test_cofaces_report_missing_cofaces_and_gaps():
    cells = {((0,), 0): 0, ((0,), 1): 2}
    # In one dimension the cube (x, {}) has cofaces (x, {0}), (x - 1, {0}).
    assert list(cofaces(cells.get, (0,), 0, 1)) == [((0,), 1, 2), ((-1,), 1, None)]


def test_region_memo_holds_fault_free_values(rp3):
    reg = Region(rp3, (0,), (-2,), (2,), 2)
    clean = reg.cube_weight(((0,), 1))
    with faults.injected("cube-weight-parity-offset"):
        assert reg.cube_weight(((0,), 1)) == clean + 1
    assert reg.cube_weight(((0,), 1)) == clean


@pytest.mark.parametrize("fault", ["cube-weight-parity-offset",
                                   "delta-coface-shift-sign"])
def test_compute_path_sees_lattice_faults(fault):
    g = chain(-2, -2)
    classes = spinc_representatives(g)
    clean = [stabilize(g, c, 3).to_json() for c in classes]
    with faults.injected(fault):
        try:
            mutated = [stabilize(g, c, 3).to_json() for c in classes]
        except (LatcohError, ValueError):
            return
    assert mutated != clean


def test_region_rejects_wrong_lengths():
    g = chain(-2, -2)
    with pytest.raises(ValueError, match="one entry per vertex"):
        Region(g, (-2, -2), (-3,), (3,), 2)
    with pytest.raises(ValueError, match="one entry per vertex"):
        Region(g, (-2,), (-3, -3), (3, 3), 2)


def test_region_rejects_non_characteristic_base():
    with pytest.raises(LatcohError, match="not characteristic"):
        Region(chain(-2, -2), (1, 1), (-3, -3), (3, 3), 2)


def test_sublevel_cap_is_a_basis_cap_error():
    g = e8()
    base = spinc_representatives(g)[0].base
    with pytest.raises(BasisCapError, match="exceeded 5 points"):
        _sublevel_points(g, base, 40, limit=5)
