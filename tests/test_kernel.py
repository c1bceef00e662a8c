"""The shared cube-weight and coboundary kernel, its fault hooks, and the
validation of windows where they enter."""

import random
import re
from pathlib import Path

import pytest

from latcoh import (BasisCapError, LatcohError, Region, faults,
                    spinc_representatives, stabilize)
from latcoh.lattice import (BASIS_CAP, cofaces, pack, split_key,
                            sublevel_points)
from latcoh.suites import random_graph_with_classes

from conftest import (chain, cube_key, e8, grown, reference_cube_weight,
                      vertex)

SRC = Path(__file__).resolve().parent.parent / "src" / "latcoh"


def test_each_fault_has_exactly_one_site():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += re.findall(r'faults\.is_active\(\s*"([^"]+)"\s*\)',
                            path.read_text())
    assert sorted(sites) == sorted(faults.FAULTS)


def test_two_face_reference_holes_and_maximum():
    # The reference the mask-scan tests of cell banks read cube weights by.
    points = {(0, 0): 0, (1, 0): 3, (0, 1): 1, (1, 1): 2}
    memo = {}

    def weight(x, s):
        return reference_cube_weight(points.get, memo, (x, s))

    assert weight((0, 0), 0b11) == 3
    assert weight((0, 0), 0b10) == 1
    # A corner missing from the point map makes the cube inadmissible.
    assert weight((1, 0), 0b01) is None
    assert weight((0, 1), 0b11) is None


def test_cofaces_report_missing_cofaces_and_gaps():
    cells = {cube_key((0,), 0): 0, cube_key((0,), 1): 2}
    # In one dimension the cube (x, {}) has cofaces (x, {0}), (x - 1, {0}).
    got = [(split_key(key, 1), gap)
           for key, gap in cofaces(cells.get, cube_key((0,), 0), 1)]
    assert got == [(((0,), 1), 2), (((-1,), 1), None)]


def test_region_memo_holds_fault_free_values(rp3):
    reg = Region(rp3, (0,), (-2,), (2,), 2)
    edge = cube_key((0,), 1)
    clean = reg.cube_weights(edge)
    with faults.injected("cube-weight-parity-offset"):
        assert reg.cube_weights(edge) == clean + 1
    assert reg.cube_weights(edge) == clean


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
        sublevel_points(g, base, 40, limit=5)


@pytest.mark.parametrize("seed", range(4))
def test_region_membership_matches_brute_force(seed):
    rng = random.Random(seed)
    other_classes = 0
    for _ in range(3):
        g = random_graph_with_classes(rng, 3, det_cap=12)
        bases = [c.base for c in spinc_representatives(g)]
        n = g.n
        for base in bases:
            box = Region(g, base, (-1,) * n, (1,) * n, 2)
            for x in grown(box, 2).iter_offsets():
                k = box.point(x)
                want = x if box.contains_offset(x) else None
                assert box.offset_of(k) == want
                assert box.contains(k) is (want is not None)
                assert box.frame(k) == (None if want is None
                                        else (x, box.cube_weights))
                # One unit off K's parity at a vertex is not characteristic.
                assert box.offset_of((k[0] + 1,) + k[1:]) is None
            for other in bases:
                if other == base:
                    continue
                other_classes += 1
                alien = grown(Region(g, other, box.xmin, box.xmax, 2), 2)
                assert not any(box.contains(alien.point(x))
                               for x in alien.iter_offsets())
    assert other_classes


def test_region_over_the_basis_cap_raises_on_frame():
    reg = Region(vertex(-2), (0,), (0,), (BASIS_CAP,), 1)
    assert reg.contains_offset(pack((7,)))
    with pytest.raises(BasisCapError, match="exceeds the basis cap"):
        reg.frame((0,))
