"""The GF(2) quotient staircase against brute-force ranks."""

import random

import pytest

from latcoh.gf2 import Basis, Quotient, rank
from latcoh.lattice import bits


def test_quotient_reduces_against_the_subspace_after_a_representative():
    # 0b1001 = 0b1100 + 0b0101: xoring the representative 0b1100 into
    # 0b1001 leaves the subspace vector 0b0101 on top.
    q = Quotient(Basis([0b0101]))
    assert q.add(0b1100)
    assert not q.add(0b1001)
    assert q.dim == 1
    assert q.coords(0b1001) == 1


@pytest.mark.parametrize("seed", range(24))
def test_quotient_matches_brute_force(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 9)
    sub = [rng.getrandbits(width) for _ in range(rng.randint(0, 5))]
    added = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
    q = Quotient(Basis(sub))
    reps = [v for v in added if q.add(v)]
    assert q.dim == len(reps) == rank(sub + added) - rank(sub)
    span = Basis(sub)
    for _ in range(16):
        v = 0
        for w in sub + added:
            if rng.random() < 0.5:
                v ^= w
        c = q.coords(v)
        # The coordinates pick representatives that differ from v by a
        # vector of the subspace.
        for i in bits(c):
            v ^= reps[i]
        assert span.contains(v)
    for i, r in enumerate(reps):
        assert q.coords(r) == 1 << i
    outside = rng.getrandbits(width)
    if rank(sub + added + [outside]) > rank(sub + added):
        with pytest.raises(ValueError):
            q.coords(outside)
