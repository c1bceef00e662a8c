"""The GF(2) quotient staircase against brute-force ranks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcoh.gf2 import Basis, Quotient, kernel_basis, rank
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


@st.composite
def column_lists(draw):
    """Columns over a few bits, with zero columns and repeats of a small
    pool mixed in, so that dependent columns are common."""
    width = draw(st.integers(1, 10))
    vec = st.integers(0, (1 << width) - 1)
    pool = draw(st.lists(vec, min_size=1, max_size=5))
    return draw(st.lists(st.one_of(vec, st.sampled_from(pool), st.just(0)),
                         max_size=16))


@settings(max_examples=200, deadline=None)
@given(column_lists())
def test_kernel_basis_leaves_the_staircase_of_the_image(cols):
    kernel, image = kernel_basis(cols)
    assert image.pivots == Basis(cols).pivots
    assert len(kernel) == len(cols) - image.rank
    assert rank(kernel) == len(kernel)
    for combo in kernel:
        v = 0
        for j in bits(combo):
            v ^= cols[j]
        assert v == 0
