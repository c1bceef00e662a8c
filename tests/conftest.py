import signal
from dataclasses import replace

import pytest

from latcoh import faults, make_graph
from latcoh.lattice import coface_steps, pack

# Seconds one test may run before it fails: a loop that stops making
# progress fails its own test instead of stalling the suite.  The slowest
# test takes a few seconds.
TEST_TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("test ran longer than %d s" % TEST_TIME_LIMIT)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_leftover_faults():
    from latcoh import faults
    faults.clear()
    yield
    faults.clear()


def vertex(weight, name="a"):
    return make_graph(([(name, weight)], []))


def chain(*weights):
    vspec = [("v%d" % i, w) for i, w in enumerate(weights)]
    espec = [("v%d" % i, "v%d" % (i + 1)) for i in range(len(weights) - 1)]
    return make_graph((vspec, espec))


def e8():
    names = "abcdefgh"
    vspec = [(c, -2) for c in names]
    espec = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
             ("e", "f"), ("f", "g"), ("e", "h")]
    return make_graph((vspec, espec))


def cube_key(x, s):
    """The cube key x << n | S of (x, S) for an integer tuple ``x``."""
    return pack(x) << len(x) | s


_UNSEEN = object()


def reference_cube_weight(point_weight, memo, cube):
    """The cube weight by the two-face rule, on (x, S) pairs with tuple
    offsets: (x, S) weighs the larger of its faces (x, S - j) and (x + e_j,
    S - j), j the lowest bit of S, or None when ``point_weight`` (say
    ``dict.get`` on a point map with holes) has no weight at some corner.
    Odd cubes gain 1 under the parity fault; ``memo`` keeps the fault-free
    values and the misses."""
    val = memo.get(cube, _UNSEEN)
    if val is _UNSEEN:
        val = _reference_corner_max(point_weight, memo, cube)
    if (val is not None and faults.is_active("cube-weight-parity-offset")
            and bin(cube[1]).count("1") % 2):
        val += 1
    return val


def _reference_corner_max(point_weight, memo, cube):
    x, s = cube
    if s:
        j = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        face = (x, rest)
        val = memo.get(face, _UNSEEN)
        if val is _UNSEEN:
            val = _reference_corner_max(point_weight, memo, face)
        if val is not None:
            face = (x[:j] + (x[j] + 1,) + x[j + 1:], rest)
            other = memo.get(face, _UNSEEN)
            if other is _UNSEEN:
                other = _reference_corner_max(point_weight, memo, face)
            val = None if other is None else max(val, other)
    else:
        val = point_weight(x)
    memo[cube] = val
    return val


def reference_monotonicity(region, offsets=None) -> bool:
    """The weight monotonicity check one cube at a time: each cube (x, S),
    x among the packed ``offsets`` (by default the region's), against each
    of its cofaces by ``coface_steps``, every weight a single read of the
    region's memo."""
    n, weight = region.graph.n, region.cube_weights
    steps = coface_steps(n)
    offsets = region.iter_offsets() if offsets is None else offsets
    for x in offsets:
        for s in range(1 << n):
            key = x << n | s
            w = weight(key)
            for d in steps[s]:
                if weight(key + d) < w:
                    return False
    return True


def grown(region, d):
    """The region with its offset box widened by d on every side."""
    return replace(region, xmin=tuple(a - d for a in region.xmin),
                   xmax=tuple(b + d for b in region.xmax))


@pytest.fixture
def rp3():
    return vertex(-2)


@pytest.fixture
def s3():
    return vertex(-1)
