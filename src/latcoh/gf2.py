"""Dense-bitset GF(2) linear algebra.

Vectors are Python ints (bit i = coordinate i), so xor is vector addition
and elimination is a few machine words per row.  Bases are kept in staircase
form keyed by pivot bit; reduction only ever touches pivots actually present
in the vector.  Deterministic throughout.
"""


class Basis:
    """Staircase basis of a GF(2) subspace, keyed by leading bit."""

    def __init__(self, vecs=()):
        self.pivots = {}
        for v in vecs:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v: int) -> int:
        pivots = self.pivots
        while v:
            p = v.bit_length() - 1
            w = pivots.get(p)
            if w is None:
                return v
            v ^= w
        return v

    def add(self, v: int) -> bool:
        """Insert a vector; False if it was already in the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        self.pivots[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


class Quotient:
    """Cosets of a subspace: a staircase of representatives, with
    coordinates over insertion order, kept reduced modulo the subspace."""

    def __init__(self, sub: Basis):
        self.sub = sub
        self.pivots = {}  # pivot -> (vec, coordinate combination)
        self.dim = 0

    def _reduce(self, v: int):
        # One loop over both staircases: xoring a representative in can
        # bring a subspace pivot back to the top.
        c = 0
        sub = self.sub.pivots
        while v:
            p = v.bit_length() - 1
            w = sub.get(p)
            if w is not None:
                v ^= w
                continue
            entry = self.pivots.get(p)
            if entry is None:
                return v, c
            v ^= entry[0]
            c ^= entry[1]
        return 0, c

    def add(self, v: int) -> bool:
        v, c = self._reduce(v)
        if v == 0:
            return False
        self.pivots[v.bit_length() - 1] = (v, c ^ (1 << self.dim))
        self.dim += 1
        return True

    def coords(self, v: int) -> int:
        """Coordinates of the class of v over the inserted representatives.

        Raises ValueError if v lies outside subspace + span(reps).
        """
        v, c = self._reduce(v)
        if v != 0:
            raise ValueError("vector lies outside the tracked space")
        return c


def kernel_basis(cols) -> tuple:
    """Kernel and image of the map sending basis vector j to cols[j].

    Returns (kernel, image): the kernel as combination vectors over the
    column index space, and the image as the staircase the same column
    reduction leaves, which is ``Basis(cols)`` pivot for pivot (both reduce
    each column, in order, against the pivots before it)."""
    image = Basis()
    pivots = image.pivots
    combos = {}
    out = []
    for j, v in enumerate(cols):
        combo = 1 << j
        while v:
            p = v.bit_length() - 1
            w = pivots.get(p)
            if w is None:
                pivots[p] = v
                combos[p] = combo
                break
            v ^= w
            combo ^= combos[p]
        else:
            out.append(combo)
    return out, image


def rank(cols) -> int:
    b = Basis()
    for v in cols:
        b.add(v)
    return b.rank


def matmul(a_cols, b_cols) -> list:
    """Columns of A@B where b_cols index bitwise into a_cols."""
    out = []
    for bk in b_cols:
        v = 0
        j = 0
        while bk:
            if bk & 1:
                v ^= a_cols[j]
            bk >>= 1
            j += 1
        out.append(v)
    return out
