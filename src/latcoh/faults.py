"""Single-line fault injection used by the mutation test harness.

Each named fault corrupts one step of the core algebra.  The verification
suites are required to catch every one of them; production code runs with
the set empty.  Cube-weight memos hold fault-free values and each fault is
applied at its single site (the shift sign where ``lattice.coface_steps``
picks its table, which is cached per fault state), so no cube-weight memo
depends on the active set, and a ``Region`` or a triangle context may keep
its memos across fault states.  The coface fans ``lattice.delta`` keeps do
depend on it: they hold fault-applied values, so each dict of them is
owned by one call and dropped with it, of ``delta``, of
``lattice.delta_squared_failures``, of ``triangle.chain_map_trials``
(one per window) or of ``engine.ComplexHomology``'s build.  The set is
process-global: activate faults only from one thread at a time.

A fault flag is read through ``faults.is_active(name)`` at its one site,
once per call wherever the loop allows: ``lattice.offset_cube_weight``,
``lattice.coface_steps``, ``triangle._b_targets`` and
``triangle.c_exponent_closed`` (two).  No other code in the package reads
the fault state, so a fault changes the program only through the value
its site returns.  ``is_active`` is the set's own ``__contains__``, so a
read costs no Python frame.
"""

from contextlib import contextmanager

FAULTS = (
    "cube-weight-parity-offset",   # cube weight off by one on odd-dimensional cubes
    "delta-coface-shift-sign",     # coboundary shifts the base corner the wrong way
    "b-parity-skip",               # B drops every other fiber of the collapsed coordinate
    "c-drop-quadratic",            # exponent formula loses its quadratic term
    "c-always-first-case",         # exponent formula ignores the case analysis
)

_active: set = set()

is_active = _active.__contains__


def activate(name: str) -> None:
    if name not in FAULTS:
        raise ValueError("unknown fault %r" % name)
    _active.add(name)


def clear() -> None:
    _active.clear()


@contextmanager
def injected(name: str):
    """Context manager enabling a single fault; always clears on exit."""
    activate(name)
    try:
        yield
    finally:
        clear()
