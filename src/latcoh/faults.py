"""Single-line fault injection used by the mutation test harness.

Each named fault corrupts one step of the core algebra.  The verification
suites are required to catch every one of them; production code runs with
the set empty.  Cube-weight memos hold fault-free values and each fault is
applied at its single site, so no memo depends on the active set.  The set
is process-global: activate faults only from one thread at a time.
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


def is_active(name: str) -> bool:
    return name in _active


def any_active() -> bool:
    return bool(_active)


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
