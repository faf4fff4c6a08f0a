"""A fixed reference computation that measures how fast the host runs.

Other tenants' load makes this host run the same Python code up to twice
as slowly from one minute to the next, and a run's average speed moves by
10-20% between runs.  The benchmark times this computation between the
program's searches and scales its timings by ``REFERENCE_S / median``, so
they read as seconds at a fixed host speed.  The computation is a small
bottom-up enumeration over integer lists with deduplication by outputs,
which allocates and hashes like the program's search; a plain arithmetic
loop did not follow the program's slowdowns.  It never changes with the
program, so scaling cannot hide a change in the program's speed.
"""

from __future__ import annotations

import time

# Nominal duration of reference_work(), in seconds: the median measured on
# the host the bounds were set on.  It only fixes the unit.
REFERENCE_S = 0.02
REFERENCE_SIZE = 1593  # distinct values reference_work() finds

_INPUTS = ([3, 1, 4, 1, 5], [9, 2, 6], [5, 3, 5, 8, 9, 7])
_UNARY = (
    lambda xs: xs[::-1],
    sorted,
    lambda xs: [x + 1 for x in xs],
    lambda xs: [x * 2 for x in xs],
    lambda xs: xs[1:],
    lambda xs: [x for x in xs if x % 2 == 0],
)
_BINARY = (
    lambda a, b: [x + y for x, y in zip(a, b)],
    lambda a, b: a + b,
    lambda a, b: [x for x in a if x not in b],
)


def reference_work(limit: int = 3000) -> int:
    """Enumerate list programs bottom-up until ``limit`` candidates were
    built; returns the number of distinct output signatures."""
    store = {}
    entries = []

    def add(term, outs):
        sig = tuple(tuple(o) for o in outs)
        if sig not in store and all(len(o) <= 40 for o in outs):
            store[sig] = term
            entries.append((term, outs))

    add(("x",), [list(i) for i in _INPUTS])
    built = 0
    i = 0
    while built < limit and i < len(entries):
        term, outs = entries[i]
        for k, f in enumerate(_UNARY):
            add(("unary", k, term), [f(o) for o in outs])
            built += 1
        for j in range(i + 1):
            other, other_outs = entries[j]
            for k, f in enumerate(_BINARY):
                add(("binary", k, term, other),
                    [f(a, b) for a, b in zip(outs, other_outs)])
                built += 1
        i += 1
    return len(store)


def time_reference() -> float:
    """Seconds one reference_work() call takes now."""
    a = time.perf_counter()
    size = reference_work()
    seconds = time.perf_counter() - a
    if size != REFERENCE_SIZE:
        raise RuntimeError(f"reference work found {size} values, "
                           f"not {REFERENCE_SIZE}")
    return seconds
