"""A verdict's scope: one memo, its counters and its clock.

While a verdict is computed (`equiv.distinguish`, `equiv.certify`,
`equiv.check_candidate`), the backend results (`qcore.apply_superop`,
`qcore.measure`) are computed once and then returned from the memo;
these two are the only memoized functions. A term's move schemas
(`semantics.schemas`) are symbolic, independent of `sig` and kept on the
terms across verdicts. The scope opens with the verdict and closes when
it returns or raises; it counts the memo's hits and misses and the
verdict's wall time into its `Stats`. Every scope opens a memo of its
own, also inside another, so no entry outlives the verdict that stored
it. Outside a scope nothing is stored and every backend call computes
afresh, as the replay of a witness does: `equiv.distinguish` runs it
after its scope has closed, and no library scope encloses that call.

A backend call is keyed by its operator's identity, its targets and its
state's `DensityMatrix.key()`: the register names and the entries of rho
rounded to `HASH_DECIMALS`; for a state held as a ket psi, rho = psi
psi^dag is built for the key and not kept. The key is built only while a
memo is open, so a call outside a verdict never rounds its state. A hit
may return the result computed for a state that differs from the
caller's below that rounding.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import monotonic

# (entries, stats) of the open memo, or None
_open: ContextVar = ContextVar("lqccs_verdict_memo", default=None)


@contextmanager
def scope(stats):
    """Open a memo of its own for the calls made inside the block, and
    close it on exit, also by an exception; the memo open before the
    block, if any, is open again after it. Each hit and miss is counted
    into the Counters `stats.memo_hits` and `stats.memo_misses`, by the
    name of the public function that was called (`apply_superop` or
    `measure`); on exit `stats.wall_ms` is the block's wall time."""
    t0 = monotonic()
    token = _open.set(({}, stats))
    try:
        yield
    finally:
        _open.reset(token)
        stats.wall_ms = int((monotonic() - t0) * 1000)


def is_open() -> bool:
    return _open.get() is not None


def recall(compute, key, *args):
    """`compute(*args)`; while a memo is open, computed once per
    `(compute, key(*args))`. The entry keeps `args`, so an object keyed
    by its identity lives as long as its entry. Every hit returns the same
    result object: callers must not mutate it."""
    table = _open.get()
    if table is None:
        return compute(*args)
    entries, stats = table
    k = (compute, key(*args))
    entry = entries.get(k)
    name = compute.__name__.lstrip("_")
    if entry is not None:
        stats.memo_hits[name] += 1
        return entry[1]
    stats.memo_misses[name] += 1
    result = compute(*args)
    entries[k] = (args, result)
    return result
