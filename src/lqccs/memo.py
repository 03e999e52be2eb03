"""One memo per verdict.

While a verdict is computed (`equiv.distinguish`, `equiv.certify`), the
backend results (`qcore.apply_superop`, `qcore.measure`) are computed
once and then returned from the memo; these two are the only memoized
functions. A term's move schemas (`semantics.schemas`) are symbolic,
independent of `sig` and kept on the terms across verdicts. The memo
opens with the verdict and closes when it returns or raises. Every
scope opens a memo of its own, also inside another, so no entry
outlives the verdict that stored it. Outside a verdict nothing is
stored and every backend call computes afresh.

A backend call is keyed by its operator's identity, its targets and its
state's `DensityMatrix.key()`: the register names and the entries of rho
rounded to `HASH_DECIMALS`; for a state held as a ket psi, rho = psi
psi^dag is built for the key and not kept. The key is built only while a
memo is open, so a call outside a verdict never rounds its state. A hit
may return the result computed for a state that differs from the
caller's below that rounding.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar

_open: ContextVar = ContextVar("lqccs_verdict_memo", default=None)


class _Table:
    __slots__ = ("entries", "hits", "misses")

    def __init__(self):
        self.entries: dict = {}
        # per memoized function: results returned from the memo, computed
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()


@contextmanager
def scope(stats):
    """Open a memo of its own for the calls made inside the block, and
    close it on exit, also by an exception; the memo open before the
    block, if any, is open again after it. On exit, add the block's hits
    and misses to the Counters `stats.memo_hits` and `stats.memo_misses`,
    by the name of the public function that was called (`apply_superop`
    or `measure`)."""
    table = _Table()
    token = _open.set(table)
    try:
        yield
    finally:
        _open.reset(token)
        for counts, out in ((table.hits, stats.memo_hits), (table.misses, stats.memo_misses)):
            for compute, n in counts.items():
                out[compute.__name__.lstrip("_")] += n


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
    k = (compute, key(*args))
    entry = table.entries.get(k)
    if entry is not None:
        table.hits[compute] += 1
        return entry[1]
    table.misses[compute] += 1
    result = compute(*args)
    table.entries[k] = (args, result)
    return result
