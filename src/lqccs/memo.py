"""One memo per verdict.

While a verdict is computed (`equiv.distinguish`, `equiv.certify`), the
backend results (`qcore.apply_superop`, `qcore.measure`) and the moves of
each configuration (`semantics.step_genuine`, `osem.estep_genuine`) are
computed once and then returned from the memo. The memo opens with the
verdict and closes when it returns or raises; a verdict computed inside
another joins the memo that is open. Outside a verdict nothing is stored
and every call computes afresh.

Keys are exact on objects and rounded on states: an operator or a
signature is keyed by its identity and a state by `DensityMatrix.key()`,
its register names and entries rounded to `HASH_DECIMALS`. A hit may
therefore return the results computed for a state that differs from the
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
    """Open a memo for the calls made inside the block, or join the one
    that is open. On exit, add the block's hits and misses to the Counters
    `stats.memo_hits` and `stats.memo_misses`, by the name of the public
    function that was called (`apply_superop`, `measure`, `step_genuine`,
    `estep_genuine`); the memo closes when the block that opened it exits,
    also by an exception."""
    table = _open.get()
    token = None
    if table is None:
        table = _Table()
        token = _open.set(table)
    hits, misses = table.hits.copy(), table.misses.copy()
    try:
        yield
    finally:
        for total, before, out in ((table.hits, hits, stats.memo_hits),
                                   (table.misses, misses, stats.memo_misses)):
            for compute, n in (total - before).items():
                out[compute.__name__.lstrip("_")] += n
        if token is not None:
            _open.reset(token)


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
