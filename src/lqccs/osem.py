"""Enhanced semantics over triples (state, process, observer).

Moves carry an index naming the observer position that fired: the
diamond for process-only steps, or a string over {l, r} locating the
active position in the observer's parallel tree (empty string for a
top-level observer action). Lifting to distributions requires every
element to move at the same index; elements that cannot contribute the
deadlock point.
"""

from __future__ import annotations

from .errors import LqccsError, TypingError
from .rewrite import close_scopes, normalize, normalize_observer
from .semantics import (
    BOT,
    DEFAULT_CHOICE_CAP,
    ERROR,
    TAU,
    Configuration,
    Distribution,
    communications,
    exec_view,
    fire,
    first_schema,
    lift,
    schema_move,
    step_genuine,
    unique,
)
from .syntax import (
    NIL,
    Nil,
    Par,
    cached_beside,
    qubit_atoms,
    sum_guards,
)

DIAMOND = "⋄"
L = "ℓ"
R = "r"


def estep(config: Configuration, sig=None) -> list:
    """Indexed moves of a triple. A stuck process still yields the
    diamond move to the deadlock point (the process side of the semantics
    is the deadlock-augmented reduction)."""
    moves = estep_genuine(config, sig)
    if not any(idx == DIAMOND for idx, _ in moves):
        moves.append((DIAMOND, Distribution.point(BOT)))
    return moves


def estep_genuine(config: Configuration, sig=None) -> list:
    """Moves derivable by the actual rules (no deadlock augmentation): the
    process moves of `step_genuine` under the diamond, then the
    observer's, its schemas (`observer_schemas`, built once per pair)
    instantiated on the state. The list is the caller's own."""
    if config.is_bot:
        return []
    moves = [(DIAMOND, d) for d in step_genuine(config, sig)]
    # observer indices are not the diamond, so only the observer's own moves can repeat
    return moves + unique([(idx, schema_move(config, proc, s, sig))
                           for idx, proc, s in observer_schemas(config.proc, config.obs)])


def first_schemas(config: Configuration) -> dict:
    """{index: (successor process, schema)}: the first schema at each index
    the triple enables, in `estep_genuine`'s order; the diamond's is its
    normal form's first schema (`semantics.first_schema`, kept on the
    node), with no process."""
    if config.is_bot:
        return {}
    first = {}
    schema = first_schema(normalize(config.proc))
    if schema is not None:
        first[DIAMOND] = (None, schema)
    for idx, proc, schema in observer_schemas(config.proc, config.obs):
        first.setdefault(idx, (proc, schema))
    return first


@cached_beside("_moves_beside")
def observer_schemas(proc, obs) -> tuple:
    """(index, successor process, schema) for each move of the observer
    `obs` beside the process `proc`, both normalized first; the schema's
    residuals are the successor's observers."""
    obs = normalize_observer(obs)
    return tuple(_observer_schemas(normalize(proc), obs, obs, ""))


def _observer_schemas(proc, obs, leaf, idx):
    if isinstance(leaf, Par):
        yield from _observer_schemas(proc, obs, leaf.left, idx + L)
        yield from _observer_schemas(proc, obs, leaf.right, idx + R)
        return
    try:
        schema = fire(leaf, lambda cont: _place(cont, obs, idx))
        if schema is not None:
            yield idx, proc, schema
        elif not isinstance(leaf, Nil):
            comps, restricted = exec_view(proc)
            live = list(enumerate(comps))
            for g in sum_guards(leaf):
                for _, j, cont in communications([(-1, g)], live, restricted):
                    rest = [c for k, c in live if k != j]
                    yield idx, close_scopes(rest + [cont], restricted), (TAU, _place(NIL, obs, idx))
                for i, _, cont in communications(live, [(-1, g)], restricted):
                    rest = [c for k, c in live if k != i]
                    yield idx, close_scopes(rest, restricted), (TAU, _place(cont, obs, idx))
    except LqccsError as exc:
        yield idx, proc, (ERROR, exc)


def _place(new, obs, idx):
    """The observer frame: `obs` with its position `idx` replaced by `new`,
    normalized."""
    if not idx:
        return normalize_observer(new)
    if idx[0] == L:
        return Par(_place(new, obs.left, idx[1:]), obs.right)
    return Par(obs.left, _place(new, obs.right, idx[1:]))


def lift_estep(dist: Distribution, sig=None, cap: int = DEFAULT_CHOICE_CAP) -> list:
    """Indexed lifting: for each index enabled by some element, the
    product of per-element choices at that index, with deadlock points
    filling in for elements that lack the index."""
    return lift(dist, lambda c: estep(c, sig), cap)


def apply_context(dist: Distribution, frame) -> Distribution:
    """Compose an observer frame (on the right) with every element's
    observer; the frame fills the hole of a configuration whose observer
    is inert. Frame qubits must be free in every element."""
    frame = normalize_observer(frame)
    if frame == NIL:
        return dist
    return _attach(dist, frame, lambda c: Configuration(
        c.rho, c.proc, frame if c.obs == NIL else Par(c.obs, frame)))


def apply_process_context(dist: Distribution, frame) -> Distribution:
    """Parallel process context for the plain semantics."""
    frame = normalize(frame)
    return _attach(dist, frame, lambda c: Configuration(
        c.rho, normalize(Par(c.proc, frame)), c.obs))


def _attach(dist: Distribution, frame, compose) -> Distribution:
    """Map every non-BOT element through `compose` once the frame's
    qubits are checked to be in its state and owned by neither its
    process nor its observer."""
    frame_qubits = qubit_atoms(frame)

    def attach(c: Configuration) -> Configuration:
        owned = qubit_atoms(c.proc) | qubit_atoms(c.obs)
        if frame_qubits & owned:
            raise TypingError(
                f"context qubits {sorted(frame_qubits & owned)} already owned by the configuration"
            )
        if not frame_qubits <= set(c.rho.register.names):
            raise TypingError(
                f"context qubits {sorted(frame_qubits - set(c.rho.register.names))} not in the state"
            )
        return compose(c)

    return dist.map(attach)
