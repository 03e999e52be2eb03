"""Enhanced semantics over triples (state, process, observer).

Moves carry an index naming the observer position that fired: the
diamond for process-only steps, or a string over {l, r} locating the
active position in the observer's parallel tree (empty string for a
top-level observer action). Lifting to distributions requires every
element to move at the same index; elements that cannot contribute the
deadlock point.
"""

from __future__ import annotations

from .errors import TypingError
from .rewrite import normalize, normalize_observer
from .semantics import (
    BOT,
    DEFAULT_CHOICE_CAP,
    Configuration,
    Distribution,
    _rebuild,
    at_index,
    communications,
    exec_view,
    fire,
    lift,
    move_key,
    step_genuine,
    unique,
)
from .syntax import (
    NIL,
    Par,
    Recv,
    Send,
    Sum,
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
    if config.is_bot:
        return [(DIAMOND, Distribution.point(BOT))]
    moves = estep_genuine(config, sig)
    if not any(idx == DIAMOND for idx, _ in moves):
        moves.append((DIAMOND, Distribution.point(BOT)))
    return moves


def estep_genuine(config: Configuration, sig=None) -> list:
    """Moves derivable by the actual rules (no deadlock augmentation): the
    process moves of `step_genuine` under the diamond, then the
    observer's, computed afresh on each call like `step_genuine`'s. The
    list is the caller's own."""
    if config.is_bot:
        return []
    moves = [(DIAMOND, d) for d in step_genuine(config, sig)]
    obs = normalize_observer(config.obs)
    moves.extend(_observer_moves(config.rho, normalize(config.proc), obs, sig, lambda o: o))
    return unique(moves, move_key)


def _observer_moves(rho, proc, obs, sig, place) -> list:
    """Moves of the observer position `obs`; `place` puts its new observer
    back into the enclosing parallel tree, so each successor is built once."""
    if isinstance(obs, Par):
        left = _observer_moves(rho, proc, obs.left, sig, lambda o: place(Par(o, obs.right)))
        right = _observer_moves(rho, proc, obs.right, sig, lambda o: place(Par(obs.left, o)))
        return [(L + idx, d) for idx, d in left] + [(R + idx, d) for idx, d in right]
    # leaf position: fires with the empty index
    branches = fire(obs, rho, sig)
    if branches is not None:
        return [("", Distribution(
            [(Configuration(r, proc, place(normalize_observer(cont))), p) for p, r, cont in branches]))]
    moves = []
    if isinstance(obs, Send):
        comps, restricted = exec_view(proc)
        for _, j, cont in communications([(-1, obs)], list(enumerate(comps)), restricted):
            rest = [c for k, c in enumerate(comps) if k != j]
            new_proc = _rebuild(rest + [cont], restricted)
            moves.append(("", Distribution.point(Configuration(rho, new_proc, place(NIL)))))
    elif isinstance(obs, (Recv, Sum)):
        comps, restricted = exec_view(proc)
        for g in sum_guards(obs):
            if not isinstance(g, Recv):
                continue
            for i, _, cont in communications(enumerate(comps), [(-1, g)], restricted):
                new_obs = place(normalize_observer(cont))
                new_proc = _rebuild([c for k, c in enumerate(comps) if k != i], restricted)
                moves.append(("", Distribution.point(Configuration(rho, new_proc, new_obs))))
    return moves


def lift_estep(dist: Distribution, sig=None, cap: int = DEFAULT_CHOICE_CAP) -> list:
    """Indexed lifting: for each index enabled by some element, the
    product of per-element choices at that index, with deadlock points
    filling in for elements that lack the index."""
    return lift(dist, lambda c: estep(c, sig), cap)


def moves_at(dist: Distribution, index: str, sig=None) -> list:
    """Successors of the lifted relation at one index; the deadlock point
    when no element enables it."""
    return at_index(lift_estep(dist, sig), index)


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
