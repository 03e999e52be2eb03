"""The verdict memo: it is open exactly while a verdict is computed, it
keys every result on all that the result depends on, and the replay of a
witness does not read it."""

import itertools
from dataclasses import replace

import pytest

from lqccs import equiv, memo, qcore
from lqccs.cli import build_state
from lqccs.equiv import (
    CONSTRAINED,
    SATURATED,
    AttackStep,
    BarbLeaf,
    CertifiedBisimilar,
    SearchBounds,
    Stats,
    certify,
    check_candidate,
    distinguish,
)
from lqccs.errors import ChoiceExplosion
from lqccs.ops import resolve_operator
from lqccs.osem import DIAMOND, estep, estep_genuine
from lqccs.parser import parse_process, parse_program
from lqccs.semantics import BOT, Distribution, make_config, step, step_genuine

# a phase before a measurement in the basis it commutes with: never
# distinguished, and the slowest kind of verdict to search; the send on
# k beside each reception keeps the input certificate out of scope, so
# the game searches
PHASE_SRC = """
channel c : qubit;
channel d : qubit;
channel k : nat;
qubit a0;
process L = c?x.I(x).M01(x |> y).d!x || k!0;
process R = c?x.Z(x).M01(x |> y).d!x || k!0;
"""

# one qubit q1 is flipped or left alone before both qubits go out on
# their own channels: equivalent exactly when q1 is |+>
FLIP_SRC = """
channel c : qubit;
channel d : qubit;
qubit q1, q2;
process L = X(q1).(c!q1 || d!q2);
process R = I(q1).(c!q1 || d!q2);
"""

# a barb on one side only
BARB_SRC = "channel k : nat;\nqubit q;\nprocess L = k!0 || disc(q);\nprocess R = disc(q);\n"


def pair(src, state_spec=""):
    sig, defs = parse_program(src)
    state = build_state(state_spec, sig.qubits)
    return (
        Distribution.point(make_config(state, defs["L"])),
        Distribution.point(make_config(state, defs["R"])),
        sig,
    )


def exploding_verdict():
    """A saturated verdict whose first choice product exceeds its cap."""
    dl, dr, sig = pair(
        "channel k : nat;\nqubit q;\n"
        "process L = tau.(k!0 || disc(q)) + tau.(k!1 || disc(q));\n"
        "process R = tau.(k!0 || disc(q));\n"
    )
    return distinguish(dl, dr, SATURATED, SearchBounds(choice_cap=1), sig)


def summary(v):
    """A verdict without its timing."""
    return (v.verdict, v.stats.states_visited, v.stats.contexts_tried)


class TestScope:
    def test_closed_after_each_verdict(self):
        dl, dr, sig = pair(PHASE_SRC)
        for mode in ("constrained", "saturated"):
            distinguish(dl, dr, mode, SearchBounds(), sig)
            assert not memo.is_open()
        certify(dl, dr, SearchBounds(), sig)
        assert not memo.is_open()

    def test_closed_when_an_exception_escapes(self):
        with pytest.raises(ChoiceExplosion):
            exploding_verdict()
        assert not memo.is_open()

    def test_each_verdict_starts_empty(self):
        dl, dr, sig = pair(PHASE_SRC)
        first = distinguish(dl, dr, SATURATED, SearchBounds(), sig)
        with pytest.raises(ChoiceExplosion):
            exploding_verdict()
        again = distinguish(dl, dr, SATURATED, SearchBounds(), sig)
        assert again.stats.memo_misses == first.stats.memo_misses
        assert again.stats.memo_hits == first.stats.memo_hits

    def test_nothing_is_stored_outside_a_verdict(self):
        rho = qcore.pure_state(qcore.KET0, ("q",))
        h = resolve_operator("H", 1)
        assert qcore.apply_superop(h, ("q",), rho) is not qcore.apply_superop(h, ("q",), rho)

    def test_a_nested_scope_opens_its_own_memo(self):
        rho = qcore.pure_state(qcore.KET0, ("q",))
        h, x = resolve_operator("H", 1), resolve_operator("X", 1)
        outer, inner = Stats(), Stats()
        with memo.scope(outer):
            first = qcore.apply_superop(h, ("q",), rho)
            with memo.scope(inner):
                # the outer entry is not visible, and the inner one is kept
                # only until the inner scope exits
                assert qcore.apply_superop(h, ("q",), rho) is not first
                flipped = qcore.apply_superop(x, ("q",), rho)
                assert qcore.apply_superop(x, ("q",), rho) is flipped
            assert memo.is_open()
            assert qcore.apply_superop(h, ("q",), rho) is first
            assert qcore.apply_superop(x, ("q",), rho) is not flipped
        assert not memo.is_open()
        assert inner.memo_hits == {"apply_superop": 1}
        assert inner.memo_misses == {"apply_superop": 2}
        assert outer.memo_hits == {"apply_superop": 1}
        assert outer.memo_misses == {"apply_superop": 2}


class TestReplayIndependence:
    def test_a_poisoned_entry_fails_the_replay(self, monkeypatch):
        # the first Z computed under the memo is stored with an extra X, so
        # the search sees the outcome of M01 flipped on one side and finds
        # a witness; the replay recomputes Z without the memo and refutes it
        z = resolve_operator("Z", 1)
        compute = qcore._apply_superop
        poisoned = []

        def poisoning(e, targets, rho):
            out = compute(e, targets, rho)
            if e is z and memo.is_open() and not poisoned:
                poisoned.append(targets)
                out = compute(resolve_operator("X", 1), targets, out)
            return out

        monkeypatch.setattr(qcore, "_apply_superop", poisoning)
        dl, dr, sig = pair(PHASE_SRC)
        with pytest.raises(AssertionError, match="failed to replay"):
            distinguish(dl, dr, SATURATED, SearchBounds(), sig)
        assert poisoned


class TestKeys:
    STATES = ("ket0,ket0", "ket0,ketplus", "ketplus,ket0", "ketplus,ketplus")

    @pytest.mark.parametrize("mode", ("constrained", "saturated"))
    def test_register_order_does_not_change_a_verdict(self, mode):
        # each state, and the same state on the register (q2, q1) with its
        # matrix permuted to match, give the same verdict
        got = {}
        for spec in self.STATES:
            dl, dr, sig = pair(FLIP_SRC, spec)
            got[spec] = [summary(distinguish(*d, mode, SearchBounds(), sig))
                         for d in ((dl, dr), (_swapped(dl), _swapped(dr)))]
        for spec, (plain, swapped) in got.items():
            assert plain == swapped, spec
        # q1 = |0> is flipped visibly, q1 = |+> is not
        assert [got[spec][0][0] == "distinguished" for spec in self.STATES] == [
            True, True, False, False]

    def test_backend_key_holds_the_register(self):
        # a symmetric state and its copy on the register (q2, q1) have the
        # same entries; in one memo, X on q1 of each must still be computed
        # for its own register order
        x = resolve_operator("X", 1)
        for spec in ("ket0,ket0", "ketplus,ketplus", "ket0,ketplus"):
            dl, _, _ = pair(FLIP_SRC, spec)
            states = [c.rho for d in (dl, _swapped(dl)) for c, _ in d.items()]
            fresh = [qcore.apply_superop(x, ("q1",), rho) for rho in states]
            with memo.scope(Stats()):
                shared = [qcore.apply_superop(x, ("q1",), rho) for rho in states]
            assert [r.key() for r in shared] == [r.key() for r in fresh], spec

    def test_each_signature_uses_its_own_operator(self):
        # the name `U` is X under one signature and I under the other; in
        # one memo, each signature's operator is a backend key of its own
        src = (
            "channel c : qubit;\nchannel d : qubit;\nqubit a0;\n"
            "process L = c?x.U(x).d!x;\nprocess R = c?x.X(x).d!x;\n"
        )
        dl, dr, sig = pair(src)
        sigs = {}
        for name, gate in (("X", qcore.X), ("I", qcore.I2)):
            sigs[name] = replace(sig)
            sigs[name].operators = {"U": qcore.Superoperator.unitary(gate)}
        verdicts = {name: summary(distinguish(dl, dr, SATURATED, SearchBounds(), s))
                    for name, s in sigs.items()}
        assert verdicts["X"][0] != "distinguished"
        assert verdicts["I"][0] == "distinguished"
        # the moves of U itself, on the qubit the game would send
        (start, _), = dl.items()
        cfg = make_config(start.rho, parse_process("U(a0).d!a0", sig))

        def moves(s):
            return [d.key() for d in step_genuine(cfg, s)]

        fresh = {name: moves(s) for name, s in sigs.items()}
        assert fresh["X"] != fresh["I"]
        for order in (("X", "I"), ("I", "X")):
            with memo.scope(Stats()):
                shared = {name: moves(sigs[name]) for name in order}
            assert shared == fresh


def _swapped(dist):
    """The distribution with the first two register qubits exchanged in
    every state: names and matrix axes both, so each state is the same."""

    def swap(c):
        names = c.rho.register.names
        n = len(names)
        axes = list(range(2 * n))
        axes[0], axes[1], axes[n], axes[n + 1] = 1, 0, n + 1, n
        mat = c.rho.mat.reshape((2,) * (2 * n)).transpose(axes).reshape(c.rho.mat.shape)
        rho = qcore.DensityMatrix((names[1], names[0]) + names[2:], mat, check=False)
        return make_config(rho, c.proc, c.obs)

    return dist.map(swap)


class TestSharedMoves:
    """Move lists are computed afresh on each call, also within a
    verdict: a caller that grows the list it got changes no later call."""

    def test_estep_does_not_grow_the_stored_moves(self):
        # a stuck configuration: its only enhanced move is the deadlock
        # diamond that `estep` adds to the genuine moves
        sig, defs = parse_program("channel c : qubit;\nqubit q;\nprocess L = c!q;\n")
        cfg = make_config(build_state("", sig.qubits), defs["L"])
        with memo.scope(Stats()):
            first = estep(cfg, sig)
            second = estep(cfg, sig)
            genuine = estep_genuine(cfg, sig)
            stored = step_genuine(cfg, sig)
        assert [idx for idx, _ in first] == [DIAMOND]
        assert [idx for idx, _ in second] == [DIAMOND]
        assert genuine == [] and stored == []

    def test_step_hands_out_its_own_list(self):
        sig, defs = parse_program("channel c : qubit;\nqubit q;\nprocess L = tau.c!q;\n")
        cfg = make_config(build_state("", sig.qubits), defs["L"])
        with memo.scope(Stats()):
            moves = step(cfg, sig)
            moves.append(Distribution.point(BOT))
            assert len(step(cfg, sig)) == len(step_genuine(cfg, sig)) == 1


@pytest.mark.parametrize("mode", ("constrained", "saturated"))
def test_only_backend_results_are_memoized(mode):
    # the moves of a configuration are never stored: the memo counts
    # only the two backend functions, and both run in the phase pair
    dl, dr, sig = pair(PHASE_SRC)
    v = distinguish(dl, dr, mode, SearchBounds(), sig)
    assert set(v.stats.memo_misses) == {"apply_superop", "measure"}
    assert set(v.stats.memo_hits) <= {"apply_superop", "measure"}


def test_the_phase_pair_computes_each_backend_result_once():
    # a guard on work, not time: computed afresh, the backend calls of
    # this verdict make hundreds of conjugations; under the memo each
    # distinct (operator, targets, state) is computed once, 14 in all
    dl, dr, sig = pair(PHASE_SRC)
    v = distinguish(dl, dr, SATURATED, SearchBounds(), sig)
    assert v.verdict == "inconclusive-at-bounds"
    backend = v.stats.memo_misses["apply_superop"] + v.stats.memo_misses["measure"]
    assert 0 < backend <= 40
    assert v.stats.memo_hits["apply_superop"] > 0


class TestVerdictScope:
    """A verdict's clock and memo counters come from its `memo.scope`."""

    STEP_S = 2.5

    @pytest.fixture
    def clock(self, monkeypatch):
        # each reading of the memo's clock is STEP_S later than the one
        # before, so a scope with no scope inside it lasts exactly STEP_S
        ticks = itertools.count()
        monkeypatch.setattr(memo, "monotonic", lambda: next(ticks) * self.STEP_S)
        return int(self.STEP_S * 1000)

    def test_each_exit_of_distinguish_is_timed(self, clock):
        barbs = pair(BARB_SRC)
        same = pair("qubit q;\nprocess L = tau.disc(q);\nprocess R = tau.disc(q);\n")
        searched = pair(FLIP_SRC, "ket0,ket0")
        verdicts = [distinguish(dl, dr, SATURATED, SearchBounds(), sig)
                    for dl, dr, sig in (barbs, same, searched)]
        assert isinstance(verdicts[0].witness, BarbLeaf)
        assert isinstance(verdicts[1], CertifiedBisimilar)
        assert isinstance(verdicts[2].witness, AttackStep)
        assert [v.stats.wall_ms for v in verdicts] == [clock] * 3

    def test_certify_is_timed(self, clock):
        dl, dr, sig = pair(PHASE_SRC)
        assert certify(dl, dr, SearchBounds(), sig).stats.wall_ms == clock

    def test_check_candidate_is_timed_and_counts_its_backend_calls(self, clock):
        # the pair's one move applies H, computed under check_candidate's memo
        d, _, sig = pair("qubit q;\nprocess L = H(q).disc(q);\nprocess R = disc(q);\n")
        v = check_candidate([(d, d)], CONSTRAINED, SearchBounds(), sig=sig)
        assert isinstance(v, CertifiedBisimilar)
        assert v.stats.wall_ms == clock
        assert v.stats.memo_misses["apply_superop"] > 0

    def test_check_candidate_reports_a_barb_mismatch_in_its_scope(self, clock):
        dl, dr, sig = pair(BARB_SRC)
        v = check_candidate([(dl, dr)], CONSTRAINED, SearchBounds(), sig=sig)
        assert v.witness == BarbLeaf("k", 1.0, 0.0)
        assert v.stats.wall_ms == clock


def test_a_replay_reads_no_memo(monkeypatch):
    # distinguish's scope is closed before its replay, so the replay
    # recomputes every backend result
    replay = equiv.replay_witness
    opened = []

    def spy(*args):
        opened.append(memo.is_open())
        return replay(*args)

    monkeypatch.setattr(equiv, "replay_witness", spy)
    dl, dr, sig = pair("channel c : qubit;\nchannel d : qubit;\nqubit a0;\n"
                       "process L = c?x.H(x).d!x;\nprocess R = c?x.I(x).d!x;\n")
    v = distinguish(dl, dr, CONSTRAINED, SearchBounds(), sig)
    assert isinstance(v.witness, AttackStep)
    assert opened and not any(opened)
