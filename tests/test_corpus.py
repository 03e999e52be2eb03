from dataclasses import replace

import numpy as np
import pytest

from lqccs import corpus, qcore
from lqccs.equiv import (
    advance_scheduled, advance_unique, config_partial_trace, distinguish,
)
from lqccs.parser import parse_program
from lqccs.semantics import Distribution, dist_barbs, make_config


@pytest.mark.parametrize("entry", corpus.build_table1(), ids=lambda e: e.name)
def test_table_rows(entry):
    ok, detail = entry.run()
    assert ok, detail


def _row(name):
    return next(row for row in corpus.TABLE1 if row.name == name)


def test_check_row_rejects_a_flipped_verdict():
    row = _row("table1-row3")
    (mode, _, kind), rest = row.expected[0], row.expected[1:]
    flipped = replace(row, expected=((mode, "inconclusive-at-bounds", kind),) + rest)
    ok, detail = corpus.check_row(flipped)
    assert not ok and "expected inconclusive-at-bounds" in detail


def test_check_row_rejects_a_witness_other_than_the_hint():
    # the search still distinguishes row 6, but not with this hint
    row = replace(_row("table1-row6"), hint="d?x.I(x).disc(x)")
    ok, detail = corpus.check_row(row)
    assert not ok and "hint" in detail


def test_table_entries_run_with_their_bounds(monkeypatch):
    seen = []

    def recording(dl, dr, mode, bounds, sig):
        seen.append(bounds)
        return distinguish(dl, dr, mode, bounds, sig)

    monkeypatch.setattr(corpus, "distinguish", recording)
    for entry in corpus.build_table1():
        seen.clear()
        assert entry.run()[0], entry.name
        assert seen, entry.name
        assert all(replace(b, hint_contexts=()) == entry.bounds for b in seen), entry.name


def test_teleportation_entry():
    ok, detail = corpus.build_teleportation().run()
    assert ok, detail


def test_teleportation_branch_corrections():
    # the four measurement branches each restore the input amplitudes
    sig, defs = parse_program(corpus.TELEPORT_SRC)
    psi = np.array([[0.6], [0.8]], dtype=complex)
    st = qcore.pure_state(qcore.kron(psi, qcore.PHI_P), ("q0", "q1", "q2"))
    run = advance_unique(Distribution.point(make_config(st, defs["Tel"])), sig)
    assert len(run) - 1 == 5
    final = config_partial_trace(run[-1], ("q0", "q1"))
    assert len(final) == 1
    ((cfg, p),) = list(final.items())
    assert abs(p - 1.0) < 1e-9
    assert np.allclose(cfg.rho.mat, qcore.projector(psi), atol=1e-9)


def test_superdense_entry():
    ok, detail = corpus.build_superdense().run()
    assert ok, detail


def test_qcf_entry():
    ok, detail = corpus.build_qcf(1).run()
    assert ok, detail


@pytest.mark.slow
def test_qcf_two_qubits():
    ok, detail = corpus.build_qcf(2).run()
    assert ok, detail


def test_qcf_barb_schedule_matches_specification():
    # the win bits become visible after 4n+5 + 1 steps (a) and two silent
    # steps later (b), in lockstep with the tau-padded specification
    n = 1
    sig, defs = parse_program(corpus.qcf_source(n))
    zeros = qcore.pure_state(qcore.KET0, ("q1",))
    run = advance_scheduled(Distribution.point(make_config(zeros, defs["QCF"])), sig, 40)
    first_a = next(i for i, d in enumerate(run) if "a" in dist_barbs(d))
    first_b = next(i for i, d in enumerate(run) if "b" in dist_barbs(d))
    assert first_a == 4 * n + 5 + 1
    assert first_b == first_a + 2


def test_suites_are_named():
    assert [e.name for e in corpus.suite("table1")] == [
        "table1-row2", "table1-row3", "table1-row4", "table1-row5", "table1-row6",
    ]
    assert {e.name for e in corpus.suite("protocols")} == {
        "teleportation", "superdense", "qcf-n1",
    }
    with pytest.raises(KeyError):
        corpus.suite("nope")


def test_corpus_sources_roundtrip_and_typecheck():
    from lqccs.parser import parse_process, pretty
    from lqccs.syntax import free_vars
    from lqccs.typecheck import typecheck

    for entry in corpus.all_entries():
        sig, defs = parse_program(entry.source)
        for name, term in defs.items():
            assert parse_process(pretty(term), sig) == term, (entry.name, name)
            if not free_vars(term):  # open fragments are spliced elsewhere
                typecheck(sig, term)
