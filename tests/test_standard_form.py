"""The standard form: a normal form is one `Std` node of sorted components
and restricted channels, and only the printer nests its scopes.

The reference below is the push-inward loop that built the nested normal
form: for each restricted channel, in order, the components that have it
free are put in parallel, sorted, under a restriction on it, beside the
others. The printer must print a standard form as that nested term, and
splicing the nested term's restrictions must give back the standard
form's components and channels. The printer runs that loop on printed
pieces and builds no node of the nested term."""

import gc
from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from genterms import TermGen, make_signature
from lqccs import corpus, rewrite, syntax
from lqccs.parser import parse_process, parse_program, pretty
from lqccs.rewrite import _rename_channel, normalize
from lqccs.syntax import (NIL, Ite, Par, Recv, Restrict, Send, Std, Tau, Var, channels,
                          children, free_channels, map_term, par_all, par_components)

SIG = make_signature()


def P(text):
    return parse_process(text, SIG)


def push_inward(comps, chans):
    """The components in parallel, each channel of `chans` pushed inward,
    in order, around the ones that have it free (and dropped when none
    has), as nested `Par` and `Restrict` nodes."""
    comps = list(comps)
    for c in sorted(chans):
        rest, using = [], []
        for x in comps:
            (using if c in free_channels(x) else rest).append(x)
        if using:
            comps = rest + [Restrict(par_all(sorted(using, key=pretty)), c)]
    if chans:
        comps.sort(key=pretty)
    return par_all(comps)


def nested(t):
    """`t` with every standard form in it, at any depth, replaced by its
    nested reference term, which holds no `Std`."""
    if isinstance(t, Std):
        return push_inward([nested(x) for x in t.comps], t.chans)
    return map_term(t, lambda c, bound: nested(c), lambda e: e)


def spliced(term):
    """The components of a nested term and the channels restricted over
    them, each restriction spliced into its place."""
    comps, chans = par_components(term), set()
    i = 0
    while i < len(comps):
        if isinstance(comps[i], Restrict):
            chans.add(comps[i].chan)
            comps[i:i + 1] = par_components(comps[i].body)
        else:
            i += 1
    return comps, chans


def nodes(t):
    yield t
    for c in children(t):
        yield from nodes(c)


def check_against_reference(term):
    """Every standard form in the normal form of `term` prints as its
    nested reference, and splicing the top of that reference gives back
    its components, as a multiset, and its channels, as a set."""
    n = normalize(term)
    stds = [x for x in nodes(n) if isinstance(x, Std)]
    for std in stds:
        assert pretty(std) == pretty(nested(std))
        assert pretty(Ite(Var("x"), std, NIL)) == pretty(Ite(Var("x"), nested(std), NIL))
        comps, chans = spliced(push_inward(std.comps, std.chans))
        assert Counter(comps) == Counter(std.comps), pretty(std)
        assert chans == std.chans, pretty(std)
        assert list(std.comps) == sorted(std.comps, key=pretty)
        assert not any(isinstance(x, (Par, Restrict, Std)) for x in std.comps)
        assert std.chans <= frozenset().union(*map(free_channels, std.comps))
        assert std.chans or len(std.comps) > 1
    assert not any(isinstance(x, (Par, Restrict)) for x in nodes(n)), pretty(n)
    assert pretty(n) == pretty(nested(n))
    return stds


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_a_standard_form_prints_as_its_nested_reference(seed):
    # generated processes, and (p || q \ ch1) \ ch2 || r terms over c and
    # k only, so that restricted channels often clash and are renamed
    gen = TermGen(seed, SIG)
    found = check_against_reference(gen.process(frozenset({"q1", "q2"}), {}, 4))
    clashing = TermGen(seed, make_signature(chans="ck"))
    for _ in range(4):
        owned = [frozenset(clashing.rng.choice(((), ("q1",), ("q2",), ("o1",))))
                 for _ in range(3)]
        found += check_against_reference(clashing.restricted_par(owned))
    # as in test_reordering_a_chain_of_restrictions_keeps_congruence: some
    # channels renamed to a `#` name, some components restricted, under a
    # chain over c, k and `#` names
    names = ("c", "k", "c#0", "k#0", "k#1")
    rng = clashing.rng
    for _ in range(4):
        comps = []
        for _ in range(rng.randrange(1, 4)):
            t = clashing.process(frozenset(), {}, rng.randrange(3))
            new = rng.choice(names[2:])
            if rng.random() < 0.3 and new not in channels(t):
                t = _rename_channel(t, new[0], new)
            if rng.random() < 0.5:
                t = Restrict(t, rng.choice(names))
            comps.append(t)
        term = par_all(comps)
        for c in rng.sample(names, rng.randrange(2, 5)):
            term = Restrict(term, c)
        found += check_against_reference(term)
    assert found


def _renaming_cases():
    """The terms of the `#i` renaming cases of `tests/test_rewrite.py`."""
    body = Tau(Par(Send("b", (syntax.NatLit(1),)), Send("b#0", (syntax.NatLit(2),))))
    inner = Restrict(Par(Send("b", (syntax.NatLit(1),)), Recv("b#0", ("y",), NIL)), "b#0")
    chain = P("k!6 \\ k || k?x.c!q1")
    disc = P("disc(q2)")
    q = P("k!1 || (k?x.k!x) \\ k")
    return [
        P("(a?x.b!1 \\ b || b!0) \\ a"),
        Restrict(Par(Restrict(body, "b"), Par(P("b?x.nil"), Recv("b#0", ("y",), NIL))), "b#0"),
        Restrict(Par(Restrict(Tau(inner), "b"), P("b?x.nil")), "k"),
        Restrict(Restrict(chain, "k"), "k#0"),
        Restrict(Restrict(chain, "k#0"), "k"),
        Restrict(Par(disc, Restrict(chain, "k")), "k#0"),
        Restrict(Par(disc, Restrict(chain, "k#0")), "k"),
        q,
        Restrict(q, "c"),
    ]


def test_renaming_cases_print_as_their_nested_reference():
    for term in _renaming_cases():
        assert check_against_reference(term), pretty(term)


def live_nested_nodes() -> set:
    """The keys of the live `Par` and `Restrict` nodes."""
    gc.collect()
    return {key for key, ref in syntax._TABLE.items()
            if key[0] in (Par, Restrict) and ref() is not None}


def test_printing_a_standard_form_leaves_no_node_behind():
    # the printer runs the push-inward loop on printed pieces: printing a
    # standard form, alone or as a branch, builds no node, and no Par or
    # Restrict node it did not hold before is left live
    terms = _renaming_cases()
    gen = TermGen(7, make_signature(chans="ck"))
    terms += [gen.restricted_par((frozenset({"q1"}), frozenset(), frozenset({"q2"})))
              for _ in range(20)]
    built = Counter()
    construct = syntax._Interned.__call__

    def counting(cls, *args, **kwargs):
        built[cls.__name__] += 1
        return construct(cls, *args, **kwargs)

    held = live_nested_nodes()
    printed = 0
    for term in terms:
        stds = [x for x in nodes(normalize(term)) if isinstance(x, Std)]
        fresh = [x for x in stds if not hasattr(x, "_pretty")]
        branches = [Ite(Var("x"), std, NIL) for std in fresh]
        with mock.patch.object(syntax._Interned, "__call__", counting):
            for t in fresh + branches:
                pretty(t)
        assert not built, built
        printed += len(fresh)
    assert live_nested_nodes() <= held
    assert printed > 10


def test_a_scheduled_run_builds_no_nested_normal_form():
    # the qcf-n1 protocol and its specification in lockstep: every residual
    # is a standard form, so no Par or Restrict node is constructed. The
    # memos are emptied first, so the run's terms are built afresh even
    # after another test ran it
    normalize.cache_clear()
    rewrite._substitute.cache_clear()
    gc.collect()
    sig, defs = parse_program(corpus.qcf_source(1))
    zeros = corpus._zeros(("q1",))
    built = Counter()
    construct = syntax._Interned.__call__

    def counting(cls, *args, **kwargs):
        built[cls.__name__] += 1
        return construct(cls, *args, **kwargs)

    with mock.patch.object(syntax._Interned, "__call__", counting):
        run, failure = corpus._lockstep(sig, defs, zeros, "QCF", "FairCoin", 32)
    assert failure is None and len(run) > 10
    assert built["Std"] > 0
    assert built["Par"] == built["Restrict"] == 0, built


def test_a_restricted_send_is_no_outcome():
    # the qcf checks read the bits sent on a and b from a final process's
    # components; a send under a restriction is not one of them
    sig = syntax.Signature(channels={"a": ("nat",), "b": ("nat",), "x": ("nat",)})
    proc = normalize(parse_process("(a!1 || x!1) \\ a || b!0 || x?y.nil", sig))
    assert isinstance(proc, Std) and Send("a", (syntax.NatLit(1),)) in proc.comps
    assert corpus._outcome_payloads(proc) == {"b": 0, "x": 1}
