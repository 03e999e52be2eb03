"""Command-line front end.

Exit codes: 0 success, 1 check failed, 2 usage error, 3 resource cap hit.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus, qcore
from .equiv import (
    AttackStep,
    BarbLeaf,
    CertifiedBisimilar,
    Distinguished,
    SearchBounds,
    certify,
    check_candidate,
    distinguish,
)
from .errors import ChoiceExplosion, LqccsError, ParseError
from .osem import lift_estep
from .parser import parse_program, pretty
from .semantics import Distribution, dist_barbs, lift_step, make_config
from .syntax import NIL
from .typecheck import typecheck

STATE_TOKENS = {
    "ket0": qcore.KET0,
    "ket1": qcore.KET1,
    "ketplus": qcore.KETP,
    "ketminus": qcore.KETM,
    "phi+": qcore.PHI_P,
    "phi-": qcore.PHI_M,
    "psi+": qcore.PSI_P,
    "psi-": qcore.PSI_M,
}


def build_state(spec: str, qubits, ancillas: int = 0):
    """Comma-separated state tokens consumed left to right over the
    declared register, e.g. `ket0,phi+` for three qubits."""
    vecs = []
    used = 0
    tokens = [t.strip() for t in spec.split(",") if t.strip()] if spec else []
    for tok in tokens:
        v = STATE_TOKENS.get(tok.lower())
        if v is None:
            raise ValueError(f"unknown state token {tok!r}")
        vecs.append(v)
        used += v.shape[0].bit_length() - 1
    while used < len(qubits):
        vecs.append(qcore.KET0)
        used += 1
    if used != len(qubits):
        raise ValueError(f"state covers {used} qubits, register has {len(qubits)}")
    names = tuple(qubits) + tuple(f"anc{i}" for i in range(ancillas))
    vecs.extend([qcore.KET0] * ancillas)
    return qcore.pure_state(qcore.kron_all(vecs) if len(vecs) > 1 else vecs[0], names)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


def _pick(defs: dict, name):
    if name is None:
        return list(defs.values())[-1]
    if name not in defs:
        raise KeyError(f"no process named {name!r}; have {sorted(defs)}")
    return defs[name]


def _dist_json(dist: Distribution, emit_state: bool = False):
    elems = []
    for cfg, p in sorted(dist.items(), key=lambda kv: kv[0].key()):
        if cfg.is_bot:
            elems.append({"prob": p, "bot": True})
            continue
        item = {
            "prob": p,
            "process": pretty(cfg.proc),
            "observer": pretty(cfg.obs) if cfg.obs != NIL else None,
            "barbs": sorted(dist_barbs(Distribution.point(cfg))),
        }
        if emit_state:
            item["state"] = cfg.rho.to_json()
        elems.append(item)
    return {"distributions": elems}


def _witness_json(w):
    if isinstance(w, BarbLeaf):
        return {"kind": "barb-mismatch", "channel": w.channel,
                "p_left": w.p_left, "p_right": w.p_right}
    if isinstance(w, AttackStep):
        return {
            "kind": "attack",
            "side": w.side,
            "context": pretty(w.context) if w.context is not None else None,
            "index": w.index,
            "move": _dist_json(w.move),
            "refutations": [_witness_json(sub) for _, sub in w.refutations],
        }
    return None


def _verdict_json(v, bounds: SearchBounds):
    out = {
        "verdict": v.verdict,
        "bounds": {
            "context_size": bounds.context_size,
            "depth": bounds.depth,
            "ancillas": bounds.ancillas,
            "fresh_channels": bounds.fresh_channels,
        },
        "stats": v.stats.to_json() if hasattr(v, "stats") else None,
    }
    if isinstance(v, Distinguished):
        out["witness"] = _witness_json(v.witness)
    if isinstance(v, CertifiedBisimilar):
        out["certificate"] = list(map(str, v.certificate))
    if hasattr(v, "reason"):
        out["reason"] = v.reason
    return out


def _tree_json(dist, sig, depth, mode, emit_state, step_no=0, cap=100_000):
    node = _dist_json(dist, emit_state)
    node["step"] = step_no
    node["barbs"] = {k: round(v, 12) for k, v in sorted(dist_barbs(dist).items())}
    if depth <= 0:
        return node
    moves = []
    if mode == "enhanced":
        nexts = lift_estep(dist, sig, cap)
    else:
        nexts = [(None, d) for d in lift_step(dist, sig, cap)]
    for idx, succ in nexts:
        moves.append({
            "index": idx,
            "next": _tree_json(succ, sig, depth - 1, mode, emit_state, step_no + 1, cap),
        })
    node["moves"] = moves
    return node


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lqccs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse a program and print it back")
    p.add_argument("file")

    p = sub.add_parser("typecheck", help="infer the qubit context of each process")
    p.add_argument("file")
    p.add_argument("--process")

    p = sub.add_parser("run", help="expand the reduction tree from an initial state")
    p.add_argument("file")
    p.add_argument("--process")
    p.add_argument("--state", default="")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--mode", choices=["standard", "enhanced"], default="enhanced")
    p.add_argument("--emit-state", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("barbs", help="barbs of the initial configuration")
    p.add_argument("file")
    p.add_argument("--process")
    p.add_argument("--state", default="")

    p = sub.add_parser("distinguish", help="search for a distinguishing context")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--state", default="")
    p.add_argument("--mode", choices=["saturated", "constrained"], default="constrained")
    p.add_argument("--ctx-size", type=int, default=14)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--ancillas", type=int, default=1)

    p = sub.add_parser("certify", help="density-quotient certificate for a pair")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--state", default="")

    p = sub.add_parser("check-candidate", help="verify a candidate relation")
    p.add_argument("file")
    p.add_argument("--pair", action="append", required=True,
                   help="LEFT:RIGHT process names (repeatable)")
    p.add_argument("--state", default="")
    p.add_argument("--mode", choices=["saturated", "constrained"], default="constrained")
    p.add_argument("--upto-cv", action="store_true")

    p = sub.add_parser("corpus", help="run the bundled example corpus")
    p.add_argument("--suite", default="all")

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except ChoiceExplosion as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ParseError, LqccsError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.cmd == "parse":
        sig, defs = _load(args.file)
        for name, term in defs.items():
            print(f"process {name} = {pretty(term)};")
        return 0

    if args.cmd == "typecheck":
        sig, defs = _load(args.file)
        names = [args.process] if args.process else list(defs)
        for name in names:
            ctx = typecheck(sig, _pick(defs, name))
            print(f"{name}: {{{', '.join(sorted(ctx))}}}")
        return 0

    if args.cmd == "run":
        sig, defs = _load(args.file)
        term = _pick(defs, args.process)
        state = build_state(args.state, sig.qubits)
        d = Distribution.point(make_config(state, term))
        tree = _tree_json(d, sig, args.depth, args.mode, args.emit_state)
        if args.json:
            print(json.dumps(tree, indent=2))
        else:
            _print_tree(tree, 0)
        return 0

    if args.cmd == "barbs":
        sig, defs = _load(args.file)
        term = _pick(defs, args.process)
        state = build_state(args.state, sig.qubits)
        d = Distribution.point(make_config(state, term))
        print(json.dumps(dist_barbs(d), indent=2, sort_keys=True))
        return 0

    if args.cmd == "distinguish":
        sig, defs = _load(args.file)
        state = build_state(args.state, sig.qubits)
        dl = Distribution.point(make_config(state, _pick(defs, args.left)))
        dr = Distribution.point(make_config(state, _pick(defs, args.right)))
        bounds = SearchBounds(
            context_size=args.ctx_size, depth=args.depth, ancillas=args.ancillas
        )
        v = distinguish(dl, dr, args.mode, bounds, sig)
        print(json.dumps(_verdict_json(v, bounds), indent=2))
        return 0

    if args.cmd == "certify":
        sig, defs = _load(args.file)
        state = build_state(args.state, sig.qubits)
        dl = Distribution.point(make_config(state, _pick(defs, args.left)))
        dr = Distribution.point(make_config(state, _pick(defs, args.right)))
        bounds = SearchBounds()
        v = certify(dl, dr, bounds, sig)
        print(json.dumps(_verdict_json(v, bounds), indent=2))
        return 0 if isinstance(v, CertifiedBisimilar) else 1

    if args.cmd == "check-candidate":
        sig, defs = _load(args.file)
        state = build_state(args.state, sig.qubits)
        pairs = []
        for spec in args.pair:
            lname, _, rname = spec.partition(":")
            dl = Distribution.point(make_config(state, _pick(defs, lname)))
            dr = Distribution.point(make_config(state, _pick(defs, rname)))
            pairs.append((dl, dr))
        bounds = SearchBounds()
        v = check_candidate(pairs, args.mode, bounds, args.upto_cv, sig)
        print(json.dumps(_verdict_json(v, bounds), indent=2))
        return 0 if isinstance(v, CertifiedBisimilar) else 1

    if args.cmd == "corpus":
        entries = corpus.suite(args.suite)
        failed = 0
        for entry in entries:
            ok, detail = entry.run()
            print(f"{'PASS' if ok else 'FAIL'} {entry.name}: {detail}")
            if not ok:
                failed += 1
        return 1 if failed else 0

    return 2


def _print_tree(node, indent):
    pad = "  " * indent
    for el in node["distributions"]:
        if el.get("bot"):
            print(f"{pad}{el['prob']:.4f} bot")
        else:
            obs = f" | {el['observer']}" if el.get("observer") else ""
            print(f"{pad}{el['prob']:.4f} {el['process']}{obs}")
    if node.get("barbs"):
        print(f"{pad}barbs: {node['barbs']}")
    for mv in node.get("moves", []):
        print(f"{pad}--[{mv['index'] if mv['index'] is not None else '.'}]-->")
        _print_tree(mv["next"], indent + 1)


if __name__ == "__main__":
    sys.exit(main())
