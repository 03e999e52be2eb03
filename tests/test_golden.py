"""Golden outputs: a change to the engine that should change nothing
observable must leave these files as they are.

- `golden/corpus_all.txt`: the stdout of `lqccs corpus --suite all`.
- `golden/game.json`: for every member of the benchmark's `game` pair
  families, in both modes, the JSON of the `distinguish` verdict (verdict,
  witness, certificate and reason) without its `stats`, with floats
  rounded to 9 decimals.

The family members are read from `bench/workloads.py`, which does not
import lqccs. After a change that is meant to alter these outputs,
`python tests/test_golden.py` rewrites both files from the current code.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from lqccs import cli
from lqccs.equiv import SearchBounds, distinguish
from lqccs.parser import parse_program
from lqccs.semantics import Distribution, make_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"


def corpus_stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["corpus", "--suite", "all"])
    return out.getvalue()


def _rounded(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def game_verdicts() -> dict:
    bounds = SearchBounds()
    out = {}
    for _, member, source, _ in workloads.game_members():
        sig, defs = parse_program(source)
        state = cli.build_state("", sig.qubits)
        dl = Distribution.point(make_config(state, defs["L"]))
        dr = Distribution.point(make_config(state, defs["R"]))
        for mode in workloads.MODES:
            verdict = cli._verdict_json(distinguish(dl, dr, mode, bounds, sig), bounds)
            del verdict["stats"]
            out[f"{member} {mode}"] = _rounded(verdict)
    return out


def test_corpus_output_is_unchanged():
    assert corpus_stdout() == (GOLDEN / "corpus_all.txt").read_text()


def test_game_verdicts_are_unchanged():
    expected = json.loads((GOLDEN / "game.json").read_text())
    got = game_verdicts()
    assert sorted(got) == sorted(expected)
    assert [k for k in sorted(got) if got[k] != expected[k]] == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "corpus_all.txt").write_text(corpus_stdout())
    verdicts = game_verdicts()
    (GOLDEN / "game.json").write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(verdicts[k], sort_keys=True)}" for k in sorted(verdicts)) + "\n}\n")
