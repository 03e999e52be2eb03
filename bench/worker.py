"""One pass of one workload, in a fresh process.

    python3 bench/worker.py --workload game --seed 3 [--trace FILE | --setup-only]

Imports lqccs from the `src` directory of the checkout that holds this
file, sets up the workload's inputs (parse and typecheck every program,
build the states), then runs every verdict once, one after another, and
checks each against its known answer. Prints one JSON object: the
monotonic time at which set-up ended, one record per verdict, peak RSS
and library versions, plus per-layer numbers with `--trace`, which also
writes the spans to FILE. With `--setup-only` it stops after set-up
and prints only the time at which set-up ended.

While the verdicts run, the worker also samples the speed of the host
(`HostProbe`). Each record holds the verdict's time and the mean time of
the probes taken around and during it, from which `run.py` derives the
verdict's time at a fixed reference speed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def import_lqccs():
    """Import the package from this checkout's `src`, never another copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lqccs.cli  # noqa: F401  (the CLI imports every layer)

    if Path(lqccs.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"lqccs was imported from {lqccs.cli.__file__}, not from {src}")


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) + sorted(libs.glob("libopenblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# set-up: each returns a list of (input id, run, check) where `run()` is the
# timed verdict and `check(result)` -> (correct, decided), outside the timing


def setup_corpus(seed):
    from lqccs import corpus
    from lqccs.parser import parse_program
    from lqccs.syntax import free_vars
    from lqccs.typecheck import typecheck

    entries = corpus.all_entries() + [corpus.build_qcf(2)]
    names = tuple(e.name for e in entries)
    if names != workloads.CORPUS_ORDER:
        raise SystemExit(f"corpus entries {names} are not the expected {workloads.CORPUS_ORDER}")
    for entry in entries:
        sig, defs = parse_program(entry.source)
        for term in defs.values():
            # the coin-flipping servers are open templates spliced into Bob
            if free_vars(term) <= set(sig.variables):
                typecheck(sig, term)

    def check(result):
        ok, _ = result
        # every entry's check ends in a distinguisher or a certificate
        return ok is True, ok is True

    return [(entry.name, entry.run, check) for entry in entries]


def setup_game(seed):
    from lqccs.cli import build_state
    from lqccs.equiv import SearchBounds, distinguish
    from lqccs.parser import parse_program
    from lqccs.semantics import Distribution, make_config
    from lqccs.typecheck import typecheck

    bounds = SearchBounds()
    out = []
    for item in workloads.game_inputs(seed):
        sig, defs = parse_program(item["source"])
        for term in defs.values():
            typecheck(sig, term)
        state = build_state("", sig.qubits)
        dl = Distribution.point(make_config(state, defs["L"]))
        dr = Distribution.point(make_config(state, defs["R"]))

        def run(dl=dl, dr=dr, mode=item["mode"], sig=sig):
            return distinguish(dl, dr, mode, bounds, sig)

        def check(verdict, answer=item["answer"]):
            distinguished = verdict.verdict == "distinguished"
            decided = verdict.verdict in ("distinguished", "certified-bisimilar")
            return distinguished == (answer == "D"), decided

        out.append((item["id"], run, check))
    return out


def reduced_state(mat, names, keep):
    """Reduced density matrix of qubit `keep`, computed here with numpy
    and not with lqccs."""
    import numpy as np

    n = len(names)
    k = names.index(keep)
    t = np.moveaxis(mat.reshape((2,) * (2 * n)), (k, n + k), (0, n))
    return np.einsum("iaja->ij", t.reshape(2, 1 << (n - 1), 2, 1 << (n - 1)))


def setup_wide(seed):
    import numpy as np
    from lqccs import corpus, qcore
    from lqccs.equiv import SearchBounds, advance_unique, config_partial_trace, density_quotient_equiv
    from lqccs.parser import parse_process, parse_program
    from lqccs.semantics import Distribution, make_config
    from lqccs.typecheck import typecheck

    bounds = SearchBounds(depth=8)
    out = []
    for item in workloads.wide_inputs(seed):
        n = item["n"]
        sig, defs = parse_program(workloads.wide_program(corpus.TELEPORT_SRC, n))
        for term in defs.values():
            typecheck(sig, term)
        psi = np.array(item["amps"], dtype=complex).reshape(2, 1)
        bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex).reshape(4, 1) / math.sqrt(2)
        vec = np.kron(psi, bell)
        for name in item["spectators"]:
            vec = np.kron(vec, np.array(workloads.SPECTATOR_STATES[name], dtype=complex).reshape(2, 1))
        start = Distribution.point(make_config(qcore.pure_state(vec, sig.qubits), defs["Wide"]))
        target = Distribution.point(
            make_config(qcore.pure_state(psi, ("q2",)), parse_process("out!q2", sig)))
        traced = tuple(q for q in sig.qubits if q != "q2")
        expected = psi @ psi.conj().T

        def run(start=start, target=target, traced=traced, sig=sig):
            chain = advance_unique(start, sig)
            cert = density_quotient_equiv(config_partial_trace(chain[-1], traced), target, bounds, sig)
            return chain, cert

        def check(result, expected=expected):
            chain, cert = result
            got = sum(p * reduced_state(c.rho.mat, c.rho.register.names, "q2")
                      for c, p in chain[-1].items())
            certified = cert.verdict == "certified-bisimilar"
            correct = len(chain) - 1 == 5 and certified and np.allclose(got, expected, atol=1e-9)
            return correct, certified

        out.append((item["id"], run, check))
    return out


SETUPS = {"corpus": setup_corpus, "game": setup_game, "wide": setup_wide}


# ---------------------------------------------------------------------------
# host speed. On the shared host where this benchmark was built, speed
# switches between a fast and a slow state within seconds, and the share
# of slow time drifts over minutes, so a pass can take 1.4x as long as
# the one before it with the same work (see BASELINE.md). A fixed piece of
# pure-Python work, which never touches lqccs, is timed before each
# verdict and every PROBE_PERIOD_S during it; its time tracks the host's
# speed at that moment.

PROBE_PERIOD_S = 0.1
PROBE_TABLE = {(i, "x%d" % i): i for i in range(64)}


def probe_work():
    # tuple hashing, dict lookups and int arithmetic, the interpreter work
    # lqccs does most; it creates no object the cyclic GC tracks, so its
    # time does not depend on how many objects lqccs keeps alive
    acc = 0
    for _ in range(40):
        for key in PROBE_TABLE:
            acc += PROBE_TABLE[key] * key[0]
    return acc


class HostProbe:
    """Samples `probe_work()`: `take()` times it once, and between
    `start()` and `stop()` a SIGALRM timer also takes a sample every
    PROBE_PERIOD_S, between two bytecodes of whatever is running."""

    def __init__(self):
        self.samples = []  # (start, seconds)

    def take(self, *_signal_args):
        t0 = time.perf_counter()
        probe_work()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def stolen(self, first, t0, t1) -> float:
        """Seconds that samples from index `first` on took within [t0, t1)."""
        return sum(d for s, d in self.samples[first:] if t0 <= s < t1)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="FILE", help="trace the layers; write spans to FILE")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    import_lqccs()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    verdicts = SETUPS[args.workload](args.seed)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0
    report = {"setup_end": setup_end, "records": []}
    probe = HostProbe()
    boundaries = []  # index of the sample taken just before each verdict
    probe.start()
    for input_id, run, check in verdicts:
        if tracer is not None:
            tracer.begin_request(input_id)
        error = result = None
        probe.take()
        boundaries.append(len(probe.samples) - 1)
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a failed verdict is counted, not fatal
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            error = (f"{type(exc).__name__}: {exc} "
                     f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})")
        t1 = time.perf_counter()
        # the samples taken during the verdict are not the verdict's time
        elapsed = t1 - t0 - probe.stolen(boundaries[-1], t0, t1)
        record = {"id": input_id, "ms": 1000.0 * elapsed, "error": error}
        if error is None:
            record["correct"], record["decided"] = check(result)
        result = None  # let a large final state go before the next verdict
        report["records"].append(record)
    probe.stop()
    probe.take()
    boundaries.append(len(probe.samples) - 1)
    for i, record in enumerate(report["records"]):
        # the samples from this verdict's boundary to the next one's
        around = [d for _, d in probe.samples[boundaries[i]:boundaries[i + 1] + 1]]
        record["probe_ms"] = 1000.0 * sum(around) / len(around)
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    report["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
