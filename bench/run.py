"""lqccs verdict benchmark.

    python3 bench/run.py --workload corpus|game|wide --seed N --seconds S --trace 0|1

Runs passes of one workload for about S seconds. Each pass is a fresh
worker process (`worker.py`) in which one client runs every verdict of
the workload one after another, so every pass pays the cold start a
user of the `lqccs` command pays. Before each untraced pass,
SETUP_ONLY_PER_PASS workers stop after set-up, to add set-up times. No
pass starts that would end after S seconds by the longest pass so far,
its set-ups included, but every run makes at least MIN_PASSES passes.
Every figure of a pass is taken within that pass, and the run reports
the median over its passes, so a figure does not depend on how many
passes fit in S seconds. The gated times are reference times, scaled
by the host-speed probe the worker takes (see PROBE_REF_MS).

With `--trace 0` the result holds the end-to-end metrics, from untraced
passes. With `--trace 1` the run alternates untraced and traced passes
and the result holds the per-layer metrics of the traced passes, the
per-entry times of the untraced ones and the tracing overhead. A human
summary comes first; the last line of standard output is the JSON
result. The full report, failures included, and the spans are written
under `.bench_out/` in the checkout.

Exit codes: 0 when every verdict that completed matched its known
answer, 1 on a wrong verdict or a failed worker, 2 when the checkout
holds no lqccs sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

MIN_PASSES = 2
# A set-up takes about 0.3 s, within one fast or slow state of the host,
# so set-up times spread more than pass times; with only the passes' own
# set-ups (2 to 5 a run), setup_s spread 0.28 to 0.35 over five seeds.
SETUP_ONLY_PER_PASS = 2
# Time of worker.probe_work() on the host of BASELINE.md in its fast
# state. It only sets the scale of the `*_ref_*` times: a verdict's
# reference time is its time times PROBE_REF_MS over the mean probe time
# around it, the time it would take at that speed.
PROBE_REF_MS = 0.3
WORKER_TIMEOUT_S = 120
PROBE_LOOPS = 2_000_000


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a diagnostic of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def worker_env(nproc: int, seed: int) -> dict:
    env = dict(os.environ)
    # BLAS may not use more threads than this process may run on
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, env, extra=()) -> dict:
    """Run one worker process; returns its report plus `setup_s`, the
    time from just before the process was started to its first verdict."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_end"] - t_spawn
    return report


def ref_ms(record) -> float:
    return record["ms"] * PROBE_REF_MS / record["probe_ms"]


def raw_ms(record) -> float:
    return record["ms"]


def wall_s(report, ms=raw_ms) -> float:
    return sum(ms(r) for r in report["records"]) / 1000.0


def p50(report, ms=raw_ms) -> float:
    return statistics.median(ms(r) for r in report["records"])


def p90(report, ms=raw_ms) -> float:
    return statistics.quantiles([ms(r) for r in report["records"]], n=10, method="inclusive")[8]


def end_to_end(untraced, setups) -> dict:
    records = [r for rep in untraced for r in rep["records"]]

    def median_over_passes(figure, *args):
        return statistics.median(figure(rep, *args) for rep in untraced)

    return {
        "wall_ref_s": median_over_passes(wall_s, ref_ms),
        "verdict_ref_ms_p50": median_over_passes(p50, ref_ms),
        "verdict_ref_ms_p90": median_over_passes(p90, ref_ms),
        "wall_s": median_over_passes(wall_s),
        "verdict_ms_p50": median_over_passes(p50),
        "verdict_ms_p90": median_over_passes(p90),
        "probe_ms": median_over_passes(lambda rep: statistics.median(r["probe_ms"] for r in rep["records"])),
        "peak_rss_mib": median_over_passes(lambda rep: rep["peak_rss_mib"]),
        "setup_s": statistics.median(setups),
        "completed_ratio": sum(r["error"] is None for r in records) / len(records),
        "decided_ratio": sum(bool(r.get("decided")) for r in records) / len(records),
    }


def per_layer(untraced, traced) -> dict:
    names = traced[0]["layers"].keys()
    out = {k: statistics.median(rep["layers"][k] for rep in traced) for k in names}
    for entry in workloads.CORPUS_ORDER:
        times = [r["ms"] for rep in untraced for r in rep["records"] if r["id"] == entry]
        out[f"corpus.{entry}.ms"] = statistics.median(times) if times else 0.0
    out["trace.wall_s"] = statistics.median(wall_s(rep) for rep in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(wall_s(rep) for rep in untraced)
    return out


SUMMARY_UNITS = {"wall_s": "s", "verdict_ms_p50": "ms", "verdict_ms_p90": "ms", "probe_ms": "ms"}


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lqccs verdict benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lqccs" / "__init__.py").is_file():
        print(f"error: no lqccs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = workloads.self_check()
    if problems:
        print("error: benchmark self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 1

    e2e_units, layer_units = declared_units(0), declared_units(1)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc, args.seed)
    probe_before = host_probe()
    t_start = time.monotonic()
    deadline = t_start + args.seconds
    untraced, traced, setups = [], [], []
    try:
        longest = 0.0
        while len(untraced) + len(traced) < MIN_PASSES or time.monotonic() + longest <= deadline:
            t_pass = time.monotonic()
            if args.trace == 1 and len(traced) < len(untraced):
                spans = OUT / f"{stem}-spans{len(traced)}.jsonl"
                traced.append(run_worker(args, env, ("--trace", str(spans))))
            else:
                for _ in range(SETUP_ONLY_PER_PASS):
                    setups.append(run_worker(args, env, ("--setup-only",))["setup_s"])
                untraced.append(run_worker(args, env))
                setups.append(untraced[-1]["setup_s"])
            longest = max(longest, time.monotonic() - t_pass)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measured_s = time.monotonic() - t_start
    probe_after = host_probe()

    passes = untraced + traced
    records = [r for rep in passes for r in rep["records"]]
    failures = [r for r in records if r["error"] is not None]
    wrong = [r for r in records if r["error"] is None and not r["correct"]]
    e2e = end_to_end(untraced, setups)
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failures),
    }
    units = layer_units if args.trace else e2e_units
    values = per_layer(untraced, traced) if args.trace else e2e
    if not set(units) <= set(values):
        print(f"error: no value for {sorted(set(units) - set(values))} of BENCHMARK.json",
              file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}

    env_record = dict(untraced[0]["versions"], nproc=nproc,
                      blas_threads_requested=nproc, pythonhashseed=env["PYTHONHASHSEED"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_s": measured_s,
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "setup_samples_s": setups, "end_to_end": e2e,
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "environment": env_record,
        "failures": [{"id": r["id"], "error": r["error"]} for r in failures],
        "wrong": [r["id"] for r in wrong],
        "result": result,
        "passes": passes,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  {len(untraced)} untraced and "
          f"{len(traced)} traced passes in {measured_s:.1f} s  {len(records)} verdicts")
    for name, value in e2e.items():
        unit = e2e_units.get(name, SUMMARY_UNITS.get(name))
        print(f"  {name:<40} {value:14.4f} {unit}{'' if name in e2e_units else '  (not gated)'}")
    print(f"  {'failed_ratio':<40} {1.0 - e2e['completed_ratio']:14.4f} ratio  (not gated)")
    if args.trace:
        for name, value in values.items():
            print(f"  {name:<40} {value:14.4f} {units[name]}")
    by_type: dict = {}
    for r in failures:
        by_type.setdefault(r["error"].split(":", 1)[0], []).append(r["id"])
    for kind, ids in sorted(by_type.items()):
        print(f"  failed: {kind} x{len(ids)}, e.g. {ids[0]}")
    if wrong:
        print(f"  WRONG VERDICTS x{len(wrong)}: " + ", ".join(dict.fromkeys(r["id"] for r in wrong)))
    print(f"  host probe {probe_before:.3f} s before, {probe_after:.3f} s after; "
          + ", ".join(f"{k} {v}" for k, v in env_record.items()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
