"""Layered benchmark of qpke: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root. Every pass runs in a fresh interpreter
(worker.py) with src/ on PYTHONPATH and one BLAS thread; nothing needs
installing.

--trace 0 runs passes until --seconds would be exceeded (at least three)
and prints the end-to-end metrics. setup_s is the median over at least
seven fresh interpreters, wall_s and peak_rss_mb the medians over passes,
op_p50_ms and op_p90_ms nearest-rank percentiles over every operation of
the run. Every time is scaled to a nominal host speed, measured between
operations with a reference loop (hostspeed.py), because the shared host's
own speed drifts by more than the benchmark's bounds; the times as measured
go to the results file.
--trace 1 runs a traced pass between two untraced ones, all on the inputs
of pass 0, and prints the per-layer metrics of the traced pass (their
times are as measured) and the tracing overhead against the untraced
passes' mean.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Provenance, per-pass figures and the checks'
findings go to perfbench/results/, spans of a traced pass to a gzipped CSV
beside them. The run exits nonzero, printing no result, when the source
tree is missing or a pass cannot complete.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("sweep", "roundtrip", "keyserver", "attacks")
MIN_PASSES = 3
SETUP_SAMPLES = 7  # fresh interpreters per untraced run whose set-up is timed
RUN_LIMIT_S = 170.0  # a run must finish within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "ok_frac": "ratio", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return {"qmat.eig.max_dim": "dim", "boolfn.evaluate.per_key": "calls/key",
            "attacks.copies_per_recovery": "copies",
            "trace.overhead_frac": "ratio"}[name]


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, pass_index: int, trace: int,
             deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One BLAS thread: all work then runs where the host-speed probes run,
    # and no interpreter waits for an idle second CPU to wake for the pool.
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", str(RESULTS / f"spans-{workload}-seed{seed}.csv.gz")]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass {pass_index} overran the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass {pass_index} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.monotonic() - spawned
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int, wanted: float = 90.0) -> float:
    """The highest percentile up to `wanted` with at least ten of the run's
    n samples beyond it."""
    return max(50.0, min(wanted, 100.0 * (1 - 10 / n))) if n else 50.0


def source_provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qpke").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    start = time.monotonic()
    passes = []
    if trace:
        passes = [run_pass(workload, seed, 0, t, deadline) for t in (0, 1, 0)]
    else:
        while True:
            passes.append(run_pass(workload, seed, len(passes), 0, deadline))
            longest = max(p["elapsed_s"] for p in passes)
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
                break
        # More set-up samples from interpreters that stop once set up.
        setups = passes[:]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(workload, seed, 0, 0, deadline, setup_only=True))

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for _, _, failure in ops if failure)
    problems = [msg for p in passes for msg in p["problems"]]
    q_tail = tail_percentile(len(ops))
    if trace:
        traced = passes[1]
        values = dict(traced["layers"])
        values["attacks.copies_per_recovery"] = traced["extra"].get("copies_per_recovery", 0.0)
        untraced = statistics.fmean((passes[0]["wall_s"], passes[2]["wall_s"]))
        values["trace.overhead_frac"] = traced["wall_s"] / untraced - 1
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        latencies_ms = sorted(1e3 * s for _, s, _ in ops)
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_p50_ms": percentile(latencies_ms, 50),
            "op_p90_ms": percentile(latencies_ms, q_tail),
            "ok_frac": (len(ops) - failed) / len(ops),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    by_kind: dict[str, list[int]] = {}  # kind -> [attempted, failed]
    for kind, _, failure in ops:
        counts = by_kind.setdefault(kind, [0, 0])
        counts[0] += 1
        counts[1] += bool(failure)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": {**source_provenance(), **passes[0]["versions"],
                       "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                       "machine": platform.machine()},
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "elapsed_s", "raw",
                                      "extra")}
                   | {"ops": len(p["ops"])} for p in passes],
        "setups": [] if trace else [{"setup_s": p["setup_s"], "raw": p["raw"]} for p in setups],
        "ops": {"attempted": len(ops), "failed": failed, "by_kind": by_kind,
                "failures": Counter(failure for _, _, failure in ops if failure)},
        "percentiles": {"p50": 50, "tail": q_tail, "tail_reported_as": "op_p90_ms",
                        "samples": len(ops), "passes": len(passes)},
        "problems": problems[:50], "problem_count": len(problems),
        "metrics": metrics, "run_s": time.monotonic() - start,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    return {"correct": not problems, "attempted": len(ops), "failed": failed,
            "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps the running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qpke" / "__init__.py").is_file():
        print(f"error: no qpke source tree at {ROOT / 'src' / 'qpke'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    for name in names:
        deadline = (time.monotonic() if args.workload == "all" else start) + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except PassError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        res = results[name]
        prov = res["detail"]["provenance"]
        print(f"# {name} seed={args.seed} passes={len(res['detail']['passes'])} "
              f"ops={res['attempted']} failed={res['failed']} correct={res['correct']} "
              f"commit={prov['commit']} source={prov['source_sha256'][:12]} "
              f"python={prov['python']} numpy={prov['numpy']} blas={prov['blas']} "
              f"blas_threads={prov['blas_threads']} nproc={prov['nproc']} "
              f"tail_percentile={res['detail']['percentiles']['tail']:g} "
              f"samples={res['detail']['percentiles']['samples']}")
        raw = [p["raw"] for p in res["detail"]["passes"]]
        print(f"# {name} as measured: pass wall_s "
              f"{' '.join(format(r['wall_s'], '.3f') for r in raw)}; host slowdown "
              f"{' '.join(format(r['slowdown_median'], '.3f') for r in raw)}")
        for problem in res["detail"]["problems"][:10]:
            print(f"#   problem: {problem}")
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")

    if args.workload == "all":
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
