"""One timed pass of one workload in a fresh interpreter.

run.py starts this script once per pass with the repository's src/ on
PYTHONPATH, so qpke's caches start empty as they do for a CLI user and the
peak RSS belongs to this pass alone. The last line of stdout is a JSON
object with the pass's timings, operation records and check results.

setup_s runs from the parent's spawn time (time.monotonic, one clock for
every process on the host) to the end of a warm-up trace distance at
dimension 256, so interpreter start, `import qpke` and the first spectral
call all count as set-up.

Every time the pass reports is scaled to the nominal host speed of
hostspeed.py; the times as measured go under "raw".
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import qpke
import qpke.cli  # noqa: F401  (imports every module, as the CLI does)
from qpke import qmat

import spans
import workloads
from hostspeed import HostSpeed, PROBE_NEAREST

ROOT = Path(__file__).resolve().parent.parent


def _warm_up() -> None:
    dim = 256
    diag = np.arange(1, dim + 1, dtype=float)
    qmat.trace_distance(np.eye(dim, dtype=complex) / dim,
                        np.diag(diag / diag.sum()).astype(complex))


def _blas_threads() -> int | None:
    """Threads in OpenBLAS's pool, asked of the library numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "qpke": qpke.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up, reporting only setup_s")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(qpke.__file__).resolve().parents:
        print(f"qpke was imported from {qpke.__file__}, not from {src}", file=sys.stderr)
        return 2
    _warm_up()
    setup_raw_s = time.monotonic() - args.spawned_at
    ready = perf_counter()
    host = HostSpeed()
    for _ in range(PROBE_NEAREST):
        host.probe()
    setup_s = setup_raw_s / host.slowdown(ready)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": setup_raw_s}}))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    host.start()
    result = workloads.RUNNERS[args.workload](args.seed, args.pass_index)
    t1 = perf_counter()
    host.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = [(kind, host.scaled(start, end), failure)
           for kind, start, end, failure in result.ops]
    out = {"setup_s": setup_s, "wall_s": host.scaled(result.start, t1),
           "peak_rss_mb": peak_rss_mb, "ops": ops, "problems": result.problems,
           "extra": result.extra, "versions": _versions(),
           "raw": {"setup_s": setup_raw_s, "wall_s": host.raw(result.start, t1),
                   "probes": len(host.loop_s),
                   "slowdown_median": host.slowdown_median()}}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
