"""One benchmark process: set up one workload and, unless only set-up is
measured, run its experiments once. Started by run.py, which pins the BLAS
thread variables in this process's environment before NumPy can load.

Prints one JSON object as its last line of standard output:
``setup_s`` (from the parent's launch time, --t0 on the monotonic clock,
to a built scenario), ``peak_rss_mb`` (this process's own ``ru_maxrss``)
and, for --mode run/trace, ``wall_s`` (first experiment's entry call to
last verdict), the outcome of each experiment, and in trace mode the
per-span totals.
"""
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if any(os.environ.get(var) != "1" for var in THREAD_VARS):
    sys.exit("child.py: BLAS thread variables must be set to 1 before start")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import experiments  # noqa: E402


def blas_threads():
    """Thread count reported by each OpenBLAS library mapped into this
    process (NumPy and SciPy each bundle one)."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh
                        if "openblas" in ln.rsplit("/", 1)[-1].lower()})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                counts[os.path.basename(path)] = int(getattr(lib, sym)())
                break
    return counts


def _num(x):
    return None if x is None or math.isnan(x) else float(x)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(experiments.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install(extra_modules=[experiments])
    run = experiments.setup(args.workload, args.seed, args.scratch)
    out = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        threads = blas_threads()
        if not threads or set(threads.values()) != {1}:
            sys.exit(f"child.py: BLAS not pinned to one thread: {threads}")
        out["blas_threads"] = threads
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            res = tracer.root(run) if tracer is not None else run()
        except Exception as exc:  # a raising experiment is a failed run
            traceback.print_exc()
            out["error"] = f"{type(exc).__name__}: {exc}"
        else:
            out["outcomes"] = {
                name: dict(statistic=o.statistic, ok=bool(o.ok),
                           tolerance=_num(o.tolerance), margin=_num(o.margin),
                           detail=o.detail)
                for name, o in res.items()}
        out["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            out["spans"] = tracer.totals
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
