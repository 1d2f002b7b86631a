"""Record the committed baseline in baseline.json.

    python3 bench/record.py

Run from the root of a source checkout, on an otherwise idle machine. For
every workload it runs run.py untraced at seed 7 (the baseline), traced at
seed 7 (the per-layer spans and trace_overhead_frac) and untraced at the
held-out seed 8, whose verdicts must all pass, each for the run_seconds
that BENCHMARK.json sets. Each result is stored with the machine it was
measured on.
"""
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUNS = (("seed7", 7, 0), ("seed7_traced", 7, 1), ("seed8_holdout", 8, 0))


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")), "unknown")
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas.get("version", "unknown"),
    }


def main():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        names = list(json.load(fh)["workloads"])
    out = {"environment": environment(), "workloads": {}}
    for name in names:
        rec = {}
        for label, seed, trace in RUNS:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            # one line per experiment: statistic, wall time, margin, verdict
            res["experiments"] = proc.stderr.strip().splitlines()
            rec[label] = res
            print(name, label, "correct" if res["correct"] else "FAILED",
                  file=sys.stderr)
        out["workloads"][name] = rec
    with open(os.path.join(BENCH_DIR, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
