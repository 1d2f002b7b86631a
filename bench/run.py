"""spde-control benchmark: time to verified verdicts, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). A workload is a fixed sequence of experiments (experiments.py);
one workload run performs them all in a fresh process started by child.py.
Runs go one at a time (a closed loop with one client), with OpenBLAS,
OpenMP and MKL pinned to one thread in the process's environment before
NumPy loads.

--trace 0 (the end-to-end metrics): workload runs go back to back while
the next one still fits in S seconds (at least one), then, if fewer than
MIN_SETUPS processes were started, processes that only set up. It reports
the median wall time ``wall_s`` and the median own peak RSS ``peak_rss_mb``
of the runs that passed, and the median set-up time ``setup_s`` over every
process started.

--trace 1 (the per-layer metrics): one untraced and one traced workload
run. The traced process wraps the layer entry points (spans.py); the run
fails unless every traced statistic equals the untraced one bit for bit
and every span expected on the workload fired at least once.

A workload run fails when it raises, when a verdict fails, or when an
experiment's statistic differs by more than 1e-10 relative from the
reference stored for the experiment and seed in expected.json. Failures are
counted, not fatal; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# the package reads these; a stray value would change the experiment
CLEARED_ENV = ("SPDE_CONTROL_SEED", "SPDE_CONTROL_OUTDIR")
# set-up samples per run at least: workload processes plus set-up-only
# probes
MIN_SETUPS = 5
REL_TOL = 1e-10
# every invocation must end within 180 s
DEADLINE_S = 170.0


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts child processes for one workload and seed, within a deadline."""

    def __init__(self, workload, seed, scratch, deadline):
        self.workload, self.seed = workload, seed
        self.scratch, self.deadline = scratch, deadline
        self.env = child_env()

    def child(self, mode):
        """Run child.py once; returns its JSON record, or a record with
        ``error`` set if it exited badly or ran past the deadline."""
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--t0", repr(t0), "--scratch", self.scratch]
        with subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                stdout, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return {"error": f"{mode} process killed after {timeout:.0f} s"}
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"{mode} process exited with {proc.returncode}"}
        return json.loads(lines[-1])


def verdict(rec, references):
    """Why a workload run fails (empty string when it passes).
    references maps experiment name to its stored statistic, if any."""
    if "error" in rec:
        return rec["error"]
    why = []
    for name, out in rec["outcomes"].items():
        ref = references.get(name)
        if not out["ok"]:
            why.append(f"{name} verdict failed {out['detail']}".strip())
        elif ref is not None and not (abs(out["statistic"] - ref)
                                      <= REL_TOL * abs(ref)):
            why.append(f"{name} statistic {out['statistic']!r} differs from "
                       f"reference {ref!r}")
    return "; ".join(why)


def report(mode, rec, why):
    """One line per workload run on standard error: wall time and verdict,
    then each experiment's statistic and margin to tolerance."""
    print(f"{mode} wall_s={rec.get('wall_s', float('nan')):.3f} "
          f"blas_threads={rec.get('blas_threads')} "
          f"{'FAIL ' + why if why else 'pass'}", file=sys.stderr)
    for name, out in rec.get("outcomes", {}).items():
        print(f"  {name} statistic={out['statistic']!r} "
              f"tolerance={out['tolerance']} margin={out['margin']}",
              file=sys.stderr)


def measure(runner, seconds, references):
    """--trace 0: workload runs while the next one fits in `seconds` (at
    least one), then set-up probes until there are MIN_SETUPS set-up
    samples. Their median absorbs the one slow first start in a fresh
    checkout that compiles bytecode. A failed run counts only in
    ``failed``; its wall time and RSS are left out of the medians."""
    start = time.monotonic()
    recs, walls, rss, attempted, failed = [], [], [], 0, 0

    def fits(duration):
        now = time.monotonic()
        return (now - start + duration <= seconds
                and now + duration <= runner.deadline)

    longest = 0.0
    while attempted == 0 or fits(longest):
        t0 = time.monotonic()
        rec = runner.child("run")
        longest = max(longest, time.monotonic() - t0)
        attempted += 1
        why = verdict(rec, references)
        failed += bool(why)
        report("run", rec, why)
        recs.append(rec)
        if not why:
            walls.append(rec["wall_s"])
            rss.append(rec["peak_rss_mb"])
    while len(recs) < MIN_SETUPS:
        recs.append(runner.child("setup"))
    setups = [r["setup_s"] for r in recs if "setup_s" in r]
    if not walls or not setups:
        return None
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return attempted, failed, metrics


def traced(runner, references, expected_spans):
    """--trace 1: one untraced and one traced workload run."""
    plain = runner.child("run")
    rec = runner.child("trace")
    fails = [verdict(plain, references), verdict(rec, references)]
    report("run", plain, fails[0])
    report("trace", rec, fails[1])
    if "spans" not in rec or "wall_s" not in plain:
        return None
    if not fails[1]:
        # the shims must not change results, and must see every layer
        problems = []
        stats = {name: out["statistic"]
                 for name, out in rec["outcomes"].items()}
        plain_stats = {name: out["statistic"]
                       for name, out in plain.get("outcomes", {}).items()}
        if stats != plain_stats:
            problems.append(f"traced statistics {stats!r} != "
                            f"untraced {plain_stats!r}")
        silent = [s for s in expected_spans if rec["spans"][s]["calls"] == 0]
        if silent:
            problems.append("expected spans never fired: " + ", ".join(silent))
        fails[1] = "; ".join(problems)
        if fails[1]:
            print(f"trace FAIL {fails[1]}", file=sys.stderr)
    top = sorted(rec["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:6]
    print("trace self-time shares: " + ", ".join(
        f"{name} {tot['self_s'] / rec['wall_s']:.1%}" for name, tot in top),
        file=sys.stderr)
    metrics = {}
    for name, tot in rec["spans"].items():
        metrics[f"{name}.self_s"] = (tot["self_s"], "s")
        metrics[f"{name}.calls"] = (tot["calls"], "count")
    for name in ("operators.solve1", "operators.solve2"):
        tot = rec["spans"][name]
        rate = tot["flops"] / tot["self_s"] / 1e9 if tot["self_s"] > 0 else 0.0
        metrics[f"{name}.computed_gflops_per_s"] = (rate, "GFLOP/s")
    metrics["trace_overhead_frac"] = (
        (rec["wall_s"] - plain["wall_s"]) / plain["wall_s"], "ratio")
    return 2, sum(bool(f) for f in fails), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "spde_control", "__init__.py")):
        print(f"run.py: no package source under {SRC}; run from the root of "
              "a spde-control checkout", file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    if args.workload not in expected["workloads"]:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(expected['workloads'])}", file=sys.stderr)
        return 2
    spec = expected["workloads"][args.workload]
    references = {name: ref.get(str(args.seed))
                  for name, ref in expected["reference"].items()}

    scratch = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        runner = Runner(args.workload, args.seed, scratch, deadline)
        if args.trace:
            res = traced(runner, references, spec["spans"])
        else:
            res = measure(runner, args.seconds, references)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:  # another run still uses it
            pass
    if res is None:
        print("run.py: no workload run produced a measurement", file=sys.stderr)
        return 1
    attempted, failed, metrics = res
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
