"""Command-line entry point.

Each subcommand loads a scenario config, resolves overrides (flags win
over config; every override lands in the manifest), writes the manifest
*before* computing, runs one experiment, writes CSV outputs into a
deterministic run directory and prints a single-line verdict record:

    VERDICT experiment=<id> status=<pass|fail> statistic=<x> tolerance=<t>

Exit codes: 0 experiment passed / completed, 1 a check failed, 2 usage or
configuration error.  Seed and config fully determine every output byte;
run directories carry no timestamps (the manifest records one, outputs do
not depend on it).
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .adjoint import RegressionError, solve_adjoint1, solve_adjoint2_mollified
from .ensemble import PathEnsemble
from .forward import BlowUpError, simulate_cost, simulate_state
from .grids import Field, TensorField
from .scenario import (ConfigError, ENV_OUTDIR, ENV_SEED,
                       ScenarioValidationError, SpikeControl, in_steps,
                       load_scenario)
from .serialize import field_to_csv, table_to_csv, tensor_to_csv
from . import verify

_RATE_STATS = {"y": "y_moment", "z": "z_moment", "residual": "residual",
               "hgamma": "hgamma"}


def _parse_eta(text: str, h: float) -> float:
    """Width spec: plain float, or '<c>h2' meaning c * h^2; must be > 0."""
    spec = text.strip().lower()
    try:
        eta = (float(spec[:-2] or "1") * h * h if spec.endswith("h2")
               else float(spec))
    except ValueError:
        eta = float("nan")
    if not eta > 0.0:
        raise ConfigError(f"--eta must be a positive width, got {text!r}")
    return eta


def _parse_ladder(text: str):
    """Comma list of fractions in [0, 1]; tokens may use '2^-3' notation."""
    out = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        base, sep, expo = tok.partition("^")
        try:
            out.append(float(base) ** (float(expo) if sep else 1.0))
            if not 0.0 <= out[-1] <= 1.0:  # nan fails; complex (-8^0.5) raises
                raise ValueError
        except (ValueError, TypeError, ArithmeticError):
            raise ConfigError(f"--eps-ladder token {tok!r} is not a "
                              f"fraction in [0, 1]") from None
    if not out:
        raise ConfigError("empty epsilon ladder")
    return out


def _verdict(experiment: str, ok: bool, statistic: float, tolerance, note="") -> bool:
    tol = "none" if tolerance is None else f"{tolerance:.6g}"
    print(f"VERDICT experiment={experiment} status={'pass' if ok else 'fail'} "
          f"statistic={statistic:.6g} tolerance={tol}{' note=' + note if note else ''}")
    return ok


def _failed(experiment: str, exc: Exception, tolerance=None) -> int:
    """Report a computation that raised: the error on stderr, a failing
    verdict on stdout, exit code 1."""
    print(f"error: {exc}", file=sys.stderr)
    _verdict(experiment, False, float("nan"), tolerance)
    return 1


class _Run:
    """Run directory plus manifest bookkeeping for one command."""

    def __init__(self, args, scn):
        base = args.out or os.environ.get(ENV_OUTDIR) or "runs"
        stem = os.path.splitext(os.path.basename(args.scenario))[0]
        self.dir = os.path.join(base, f"{args.command}-{stem}-s{scn.seed}")
        os.makedirs(self.dir, exist_ok=True)
        lines = {
            "scenario": args.scenario,
            "experiment": args.command,
            "seed": scn.seed,
            "output_dir": self.dir,
            "tool_version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        # every flag given or defaulted, so equal manifests mean equal outputs
        for key, val in vars(args).items():
            if key not in ("command", "scenario", "out") and val is not None:
                lines[f"override.{key}"] = val
        with open(os.path.join(self.dir, "manifest.txt"), "w") as fh:
            for key, val in lines.items():
                fh.write(f"{key}={val}\n")

    def write(self, name: str, text: str):
        with open(os.path.join(self.dir, name), "w") as fh:
            fh.write(text)


def _load(args):
    if getattr(args, "probes", 1) < 1:
        raise ConfigError(f"--probes must be at least 1, got {args.probes}")
    scn = load_scenario(args.scenario)
    if getattr(args, "eta", None) is not None:
        _parse_eta(args.eta, scn.grid.h)
    # flags win over the environment, which wins over the config
    seed_from = ("--seed" if args.seed is not None else
                 ENV_SEED if ENV_SEED in os.environ else "[run] seed")
    if args.seed is not None:
        scn.seed = args.seed
    if args.paths is not None:
        scn.default_paths = args.paths
    if not 0 <= scn.seed < 2 ** 64:
        raise ConfigError(f"{seed_from} must be in [0, 2^64), got {scn.seed}")
    if scn.default_paths < 2:
        raise ConfigError(f"{'[run] paths' if args.paths is None else '--paths'} "
                          f"must be at least 2, got {scn.default_paths}")
    return scn


def cmd_simulate(args) -> int:
    scn = _load(args)
    run = _Run(args, scn)
    ens = PathEnsemble.for_scenario(scn)
    try:
        est = simulate_cost(scn, scn.base_control, ens)
    except BlowUpError as exc:
        return _failed("simulate", exc)
    mean_T = Field(scn.grid, est.final.mean(axis=0))
    run.write("terminal_mean.csv", field_to_csv(mean_T))
    run.write("summary.csv", table_to_csv(
        ("metric", "value"),
        [("cost_mean", est.mean), ("cost_se", est.se),
         ("paths", float(ens.n_paths))], "simulate summary"))
    _verdict("simulate", True, est.mean, None)
    return 0


def cmd_adjoint(args) -> int:
    scn = _load(args)
    run = _Run(args, scn)
    ens = PathEnsemble.for_scenario(scn)
    try:
        xbar = simulate_state(scn, scn.base_control, ens)
        pair1 = solve_adjoint1(scn, xbar, scn.base_control, ens)
        cond = pair1.diagnostics["max_gram_condition"]
        run.write("p0_mean.csv",
                  field_to_csv(Field(scn.grid, pair1.p0.mean(axis=0))))
        if args.order == 2:
            eta = _parse_eta(args.eta or "4h2", scn.grid.h)
            pair2 = solve_adjoint2_mollified(scn, xbar, scn.base_control, ens,
                                             pair1, eta)
            cond = max(cond, pair2.diagnostics["max_gram_condition"])
            P0 = 0.5 * (pair2.P0.mean(axis=0) + pair2.P0.mean(axis=0).T)
            run.write("P0_mean.csv",
                      tensor_to_csv(TensorField(scn.grid.square(), P0)))
    except (BlowUpError, RegressionError) as exc:
        return _failed(f"adjoint{args.order}", exc)
    _verdict(f"adjoint{args.order}", True, cond, None)
    return 0


def cmd_duality(args) -> int:
    scn = _load(args)
    run = _Run(args, scn)
    ens = PathEnsemble.for_scenario(scn)
    tol = verify.DUALITY_TOL[args.order]
    try:
        if args.order == 1:
            probes = verify.make_random_probes(scn, args.probes, seed=scn.seed)
            rep = verify.check_duality1(scn, scn.base_control, ens, probes)
        else:
            eta = _parse_eta(args.eta or "4h2", scn.grid.h)
            probes = verify.make_tensor_probes(scn, args.probes, seed=scn.seed)
            rep = verify.check_duality2(scn, scn.base_control, ens, eta, probes)
    except (BlowUpError, RegressionError) as exc:
        return _failed(f"duality{args.order}", exc, tol)
    run.write("duality.csv", table_to_csv(
        ("probe", "lhs", "rhs", "gap", "lhs_se", "rhs_se"),
        [(r["probe"], r["lhs"], r["rhs"], r["gap"], r["lhs_se"], r["rhs_se"])
         for r in rep.rows], f"duality order={args.order}"))
    ok = _verdict(f"duality{args.order}", rep.passed(tol), rep.max_gap, tol)
    return 0 if ok else 1


def cmd_rates(args) -> int:
    scn = _load(args)
    fractions = _parse_ladder(args.eps_ladder)
    if len({f for f in fractions if f > 0.0}) < 3:  # a slope fit needs 3
        raise ConfigError(f"--eps-ladder needs at least 3 distinct positive "
                          f"fractions, got {args.eps_ladder!r}")
    if scn.spike_control is None or not isinstance(scn.spike_control, SpikeControl):
        raise ConfigError("rates needs a spike control in the scenario config")
    spike = scn.spike_control
    if in_steps(spike.tau + max(fractions) * scn.T, scn.T) > 1.0:
        raise ConfigError(f"--eps-ladder fraction {max(fractions):g} puts the "
                          f"spike past the horizon T = {scn.T:g}")
    run = _Run(args, scn)
    ens = PathEnsemble.for_scenario(scn)
    kinds = list(_RATE_STATS) if args.kind == "all" else [args.kind]
    try:
        rep = verify.rate_experiment(scn, scn.base_control, spike.v, spike.tau,
                                     fractions, ens)
    except (BlowUpError, RegressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for kind in kinds:
            _verdict(f"rates-{kind}", False, float("nan"),
                     verify.RATE_THRESHOLDS[_RATE_STATS[kind]])
        return 1
    rows = []
    for kind in kinds:
        stat = _RATE_STATS[kind]
        for e, val, se in zip(rep.eps, rep.stats[stat], rep.ses[stat]):
            rows.append((kind, float(e), float(val), float(se)))
    run.write("rates.csv", table_to_csv(("kind", "eps", "value", "se"), rows,
                                        "spike expansion moments"))
    srows, all_ok = [], True
    for kind in kinds:
        stat = _RATE_STATS[kind]
        thr = verify.RATE_THRESHOLDS[stat]
        ok, note = rep.passed(stat), ""
        if ok is None:  # an undefined slope passes only if the statistic vanishes
            ok = not rep.stats[stat].any()
            note = "slope-undefined-" + ("statistic-identically-0" if ok
                                         else "too-few-positive-values")
        slope, lo, hi = rep.slopes[stat] or ("nan",) * 3
        all_ok &= _verdict(f"rates-{kind}", ok, float(slope), thr, note)
        srows.append((kind, slope, lo, hi, thr,
                      "undefined" if note and ok else ("pass" if ok else "fail")))
    run.write("slopes.csv", table_to_csv(
        ("kind", "slope", "ci_lo", "ci_hi", "threshold", "status"), srows,
        "log-log slope fits, 95% CI"))
    return 0 if all_ok else 1


def cmd_smp(args) -> int:
    scn = _load(args)
    run = _Run(args, scn)
    ens = PathEnsemble.for_scenario(scn)
    eta = _parse_eta(args.eta or "4h2", scn.grid.h)
    try:
        rep = verify.smp_scan(scn, scn.base_control, ens, eta)
    except (BlowUpError, RegressionError) as exc:
        return _failed("smp", exc, verify.SMP_TOL)
    rows = []
    for si, k in enumerate(rep.sample_steps):
        for vi in range(len(rep.lattice)):
            rows.append((k, vi, rep.mean_gaps[si, vi], rep.se_gaps[si, vi],
                         rep.p05_gaps[si, vi]))
    run.write("gaps.csv", table_to_csv(
        ("step", "control_index", "mean_gap", "se", "p05"), rows,
        f"maximum-principle gap scan, scale={rep.scale:.6g}"))
    ok = _verdict("smp", rep.passed(), rep.min_rel_gap, verify.SMP_TOL)
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    scn = _load(args)
    run = _Run(args, scn)
    ens = PathEnsemble.for_scenario(scn)
    try:
        if args.kind == "zero-noise":
            eta = _parse_eta(args.eta or "4h2", scn.grid.h)
            rep = verify.oracle_zero_noise(scn, scn.base_control, ens, eta)
        else:
            rep = verify.oracle_ansatz(scn, scn.base_control, ens)
    except (BlowUpError, RegressionError, ValueError, RuntimeError) as exc:
        return _failed(f"oracle-{args.kind}", exc,
                       verify.ORACLE_TOL[args.kind])
    run.write("oracle.csv", table_to_csv(
        ("quantity", "relative_error", "tolerance", "status"), rep.rows,
        f"oracle comparison kind={args.kind}"))
    ok = _verdict(f"oracle-{args.kind}", rep.ok, rep.worst, rep.tolerance)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spde-control",
        description="Experiments for the stochastic maximum principle "
                    "machinery: simulation, adjoints, duality, rates, gap "
                    "scans and oracle cross-checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--out", default=None, help="output root directory")

    p = sub.add_parser("simulate", help="simulate the state and report cost")
    common(p)

    p = sub.add_parser("adjoint", help="solve the adjoint pair(s)")
    common(p)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--eta", default=None, help="mollifier width, e.g. 4h2")

    p = sub.add_parser("duality", help="duality pairing check")
    common(p)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--eta", default=None)
    p.add_argument("--probes", type=int, default=5)

    p = sub.add_parser("rates", help="spike-expansion rate fits")
    common(p)
    p.add_argument("--kind", choices=("y", "z", "residual", "hgamma", "all"),
                   default="all")
    p.add_argument("--eps-ladder", default="2^-3,2^-4,2^-5,2^-6,2^-7",
                   help="spike lengths as fractions of the horizon")

    p = sub.add_parser("smp", help="maximum-principle gap scan")
    common(p)
    p.add_argument("--eta", default=None)

    p = sub.add_parser("oracle", help="cross-check against independent oracles")
    common(p)
    p.add_argument("--kind", choices=("zero-noise", "ansatz"),
                   default="zero-noise")
    p.add_argument("--eta", default=None)

    return ap


_COMMANDS = {
    "simulate": cmd_simulate,
    "adjoint": cmd_adjoint,
    "duality": cmd_duality,
    "rates": cmd_rates,
    "smp": cmd_smp,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ScenarioValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
