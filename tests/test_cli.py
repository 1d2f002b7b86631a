"""Command-line interface: exit codes, verdict records, run directories,
manifests and output determinism."""
import contextlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import child_env
from spde_control import verify
from spde_control.adjoint import RegressionError
from spde_control.cli import _parse_eta, _parse_ladder, main
from spde_control.forward import BlowUpError
from spde_control.scenario import ConfigError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eta_spec_parsing():
    assert _parse_eta("4h2", 0.1) == pytest.approx(0.04)
    assert _parse_eta("h2", 0.1) == pytest.approx(0.01)
    assert _parse_eta("0.25", 0.1) == pytest.approx(0.25)


def test_ladder_parsing():
    assert _parse_ladder("2^-3,2^-4") == [0.125, 0.0625]
    assert _parse_ladder("0.5, 0.25") == [0.5, 0.25]
    with pytest.raises(ConfigError):
        _parse_ladder(" , ")


def test_simulate_writes_outputs_and_verdict(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--scenario", fixture("bilinear.cfg"),
                       "--paths", "50", "--out", str(tmp_path))
    assert code == 0
    assert "VERDICT experiment=simulate status=pass" in out
    rundir = tmp_path / "simulate-bilinear-s7"
    assert (rundir / "manifest.txt").exists()
    assert (rundir / "terminal_mean.csv").exists()
    assert (rundir / "summary.csv").exists()
    manifest = (rundir / "manifest.txt").read_text()
    assert "override.paths=50" in manifest
    assert "tool_version=" in manifest


def test_seed_override_lands_in_run_directory_and_manifest(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--scenario", fixture("bilinear.cfg"),
                     "--paths", "20", "--seed", "21", "--out", str(tmp_path))
    assert code == 0
    manifest = (tmp_path / "simulate-bilinear-s21" / "manifest.txt").read_text()
    assert "override.seed=21" in manifest


@pytest.mark.parametrize("command, flag, values", [
    ("adjoint", "--order", ("1", "2")),
    ("oracle", "--eta", ("4h2", "8h2")),
])
def test_runs_that_differ_in_one_flag_differ_in_the_manifest(
        tmp_path, capsys, command, flag, values):
    # the manifest is written before computing, so 50 paths (too few for
    # the bilinear regression, exit 1) show all a run reads
    manifests = []
    for i, value in enumerate(values):
        out = tmp_path / str(i)
        run(capsys, command, "--scenario", fixture("bilinear.cfg"),
            "--paths", "50", flag, value, "--out", str(out))
        text = (out / f"{command}-bilinear-s7" / "manifest.txt").read_text()
        assert f"override.{flag[2:]}={value}\n" in text
        manifests.append([ln for ln in text.splitlines()
                          if not ln.startswith(("timestamp=", "output_dir="))])
    assert manifests[0] != manifests[1]


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    args = ("simulate", "--scenario", fixture("bilinear.cfg"),
            "--paths", "50")
    code1, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    code2, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code1 == code2 == 0
    for name in ("terminal_mean.csv", "summary.csv"):
        a = (tmp_path / "a" / "simulate-bilinear-s7" / name).read_bytes()
        b = (tmp_path / "b" / "simulate-bilinear-s7" / name).read_bytes()
        assert a == b


def test_adjoint_second_order_writes_tensor(tmp_path, capsys):
    code, out, _ = run(capsys, "adjoint", "--scenario", fixture("bilinear.cfg"),
                       "--paths", "300", "--order", "2", "--eta", "4h2",
                       "--out", str(tmp_path))
    assert code == 0
    rundir = tmp_path / "adjoint-bilinear-s7"
    assert (rundir / "p0_mean.csv").exists()
    assert (rundir / "P0_mean.csv").exists()


def test_adjoint_regression_failure_exits_one(tmp_path, capsys):
    # 30 paths cannot support the default feature count
    code, out, err = run(capsys, "adjoint", "--scenario",
                         fixture("bilinear.cfg"), "--paths", "30",
                         "--out", str(tmp_path))
    assert code == 1
    assert "status=fail" in out


def test_duality_first_order_passes(tmp_path, capsys):
    code, out, _ = run(capsys, "duality", "--scenario",
                       fixture("additive.cfg"), "--probes", "2",
                       "--out", str(tmp_path))
    assert code == 0
    assert "VERDICT experiment=duality1 status=pass" in out
    csv = (tmp_path / "duality-additive-s7" / "duality.csv").read_text()
    assert csv.startswith("# spde-control csv v1")
    assert csv.splitlines()[1] == "probe,lhs,rhs,gap,lhs_se,rhs_se"


@pytest.mark.parametrize("kind, cfg, statistic, quantities", [
    ("zero-noise", "zero_noise.cfg", "0.000934247",
     [("p", "pass"), ("P", "pass")]),
    ("ansatz", "ansatz.cfg", "0.00504046", [("p", "pass"), ("q", "info")]),
])
def test_oracle_passes_and_writes_rows(tmp_path, capsys, kind, cfg, statistic,
                                       quantities):
    code, out, _ = run(capsys, "oracle", "--kind", kind, "--scenario",
                       fixture(cfg), "--out", str(tmp_path))
    assert code == 0
    assert (f"VERDICT experiment=oracle-{kind} status=pass "
            f"statistic={statistic} ") in out
    stem = os.path.splitext(cfg)[0]
    seed = 1 if kind == "zero-noise" else 5
    csv = (tmp_path / f"oracle-{stem}-s{seed}" / "oracle.csv").read_text()
    rows = [ln.split(",") for ln in csv.splitlines()[2:]]
    assert [(r[0], r[3]) for r in rows] == quantities


def test_import_leaves_scipy_stats_unloaded():
    code = ("import sys, spde_control.cli; "
            "print('scipy.stats' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_degenerate_rates_reports_undefined_slopes(tmp_path, capsys):
    code, out, _ = run(capsys, "rates", "--scenario", fixture("degenerate.cfg"),
                       "--eps-ladder", "2^-3,2^-4,2^-5",
                       "--out", str(tmp_path))
    assert code == 0
    assert "note=slope-undefined-statistic-identically-0" in out
    slopes = (tmp_path / "rates-degenerate-s3" / "slopes.csv").read_text()
    assert "undefined" in slopes


def test_rates_with_too_few_positive_values_fails(tmp_path, capsys,
                                                  monkeypatch):
    # an undefined slope passes only when the statistic vanishes; too few
    # positive values for a fit is a failing verdict
    eps = np.array([0.1, 0.05, 0.025])
    names = ("y_moment", "z_moment", "residual", "hgamma")
    stats = {nm: np.array([1e-3, 0.0, 0.0]) for nm in names}
    stats["z_moment"] = np.zeros(3)
    ses = {nm: np.zeros(3) for nm in names}
    slopes = dict.fromkeys(names)
    report = verify.RateReport(eps, stats, ses, slopes)
    monkeypatch.setattr(verify, "rate_experiment",
                        lambda *args, **kwargs: report)
    code, out, _ = run(capsys, "rates", "--scenario",
                       fixture("logistic_spike.cfg"), "--out", str(tmp_path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == ("VERDICT experiment=rates-y status=fail statistic=nan "
                        "tolerance=0.9 note=slope-undefined-too-few-positive-values")
    assert lines[1] == ("VERDICT experiment=rates-z status=pass statistic=nan "
                        "tolerance=0.9 note=slope-undefined-statistic-identically-0")
    slopes_csv = (tmp_path / "rates-logistic_spike-s11"
                  / "slopes.csv").read_text().splitlines()
    assert slopes_csv[2] == "y,nan,nan,nan,0.90000000000000002,fail"
    assert slopes_csv[3] == "z,nan,nan,nan,0.90000000000000002,undefined"


def test_rates_ladder_may_end_at_the_horizon(tmp_path, capsys, monkeypatch):
    # tau + 0.8 T = 0.04 + 0.16 is 0.20000000000000004 in floating point:
    # the ladder ends on the horizon's step and is not a config error
    cfg = tmp_path / "spike.cfg"
    with open(fixture("logistic_spike.cfg")) as fh:
        cfg.write_text(fh.read().replace("spike_tau = 0.025", "spike_tau = 0.04"))

    def boom(*args, **kwargs):
        raise BlowUpError(1)

    monkeypatch.setattr(verify, "rate_experiment", boom)
    code, _, err = run(capsys, "rates", "--scenario", str(cfg),
                       "--eps-ladder", "0.8,0.4,0.2", "--out", str(tmp_path))
    assert code == 1 and "config error" not in err
    code, _, err = run(capsys, "rates", "--scenario", str(cfg),
                       "--eps-ladder", "0.85,0.4,0.2", "--out", str(tmp_path))
    assert code == 2 and "past the horizon" in err


@pytest.mark.parametrize("argv, target, exc, verdicts", [
    (("simulate", "--scenario", fixture("bilinear.cfg")),
     "spde_control.cli.simulate_cost", BlowUpError(2), ["simulate"]),
    (("duality", "--scenario", fixture("additive.cfg")),
     "spde_control.verify.check_duality1", BlowUpError(3), ["duality1"]),
    (("smp", "--scenario", fixture("bilinear.cfg")),
     "spde_control.verify.smp_scan", RegressionError("ill-conditioned"),
     ["smp"]),
    (("oracle", "--scenario", fixture("zero_noise.cfg")),
     "spde_control.verify.zero_noise_oracle", BlowUpError(5),
     ["oracle-zero-noise"]),
    (("rates", "--scenario", fixture("logistic_spike.cfg"), "--kind", "all"),
     "spde_control.verify.rate_experiment", BlowUpError(7),
     ["rates-y", "rates-z", "rates-residual", "rates-hgamma"]),
], ids=["simulate", "duality", "smp", "oracle", "rates"])
def test_failed_computation_prints_failing_verdict(tmp_path, capsys,
                                                   monkeypatch, argv, target,
                                                   exc, verdicts):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, boom)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 1
    assert f"error: {exc}" in err
    lines = out.splitlines()
    assert len(lines) == len(verdicts)
    for line, name in zip(lines, verdicts):
        assert line.startswith(f"VERDICT experiment={name} status=fail "
                               "statistic=nan tolerance=")


def test_threads_flag_is_rejected(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--scenario", fixture("bilinear.cfg"),
                     "--threads", "2", "--out", str(tmp_path))
    assert code == 2


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--scenario", fixture("bilinear.cfg"),
                     "--sigma", "3")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_bad_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\nn = 8\ncolor = red\n[coefficients]\n"
                   "preset = additive\n[time]\nhorizon = 1\nsteps = 8\n")
    code, _, err = run(capsys, "simulate", "--scenario", str(cfg),
                       "--out", str(tmp_path))
    assert code == 2
    assert "config error" in err


def test_missing_scenario_file_is_config_error(tmp_path, capsys):
    code, _, _ = run(capsys, "simulate", "--scenario",
                     str(tmp_path / "none.cfg"), "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("simulate", "--paths=1"),
    ("simulate", "--paths=0"),
    ("simulate", "--seed=-1"),
    ("simulate", f"--seed={2 ** 64}"),
    ("duality", "--probes=0"),
    ("adjoint", "--order=2", "--eta=0"),
    ("adjoint", "--eta=foo"),
    ("smp", "--eta=-1h2"),
    ("oracle", "--eta=nan"),
    ("rates", "--eps-ladder=2^-3,2^-4"),
    ("rates", "--eps-ladder=0.1,0.1,0.05"),
    ("rates", "--eps-ladder=0,-0.5,0.25,0.125"),
    ("rates", "--eps-ladder=2^-3,2^-4,foo"),
    ("rates", "--eps-ladder=2^-3,2^-4,0^-1"),
    ("rates", "--eps-ladder=-0.5,0.5,0.25,0.125"),
    ("rates", "--eps-ladder=1.5,0.5,0.25"),
    ("rates", "--eps-ladder=-8^0.5,0.5,0.25,0.125"),
    ("rates", "--eps-ladder=inf,0.5,0.25"),
])
def test_bad_flag_value_exits_two_before_any_output(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--scenario", fixture("bilinear.cfg"),
                         "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {argv[-1].split('=')[0]} ")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("old, new, seed_env, where", [
    ("seed = 7", "seed = abc", None, "[run]"),
    ("seed = 7", "seed = -1", None, "[run] seed"),
    ("seed = 7", f"seed = {2 ** 64}", None, "[run] seed"),
    ("paths = 2000", "paths = 1", None, "[run] paths"),
    ("steps = 64", "steps = 1.5", None, "[time]"),
    ("horizon = 0.5", "horizon = x", None, "[time]"),
    ("n = 16", "n = 1", None, "[grid]"),
    ("kind = laplacian", "kind = divergence_form\na_bump = -2", None,
     "[operator]"),
    (None, None, "abc", "SPDE_CONTROL_SEED"),
    (None, None, "-1", "SPDE_CONTROL_SEED"),
], ids=["seed-abc", "seed-negative", "seed-2^64", "paths-1", "steps-1.5",
        "horizon-x", "grid-n-1", "a_bump", "env-seed-abc", "env-seed-negative"])
def test_bad_config_value_exits_two_before_any_output(
        tmp_path, capsys, monkeypatch, old, new, seed_env, where):
    text = open(fixture("bilinear.cfg")).read()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new) if old else text)
    if seed_env is None:
        monkeypatch.delenv("SPDE_CONTROL_SEED", raising=False)
    else:
        monkeypatch.setenv("SPDE_CONTROL_SEED", seed_env)
    code, out, err = run(capsys, "simulate", "--scenario", str(cfg),
                         "--out", str(tmp_path / "runs"))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {where}")
    assert err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_spike_past_horizon_exits_two_before_any_output(tmp_path, capsys):
    # tau = 0.025 > 0, so a whole-horizon spike ends past T
    code, out, err = run(capsys, "rates", "--eps-ladder=1,0.5,0.25",
                         "--scenario", fixture("logistic_spike.cfg"),
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("config error: --eps-ladder fraction 1 ")
    assert not any(tmp_path.iterdir())


def test_largest_philox_seed_is_accepted(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--scenario",
                       fixture("bilinear.cfg"), "--paths", "2",
                       "--seed", str(2 ** 64 - 1), "--out", str(tmp_path))
    assert code == 0
    assert "VERDICT experiment=simulate status=pass" in out


def test_rates_requires_a_spike(tmp_path, capsys):
    code, _, err = run(capsys, "rates", "--scenario", fixture("bilinear.cfg"),
                       "--out", str(tmp_path))
    assert code == 2
    assert "spike" in err


def test_scenario_file_is_never_mutated(tmp_path, capsys):
    src = fixture("additive.cfg")
    before = open(src, "rb").read()
    run(capsys, "simulate", "--scenario", src, "--paths", "20",
        "--out", str(tmp_path))
    assert open(src, "rb").read() == before


# -- property: every input ends in one VERDICT line per verdict, or exit 2 ---

# subcommand -> (fixture config, base path count, its own flags)
COMMANDS = {
    "simulate": ("bilinear.cfg", "200", ()),
    "adjoint": ("bilinear.cfg", "200", ("--order", "--eta")),
    "duality": ("bilinear.cfg", "200", ("--order", "--eta", "--probes")),
    "rates": ("logistic_spike.cfg", "40", ("--kind", "--eps-ladder")),
    "smp": ("bilinear.cfg", "200", ("--eta",)),
    "oracle": ("zero_noise.cfg", "4", ("--kind", "--eta")),
}
COMMON_FLAGS = ("--paths", "--seed", "--scenario", "--out")
EDGE_VALUES = {
    "--paths": ("-1", "0", "1", "2", "3", "x", "1e3", ""),
    "--seed": ("-1", "0", str(2 ** 64 - 1), str(2 ** 64), "x", "7.5"),
    "--scenario": ("missing.cfg", FIXTURES),
    "--out": ("a-file",),
    "--order": ("0", "1", "2", "3", "x"),
    "--eta": ("0", "-1", "nan", "inf", "-inf", "foo", "", "h2", "0h2",
              "-4h2", "1e-300", "1e300"),
    "--probes": ("-1", "0", "1", "x"),
    "--kind": ("y", "residual", "all", "zero-noise", "ansatz", "bogus"),
    "--eps-ladder": ("2^-3,2^-4,2^-5", "0,0,0", "1,1,1", "2^-3,2^-4",
                     "-0.5,0.5,0.25,0.125", "1.5,0.5,0.25", "nan,0.5,0.25",
                     "-8^0.5,0.5,0.25,0.125", "", ",", "2^-30,2^-31,2^-32"),
}


@st.composite
def cli_inputs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flag = draw(st.sampled_from(COMMON_FLAGS + COMMANDS[command][2]))
    return command, flag, draw(st.sampled_from(EDGE_VALUES[flag]))


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(cli_inputs())
def test_every_input_ends_in_verdicts_or_exit_two(tmp_path_factory, drawn):
    command, flag, value = drawn
    cfg, paths, _ = COMMANDS[command]
    root = tmp_path_factory.mktemp("cli")
    (root / "a-file").write_text("")
    if flag in ("--scenario", "--out"):  # relative edge values live in root
        value = os.path.join(root, value)
    argv = [command, "--scenario", fixture(cfg), "--paths", paths,
            "--out", str(root / "runs"), flag, value]  # the last flag wins
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines()
    verdicts = [ln for ln in lines if ln.startswith("VERDICT ")]
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert not verdicts
        return
    kind = argv[argv.index("--kind") + 1] if "--kind" in argv else "all"
    assert len(verdicts) == (4 if command == "rates" and kind == "all" else 1)
    assert len(verdicts) == len(lines)
    if code == 1:
        assert not any("status=pass" in ln for ln in verdicts)
    else:
        assert all("status=pass" in ln for ln in verdicts)

