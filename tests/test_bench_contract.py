"""The traced benchmark names package entry points by string: every name it
patches or expects must still exist, so that a refactor cannot silently
break a traced run.  The bench modules are loaded by path and nothing is
patched; a traced run of each workload must also pass the bench's own
correctness gate."""
import dataclasses
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

from spde_control.scenario import CoefficientSet

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_every_traced_function_resolves(spans):
    for name, (mod, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(mod, attr, None)), name


def test_every_traced_method_exists(spans):
    for name, (cls, attrs) in spans.METHODS.items():
        for attr in attrs:
            assert callable(getattr(cls, attr, None)), f"{name}: {attr}"


def test_every_traced_coefficient_is_a_coefficient_field(spans):
    fields = {f.name for f in dataclasses.fields(CoefficientSet)}
    assert set(spans.COEFFICIENTS) <= fields


def test_expected_spans_are_traced(spans):
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    workloads = _load("experiments").WORKLOADS
    assert set(expected["workloads"]) == set(workloads)
    for name, spec in expected["workloads"].items():
        assert set(spec["spans"]) <= set(spans.SPANS), name


# sweeps without a step hook: the ladder pairs nothing during its sweep, and
# the tracer wraps a keyword only when a caller passes it
HOOKLESS = {"adjoint.solve_adjoint2_limit"}


def test_sweeps_take_the_wrapped_keywords(spans):
    # the tracer wraps step_hook, phi and psi by keyword
    assert HOOKLESS <= set(spans.SWEEPS)
    for name in set(spans.SWEEPS) - HOOKLESS:
        mod, attr = spans.FUNCTIONS[name]
        assert "step_hook" in inspect.signature(getattr(mod, attr)).parameters, name
    for name in ("forward.simulate_linear", "forward.simulate_tensor"):
        mod, attr = spans.FUNCTIONS[name]
        params = inspect.signature(getattr(mod, attr)).parameters
        assert {"phi", "psi"} <= set(params), name


@pytest.mark.parametrize("workload", ["second-order", "first-order"])
def test_traced_bench_run_is_correct(workload):
    # the gate itself, at its smallest: one untraced and one traced run,
    # correct only if every statistic is within 1e-10 of expected.json,
    # every expected span fired and tracing changed no statistic
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", "1"],
        cwd=os.path.dirname(os.path.abspath(BENCH)), capture_output=True,
        text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, proc.stderr
    assert json.loads(lines[-1])["correct"] is True, proc.stderr
