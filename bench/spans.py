"""Timing shims around the package's layer entry points, for traced runs.

``Tracer.install()`` replaces each layer function with a wrapper that times
it and books its self time (its duration minus the time of the spans it
called). Functions are imported by name across modules (``from .forward
import simulate_state``), so a shim on the defining module alone would miss
most calls: every loaded ``spde_control`` module, and the benchmark's own
``experiments`` module, has each reference to the original function swapped.
Methods are patched on their class, and coefficient callables are wrapped
per ``CoefficientSet`` instance as ``make_coefficients`` builds them.

Spans are aggregated in memory per name (calls, self seconds and, for the
two resolvent solves, floating-point operations computed from argument
shapes), not stored one by one: a traced run of
``first-order`` makes tens of thousands of calls.
"""
from __future__ import annotations

import functools
import sys
import time

from spde_control import (adjoint, cli, ensemble, forward, operators,
                          scenario, serialize, verify)

ROOT = "experiment"

# span name -> (defining module, function name); patched in every namespace
FUNCTIONS = {
    "operators.sobolev_norms_batch": (operators, "sobolev_norms_batch"),
    "operators.mollified_terminal_batch": (operators,
                                           "mollified_terminal_batch"),
    "forward.simulate_state": (forward, "simulate_state"),
    "forward.simulate_linear": (forward, "simulate_linear"),
    "forward.simulate_tensor": (forward, "simulate_tensor"),
    "forward.simulate_cost": (forward, "simulate_cost"),
    "adjoint.solve_adjoint1": (adjoint, "solve_adjoint1"),
    "adjoint.solve_adjoint2_mollified": (adjoint, "solve_adjoint2_mollified"),
    "adjoint.solve_adjoint2_limit": (adjoint, "solve_adjoint2_limit"),
    "adjoint._project": (adjoint, "_project"),
    "verify.check_duality2": (verify, "check_duality2"),
    "verify.brute_force_search": (verify, "brute_force_search"),
    "verify.smp_scan": (verify, "smp_scan"),
    "cli.main": (cli, "main"),
    "serialize.field_to_csv": (serialize, "field_to_csv"),
}

# span name -> (class, method names)
METHODS = {
    "operators.solve1": (operators.ImplicitStepper, ("solve1",)),
    "operators.solve2": (operators.ImplicitStepper, ("solve2",)),
    "adjoint.RegressionBasis.features": (adjoint.RegressionBasis,
                                         ("features",)),
    "scenario.sigma_eff": (scenario.Scenario,
                           ("sigma_eff", "sigma_x_eff", "sigma_xx_eff")),
}

COEFFICIENTS = ("b", "b_x", "b_xx", "sigma", "sigma_x", "sigma_xx",
                "l", "l_x", "l_xx", "h", "h_x", "h_xx")

# sweeps whose step_hook (pairing work) and source providers get spans of
# their own, so that cost is not booked as sweep self time
SWEEPS = frozenset(("forward.simulate_state", "forward.simulate_linear",
                    "forward.simulate_tensor", "adjoint.solve_adjoint1",
                    "adjoint.solve_adjoint2_mollified",
                    "adjoint.solve_adjoint2_limit"))

SPANS = (("ensemble.generate", "scenario.coeffs")
         + tuple(METHODS) + tuple(FUNCTIONS)
         + ("forward.source", "verify.step_hook", ROOT))


def _solve1_flops(stepper, rhs):
    # two (B, n) x (n, n) products plus the diagonal scaling
    n = stepper.V.shape[0]
    batch = rhs.size // n
    return 4 * batch * n * n + batch * n


def _solve2_flops(stepper, rhs):
    # four (B n, n) x (n, n) products plus the diagonal scaling
    n = stepper.V.shape[0]
    batch = rhs.size // (n * n)
    return 8 * batch * n ** 3 + batch * n * n


FLOPS = {"operators.solve1": _solve1_flops, "operators.solve2": _solve2_flops}


class Tracer:
    """Per-name span totals with a stack for self time."""

    def __init__(self):
        self.totals = {name: {} for name in SPANS}
        # one frame per open span: [seconds covered by its child spans]
        self._stack = []
        self.reset()

    def reset(self):
        """Zero every total, e.g. to drop calls made during set-up."""
        for rec in self.totals.values():
            rec.update(calls=0, self_s=0.0, flops=0)
        self._stack.clear()

    def wrap(self, name, fn):
        """Return fn with a span named name around each call."""
        flops = FLOPS.get(name)
        sweep = name in SWEEPS
        rec, stack = self.totals[name], self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if sweep:
                kwargs = self._wrap_callbacks(kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                rec["calls"] += 1
                rec["self_s"] += dur - frame[0]
                if flops is not None:
                    rec["flops"] += flops(*args, **kwargs)
                if stack:
                    stack[-1][0] += dur

        return shim

    def _wrap_callbacks(self, kwargs):
        kwargs = dict(kwargs)
        hook = kwargs.get("step_hook")
        if getattr(hook, "__module__", None) == verify.__name__:
            kwargs["step_hook"] = self.wrap("verify.step_hook", hook)
        for key in ("phi", "psi"):
            if kwargs.get(key) is not None:
                kwargs[key] = self.wrap("forward.source", kwargs[key])
        return kwargs

    def install(self, extra_modules=()):
        """Patch every layer entry point; extra_modules are consumer
        namespaces outside the package (the benchmark's experiments)."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "spde_control" or key.startswith("spde_control.")]
        modules += list(extra_modules)

        def swap(orig, new):
            hits = 0
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)
                        hits += 1
            return hits

        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(mod, attr)
            if swap(orig, self.wrap(name, orig)) == 0:
                raise RuntimeError(f"no namespace holds {name}")
        for name, (cls, attrs) in METHODS.items():
            for attr in attrs:
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        gen = ensemble.PathEnsemble.__dict__["generate"].__func__
        ensemble.PathEnsemble.generate = classmethod(
            self.wrap("ensemble.generate", gen))

        make = scenario.make_coefficients

        @functools.wraps(make)
        def make_traced(*args, **kwargs):
            cs = make(*args, **kwargs)
            for attr in COEFFICIENTS:
                setattr(cs, attr, self.wrap("scenario.coeffs",
                                            getattr(cs, attr)))
            return cs

        swap(make, make_traced)

    def root(self, fn):
        """Run fn() as the experiment's root span; returns its result."""
        return self.wrap(ROOT, fn)()

