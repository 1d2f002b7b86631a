"""Control-problem definitions: pointwise coefficient presets with
derivatives, control sets, truncated cylindrical noise, time grid, and the
config-file loader.

Coefficients are named presets with numeric parameters rather than a user
expression language, so derivative consistency can be enforced at load
time.  All coefficient callables are pointwise (Nemytskii) maps applied
node-by-node; they accept x of any shape and a control point u of shape
(m,) or (batch, m), and broadcast accordingly.  The K noise modes enter
only through the fixed (n, K) profile E (Scenario.noise_field, noise_cov).
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import Field, Grid1D
from .operators import EllipticOperator


class ConfigError(ValueError):
    """Config file failed to parse or named an unknown section/key."""


class ScenarioValidationError(ValueError):
    """A scenario invariant failed; the message names the invariant."""


# -- coefficient sets -------------------------------------------------------

@dataclass
class CoefficientSet:
    """Drift, diffusion and cost coefficients with first two x-derivatives,
    all per-node fields; n_modes records the noise truncation K."""

    b: Callable
    b_x: Callable
    b_xx: Callable
    sigma: Callable
    sigma_x: Callable
    sigma_xx: Callable
    l: Callable
    l_x: Callable
    l_xx: Callable
    h: Callable
    h_x: Callable
    h_xx: Callable
    n_modes: int = 1
    name: str = ""
    params: dict = dc_field(default_factory=dict)


def _u_comp(u, idx=0):
    """First control component, broadcastable against x."""
    u = np.asarray(u, dtype=float)
    if u.ndim > 1:
        return u[..., idx][..., None]
    return u[idx]


def _u_norm_sq(u):
    u = np.asarray(u, dtype=float)
    if u.ndim > 1:
        return np.sum(u ** 2, axis=-1)[..., None]
    return np.sum(u ** 2)


def _quadratic_costs(p):
    sw, cw, tw = p["state_weight"], p["ctrl_weight"], p["term_weight"]
    xr, xt = p["x_ref"], p["x_target"]

    def l(x, u):
        return 0.5 * sw * (x - xr) ** 2 + 0.5 * cw * _u_norm_sq(u)

    return dict(
        l=l,
        l_x=lambda x, u: sw * (x - xr),
        l_xx=lambda x, u: sw * np.ones_like(x),
        h=lambda x: 0.5 * tw * (x - xt) ** 2,
        h_x=lambda x: tw * (x - xt),
        h_xx=lambda x: tw * np.ones_like(x),
    )


def _build_additive(p):
    dr, gn, amp = p["drift"], p["gain"], p["noise_amp"]
    return CoefficientSet(
        b=lambda x, u: dr * x + gn * _u_comp(u),
        b_x=lambda x, u: dr * np.ones_like(x),
        b_xx=lambda x, u: np.zeros_like(x),
        sigma=lambda x, u: amp * np.ones_like(x),
        sigma_x=lambda x, u: np.zeros_like(x),
        sigma_xx=lambda x, u: np.zeros_like(x),
        **_quadratic_costs(p))


def _build_bilinear(p):
    dr, gn = p["drift"], p["gain"]
    base, cpl = p["noise_base"], p["noise_coupling"]

    def mult(u):
        return base + cpl * _u_comp(u)

    return CoefficientSet(
        b=lambda x, u: dr * x + gn * _u_comp(u),
        b_x=lambda x, u: dr * np.ones_like(x),
        b_xx=lambda x, u: np.zeros_like(x),
        sigma=lambda x, u: mult(u) * x,
        sigma_x=lambda x, u: mult(u) * np.ones_like(x),
        sigma_xx=lambda x, u: np.zeros_like(x),
        **_quadratic_costs(p))


def _build_logistic(p):
    c1, amp = p["curvature"], p["noise_amp"]
    return CoefficientSet(
        b=lambda x, u: c1 * x * (1.0 - x) + _u_comp(u),
        b_x=lambda x, u: c1 * (1.0 - 2.0 * x),
        b_xx=lambda x, u: -2.0 * c1 * np.ones_like(x),
        sigma=lambda x, u: amp * np.tanh(x),
        sigma_x=lambda x, u: amp / np.cosh(x) ** 2,
        sigma_xx=lambda x, u: -2.0 * amp * np.tanh(x) / np.cosh(x) ** 2,
        **_quadratic_costs(p))


def _build_quadratic_cost(p):
    gn, amp = p["gain"], p["noise_amp"]
    return CoefficientSet(
        b=lambda x, u: gn * _u_comp(u) * np.ones_like(x),
        b_x=lambda x, u: np.zeros_like(x),
        b_xx=lambda x, u: np.zeros_like(x),
        sigma=lambda x, u: amp * np.ones_like(x),
        sigma_x=lambda x, u: np.zeros_like(x),
        sigma_xx=lambda x, u: np.zeros_like(x),
        **_quadratic_costs(p))


_COMMON_DEFAULTS = dict(state_weight=1.0, ctrl_weight=0.1, term_weight=1.0,
                        x_ref=0.0, x_target=0.0)

PRESETS = {
    "additive": (_build_additive, dict(drift=0.5, gain=1.0, noise_amp=0.2)),
    "bilinear": (_build_bilinear, dict(drift=0.3, gain=1.0, noise_base=0.3,
                                       noise_coupling=0.4)),
    "logistic-drift": (_build_logistic, dict(curvature=1.0, noise_amp=0.25)),
    "quadratic-cost": (_build_quadratic_cost, dict(gain=1.0, noise_amp=0.2)),
}


def make_coefficients(preset: str, n_modes: int, **params) -> CoefficientSet:
    if preset not in PRESETS:
        raise ScenarioValidationError(f"unknown coefficient preset {preset!r}")
    builder, defaults = PRESETS[preset]
    merged = dict(_COMMON_DEFAULTS)
    merged.update(defaults)
    for key, val in params.items():
        if key not in merged:
            raise ConfigError(f"unknown parameter {key!r} for preset {preset!r}")
        merged[key] = float(val)
    cs = builder(merged)
    cs.n_modes = n_modes
    cs.name = preset
    cs.params = merged
    return cs


# -- load-time coefficient checks -------------------------------------------

_FD_STEP = 1e-4
_FD_RTOL = 1e-5
_GROWTH_C = 100.0
_DERIV_BOUND = 1e3


def _fd_check(fun, deriv, xs, u, label, report):
    lo, hi = fun(xs - _FD_STEP, u), fun(xs + _FD_STEP, u)
    fd = (np.asarray(hi) - np.asarray(lo)) / (2.0 * _FD_STEP)
    dv = np.asarray(deriv(xs, u))
    scale = max(1.0, float(np.max(np.abs(dv))))
    err = float(np.max(np.abs(fd - dv))) / scale
    report[label] = err
    return err


def validate_coefficients(cs: CoefficientSet, controls: Sequence) -> dict:
    """Finite-difference derivative consistency and growth sanity checks.

    Raises ScenarioValidationError naming the failed check and the maximal
    relative deviation; returns the per-check report on success.
    """
    xs = np.linspace(-2.0, 2.0, 41)
    report = {}
    for u in controls:
        u = np.asarray(u, dtype=float)
        pairs = [
            (cs.b, cs.b_x, "b/b_x"), (cs.b_x, cs.b_xx, "b_x/b_xx"),
            (cs.sigma, cs.sigma_x, "sigma/sigma_x"),
            (cs.sigma_x, cs.sigma_xx, "sigma_x/sigma_xx"),
            (cs.l, cs.l_x, "l/l_x"), (cs.l_x, cs.l_xx, "l_x/l_xx"),
        ]
        for fun, deriv, label in pairs:
            err = _fd_check(fun, deriv, xs, u, label, report)
            if err > _FD_RTOL:
                raise ScenarioValidationError(
                    f"derivative-consistency check failed for {label}: "
                    f"max relative deviation {err:.3e} > {_FD_RTOL:g}")
        growth = np.max(np.abs(cs.b(xs, u))) / (1.0 + np.max(np.abs(xs))
                                                + np.sqrt(_u_norm_sq(u)).max())
        if growth > _GROWTH_C:
            raise ScenarioValidationError(
                f"growth check failed for b: factor {growth:.3e}")
        for fun, label in [(cs.b_x, "b_x"), (cs.b_xx, "b_xx"),
                           (cs.sigma_x, "sigma_x"), (cs.sigma_xx, "sigma_xx"),
                           (cs.l_xx, "l_xx")]:
            if np.max(np.abs(fun(xs, u))) > _DERIV_BOUND:
                raise ScenarioValidationError(f"boundedness check failed for {label}")
    for fun, deriv, label in [(lambda x, u: cs.h(x), lambda x, u: cs.h_x(x), "h/h_x"),
                              (lambda x, u: cs.h_x(x), lambda x, u: cs.h_xx(x), "h_x/h_xx")]:
        err = _fd_check(fun, deriv, xs, None, label, report)
        if err > _FD_RTOL:
            raise ScenarioValidationError(
                f"derivative-consistency check failed for {label}: "
                f"max relative deviation {err:.3e} > {_FD_RTOL:g}")
    if np.max(np.abs(cs.h_xx(xs))) > _DERIV_BOUND:
        raise ScenarioValidationError("boundedness check failed for h_xx")
    return report


# -- control sets and processes ---------------------------------------------

@dataclass(frozen=True)
class ControlSet:
    """Admissible control values: a finite list of points in R^m, or a box
    interval product with a sampling lattice.  Finite sets may have as few
    as two points; non-convexity is the point."""

    kind: str
    points: tuple = ()
    low: tuple = ()
    high: tuple = ()
    lattice_size: int = 9

    def __post_init__(self):
        if self.kind == "finite":
            if len(self.points) < 1:
                raise ScenarioValidationError("finite control set must be non-empty")
        elif self.kind == "box":
            if len(self.low) != len(self.high) or len(self.low) == 0:
                raise ScenarioValidationError("box control set needs matching bounds")
            if any(l > h for l, h in zip(self.low, self.high)):
                raise ScenarioValidationError("box control set needs low <= high")
        else:
            raise ScenarioValidationError(f"unknown control set kind {self.kind!r}")

    def lattice(self) -> list:
        """Sampling lattice: all points when finite, a regular grid on boxes."""
        if self.kind == "finite":
            return [np.asarray(pt, dtype=float) for pt in self.points]
        axes = [np.linspace(l, h, self.lattice_size)
                for l, h in zip(self.low, self.high)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return [np.array(pt) for pt in zip(*(m.ravel() for m in mesh))]


@dataclass(frozen=True)
class NoiseModel:
    """Finite truncation of cylindrical noise to K orthonormal modes.

    mode_shapes, when given, are K spatial profiles (n, K) multiplying the
    per-node diffusion (ones otherwise); they must be orthonormal in discrete L2.
    """

    n_modes: int
    mode_shapes: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n_modes < 1:
            raise ScenarioValidationError("noise truncation needs K >= 1")

    def validate_shapes(self, grid: Grid1D):
        if self.mode_shapes is None:
            return
        s = self.mode_shapes
        if s.shape != (grid.n, self.n_modes):
            raise ScenarioValidationError("mode shapes must have shape (n, K)")
        gram = grid.h * s.T @ s
        if np.max(np.abs(gram - np.eye(self.n_modes))) > 1e-8:
            raise ScenarioValidationError("mode shapes not orthonormal in discrete L2")


def sine_mode_shapes(grid: Grid1D, K: int) -> np.ndarray:
    """First K discrete sine modes, orthonormal in the h-weighted product."""
    i = np.arange(1, grid.n + 1)
    j = np.arange(1, K + 1)
    return np.sqrt(2.0 / (grid.b - grid.a)) * np.sin(np.pi * np.outer(i, j) / (grid.n + 1))


class ControlProcess:
    """Adapted control process: evaluate reads at most (k, x_k), so controls
    with equal values up to step k share the state (see simulate_costs)."""

    def evaluate(self, k: int, scenario: "Scenario", x=None) -> np.ndarray:
        raise NotImplementedError


class DeterministicControl(ControlProcess):
    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        self.points = pts

    @classmethod
    def constant(cls, point):
        return cls(np.asarray(point, dtype=float))

    @classmethod
    def from_blocks(cls, block_points, n_t: int):
        blocks = np.asarray(block_points, dtype=float)
        if n_t % len(blocks) != 0:
            raise ScenarioValidationError("step count must divide into control blocks")
        return cls(np.repeat(blocks, n_t // len(blocks), axis=0))

    def evaluate(self, k, scenario, x=None):
        idx = k if len(self.points) > 1 else 0
        if idx >= len(self.points):
            raise IndexError("control table shorter than the time grid")
        return self.points[idx]


def in_steps(t: float, step: float) -> float:
    """t in units of step, snapped to a whole number within a relative 1e-9,
    so that tau = k dt counts as exactly k steps despite rounding."""
    s = t / step
    r = round(s)
    return float(r) if abs(s - r) <= 1e-9 * abs(s) else s


class SpikeControl(ControlProcess):
    """Replaces the base control by a fixed point v on [tau, tau + eps).

    The interval is left-closed on the discrete time grid and compared in
    steps (in_steps); eps = 0 never activates and reproduces the base
    control at every step.
    """

    def __init__(self, base: ControlProcess, v, tau: float, eps: float):
        if tau <= 0.0 or eps < 0.0:
            raise ScenarioValidationError("spike requires tau > 0 and eps >= 0")
        self.base = base
        self.v = np.asarray(v, dtype=float)
        self.tau = float(tau)
        self.eps = float(eps)

    def validate_horizon(self, T: float):
        if in_steps(self.tau + self.eps, T) > 1.0:  # T is n_t whole steps
            raise ScenarioValidationError(
                f"spike invariant violated: tau + eps = {self.tau + self.eps:g} "
                f"exceeds horizon T = {T:g}")

    def active(self, k: int, scenario) -> bool:
        dt = scenario.dt
        return in_steps(self.tau, dt) <= k < in_steps(self.tau + self.eps, dt)

    def evaluate(self, k, scenario, x=None):
        if self.active(k, scenario):
            return self.v
        return self.base.evaluate(k, scenario, x)


# -- scenario ---------------------------------------------------------------

@dataclass
class Scenario:
    grid: Grid1D
    op: EllipticOperator
    coeffs: CoefficientSet
    controls: ControlSet
    noise: NoiseModel
    T: float
    n_t: int
    x0: Field
    seed: int
    name: str = ""
    default_paths: int = 1000
    base_control: Optional[ControlProcess] = None
    spike_control: Optional[ControlProcess] = None

    def __post_init__(self):
        if self.n_t < 2:
            raise ScenarioValidationError("time grid needs n_t >= 2")
        if self.T <= 0.0:
            raise ScenarioValidationError("horizon must be positive")
        if self.x0.grid != self.grid:
            raise ScenarioValidationError("initial state lives on a different grid")
        self.noise.validate_shapes(self.grid)
        shapes = self.noise.mode_shapes
        self.profile = np.ones((self.grid.n, self.n_modes)) if shapes is None else shapes
        self.noise_cov = self.profile @ self.profile.T  # C = E E^T, (n, n)

    @property
    def dt(self) -> float:
        return self.T / self.n_t

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t + 1)

    @property
    def n_modes(self) -> int:
        return self.noise.n_modes

    def noise_field(self, dw: np.ndarray) -> np.ndarray:
        """Noise field xi = dW E^T (..., n): sum_k (sigma E_k) dW_k = sigma xi."""
        return dw @ self.profile.T

    def _shaped(self, vals: np.ndarray) -> np.ndarray:
        """Per-mode values vals[..., None] * E (..., n, K) of a per-node field."""
        return vals[..., None] * self.profile

    def sigma_eff(self, x, u):
        """Per-mode diffusion values including spatial mode shapes, (..., n, K)."""
        return self._shaped(self.coeffs.sigma(x, u))

    def sigma_x_eff(self, x, u):
        return self._shaped(self.coeffs.sigma_x(x, u))

    def sigma_xx_eff(self, x, u):
        return self._shaped(self.coeffs.sigma_xx(x, u))


# -- config loading ---------------------------------------------------------

ENV_SEED = "SPDE_CONTROL_SEED"
ENV_OUTDIR = "SPDE_CONTROL_OUTDIR"

_KNOWN_KEYS = {
    "grid": {"a", "b", "n"},
    "operator": {"kind", "a0", "a_bump"},
    "coefficients": None,  # preset + preset-specific params, checked separately
    "controls": {"kind", "points", "low", "high", "lattice", "base",
                 "spike_v", "spike_tau", "spike_eps"},
    "noise": {"modes", "shapes"},
    "time": {"horizon", "steps"},
    "run": {"x0", "x0_amp", "seed", "paths"},
}


def _parse_points(text: str) -> tuple:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            pts.append(tuple(float(tok) for tok in chunk.split(",")))
    return tuple(pts)


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario config file.

    Unknown sections or keys are hard errors; every invariant check and the
    coefficient derivative-consistency check run before a Scenario is
    returned.  The SPDE_CONTROL_SEED environment variable overrides the
    configured seed.
    """
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _KNOWN_KEYS[section]
        if allowed is not None:
            for key in parser[section]:
                if key not in allowed:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section in ("grid", "coefficients", "time"):
        if section not in parser:
            raise ConfigError(f"missing config section [{section}]")

    # a value that does not parse or that a grid, operator or coefficient
    # refuses is a config error naming where it came from
    try:
        where = "[grid]"
        g = parser["grid"]
        grid = Grid1D(g.getfloat("a", 0.0), g.getfloat("b", 1.0), g.getint("n"))

        where = "[operator]"
        opsec = parser["operator"] if "operator" in parser else {}
        kind = opsec.get("kind", "laplacian")
        if kind == "divergence_form":
            a0 = float(opsec.get("a0", 1.0))
            bump = float(opsec.get("a_bump", 0.0))
            prof = a0 + bump * np.sin(np.pi * (grid.nodes - grid.a) / (grid.b - grid.a))
            op = EllipticOperator("divergence_form", Field(grid, prof))
        elif kind == "laplacian":
            op = EllipticOperator("laplacian")
        else:
            raise ConfigError(f"unknown operator kind {kind!r}")

        where = "[noise]"
        nsec = parser["noise"] if "noise" in parser else {}
        K = int(nsec.get("modes", 1))
        shapes_kind = nsec.get("shapes", "none")
        if shapes_kind == "sine":
            shapes = sine_mode_shapes(grid, K)
        elif shapes_kind == "none":
            shapes = None
        else:
            raise ConfigError(f"unknown noise shapes {shapes_kind!r}")
        noise = NoiseModel(K, shapes)

        where = "[coefficients]"
        csec = dict(parser["coefficients"])
        preset = csec.pop("preset", None)
        if preset is None:
            raise ConfigError("section [coefficients] needs a preset")
        coeffs = make_coefficients(preset, K, **csec)

        where = "[time]"
        t = parser["time"]
        T = t.getfloat("horizon")
        n_t = t.getint("steps")

        where = "[controls]"
        usec = parser["controls"] if "controls" in parser else {}
        ckind = usec.get("kind", "finite")
        if ckind == "finite":
            pts = _parse_points(usec.get("points", "-1; 1"))
            controls = ControlSet("finite", points=pts)
        else:
            low = tuple(float(t) for t in usec.get("low", "-1").split(","))
            high = tuple(float(t) for t in usec.get("high", "1").split(","))
            controls = ControlSet("box", low=low, high=high,
                                  lattice_size=int(usec.get("lattice", 9)))
        base_pt = usec.get("base", None)
        if base_pt is not None:
            base = DeterministicControl.constant(_parse_points(base_pt)[0])
        else:
            base = DeterministicControl.constant(controls.lattice()[0])
        spike = None
        if usec.get("spike_v", None) is not None:
            spike = SpikeControl(base, _parse_points(usec["spike_v"])[0],
                                 float(usec["spike_tau"]), float(usec["spike_eps"]))
            spike.validate_horizon(T)

        where = "[run]"
        rsec = parser["run"] if "run" in parser else {}
        x0_kind = rsec.get("x0", "sine")
        amp = float(rsec.get("x0_amp", 1.0))
        if x0_kind == "zero":
            x0 = Field.zero(grid)
        elif x0_kind == "sine":
            x0 = Field(grid, amp * np.sin(np.pi * (grid.nodes - grid.a) / (grid.b - grid.a)))
        elif x0_kind == "bump":
            mid = 0.5 * (grid.a + grid.b)
            width = 0.1 * (grid.b - grid.a)
            x0 = Field(grid, amp * np.exp(-((grid.nodes - mid) / width) ** 2))
        else:
            raise ConfigError(f"unknown x0 preset {x0_kind!r}")
        paths = int(rsec.get("paths", 1000))
        where = ENV_SEED if ENV_SEED in os.environ else "[run]"
        seed = int(os.environ.get(ENV_SEED, rsec.get("seed", 0)))
    except (ConfigError, ScenarioValidationError):
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None

    scn = Scenario(grid=grid, op=op, coeffs=coeffs, controls=controls,
                   noise=noise, T=T, n_t=n_t, x0=x0, seed=seed,
                   name=os.path.splitext(os.path.basename(str(path)))[0],
                   default_paths=paths, base_control=base, spike_control=spike)
    validate_coefficients(coeffs, controls.lattice())
    return scn
