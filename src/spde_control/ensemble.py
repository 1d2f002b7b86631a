"""Shared Monte Carlo noise ensembles.

Increments are generated per path from a counter-based generator keyed by
(base seed, path index), so any path's block is regenerable bit-exactly
without touching the others.  Every comparison-style computation in this
package (spike expansions, duality checks, brute-force cost tables) reuses
one ensemble: common random numbers are structural, not optional.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _path_blocks(seed: int, paths, n_steps: int, n_modes: int, dt: float) -> np.ndarray:
    """Philox(key=(seed << 64) + path) blocks from one generator re-keyed per path."""
    bitgen = np.random.Philox(key=int(seed) << 64)  # rejects keys out of range
    start, gen = bitgen.state, np.random.Generator(bitgen)
    out = np.empty((len(paths), n_steps, n_modes))
    for i, path in enumerate(paths):
        start["state"]["key"][0] = path
        bitgen.state = start
        out[i] = gen.standard_normal((n_steps, n_modes))
    out *= np.sqrt(dt)
    return out


@dataclass
class PathEnsemble:
    """M paths of K-mode N(0, dt) Wiener increments on a fixed time grid."""

    seed: int
    n_paths: int
    n_steps: int
    n_modes: int
    dt: float
    dW: np.ndarray = field(repr=False, default=None)

    @classmethod
    def generate(cls, seed: int, n_paths: int, n_steps: int, n_modes: int,
                 dt: float) -> "PathEnsemble":
        return cls(seed, n_paths, n_steps, n_modes, dt,
                   _path_blocks(seed, range(n_paths), n_steps, n_modes, dt))

    @classmethod
    def for_scenario(cls, scn, n_paths=None, seed=None) -> "PathEnsemble":
        return cls.generate(scn.seed if seed is None else seed,
                            n_paths or scn.default_paths,
                            scn.n_t, scn.n_modes, scn.dt)

    def regenerate_path(self, path: int) -> np.ndarray:
        """Bit-exact reconstruction of one path's increment block."""
        return _path_blocks(self.seed, [path], self.n_steps, self.n_modes,
                            self.dt)[0]
