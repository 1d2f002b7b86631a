"""Discrete elliptic operators, spectral transforms, batched Sobolev
norms, the diagonal trace pair and the heat-kernel mollifier.

The Dirichlet Laplacian on a uniform grid is the standard (1, -2, 1)/h^2
tridiagonal matrix; the divergence-form variant uses interface-averaged
coefficients.  Sobolev norms of order gamma are defined spectrally through
the eigenvalues of the *discrete* operator, and the trace pair (diagonal,
add_diagonal) is adjoint in the h- and h^2-weighted products, which makes
the adjointness and norm identities exact to machine precision.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .grids import Field, Grid1D, Grid2D


class MollifierResolutionWarning(UserWarning):
    """Gaussian width below what the grid can resolve."""


@dataclass(frozen=True)
class EllipticOperator:
    """Second-order operator with homogeneous Dirichlet conditions.

    kind "laplacian" is the a == 1 special case of "divergence_form",
    which applies (a f')' with coefficient field a(lambda) >= a0 > 0.
    """

    kind: str = "laplacian"
    a_coeff: Optional[Field] = None

    def __post_init__(self):
        if self.kind not in ("laplacian", "divergence_form"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "divergence_form":
            if self.a_coeff is None:
                raise ValueError("divergence_form requires a coefficient field")
            if np.min(self.a_coeff.values) <= 0.0:
                raise ValueError("divergence-form coefficient must be uniformly positive")

    def _interface_coeffs(self, grid: Grid1D) -> np.ndarray:
        """Coefficient at the n+1 cell interfaces, one-sided at the walls."""
        a = self.a_coeff.values
        out = np.empty(grid.n + 1)
        out[1:-1] = 0.5 * (a[:-1] + a[1:])
        out[0] = a[0]
        out[-1] = a[-1]
        return out

    def matrix(self, grid: Grid1D) -> np.ndarray:
        """Dense (n, n) matrix of the operator; symmetric negative definite."""
        n, h = grid.n, grid.h
        if self.kind == "laplacian":
            main = np.full(n, -2.0)
            off = np.ones(n - 1)
        else:
            ah = self._interface_coeffs(grid)
            main = -(ah[:-1] + ah[1:])
            off = ah[1:-1]
        A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        return A / h ** 2


class SpectralBasis:
    """Orthonormal eigenbasis of the (negated) discrete operator.

    For the Laplacian on a uniform grid the eigenvectors are the discrete
    sine modes with eigenvalues (4 / h^2) sin^2(j pi / (2 (n + 1))),
    strictly increasing and positive.  For divergence-form operators the
    pairs come from a symmetric tridiagonal eigendecomposition.

    ``vectors`` has l2-orthonormal columns; L2(interval)-coefficients carry
    the additional sqrt(h) quadrature scaling (h on the square) so that
    gamma = 0 reproduces the L2 norm exactly (discrete Parseval).
    """

    def __init__(self, grid, eigenvalues: np.ndarray, vectors: np.ndarray):
        self.grid = grid
        self.eigenvalues = eigenvalues
        self.vectors = vectors

    @classmethod
    def build(cls, grid, op: EllipticOperator = EllipticOperator()) -> "SpectralBasis":
        base = grid.base if isinstance(grid, Grid2D) else grid
        n, h = base.n, base.h
        if op.kind == "laplacian":
            j = np.arange(1, n + 1)
            lam = (4.0 / h ** 2) * np.sin(j * np.pi / (2.0 * (n + 1))) ** 2
            i = np.arange(1, n + 1)
            V = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(i, j) / (n + 1))
        else:
            A = op.matrix(base)
            lam, V = eigh_tridiagonal(-np.diag(A), -np.diag(A, 1))
        return cls(grid, lam, V)

    @property
    def is_2d(self) -> bool:
        return isinstance(self.grid, Grid2D)

    def pair_eigenvalues(self) -> np.ndarray:
        """(n, n) table lambda_i + lambda_j for the Kronecker-sum operator."""
        lam = self.eigenvalues
        return lam[:, None] + lam[None, :]

    def coeffs(self, values: np.ndarray) -> np.ndarray:
        """Quadrature-scaled eigen-coefficients (batched over leading axes)."""
        V = self.vectors
        if self.is_2d:
            # V.T @ X @ V, batched over leading axes
            return self.grid.h * (V.T @ np.asarray(values) @ V)
        return np.sqrt(self.grid.h) * (np.asarray(values) @ V)


def _weighted_squares(c2: np.ndarray, basis: SpectralBasis, gamma):
    """Squared order-gamma Sobolev norms from squared spectral coefficients
    c2 (batched over leading axes): the sums of c2 weighted by lambda^gamma;
    a list with one array per order for a sequence of orders."""
    lam = basis.pair_eigenvalues() if basis.is_2d else basis.eigenvalues
    flat = c2.reshape(c2.shape[:c2.ndim - lam.ndim] + (-1,))
    orders = gamma if np.ndim(gamma) else (gamma,)
    sq = [flat @ (lam ** g).ravel() for g in orders]
    return sq if np.ndim(gamma) else sq[0]


def sobolev_norms_batch(values: np.ndarray, basis: SpectralBasis, gamma):
    """Per-sample Sobolev norms for a batch of value arrays.

    gamma is one order or a sequence of orders; a sequence gets a list
    with one norm array per order, all from a single spectral transform.
    """
    sq = _weighted_squares(basis.coeffs(values) ** 2, basis, gamma)
    return [np.sqrt(s) for s in sq] if np.ndim(gamma) else np.sqrt(sq)


def lifted_sobolev_sums(T: np.ndarray, D: np.ndarray, s: np.ndarray, m: int,
                        basis: SpectralBasis, gamma):
    """Path sum of the squared Sobolev norms of the batch Qr T + D on the
    square, from the coefficients alone.

    Qr (m, keep) has orthonormal columns with sums s = Qr^T 1, T is
    (keep, n, n) and D (n, n).  As Qr^T Qr = 1, the sum over the m paths
    is sum_a |T_a|^2 + 2 sum_a s_a <T_a, D> + m |D|^2 in the order-gamma
    product, read through the spectral transform and weights of
    sobolev_norms_batch; a list for a sequence of orders.
    """
    cT, cD = basis.coeffs(T), basis.coeffs(D)
    c2 = (np.sum(cT ** 2, axis=0) + 2.0 * np.tensordot(s, cT, axes=1) * cD
          + m * cD ** 2)
    return _weighted_squares(c2, basis, gamma)


# -- diagonal trace and its discrete adjoint --------------------------------

def diagonal(W: np.ndarray) -> np.ndarray:
    """The diagonal trace W(i, i), batched over leading axes (a view)."""
    return np.diagonal(W, 0, -2, -1)


def add_diagonal(W: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """Add the discrete adjoint of the trace in place and return W.

    Mass f(i)/h on the diagonal makes h^2 sum(add_diagonal(0, f, h) W)
    equal h sum(f diagonal(W)) exactly in the discrete products.
    """
    i = np.arange(W.shape[-1])
    W[..., i, i] += f / h
    return W


def mollified_terminal_batch(xT: np.ndarray, hxx: Callable, grid: Grid1D,
                             eta: float) -> np.ndarray:
    """Heat-kernel smoothing of the diagonal curvature distribution along
    the terminal states xT (..., n), shape (..., n, n).

    Entry (i, j) is the symmetrized curvature 0.5 (hxx(x(l_i)) +
    hxx(x(l_j))) times the Gaussian kernel of width eta evaluated at
    l_i - l_j.  Widths below (2h)^2 trigger a warning: such a Gaussian
    cannot be resolved on the grid.
    """
    if eta <= 0.0:
        raise ValueError("mollifier width eta must be positive")
    if eta < (2.0 * grid.h) ** 2:
        warnings.warn(
            f"mollifier width eta={eta:.3e} below grid resolution (2h)^2="
            f"{(2 * grid.h) ** 2:.3e}", MollifierResolutionWarning)
    lam = grid.nodes
    curv = np.asarray(hxx(xT), dtype=float)
    sym = 0.5 * (curv[..., :, None] + curv[..., None, :])
    kern = np.exp(-(lam[:, None] - lam[None, :]) ** 2 / (4.0 * eta)) / np.sqrt(4.0 * np.pi * eta)
    return sym * kern


class ImplicitStepper:
    """Applies (I - dt A)^{-1} through the operator's eigendecomposition.

    Exact for the discrete operator, unconditionally stable (the spectrum
    of the resolvent lies in (0, 1]), and batched over leading axes.  On
    the square the resolvent of the Kronecker-sum operator is factored as
    the tensor square of the 1D resolvent matrix R = V diag(d1) V^T, so the
    2D solve is R X R: one 2D step agrees with the outer product of two 1D
    steps (the discrete product rule is exact).  It differs from
    1/(1 + dt (l_i + l_j)) at O(dt^2) and is likewise unconditionally
    stable.
    """

    def __init__(self, grid: Grid1D, op: EllipticOperator, dt: float):
        self.grid = grid
        self.dt = dt
        basis = SpectralBasis.build(grid, op)
        self.V = basis.vectors
        self.lam = basis.eigenvalues
        self._d1 = 1.0 / (1.0 + dt * self.lam)
        self._R = (self.V * self._d1) @ self.V.T

    def solve1(self, rhs: np.ndarray) -> np.ndarray:
        """(..., n) solve of (I - dt A) x = rhs."""
        return ((rhs @ self.V) * self._d1) @ self.V.T

    def solve2(self, rhs: np.ndarray) -> np.ndarray:
        """(..., n, n) solve with the Kronecker-sum operator: R X R."""
        return self._R @ rhs @ self._R
