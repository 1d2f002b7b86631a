"""Elliptic operators, spectral transforms, trace operators, mollifier."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_operator, inner1, inner2, synthesize
from spde_control.grids import Field, Grid1D, TensorField
from spde_control.operators import (EllipticOperator, ImplicitStepper,
                                    MollifierResolutionWarning, SpectralBasis,
                                    add_diagonal, diagonal,
                                    lifted_sobolev_sums,
                                    mollified_terminal_batch,
                                    sobolev_norms_batch)


def _rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


def _div_form_op(grid, key=1):
    prof = 1.0 + 0.5 * np.sin(np.pi * (grid.nodes - grid.a) / (grid.b - grid.a))
    return EllipticOperator("divergence_form", Field(grid, prof))


def test_operator_rejects_bad_construction():
    grid = Grid1D(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        EllipticOperator("biharmonic")
    with pytest.raises(ValueError):
        EllipticOperator("divergence_form")
    with pytest.raises(ValueError):
        EllipticOperator("divergence_form", Field(grid, -np.ones(8)))


@pytest.mark.parametrize("kind", ["laplacian", "divergence_form"])
def test_stencil_matches_dense_matrix(kind):
    grid = Grid1D(0.0, 1.5, 11)
    op = EllipticOperator() if kind == "laplacian" else _div_form_op(grid)
    A = op.matrix(grid)
    v = _rng(3).normal(size=grid.n)
    out = apply_operator(op, Field(grid, v))
    assert np.allclose(out.values, A @ v, atol=1e-12)


def test_divergence_form_reduces_to_laplacian():
    grid = Grid1D(0.0, 1.0, 9)
    op = EllipticOperator("divergence_form", Field(grid, np.ones(9)))
    assert np.allclose(op.matrix(grid), EllipticOperator().matrix(grid))


def test_square_operator_is_kronecker_sum():
    grid = Grid1D(0.0, 1.0, 6)
    op = EllipticOperator()
    A = op.matrix(grid)
    W = _rng(5).normal(size=(6, 6))
    out = apply_operator(op, TensorField(grid.square(), W))
    assert np.allclose(out.values, A @ W + W @ A.T, atol=1e-12)


@pytest.mark.parametrize("kind", ["laplacian", "divergence_form"])
def test_eigendecomposition(kind):
    grid = Grid1D(0.0, 1.0, 10)
    op = EllipticOperator() if kind == "laplacian" else _div_form_op(grid)
    basis = SpectralBasis.build(grid, op)
    A = op.matrix(grid)
    # A V = -lambda V with l2-orthonormal columns, eigenvalues ascending
    assert np.allclose(A @ basis.vectors,
                       -basis.vectors * basis.eigenvalues, atol=1e-9)
    assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(10), atol=1e-12)
    assert np.all(np.diff(basis.eigenvalues) > 0)
    assert np.all(basis.eigenvalues > 0)


def test_closed_form_sine_eigenvalues():
    grid = Grid1D(0.0, 1.0, 17)
    basis = SpectralBasis.build(grid, EllipticOperator())
    j = np.arange(1, 18)
    lam = (4.0 / grid.h ** 2) * np.sin(j * np.pi / (2.0 * 18)) ** 2
    assert np.allclose(basis.eigenvalues, lam, rtol=1e-13)


@pytest.mark.parametrize("is_2d", [False, True])
def test_transform_round_trip(is_2d):
    grid = Grid1D(0.0, 2.0, 8)
    basis = SpectralBasis.build(grid.square() if is_2d else grid)
    shape = (3, 8, 8) if is_2d else (3, 8)
    v = _rng(7).normal(size=shape)
    assert np.allclose(synthesize(basis, basis.coeffs(v)), v, atol=1e-12)


def test_parseval_l2_norm():
    grid = Grid1D(0.0, 1.3, 12)
    basis = SpectralBasis.build(grid)
    f = _rng(9).normal(size=12)
    assert sobolev_norms_batch(f, basis, 0.0) == pytest.approx(
        np.sqrt(inner1(grid, f, f)), rel=1e-13)
    basis2 = SpectralBasis.build(grid.square())
    F = _rng(10).normal(size=(12, 12))
    assert sobolev_norms_batch(F, basis2, 0.0) == pytest.approx(
        np.sqrt(inner2(grid.square(), F, F)), rel=1e-13)


def test_batch_norms_match_scalar():
    """Each batched norm is the scalar eigen-sum sqrt(sum_j l_j^g c_j^2),
    with c_j = sqrt(h) <v, V_j> taken one mode at a time."""
    grid = Grid1D(0.0, 1.0, 9)
    basis = SpectralBasis.build(grid)
    vs = _rng(11).normal(size=(5, 9))
    batch = sobolev_norms_batch(vs[:, None, :], basis, 0.5).ravel()
    for v, nb in zip(vs, batch):
        eig_sum = sum(lam ** 0.5 * (np.sqrt(grid.h) * np.dot(v, vec)) ** 2
                      for lam, vec in zip(basis.eigenvalues, basis.vectors.T))
        assert np.sqrt(eig_sum) == pytest.approx(nb, rel=1e-13)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 24), st.integers(0, 1000))
def test_operator_self_adjointness(n, key):
    """<A f, g> = <f, A g> in the h-weighted product, both operator kinds."""
    grid = Grid1D(0.0, 1.0, n)
    gen = _rng(key)
    f, g = gen.normal(size=(2, n))
    for op in (EllipticOperator(), _div_form_op(grid)):
        lhs = inner1(grid, apply_operator(op, Field(grid, f)).values, g)
        rhs = inner1(grid, f, apply_operator(op, Field(grid, g)).values)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 20), st.integers(0, 1000))
def test_trace_adjointness(n, key):
    """<diagonal W, f>_1 = <add_diagonal(0, f, h), W>_2, against a loop."""
    grid = Grid1D(0.0, 1.0, n)
    gen = _rng(key)
    f = gen.normal(size=n)
    W = gen.normal(size=(n, n))
    lhs = inner1(grid, diagonal(W), f)
    rhs = inner2(grid.square(), add_diagonal(np.zeros((n, n)), f, grid.h), W)
    loop = sum(grid.h * W[i, i] * f[i] for i in range(n))
    assert lhs == pytest.approx(loop, rel=1e-12, abs=1e-12)
    assert rhs == pytest.approx(loop, rel=1e-12, abs=1e-12)


def test_negative_norm_identity():
    """<A P, P> in the order -1 product equals minus the squared L2 norm."""
    grid = Grid1D(0.0, 1.0, 10)
    op = EllipticOperator()
    basis2 = SpectralBasis.build(grid.square(), op)
    P = _rng(13).normal(size=(10, 10))
    AP = apply_operator(op, TensorField(grid.square(), P)).values
    lam = basis2.pair_eigenvalues()
    pairing = np.sum(lam ** -1.0 * basis2.coeffs(AP) * basis2.coeffs(P))
    assert pairing == pytest.approx(
        -sobolev_norms_batch(P, basis2, 0.0) ** 2, rel=1e-10)


def test_mollifier_basic_properties():
    grid = Grid1D(0.0, 1.0, 16)
    xT = np.sin(np.pi * grid.nodes)
    hxx = lambda x: np.ones_like(x)
    out = mollified_terminal_batch(xT, hxx, grid, 4.0 * grid.h ** 2)
    assert np.array_equal(out, out.T)
    assert np.all(np.diag(out) > 0)
    with pytest.raises(ValueError):
        mollified_terminal_batch(xT, hxx, grid, 0.0)
    with pytest.warns(MollifierResolutionWarning):
        mollified_terminal_batch(xT, hxx, grid, 0.5 * grid.h ** 2)


def test_mollifier_mass_approximates_diagonal_pairing():
    # pairing the mollified kernel with a smooth symmetric test function
    # approaches the diagonal pairing as the width shrinks
    grid = Grid1D(0.0, 1.0, 64)
    xT = np.sin(np.pi * grid.nodes)
    hxx = lambda x: 1.0 + 0.5 * x
    W = np.sin(np.pi * grid.nodes)[:, None] * np.sin(np.pi * grid.nodes)[None, :]
    exact = inner1(grid, hxx(xT), np.diag(W))
    errs = []
    for c in (32.0, 8.0):
        moll = mollified_terminal_batch(xT, hxx, grid, c * grid.h ** 2)
        errs.append(abs(inner2(grid.square(), moll, W) - exact))
    assert errs[1] < errs[0]
    assert errs[1] < 0.02 * abs(exact)


def test_implicit_stepper_solves_backward_euler_system():
    grid = Grid1D(0.0, 1.0, 9)
    op = EllipticOperator()
    dt = 0.01
    stepper = ImplicitStepper(grid, op, dt)
    A = op.matrix(grid)
    rhs = _rng(17).normal(size=9)
    x = stepper.solve1(rhs)
    assert np.allclose((np.eye(9) - dt * A) @ x, rhs, atol=1e-10)


def test_stepper_tensor_solve_factorizes():
    # the square-solve is exactly the tensor square of the 1D resolvent
    grid = Grid1D(0.0, 1.0, 8)
    stepper = ImplicitStepper(grid, EllipticOperator(), 0.05)
    f, g = _rng(19).normal(size=(2, 8))
    out = stepper.solve2(np.outer(f, g))
    assert np.allclose(out, np.outer(stepper.solve1(f), stepper.solve1(g)),
                       atol=1e-12)


def _solve2_reference(stepper, rhs):
    """The 2D solve as four eigenbasis transforms and a diagonal scaling."""
    V, d2 = stepper.V, np.outer(stepper._d1, stepper._d1)
    c = np.swapaxes(np.swapaxes(rhs, -1, -2) @ V, -1, -2) @ V
    c = c * d2
    return np.swapaxes(np.swapaxes(c, -1, -2) @ V.T, -1, -2) @ V.T


@pytest.mark.parametrize("kind", ["laplacian", "divergence_form"])
@pytest.mark.parametrize("layout", ["batch", "modes", "moved-view"])
def test_resolvent_matmul_matches_transform_reference(kind, layout):
    grid = Grid1D(0.0, 1.0, 12)
    op = EllipticOperator() if kind == "laplacian" else _div_form_op(grid)
    stepper = ImplicitStepper(grid, op, 0.03)
    gen = _rng(31)
    if layout == "batch":
        rhs = gen.normal(size=(7, 12, 12))
    elif layout == "modes":
        rhs = gen.normal(size=(7, 2, 12, 12))
    else:
        rhs = np.moveaxis(gen.normal(size=(7, 12, 12, 2)), 3, 1)
        assert not rhs.flags["C_CONTIGUOUS"]
    ref = _solve2_reference(stepper, rhs)
    out = stepper.solve2(rhs)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("is_2d", [False, True])
def test_multi_order_norms_equal_single_order_calls(is_2d):
    grid = Grid1D(0.0, 1.0, 10)
    basis = SpectralBasis.build(grid.square() if is_2d else grid)
    v = _rng(37).normal(size=(6, 10, 10) if is_2d else (6, 10))
    orders = (-1.0, 0.0, 0.5)
    multi = sobolev_norms_batch(v, basis, orders)
    assert len(multi) == len(orders)
    for g, norms in zip(orders, multi):
        assert np.array_equal(norms, sobolev_norms_batch(v, basis, g))


def test_lifted_sums_equal_norms_of_the_lifted_batch():
    # with orthonormal Qr the path sums of the squared norms of Qr T + D
    # need only T, D and the column sums Qr^T 1
    m, keep, n = 150, 5, 10
    gen = _rng(41)
    basis2 = SpectralBasis.build(Grid1D(0.0, 1.0, n).square())
    Qr = np.linalg.qr(np.column_stack([np.ones(m),
                                       gen.normal(size=(m, keep - 1))]))[0]
    T = gen.normal(size=(keep, n, n))
    D = add_diagonal(np.zeros((n, n)), gen.normal(size=n), 1.0 / (n + 1))
    P = np.tensordot(Qr, T, axes=1) + D
    sums = lifted_sobolev_sums(T, D, Qr.sum(axis=0), m, basis2, (-1.0, 0.0))
    for g, out in zip((-1.0, 0.0), sums):
        ref = np.sum(sobolev_norms_batch(P, basis2, g) ** 2)
        assert abs(out - ref) <= 1e-13 * ref


def test_stepper_is_a_contraction():
    grid = Grid1D(0.0, 1.0, 12)
    for dt in (1e-4, 0.1, 10.0):
        stepper = ImplicitStepper(grid, EllipticOperator(), dt)
        v = _rng(23).normal(size=12)
        assert np.linalg.norm(stepper.solve1(v)) <= np.linalg.norm(v) + 1e-12
        W = _rng(29).normal(size=(12, 12))
        assert np.linalg.norm(stepper.solve2(W)) <= np.linalg.norm(W) + 1e-12
