"""Forward simulation: state, linearizations, product process, cost."""
import numpy as np
import pytest

from helpers import (MeanFeedback, cost, make_scenario,
                     reference_expansion_stats, reference_simulate_tensor,
                     sweep_cost)
from spde_control import forward
from spde_control.ensemble import PathEnsemble
from spde_control.forward import (BlowUpError, _second_variation,
                                  simulate_cost, simulate_costs,
                                  simulate_linear, simulate_state,
                                  simulate_tensor, spike_expansion_stats,
                                  spike_sources, spike_tensor_sources,
                                  tensor_multiplier)
from spde_control.operators import ImplicitStepper, SpectralBasis
from spde_control.scenario import (ControlProcess, DeterministicControl,
                                   Scenario, SpikeControl)
from spde_control.verify import (block_control_candidates,
                                 check_tensor_identity, make_random_probes,
                                 make_tensor_probes, zero_noise_oracle)


def _det_scn(**kw):
    """Noise-free affine scenario (sigma == 0, drift rate 0)."""
    kw.setdefault("preset", "additive")
    kw.setdefault("noise_amp", 0.0)
    kw.setdefault("drift", 0.0)
    kw.setdefault("shapes", False)
    kw.setdefault("K", 1)
    return make_scenario(**kw)


def test_eigenmode_decays_at_resolvent_rate():
    # with zero drift and zero noise each step is one implicit solve, so an
    # eigenmode contracts by exactly 1/(1 + dt lambda) per step
    scn = _det_scn(n=12, n_t=16, T=0.1, base=(0.0,))
    basis = SpectralBasis.build(scn.grid, scn.op)
    mode = basis.vectors[:, 0]
    scn.x0.values[:] = mode
    ens = PathEnsemble.for_scenario(scn, n_paths=2)
    traj = simulate_state(scn, scn.base_control, ens)
    lam = basis.eigenvalues[0]
    for k in (1, 8, 16):
        expect = mode / (1.0 + scn.dt * lam) ** k
        assert np.allclose(traj[k], expect, atol=1e-13)


def test_state_matches_fine_step_oracle():
    scn = _det_scn(a=0.0, b=2.0, n=12, n_t=512, T=0.25, base=(0.5,),
                   drift=0.5)
    ens = PathEnsemble.for_scenario(scn, n_paths=1)
    traj = simulate_state(scn, scn.base_control, ens)
    oracle = zero_noise_oracle(scn, scn.base_control)
    scale = np.abs(oracle["x"]).max()
    assert np.abs(traj.values[:, 0] - oracle["x"]).max() / scale < 2e-3


def _per_mode_state(scn, u, ens):
    """The state marched with the per-mode noise sum: the per-node sigma
    tiled over the K modes, times the mode shapes when given, contracted
    with dW by einsum."""
    stepper = ImplicitStepper(scn.grid, scn.op, scn.dt)
    x = np.tile(scn.x0.values, (ens.n_paths, 1))
    values = [x]
    for k in range(scn.n_t):
        uk = u.evaluate(k, scn, x)
        sig = np.ascontiguousarray(np.broadcast_to(
            scn.coeffs.sigma(x, uk)[..., None], x.shape + (scn.n_modes,)))
        if scn.noise.mode_shapes is not None:
            sig = sig * scn.noise.mode_shapes
        noise = np.einsum("pnk,pk->pn", sig, ens.dW[:, k])
        x = stepper.solve1(x + scn.dt * scn.coeffs.b(x, uk) + noise)
        values.append(x)
    return np.array(values)


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("shapes", [False, True])
def test_state_noise_equals_the_per_mode_sum(K, shapes):
    # the noise sigma xi, xi = dW E^T, is the per-mode sum sum_k (sigma E_k)
    # dW_k up to rounding; with one unshaped mode both are sigma dW exactly
    for preset in ("logistic-drift", "bilinear"):
        scn = make_scenario(preset, n=8, n_t=32, K=K, shapes=shapes)
        ens = PathEnsemble.for_scenario(scn, n_paths=50)
        traj = simulate_state(scn, scn.base_control, ens)
        ref = _per_mode_state(scn, scn.base_control, ens)
        if K == 1 and not shapes:
            assert np.array_equal(traj.values, ref)
        assert np.abs(traj.values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_state_noise_with_three_modes_within_rounding():
    # from K = 3 on the einsum sums the modes in another order
    scn = make_scenario("logistic-drift", n=8, n_t=32, K=3)
    ens = PathEnsemble.for_scenario(scn, n_paths=50)
    traj = simulate_state(scn, scn.base_control, ens)
    ref = _per_mode_state(scn, scn.base_control, ens)
    assert np.abs(traj.values - ref).max() <= 1e-10 * np.abs(ref).max()


def test_unstored_trajectory_refuses_indexing():
    scn = _det_scn(n=4, n_t=4)
    ens = PathEnsemble.for_scenario(scn, n_paths=1)
    xbar = simulate_state(scn, scn.base_control, ens)
    traj = simulate_linear(scn, xbar, scn.base_control, ens,
                           phi=lambda k: 1.0, store=False)
    assert traj.final.shape == (1, 4)
    with pytest.raises(ValueError):
        traj[0]


def test_blow_up_detected_with_step_index():
    scn = make_scenario("additive", n=6, n_t=64, noise_amp=0.0, drift=1e8,
                        shapes=False, K=1)
    ens = PathEnsemble.for_scenario(scn, n_paths=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as exc:
            simulate_state(scn, scn.base_control, ens)
    assert 0 < exc.value.step <= 64


def test_linear_equation_is_linear_in_the_sources():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=20)
    xbar = simulate_state(scn, scn.base_control, ens)
    gen = np.random.Generator(np.random.Philox(key=2))
    phi = gen.normal(size=(scn.n_t, scn.grid.n))
    psi = gen.normal(size=(scn.n_t, 1, scn.grid.n, scn.n_modes))
    y1 = simulate_linear(scn, xbar, scn.base_control, ens,
                         phi=lambda k: phi[k], psi=lambda k: psi[k])
    y3 = simulate_linear(scn, xbar, scn.base_control, ens,
                         phi=lambda k: 3.0 * phi[k], psi=lambda k: 3.0 * psi[k])
    assert np.allclose(y3.final, 3.0 * y1.final, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("K, shapes", [(1, False), (2, True)])
@pytest.mark.parametrize("preset", ["additive", "bilinear"])
def test_stacked_probes_equal_single_probe_sweeps(preset, K, shapes):
    # a leading probe axis on the sources marches every probe response in
    # one sweep, bit for bit as one sweep per probe
    scn = make_scenario(preset, n=8, n_t=32, K=K, shapes=shapes)
    ens = PathEnsemble.for_scenario(scn, n_paths=30)
    ubar = scn.base_control
    xbar = simulate_state(scn, ubar, ens)
    gen = np.random.Generator(np.random.Philox(key=3))
    phis = gen.normal(size=(scn.n_t, 3, 1, scn.grid.n))
    psis = gen.normal(size=(scn.n_t, 3, 1, scn.grid.n, K))
    stacked = simulate_linear(scn, xbar, ubar, ens, phi=lambda k: phis[k],
                              psi=lambda k: psis[k])
    assert stacked.values.shape == (scn.n_t + 1, 3, 30, scn.grid.n)
    for j in range(3):
        single = simulate_linear(scn, xbar, ubar, ens,
                                 phi=lambda k: phis[k, j, 0],
                                 psi=lambda k: psis[k, j])
        assert np.array_equal(stacked.values[:, j], single.values)


def test_first_variation_vanishes_without_a_spike():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=10)
    xbar = simulate_state(scn, scn.base_control, ens)
    ueps = SpikeControl(scn.base_control, [0.0], tau=0.2, eps=0.1)
    phi, psi = spike_sources(scn, xbar, scn.base_control, ueps, ens)
    y = simulate_linear(scn, xbar, scn.base_control, ens, phi=phi, psi=psi)
    assert np.max(np.abs(y.values)) == 0.0


@pytest.mark.parametrize("K", [2, 8])
def test_misshaped_noise_sources_are_refused(K):
    # a per-mode source without its path axis, (n, K) or (n, n, K), would
    # read as a noise field (with K = n silently); a per-mode source needs
    # a unit path axis and K modes, a noise field the paths
    scn = make_scenario("bilinear", n=8, n_t=4, K=K)
    m, n = 30, scn.grid.n
    ens = PathEnsemble.for_scenario(scn, n_paths=m)
    ubar = scn.base_control
    xbar = simulate_state(scn, ubar, ens)
    ones = np.ones
    for kernel, ndim in ((simulate_linear, 1), (simulate_tensor, 2)):
        space = (n,) * ndim
        for shape, kind in (((*space, K), "noise field"),
                            ((1, *space, K + 1), "per-mode source"),
                            ((m, *space, K), "per-mode source"),
                            ((m + 1, *space), "noise field"),
                            ((1, *space), "noise field")):
            with pytest.raises(ValueError, match=rf"{kind} of shape \({shape[0]}, "):
                kernel(scn, xbar, ubar, ens, psi=lambda k: ones(shape))
        kernel(scn, xbar, ubar, ens, psi=lambda k: ones((1, *space, K)))
        kernel(scn, xbar, ubar, ens, psi=lambda k: ones((m, *space)))


def test_tensor_simulation_preserves_symmetry():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=10)
    xbar = simulate_state(scn, scn.base_control, ens)
    Phi, Psi = make_tensor_probes(scn, 1)[0]
    m, n = 10, 8
    steps = []
    Y = simulate_tensor(scn, xbar, scn.base_control, ens,
                        phi=lambda k: np.broadcast_to(Phi[k], (m, n, n)),
                        psi=lambda k: Psi[k][None],
                        step_hook=lambda k, Yk: steps.append(Yk))
    values = np.array(steps + [Y.final])
    assert values.shape == (scn.n_t + 1, m, n, n)
    asym = np.abs(values - np.swapaxes(values, -1, -2)).max()
    assert asym < 1e-10


def test_collapsed_tensor_noise_matches_per_mode_loop():
    # the folded step solve2(G Y + dt Phi + sum_k Psi_k dW_k), with
    # G = 1 + dt c + s (+) s and s = sigma_x xi, against the per-mode
    # step solve2(Y + dt (c Y + Phi) + sum_k ((sx_k (+) sx_k) Y + Psi_k) dW_k),
    # for a per-path Psi (handed over as its noise field) and a deterministic
    # one (contracted by the kernel)
    scn = make_scenario("bilinear", n=9, n_t=6, K=3)
    m, n, K = 5, scn.grid.n, scn.n_modes
    ens = PathEnsemble.for_scenario(scn, n_paths=m)
    ubar = scn.base_control
    xbar = simulate_state(scn, ubar, ens)
    stepper = ImplicitStepper(scn.grid, scn.op, scn.dt)
    gen = np.random.Generator(np.random.Philox(key=41))
    Phi = gen.normal(size=(scn.n_t, m, n, n))
    for Psi in (gen.normal(size=(scn.n_t, m, n, n, K)),
                gen.normal(size=(scn.n_t, 1, n, n, K))):
        noise = (lambda k: np.einsum("pijk,pk->pij", Psi[k], ens.dW[:, k])
                 if len(Psi[k]) > 1 else Psi[k])
        out = simulate_tensor(scn, xbar, ubar, ens, phi=lambda k: Phi[k],
                              psi=noise).final
        ref = np.zeros((m, n, n))
        for k in range(scn.n_t):
            x = xbar[k]
            bx = scn.coeffs.b_x(x, ubar.evaluate(k, scn, x))
            sx = scn.sigma_x_eff(x, ubar.evaluate(k, scn, x))
            c = (bx[:, :, None] + bx[:, None, :]
                 + np.einsum("pik,pjk->pij", sx, sx))
            explicit = ref + scn.dt * (c * ref + Phi[k])
            for mode in range(K):
                dmode = sx[:, :, mode][:, :, None] + sx[:, :, mode][:, None, :]
                explicit += ((dmode * ref + Psi[k][..., mode])
                             * ens.dW[:, k, mode][:, None, None])
            ref = stepper.solve2(explicit)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    # the per-node multiplier from sigma_x, C = E E^T and xi = dW E^T
    # against the per-mode coefficients sx_k = sigma_x E_k
    gen = np.random.Generator(np.random.Philox(key=42))
    sig, bx, dwk, E = (gen.normal(size=(m, n)), gen.normal(size=(m, n)),
                       gen.normal(size=(m, K)), gen.normal(size=(n, K)))
    sx = sig[:, :, None] * E
    c = bx[:, :, None] + bx[:, None, :] + np.einsum("pik,pjk->pij", sx, sx)
    s = np.einsum("pnk,pk->pn", sx, dwk)
    for G, ref in ((tensor_multiplier(bx, sig, E @ E.T, 0.1), 1.0 + 0.1 * c),
                   (tensor_multiplier(bx, sig, E @ E.T, 0.1, dwk @ E.T),
                    1.0 + 0.1 * c + s[:, :, None] + s[:, None, :])):
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("K, shapes", [(1, False), (2, True)])
def test_stacked_tensor_probes_equal_single_probe_sweeps(K, shapes):
    # (J, 1, ...) sources march J product-space states step-major, bit for
    # bit as one sweep per probe; the hook sees all J states
    scn = make_scenario("bilinear", n=8, n_t=16, K=K, shapes=shapes)
    ens = PathEnsemble.for_scenario(scn, n_paths=30)
    ubar = scn.base_control
    xbar = simulate_state(scn, ubar, ens)
    probes = make_tensor_probes(scn, 3)
    phis = np.stack([Phi for Phi, _ in probes], axis=1)[:, :, None]
    psis = np.stack([Psi for _, Psi in probes], axis=1)[:, :, None]
    shapes_seen = set()
    stacked = simulate_tensor(scn, xbar, ubar, ens, phi=lambda k: phis[k],
                              psi=lambda k: psis[k],
                              step_hook=lambda k, Y: shapes_seen.add(Y.shape))
    assert shapes_seen == {(3, 30, 8, 8)}
    for j, (Phi, Psi) in enumerate(probes):
        single = simulate_tensor(scn, xbar, ubar, ens,
                                 phi=lambda k: phis[k, j],
                                 psi=lambda k: psis[k, j])
        assert np.array_equal(stacked.final[j], single.final)
        # the per-probe sweep with the unfolded multiplier, as a reference
        ref = reference_simulate_tensor(scn, xbar, ubar, ens,
                                        phi=lambda k: Phi[k],
                                        psi=lambda k: Psi[k])
        assert np.max(np.abs(single.final - ref)) <= 1e-12 * np.max(np.abs(ref))


KERNELS = {1: simulate_linear, 2: simulate_tensor}


def _stacked(probes):
    """Per-step providers of (J, 1, ...) probe sources."""
    phis = np.stack([phi for phi, _ in probes], axis=1)[:, :, None]
    psis = np.stack([psi for _, psi in probes], axis=1)[:, :, None]
    return (lambda k: phis[k]), (lambda k: psis[k])


@pytest.mark.parametrize("K, shapes", [(1, False), (2, True)])
@pytest.mark.parametrize("order", [1, 2])
def test_chunked_sweep_equals_one_chunk(monkeypatch, order, K, shapes):
    # the multiplier, the right-hand sides and the solves run per path
    # chunk on both orders: a ragged split (37 paths, the last 4) changes no
    # bit, for (J, 1, ...) probe sources and for per-path spike sources, nor
    # does it change the interval's stored trajectory; the hook sees the
    # whole state
    scn = make_scenario("logistic-drift", n=8, n_t=32, K=K, shapes=shapes)
    ens = PathEnsemble.for_scenario(scn, n_paths=300)
    ubar = scn.base_control
    xbar = simulate_state(scn, ubar, ens)
    ueps = SpikeControl(ubar, [0.8], tau=0.1, eps=0.1)
    spikes = spike_sources(scn, xbar, ubar, ueps, ens)
    if order == 1:
        probes = make_random_probes(scn, 2)
    else:
        probes = make_tensor_probes(scn, 2)
        y = simulate_linear(scn, xbar, ubar, ens, *spikes)
        spikes = spike_tensor_sources(scn, xbar, ubar, ueps, y, ens)
    kernel, sources = KERNELS[order], [_stacked(probes), spikes]
    assert len(forward.path_chunks(300, 8, order)) == 1
    whole = [kernel(scn, xbar, ubar, ens, phi=phi, psi=psi)
             for phi, psi in sources]
    monkeypatch.setattr(forward, "CHUNK_BYTES", 37 * 8 ** (order + 1))
    assert len(forward.path_chunks(300, 8, order)) == 9
    for (phi, psi), ref in zip(sources, whole):
        shapes_seen = set()
        out = kernel(scn, xbar, ubar, ens, phi=phi, psi=psi,
                     step_hook=lambda k, Y: shapes_seen.add(Y.shape))
        assert shapes_seen == {ref.final.shape}
        assert np.array_equal(out.final, ref.final)
        if order == 1:
            assert np.array_equal(out.values, ref.values)
    assert whole[0].final.shape == (2, 300) + (8,) * order
    assert np.max(np.abs(whole[1].final)) > 0.0


@pytest.mark.parametrize("order", [1, 2])
def test_chunked_blow_up_raises_at_the_one_chunk_step(monkeypatch, order):
    # each chunk is checked as it is written: a source that turns the last
    # path non-finite at step 5 stops the sweep at step 6 however the paths
    # are split, the bad path in the ragged last chunk
    scn = make_scenario("bilinear", n=8, n_t=16)
    ens = PathEnsemble.for_scenario(scn, n_paths=300)
    ubar = scn.base_control
    xbar = simulate_state(scn, ubar, ens)
    phi = np.zeros((300,) + (8,) * order)
    phi[-1] = np.inf
    steps = []
    for rows in (None, 37):
        if rows is not None:
            monkeypatch.setattr(forward, "CHUNK_BYTES", rows * 8 ** (order + 1))
        assert len(forward.path_chunks(300, 8, order)) == (1 if rows is None else 9)
        with np.errstate(invalid="ignore"), pytest.raises(BlowUpError) as exc:
            KERNELS[order](scn, xbar, ubar, ens,
                           phi=lambda k: phi if k == 5 else None)
        steps.append(exc.value.step)
    assert steps == [6, 6]


@pytest.mark.parametrize("order", [1, 2])
def test_probe_states_are_updated_in_place(order):
    # with a probe axis the hook sees one (J, M, ...) state, updated in
    # place each step and returned as the final value (a hook copies what
    # it keeps); without one, every step makes a new state
    scn = make_scenario("bilinear", n=8, n_t=8)
    ens = PathEnsemble.for_scenario(scn, n_paths=20)
    ubar = scn.base_control
    xbar = simulate_state(scn, ubar, ens)
    probes = (make_random_probes if order == 1 else make_tensor_probes)(scn, 2)
    phi, psi = _stacked(probes)
    for sources, in_place in (((phi, psi), True),
                              ((lambda k: phi(k)[0], lambda k: psi(k)[0]),
                               False)):
        seen = []
        out = KERNELS[order](scn, xbar, ubar, ens, *sources,
                             step_hook=lambda k, Y: seen.append(Y))
        assert len(seen) == scn.n_t
        if in_place:
            assert all(Y is out.final for Y in seen)
        else:
            assert len({id(Y) for Y in seen + [out.final]}) == scn.n_t + 1


@pytest.mark.parametrize("K, shapes", [(2, True), (3, True), (3, False)])
def test_forward_layer_reads_no_per_mode_diffusion(monkeypatch, K, shapes):
    # the forward kernels take the coefficients per node and the noise
    # modes only through xi = dW E^T and C = E E^T: the per-mode diffusion
    # serves the pairings with q alone
    def refuse(*args, **kwargs):
        raise AssertionError("the forward layer read a per-mode diffusion")

    for name in ("sigma_eff", "sigma_x_eff", "sigma_xx_eff", "_shaped"):
        monkeypatch.setattr(Scenario, name, refuse)
    scn = make_scenario("logistic-drift", n=6, n_t=8, K=K, shapes=shapes)
    ens = PathEnsemble.for_scenario(scn, n_paths=12)
    ubar = scn.base_control
    ueps = SpikeControl(ubar, [0.8], tau=0.1, eps=0.2)
    xbar = simulate_state(scn, ubar, ens)
    simulate_costs(scn, [ubar, ueps], ens)
    gen = np.random.Generator(np.random.Philox(key=5))
    phis = gen.normal(size=(scn.n_t, 2, 1, scn.grid.n))
    psis = gen.normal(size=(scn.n_t, 2, 1, scn.grid.n, K))
    simulate_linear(scn, xbar, ubar, ens, phi=lambda k: phis[k],
                    psi=lambda k: psis[k])
    probes = make_tensor_probes(scn, 2)
    Phis = np.stack([Phi for Phi, _ in probes], axis=1)[:, :, None]
    Psis = np.stack([Psi for _, Psi in probes], axis=1)[:, :, None]
    simulate_tensor(scn, xbar, ubar, ens, phi=lambda k: Phis[k],
                    psi=lambda k: Psis[k])
    y = simulate_linear(scn, xbar, ubar, ens,
                        *spike_sources(scn, xbar, ubar, ueps, ens))
    Y = simulate_tensor(scn, xbar, ubar, ens,
                        *spike_tensor_sources(scn, xbar, ubar, ueps, y, ens))
    assert np.max(np.abs(Y.final)) > 0.0
    stats, _ = spike_expansion_stats(scn, ubar, [0.8], tau=0.1, eps=[0.2],
                                     ens=ens)
    assert stats["y_moment"][0] > 0.0
    check_tensor_identity(scn, ubar, [0.8], tau=0.1, eps=0.2, ens=ens)


def test_cost_sweep_returns_the_terminal_state():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=25)
    est = simulate_cost(scn, scn.base_control, ens)
    traj = simulate_state(scn, scn.base_control, ens)
    assert np.array_equal(est.final, traj.final)


def test_control_only_cost_is_exact():
    # state_weight = term_weight = 0 leaves only the control running cost,
    # whose left-endpoint quadrature is T * (h n) * cw u^2 / 2 exactly
    scn = make_scenario("additive", n=10, n_t=16, T=0.5, base=(0.8,),
                        state_weight=0.0, term_weight=0.0, ctrl_weight=0.4)
    ens = PathEnsemble.for_scenario(scn, n_paths=6)
    est = simulate_cost(scn, scn.base_control, ens)
    expect = 0.5 * scn.grid.h * scn.grid.n * 0.5 * 0.4 * 0.8 ** 2
    assert est.mean == pytest.approx(expect, rel=1e-12)
    assert est.se == 0.0


def test_streaming_cost_matches_stored_cost():
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=25)
    traj = simulate_state(scn, scn.base_control, ens)
    a = cost(scn, traj, scn.base_control)
    b = simulate_cost(scn, scn.base_control, ens)
    assert np.array_equal(a.per_path, b.per_path)


@pytest.mark.parametrize("preset", ["additive", "bilinear",
                                    "logistic-drift"])
def test_cost_equals_the_reference_sweep(preset):
    scn = make_scenario(preset, n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=25)
    est = simulate_cost(scn, scn.base_control, ens)
    ref = sweep_cost(scn, scn.base_control, ens)
    assert np.array_equal(est.per_path, ref.per_path)
    assert np.array_equal(est.final, ref.final)
    assert (est.mean, est.se) == (ref.mean, ref.se)


def test_cost_raises_the_blow_up():
    scn = make_scenario("bilinear", n=8, n_t=16, base=(1e300,))
    ens = PathEnsemble.for_scenario(scn, n_paths=5)
    with np.errstate(all="ignore"):
        with pytest.raises(BlowUpError) as exc:
            simulate_cost(scn, scn.base_control, ens)
        with pytest.raises(BlowUpError) as ref:
            simulate_state(scn, scn.base_control, ens)
    assert exc.value.step == ref.value.step == 2


class _Threshold(ControlProcess):
    """State feedback: 0.5 on the paths whose spatial mean exceeds thr,
    -0.5 on the others."""

    def __init__(self, thr):
        self.thr = thr

    def evaluate(self, k, scenario, x=None):
        return np.where(x.mean(axis=1, keepdims=True) > self.thr, 0.5, -0.5)


def _assert_walk_equals_sweeps(scn, controls):
    ens = PathEnsemble.for_scenario(scn, n_paths=40)
    ests = simulate_costs(scn, controls, ens)
    assert len(ests) == len(controls)
    for u, est in zip(controls, ests):
        ref = sweep_cost(scn, u, ens)
        assert np.array_equal(est.per_path, ref.per_path)
        assert np.array_equal(est.final, ref.final)


@pytest.mark.parametrize("preset", ["additive", "bilinear"])
def test_cost_walk_equals_one_sweep_per_block_control(preset):
    scn = make_scenario(preset, n=8, n_t=16, K=2)
    _, controls = block_control_candidates(scn, n_blocks=4)
    _assert_walk_equals_sweeps(scn, controls)


def test_cost_walk_serves_duplicate_controls():
    scn = make_scenario("bilinear", n=8, n_t=16)
    _, controls = block_control_candidates(scn, n_blocks=2)
    _assert_walk_equals_sweeps(scn, controls + controls[::-1] + controls[1:2])


def test_cost_walk_shares_spike_prefixes():
    # spikes on one base agree with it, and with each other, up to tau
    scn = make_scenario("logistic-drift", n=8, n_t=32)
    spikes = [SpikeControl(scn.base_control, [v], tau=tau, eps=2 * scn.dt)
              for tau in (0.1, 0.2, 0.3) for v in (-0.5, 0.8)]
    _assert_walk_equals_sweeps(scn, [scn.base_control] + spikes)


def test_cost_walk_splits_state_feedback_by_value():
    scn = make_scenario("bilinear", n=8, n_t=16)
    _assert_walk_equals_sweeps(scn, [_Threshold(t) for t in
                                     (-1.0, 0.3, 0.5, 0.7, 5.0)])


def test_spike_expansion_stats_sign_structure():
    scn = make_scenario("logistic-drift", n=8, n_t=128, T=0.5)
    ens = PathEnsemble.for_scenario(scn, n_paths=40)
    stats, _ = spike_expansion_stats(scn, scn.base_control, [0.8], tau=0.1,
                                     eps=[0.05], ens=ens)
    assert stats["y_moment"][0] > 0.0
    assert stats["z_moment"][0] > 0.0
    assert stats["hgamma"][0] > 0.0
    # the expansion residual is higher order than the response itself
    assert stats["residual"][0] < stats["y_moment"][0]


def test_lockstep_stats_equal_the_variation_systems():
    # spike_expansion_stats marches y and z with the same step and source
    # formulas as simulate_linear on the variation sources, bit for bit
    scn = make_scenario("logistic-drift", n=8, n_t=64, T=0.5)
    ens = PathEnsemble.for_scenario(scn, n_paths=40)
    ubar, h = scn.base_control, scn.grid.h
    ueps = SpikeControl(ubar, [0.8], tau=0.1, eps=0.05)
    xbar = simulate_state(scn, ubar, ens)
    phi, psi = spike_sources(scn, xbar, ubar, ueps, ens)
    y = simulate_linear(scn, xbar, ubar, ens, phi=phi, psi=psi)

    def second(k):
        x = xbar[k]
        ub = ubar.evaluate(k, scn, x)
        ue = ueps.evaluate(k, scn, x) if ueps.active(k, scn) else None
        phi, omega = _second_variation(scn, x, ue, y[k],
                                       scn.coeffs.b_x(x, ub),
                                       scn.coeffs.sigma_x(x, ub),
                                       scn.coeffs.b_xx(x, ub),
                                       scn.coeffs.sigma_xx(x, ub))
        return phi, omega * scn.noise_field(ens.dW[:, k])

    z = simulate_linear(scn, xbar, ubar, ens, phi=lambda k: second(k)[0],
                        psi=lambda k: second(k)[1])
    stats, _ = spike_expansion_stats(scn, ubar, [0.8], tau=0.1, eps=[0.05],
                                     ens=ens)
    y_sq = h * np.sum(y.values ** 2, axis=-1)
    z_nrm = np.sqrt(h * np.sum(z.values ** 2, axis=-1))
    assert stats["y_moment"][0] > 0.0 and stats["z_moment"][0] > 0.0
    assert float(y_sq.mean(axis=1).max()) == stats["y_moment"][0]
    assert float(z_nrm.mean(axis=1).max()) == stats["z_moment"][0]


def test_degenerate_spike_gives_identically_zero_stats():
    scn = make_scenario("logistic-drift", n=8, n_t=64, T=0.5, base=(0.3,))
    ens = PathEnsemble.for_scenario(scn, n_paths=10)
    stats, _ = spike_expansion_stats(scn, scn.base_control, [0.3], tau=0.1,
                                     eps=[0.05], ens=ens)
    assert stats["y_moment"][0] == 0.0
    assert stats["z_moment"][0] == 0.0
    assert stats["residual"][0] == 0.0


# (scenario, base control or None, spike value, tau, spike lengths as
# fractions of T, paths)
LADDERS = {
    "rates": (dict(preset="logistic-drift", n=16, n_t=512, T=0.2), None,
              [0.8], 0.025, [2.0 ** -k for k in range(3, 8)], 200),
    "logistic-K3": (dict(preset="logistic-drift", n=8, n_t=64, K=3,
                         shapes=False), None, [0.8], 0.1,
                    [2 ** -3, 2 ** -4, 2 ** -5], 60),
    "bilinear-K3": (dict(preset="bilinear", n=8, n_t=64, K=3, shapes=False),
                    None, [0.8], 0.1, [2 ** -3, 2 ** -4, 2 ** -5], 60),
    "additive-K3": (dict(preset="additive", n=8, n_t=64, K=3, shapes=False),
                    None, [0.8], 0.1, [2 ** -3, 2 ** -4, 2 ** -5], 60),
    # the residual at the shortest spike sits at the rounding floor
    "rounding-floor": (dict(preset="bilinear", n=16, n_t=64, K=3), None,
                       [0.8], 0.1, [2 ** -3, 2 ** -4, 2 ** -5], 300),
    "degenerate": (dict(preset="additive", n=8, n_t=64, T=0.2, base=(0.3,)),
                   None, [0.3], 0.025, [2 ** -3, 2 ** -4, 2 ** -5], 20),
    # no spike, a repeated length and a window that ends at the horizon
    "edges": (dict(preset="logistic-drift", n=8, n_t=64), None, [0.8], 0.25,
              [0.0, 2 ** -3, 2 ** -3, 0.5], 2),
    # the spiked state reads the base control at its own state
    "state-feedback": (dict(preset="bilinear", n=8, n_t=32), MeanFeedback(),
                       [0.8], 0.1, [0.25, 0.125, 0.0625], 40),
}


@pytest.mark.parametrize("case", sorted(LADDERS))
def test_ladder_equals_one_sweep_per_spike_length(case):
    kw, ubar, v, tau, fractions, m = LADDERS[case]
    scn = make_scenario(**kw)
    ubar = ubar or scn.base_control
    ens = PathEnsemble.for_scenario(scn, n_paths=m)
    eps = [f * scn.T for f in fractions]
    stats, ses = spike_expansion_stats(scn, ubar, v, tau, eps, ens)
    assert list(stats) == list(ses) == list(forward.MOMENTS)
    for j, e in enumerate(eps):
        ref = reference_expansion_stats(scn, ubar, v, tau, e, ens)
        assert {nm: (stats[nm][j], ses[nm][j]) for nm in stats} == ref


def test_ladder_blow_up_raises_at_the_reference_step():
    # the one-step spike stays finite; the longer spikes blow up at one step
    scn = make_scenario("bilinear", n=8, n_t=32)
    ens = PathEnsemble.for_scenario(scn, n_paths=5)
    ubar, eps = scn.base_control, [scn.dt, 0.25, 0.125]
    with np.errstate(all="ignore"):
        reference_expansion_stats(scn, ubar, [1e60], 0.1, eps[0], ens)
        with pytest.raises(BlowUpError) as ref:
            reference_expansion_stats(scn, ubar, [1e60], 0.1, eps[1], ens)
        with pytest.raises(BlowUpError) as exc:
            spike_expansion_stats(scn, ubar, [1e60], 0.1, eps, ens)
    assert exc.value.step == ref.value.step


def test_block_control_applies_per_step():
    scn = make_scenario("additive", n=6, n_t=4, noise_amp=0.0, shapes=False,
                        K=1)
    u = DeterministicControl.from_blocks([(0.0,), (1.0,)], scn.n_t)
    ens = PathEnsemble.for_scenario(scn, n_paths=1)
    applied = []
    simulate_state(scn, u, ens,
                   step_hook=lambda k, x, uk: applied.append(uk[0]))
    assert applied == [0.0, 0.0, 1.0, 1.0]
