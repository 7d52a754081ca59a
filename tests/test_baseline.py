import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from statecast import (
    CausalOperator,
    ChannelParams,
    SchemeKind,
    SystemParams,
    alternating_optimize,
    analytic_mse,
    build_H,
    coupled_decoder_filter,
    coupled_decoder_schedule,
    mse_floor,
    paths_from_noise,
    state_variance,
)
from statecast.baseline import (
    _BLOCK_RESTARTS,
    _descend,
    _Formulation,
    _formulation,
    _shift_cols,
    _Spheres,
)
from test_acceptance import GRID_A, GRID_N, GRID_T

FULL = SchemeKind.FULL_STATE
NOISY = SchemeKind.NOISY_STATE


def _closed_form_point(params, channel):
    """Closed-form encoder/decoder pair as dense operators (V_ww = 1).

    ``params`` has the default noiseless sensor, so the filtered scheme's
    schedule is the FullState one.
    """
    T = params.horizon
    H = build_H(params).entries
    ds = coupled_decoder_schedule(params, channel)
    G = np.diag(ds.K)
    F = np.zeros((T, T))
    for j in range(1, T):
        y = np.zeros(T)
        y[j] = 1.0
        F[:, j] = coupled_decoder_filter(ds, params, y)
    return G, F, H


def _form(H, N):
    """The search's objective chain for the plant x = H u (full state,
    V_ww = 1, unit power budgets)."""
    T = H.shape[0]
    return _Formulation(Hx=H, Hin=H, mask=np.tril(np.ones((T, T))), N=N,
                        P=np.ones(T))


def _gradient_G(form, G, F):
    """Objective gradient in the causal entries of G: the search's gradient
    in U = G Hin, at the decoder weights of F, mapped back to G."""
    grad_U = form.loss(G @ form.Hin, _shift_cols(F).T)[1]
    return (grad_U @ form.Hin.T) * form.mask


def test_build_H_toeplitz_example():
    H = build_H(SystemParams.make(3, a=0.5, b=2.0))
    assert_allclose(H.entries, [[2.0, 0.0, 0.0],
                                [1.0, 2.0, 0.0],
                                [0.5, 1.0, 2.0]], rtol=0, atol=0)


def test_build_H_memoryless_plant():
    H = build_H(SystemParams.make(4, a=0.0, b=1.7))
    assert_allclose(H.entries, 1.7 * np.eye(4), rtol=0, atol=0)


def test_build_H_matches_impulse_response_of_plant():
    # feeding a unit impulse at w(0) through the plant reproduces column 0
    params = SystemParams.make(5, a=[0.9, 1.1, 0.5, 0.8, 1.0],
                               b=[1.0, 2.0, 0.5, 1.0, 1.5])
    H = build_H(params).entries
    w = np.zeros((1, 6))
    w[0, 0] = 1.0
    x, _ = paths_from_noise(params, w, np.zeros((1, 6)))
    assert_allclose(H[:, 0], x[0, 1:], rtol=0, atol=0)


def test_causal_operator_validation():
    with pytest.raises(ValueError):
        CausalOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # one superdiagonal is allowed when the column timeline leads by a step
    op = CausalOperator(np.array([[1.0, 1.0], [1.0, 1.0]]), band=1)
    assert op.horizon == 2
    with pytest.raises(ValueError):
        CausalOperator(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="square"):
        CausalOperator(np.zeros((2, 3)))


def test_mse_objective_silent_system():
    params = SystemParams.make(3, a=0.5, b=2.0)
    H = build_H(params).entries
    form = _form(H, np.ones(3))
    want = np.sum(H**2) / 3.0
    zero = np.zeros((3, 3))
    assert_allclose(form.objective(zero, zero), want, atol=1e-15)
    assert_allclose(want, np.mean(state_variance(params)[1:]), atol=1e-15)
    # a zero decoder ignores the channel entirely, whatever G does
    G = np.tril(np.arange(9.0).reshape(3, 3))
    assert form.objective(G, zero) == form.objective(zero, zero)


def test_mse_objective_at_closed_form_point_equals_analytic():
    params = SystemParams.make(4, a=0.9)
    channel = ChannelParams.make(4, P=1.0, N=0.5)
    G, F, _ = _closed_form_point(params, channel)
    want = analytic_mse(FULL, params, channel).avg_mse_analytic
    form = _formulation(params, channel, 0)
    assert abs(form.objective(G, F) - want) < 1e-10


def test_optimal_F_zero_encoder():
    H = build_H(SystemParams.make(3, a=1.0)).entries
    F = _form(H, np.ones(3)).optimal_F(np.zeros((3, 3)))
    assert_allclose(F, np.zeros((3, 3)), rtol=0, atol=0)


def test_optimal_F_shrinks_with_noise():
    params = SystemParams.make(4, a=0.9)
    channel = ChannelParams.make(4, P=1.0, N=1.0)
    G, _, H = _closed_form_point(params, channel)
    norms = []
    for N in (1.0, 10.0, 100.0, 1e6):
        F = _form(H, np.full(4, N)).optimal_F(G)
        norms.append(np.abs(F).sum())
    assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))
    assert norms[-1] < 1e-4


def test_optimal_F_reproduces_decoder_filter():
    params = SystemParams.make(5, a=0.9)
    channel = ChannelParams.make(5, P=1.0, N=0.5)
    G, F_filter, _ = _closed_form_point(params, channel)
    F = _formulation(params, channel, 0).optimal_F(G)
    assert_allclose(F, F_filter, atol=1e-8)


def test_optimal_F_is_a_minimum():
    # perturbing the exact decoder never pays (the F-problem is convex)
    rng = np.random.default_rng(0)
    params = SystemParams.make(4, a=1.1)
    channel = ChannelParams.make(4, P=1.0, N=0.5)
    form = _form(build_H(params).entries, channel.N)
    G = np.tril(rng.standard_normal((4, 4)))
    F = form.optimal_F(G)
    J0 = form.objective(G, F)
    for _ in range(20):
        delta = 1e-4 * np.tril(rng.choice([-1.0, 1.0], size=(4, 4)))
        assert form.objective(G, F + delta) >= J0 - 1e-12


def _fd_gradient(G, F, form, h=1e-6):
    T = G.shape[0]
    out = np.zeros_like(G)
    for i in range(T):
        for j in range(i + 1):
            Gp, Gm = G.copy(), G.copy()
            Gp[i, j] += h
            Gm[i, j] -= h
            out[i, j] = (form.objective(Gp, F)
                         - form.objective(Gm, F)) / (2.0 * h)
    return out


def test_gradient_zero_decoder():
    form = _form(build_H(SystemParams.make(3, a=1.0)).entries, np.ones(3))
    g = _gradient_G(form, np.eye(3), np.zeros((3, 3)))
    assert_allclose(g, np.zeros((3, 3)), rtol=0, atol=0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    params = SystemParams.make(4, a=0.9)
    form = _form(build_H(params).entries, np.full(4, 0.5))
    mask = np.tril(np.ones((4, 4), dtype=bool))
    for _ in range(10):
        G = np.tril(rng.standard_normal((4, 4)))
        F = np.tril(rng.standard_normal((4, 4)))
        an = _gradient_G(form, G, F)
        fd = _fd_gradient(G, F, form)
        scale = np.abs(an[mask]).max()
        rel = np.abs(an - fd)[mask] / np.maximum(
            np.maximum(np.abs(an), np.abs(fd)), 1e-9 * scale)[mask]
        assert rel.max() < 1e-5


def _tangent_residual(params, channel):
    """Norm of the objective gradient projected onto feasible directions at
    the closed-form point (rows at power equality)."""
    G, F, H = _closed_form_point(params, channel)
    T = params.horizon
    mask = np.tril(np.ones((T, T)))
    grad = _gradient_G(_form(H, channel.N), G, F)
    GH = G @ H
    normal = 2.0 * (GH @ H.T) * mask
    total = 0.0
    for i in range(T):
        g = grad[i].copy()
        nr = normal[i]
        nn = float(nr @ nr)
        if nn > 0:
            coef = float(g @ nr) / nn
            if coef < 0.0:
                g = g - coef * nr
        total += float(g @ g)
    return np.sqrt(total)


def test_closed_form_point_is_stationary_at_two_steps():
    params = SystemParams.make(2, a=0.9)
    channel = ChannelParams.make(2, P=1.0, N=0.5)
    assert _tangent_residual(params, channel) < 1e-6


def test_closed_form_point_is_not_stationary_beyond_two_steps():
    # Documented finding: beyond T=2 the closed-form pair admits feasible
    # descent directions, so the stationarity residual is genuinely large.
    # Keeping this as a regression guard against silently "fixing" it.
    for T in (3, 4, 5):
        params = SystemParams.make(T, a=0.9)
        channel = ChannelParams.make(T, P=1.0, N=0.5)
        assert _tangent_residual(params, channel) > 1e-3


def test_alternating_optimize_single_step():
    params = SystemParams.make(1, a=0.3, b=1.4)
    channel = ChannelParams.make(1, P=1.0, N=1.0)
    res = alternating_optimize(params, channel, restarts=3, seed=0)
    assert_allclose(res.objective, 1.4**2, atol=1e-12)
    assert res.converged


def test_alternating_optimize_certifies_two_steps():
    for a in (0.5, 0.9, 1.1):
        params = SystemParams.make(2, a=a)
        channel = ChannelParams.make(2, P=1.0, N=0.5)
        res = alternating_optimize(params, channel, restarts=10, seed=0)
        want = analytic_mse(FULL, params, channel).avg_mse_analytic
        assert abs(res.objective - want) / want < 1e-9


def test_alternating_optimize_beats_closed_form_at_four_steps():
    """Documented finding: for T >= 3 the search lands strictly below the
    closed-form average (the memoryless scheme is not the linear optimum),
    at the best value found by an independent SLSQP reference
    (1.2872153990 for this configuration)."""
    params = SystemParams.make(4, a=0.9)
    channel = ChannelParams.make(4, P=1.0, N=0.5)
    res = alternating_optimize(params, channel, restarts=20, seed=0)
    want = analytic_mse(FULL, params, channel).avg_mse_analytic
    assert res.objective < want * (1.0 - 1e-3)
    assert abs(res.objective / 1.2872153990 - 1.0) < 1e-6


def test_alternating_optimize_noisy_state_variant():
    params = SystemParams.make(3, a=0.9, b=1.0, c=1.0, d=1.0,
                               V_ww=1.0, V_vv=1.0, V_wv=0.0)
    channel = ChannelParams.make(3, P=1.0, N=0.5)
    res = alternating_optimize(params, channel, restarts=10, seed=0, kind=NOISY)
    want = analytic_mse(NOISY, params, channel).avg_mse_analytic
    # lands at or below the closed form (see the four-step note above), at
    # the independent reference optimum 1.4334759252
    assert res.objective <= want * (1.0 + 1e-6)
    assert abs(res.objective / 1.4334759252 - 1.0) < 1e-6
    assert res.G_opt.band == 1


def _sphere_residual(params, channel, res):
    """Tangent residual of a full-state search result, from public pieces.

    The objective's gradient at the optimal decoder, each row moved to
    whitened coordinates (the outputs it can reach), stripped of its
    component along the row itself (the normal of its power sphere), scaled
    by sqrt(P(t)) and divided by the objective.  Needs V_ww = 1.
    """
    H = build_H(params).entries
    G = res.G_opt.entries
    form = _form(H, channel.N)
    grad = _gradient_G(form, G, form.optimal_F(G))
    total = 0.0
    for t in range(params.horizon):
        A = H[:t + 1]
        u = G[t, :t + 1] @ A
        w = np.linalg.solve(A @ A.T, grad[t, :t + 1]) @ A
        w -= (w @ u) / (u @ u) * u
        total += channel.P[t] * (w @ w)
    return np.sqrt(total) / res.objective


def test_alternating_optimize_converged_means_small_tangent_residual():
    # the certify benchmark's T=5 input; a stalled search used to report
    # converged=True up to 14% above the closed form
    params = SystemParams.make(5, a=0.9)
    channel = ChannelParams.make(5, P=1.0, N=0.5)
    for tol in (1e-6, 1e-11):
        res = alternating_optimize(params, channel, restarts=20,
                                   max_iters=4000, tol=tol, seed=0)
        assert res.converged
        assert _sphere_residual(params, channel, res) <= tol
    early = alternating_optimize(params, channel, restarts=20, max_iters=1,
                                 seed=0)
    assert not early.converged
    assert _sphere_residual(params, channel, early) > 1e-11


def test_alternating_optimize_monotone_in_iterations():
    params = SystemParams.make(4, a=1.1)
    channel = ChannelParams.make(4, P=1.0, N=0.5)
    vals = [alternating_optimize(params, channel, restarts=1, max_iters=m,
                                 seed=5).objective
            for m in (1, 2, 4, 8, 16, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_alternating_optimize_power_feasible():
    params = SystemParams.make(5, a=1.1)
    channel = ChannelParams.make(5, P=np.array([1.0, 2.0, 0.5, 1.0, 1.0]),
                                 N=1.0)
    res = alternating_optimize(params, channel, restarts=5, seed=1)
    assert np.all(res.per_row_power <= channel.P * (1.0 + 1e-9))
    assert res.restarts_run == 5


def test_alternating_optimize_singular_output_gram():
    # A b=0 step makes the encoder outputs linearly dependent, and with
    # N = 1e-17 the channel-output Gram matrix is singular in floating
    # point, so the decoder takes its pseudo-inverse path.  The receiver
    # then learns every sent state, and only the fresh noise remains:
    # mse = (1, 1, 1, 0, 1).
    params = SystemParams.make(5, a=0.9, b=[1.0, 1.0, 0.0, 1.0, 1.0])
    channel = ChannelParams.make(5, P=1.0, N=1e-17)
    res = alternating_optimize(params, channel, restarts=3, seed=0)
    assert_allclose(res.objective, 0.8, rtol=1e-12)
    assert res.converged
    assert np.all(res.per_row_power <= channel.P * (1.0 + 1e-9))


def test_alternating_optimize_deterministic():
    params = SystemParams.make(3, a=0.9)
    channel = ChannelParams.make(3, P=1.0, N=2.0)
    r1 = alternating_optimize(params, channel, restarts=4, seed=42)
    r2 = alternating_optimize(params, channel, restarts=4, seed=42)
    assert r1.objective == r2.objective
    assert_allclose(r1.G_opt.entries, r2.G_opt.entries, rtol=0, atol=0)
    r3 = alternating_optimize(params, channel, restarts=4, seed=43)
    assert np.any(r1.G_opt.entries != r3.G_opt.entries)


def test_alternating_optimize_validates_arguments():
    params = SystemParams.make(2, a=1.0)
    channel = ChannelParams.make(2, P=1.0, N=1.0)
    with pytest.raises(ValueError):
        alternating_optimize(params, channel, restarts=0)
    with pytest.raises(ValueError):
        alternating_optimize(params, channel, tol=0.0)
    with pytest.raises(ValueError):
        alternating_optimize(params, channel, max_iters=0)
    # the channel spans the plant's horizon
    params = SystemParams.make(5, a=1.0)
    for horizon in (1, 3):
        with pytest.raises(ValueError, match=f"channel has horizon {horizon}, expected 5"):
            alternating_optimize(params, ChannelParams.make(horizon, P=1.0, N=1.0))


@pytest.mark.parametrize("max_iters", [7, 4000])
@pytest.mark.parametrize("kind", [FULL, NOISY])
def test_lockstep_restarts_do_not_interact(kind, max_iters):
    # A restart in a lock-step block takes the path it takes alone, bit for
    # bit, whether its neighbours stop before or after it.
    params = SystemParams.make(6, a=0.9, c=1.0, d=0.5, V_vv=1.0, V_wv=0.3)
    channel = ChannelParams.make(6, P=[1.0, 2.0, 0.5, 1.0, 1.0, 1.5], N=0.5)
    spheres = _Spheres(_formulation(params, channel, int(kind is NOISY)))
    mask = spheres.form.mask
    x = spheres.from_G(np.random.default_rng(3).standard_normal((4,) + mask.shape) * mask)
    stacked = _descend(spheres, x.copy(), max_iters, 1e-11)
    for r in range(4):
        alone = _descend(spheres, x[r:r + 1].copy(), max_iters, 1e-11)
        for got, want in zip(stacked, alone):
            assert np.array_equal(got[r], want[0])
        J, grad = spheres.evaluate(x[r])
        assert J == spheres.evaluate(x)[0][r]
        assert np.array_equal(grad, spheres.evaluate(x)[1][r])


def test_stacked_decoder_and_loss_equal_per_slice_calls():
    # Each slice of a stack decodes as it would alone, bit for bit.  Two
    # equal channel inputs under N = 1e-17 make a Gram matrix singular in
    # floating point: that slice alone takes the pseudo-inverse path, and
    # the other slices keep their Cholesky result.
    form = _formulation(SystemParams.make(5, a=0.9),
                        ChannelParams.make(5, P=1.0, N=1e-17), 0)
    full_rank = np.random.default_rng(4).standard_normal((3, 5, 5))
    singular = np.zeros((5, 5))
    singular[1:3, 0] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular @ singular.T + np.diag(form.N))
    batched = form.decoder(full_rank)
    mixed = np.stack([full_rank[0], singular, full_rank[1], full_rank[2]])
    D = form.decoder(mixed)
    for U_stack, D_stack in ((full_rank, batched), (mixed, D)):
        J, grad = form.loss(U_stack, D_stack)
        for k, U in enumerate(U_stack):
            assert np.array_equal(D_stack[k], form.decoder(U))
            J_k, grad_k = form.loss(U, D_stack[k])
            assert J_k == J[k]
            assert np.array_equal(grad_k, grad[k])
    assert np.array_equal(D[[0, 2, 3]], batched)
    assert np.all(np.tril(D) == 0.0)


def test_alternating_optimize_memory_bounded_in_restarts():
    # restarts descend in blocks, so 8x more restarts hold no more history
    params = SystemParams.make(20, a=0.9)
    channel = ChannelParams.make(20, P=1.0, N=0.5)
    alternating_optimize(params, channel, restarts=_BLOCK_RESTARTS, max_iters=5)  # warm-up
    peaks = []
    for restarts in (_BLOCK_RESTARTS, 8 * _BLOCK_RESTARTS):
        tracemalloc.start()
        try:
            alternating_optimize(params, channel, restarts=restarts, max_iters=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_certifier_never_beats_the_floor():
    # the floor bounds every causal code, so no encoder the search finds on
    # the acceptance grid (criteria 1 and 2) may score below it, converged
    # or not; at T = 2 the two meet
    cases = [(FULL, SystemParams.make(T, a=a), ChannelParams.make(T, P=1.0, N=N))
             for T in GRID_T for a in GRID_A for N in GRID_N]
    cases += [(NOISY, SystemParams.make(T, a=0.9, c=1.0, d=1.0, V_vv=1.0, V_wv=wv),
               ChannelParams.make(T, P=1.0, N=0.5)) for T in (2, 3) for wv in (0.0, 0.3)]
    for kind, params, channel in cases:
        floor = float(np.mean(mse_floor(kind, params, channel)))
        res = alternating_optimize(params, channel, restarts=4, seed=0, kind=kind)
        assert res.objective >= floor * (1 - 1e-9), (kind, params.horizon, res.objective, floor)
        assert analytic_mse(kind, params, channel).avg_mse_analytic >= floor * (1 - 1e-12)
