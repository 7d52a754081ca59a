import numpy as np
import pytest
from numpy.testing import assert_allclose

from statecast import (
    ChannelParams,
    RngSeed,
    SystemParams,
    draw_noise,
    mean_trajectory,
    paths_from_noise,
    state_variance,
)
from statecast.model import _BLOCK_ROWS


def test_state_variance_worked_example():
    # sigma^2(t+1) = a^2 sigma^2(t) + b^2 V_ww starting from 0
    params = SystemParams.make(3, a=0.5, b=2.0, V_ww=1.0)
    assert_allclose(state_variance(params), [0.0, 4.0, 5.0, 5.25], rtol=0, atol=0)


def test_state_variance_zero_horizon_start():
    params = SystemParams.make(4, a=0.9)
    sig = state_variance(params)
    assert sig[0] == 0.0
    # from a zero start with constant coefficients the schedule is monotone
    assert np.all(np.diff(sig) >= 0)
    assert np.all(np.isfinite(sig))
    # time-varying a, b and V_ww: the same recursion on numpy scalars, to 0 ulp
    # (x * x and x ** 2 differ in the last bit for about 1 in 1,000 doubles)
    rng = np.random.default_rng(3)
    T = 5000
    params = SystemParams.make(T, a=rng.uniform(-1.3, 1.3, T), b=rng.uniform(0.0, 2.0, T),
                               V_ww=rng.uniform(0.0, 3.0, T + 1))
    ref = np.zeros(T + 1)
    for t in range(T):
        ref[t + 1] = params.a[t] ** 2 * ref[t] + params.b[t] ** 2 * params.V[t, 0, 0]
    assert np.array_equal(state_variance(params), ref)


def test_state_variance_matches_monte_carlo():
    """Empirical Var x(3) for a=0.9, b=1, V_ww=1 is about 2.4661."""
    params = SystemParams.make(3, a=0.9)
    assert_allclose(state_variance(params)[3], 2.4661, atol=5e-5)
    w, v = draw_noise(params, 200000, RngSeed(11).stream(0), RngSeed(11).stream(1))
    x, _ = paths_from_noise(params, w, v)
    var = x[:, 3].var(ddof=1)
    se = var * np.sqrt(2.0 / (x.shape[0] - 1))  # SE of a normal sample variance
    assert abs(var - 2.4661) < 3 * se


def test_make_broadcasts_scalars():
    params = SystemParams.make(4, a=0.9, b=2.0, c=1.5, d=0.5, V_ww=1.0,
                               V_vv=2.0, V_wv=0.3, x0=1.0)
    assert params.a.shape == (4,)
    assert params.b.shape == (4,)
    # observation-side sequences cover t = 0 .. T
    assert params.c.shape == (5,)
    assert params.d.shape == (5,)
    assert params.V.shape == (5, 2, 2)
    assert_allclose(params.V[2], [[1.0, 0.3], [0.3, 2.0]])


def test_make_extends_length_T_observation_arrays():
    # a length-T observation sequence is extended by repeating the last entry
    params = SystemParams.make(3, a=1.0, c=[1.0, 2.0, 3.0], d=0.0)
    assert_allclose(params.c, [1.0, 2.0, 3.0, 3.0])


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams.make(3, a=[1.0, 1.0])  # wrong length
    with pytest.raises(ValueError):
        SystemParams.make(3, a=1.0, V_ww=-1.0)  # not PSD
    with pytest.raises(ValueError, match="V\\[0\\]"):
        SystemParams.make(3, a=1.0, V_ww=1.0, V_vv=1.0, V_wv=2.0)  # |wv| too big
    with pytest.raises(ValueError):
        ChannelParams.make(2, P=0.0, N=1.0)
    with pytest.raises(ValueError):
        ChannelParams.make(2, P=1.0, N=[1.0, -1.0])
    # NaN passes every ordering check, so non-finite values need their own
    for bad in (dict(a=[1.0, np.inf, 1.0]), dict(a=1.0, b=np.nan),
                dict(a=1.0, V_ww=np.nan), dict(a=1.0, d=-np.inf),
                dict(a=1.0, x0=np.nan)):
        with pytest.raises(ValueError, match="finite"):
            SystemParams.make(3, **bad)
    for P, N in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf), (1.0, [1.0, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            ChannelParams.make(2, P=P, N=N)


def test_params_arrays_are_read_only():
    params = SystemParams.make(2, a=0.5)
    with pytest.raises(ValueError):
        params.a[0] = 1.0


def test_mean_trajectory_propagates_x0():
    params = SystemParams.make(3, a=0.5, b=2.0, x0=8.0)
    assert_allclose(mean_trajectory(params), [8.0, 4.0, 2.0, 1.0])


def test_paths_deterministic_per_seed():
    params = SystemParams.make(5, a=0.9, c=1.0, d=1.0, V_vv=0.5)

    def paths(seed):
        seed = RngSeed(seed)
        return paths_from_noise(params, *draw_noise(params, 1, seed.stream(0),
                                                    seed.stream(1)))

    (x1, g1), (x2, g2), (x3, _) = paths(123), paths(123), paths(124)
    assert_allclose(x1, x2, rtol=0, atol=0)
    assert_allclose(g1, g2, rtol=0, atol=0)
    assert np.any(x1 != x3)


def test_role_streams_are_independent():
    # same master seed: the process draw must not move when only the
    # measurement role is consumed differently
    params = SystemParams.make(4, a=1.0, d=1.0, V_vv=1.0)
    seed = RngSeed(7)
    w1, v1 = draw_noise(params, 3, seed.stream(0), seed.stream(1))
    w2, v2 = draw_noise(params, 3, seed.stream(0), RngSeed(99).stream(1))
    assert_allclose(w1, w2, rtol=0, atol=0)
    assert np.any(v1 != v2)


def test_block_draws_equal_one_shot_draws():
    # Monte Carlo draws its paths in blocks of B rows, time-major, from one
    # generator per role; draws cut at multiples of B must stack to the
    # one-shot draw, bit for bit.
    B = _BLOCK_ROWS
    params = SystemParams.make(6, a=0.9, c=1.0, d=0.5, V_vv=1.0, V_wv=0.3)
    seed = RngSeed(21)
    w, v = draw_noise(params, 3 * B + 5, seed.stream(0), seed.stream(1))
    rng_w, rng_v = seed.stream(0), seed.stream(1)
    pieces = [draw_noise(params, m, rng_w, rng_v) for m in (B, 2 * B, 5)]
    assert np.array_equal(np.vstack([wv[0] for wv in pieces]), w)
    assert np.array_equal(np.vstack([wv[1] for wv in pieces]), v)
    # V_ww = 1, so w is the process stream itself: each block holds the
    # stream's next (T+1) m deviates, one row of the block per step
    stream = seed.stream(0).standard_normal(7 * (3 * B + 5))
    blocks = [w[start:start + B].T.ravel() for start in range(0, 3 * B + 5, B)]
    assert np.array_equal(np.concatenate(blocks), stream)
    # a stream filled one row per step, as the pipeline draws the channel
    # noise, continues across blocks in the same order
    rng_n, row, rows = seed.stream(2), np.empty(B), []
    for m in (B, B, 5):
        for _ in range(5):
            rng_n.standard_normal(out=row[:m])
            rows.append(row[:m].copy())
    assert np.array_equal(np.concatenate(rows), seed.stream(2).standard_normal(5 * (2 * B + 5)))


def test_draw_noise_joint_covariance():
    """Sampled (w, v) pairs reproduce V(t); distinct steps are uncorrelated."""
    params = SystemParams.make(3, a=1.0, V_ww=2.0, V_vv=1.0, V_wv=-0.8)
    seed = RngSeed(5)
    w, v = draw_noise(params, 400000, seed.stream(0), seed.stream(1))
    n = w.shape[0]
    tol = 3.5 / np.sqrt(n) * 4  # generous bound on second-moment noise
    for t in range(4):
        assert abs(w[:, t].var(ddof=1) - 2.0) < tol * 2.0
        assert abs(v[:, t].var(ddof=1) - 1.0) < tol
        assert abs(np.mean(w[:, t] * v[:, t]) + 0.8) < tol * np.sqrt(2.0)
    # cross-time independence
    for s, t in [(0, 1), (0, 2), (1, 3)]:
        assert abs(np.mean(w[:, s] * w[:, t])) < tol * 2.0
        assert abs(np.mean(w[:, s] * v[:, t])) < tol * 2.0


def test_draw_noise_degenerate_covariances():
    # a singular V (V_vv = V_wv^2 / V_ww) makes v a deterministic multiple of w
    params = SystemParams.make(2, a=1.0, V_ww=4.0, V_vv=1.0, V_wv=2.0)
    seed = RngSeed(2)
    w, v = draw_noise(params, 1000, seed.stream(0), seed.stream(1))
    assert_allclose(v, 0.5 * w, rtol=0, atol=0)

    params = SystemParams.make(2, a=1.0, V_ww=0.0, V_vv=1.0, V_wv=0.0)
    w, _ = draw_noise(params, 100, seed.stream(0), seed.stream(1))
    assert np.all(w == 0.0)


def test_paths_from_noise_recursion():
    params = SystemParams.make(3, a=0.5, b=2.0, c=3.0, d=1.0, V_vv=1.0, x0=1.0)
    w = np.array([[1.0, -1.0, 0.5, 0.0]])
    v = np.array([[0.0, 1.0, 0.0, 2.0]])
    x, gamma = paths_from_noise(params, w, v)
    assert_allclose(x[0], [1.0, 2.5, -0.75, 0.625])
    assert_allclose(gamma[0], 3.0 * x[0] + v[0])


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(2**64)
    assert RngSeed(2**64 - 1).seed == 2**64 - 1
