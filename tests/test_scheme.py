import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from statecast import (
    ChannelParams,
    RngSeed,
    SchemeKind,
    SystemParams,
    alternating_optimize,
    analytic_mse,
    coupled_decoder_schedule,
    draw_noise,
    mean_trajectory,
    monte_carlo_mse,
    paths_from_noise,
    power_scale,
    sample_paths,
    state_variance,
    transmitter_filter,
    transmitter_gain_schedule,
)
from statecast import scheme
from statecast.model import _BLOCK_ROWS, ROLE_CHANNEL

from oracles import decimal_receiver_mse

FULL = SchemeKind.FULL_STATE
NOISY = SchemeKind.NOISY_STATE


def _one_path(params, seed):
    """(x, gamma) of one simulated plant path."""
    seed = RngSeed(seed)
    x, gamma = paths_from_noise(params, *draw_noise(params, 1, seed.stream(0),
                                                    seed.stream(1)))
    return x[0], gamma[0]


def _encode(params, channel, gamma):
    """The pipeline's encoder on given observations: filter them, then scale
    the estimate's deviation from the mean path to the power budget.

    Returns (z, xbreve) with shapes (..., T) and (..., T+1).
    """
    gains = transmitter_gain_schedule(params)
    xbreve = transmitter_filter(params, gains, gamma)
    k = power_scale(gains.sigma_breve_sq, channel)
    return k * (xbreve[..., 1:] - mean_trajectory(params)[1:]), xbreve


@pytest.mark.parametrize("kind,params", [
    (FULL, SystemParams.make(6, a=[0.5, 0.9, 1.1, 0.7, 1.0, 0.8], b=1.3)),
    (NOISY, SystemParams.make(6, a=0.9, c=1.2, d=0.6, V_vv=1.0, V_wv=0.3, x0=1.5)),
], ids=["full", "noisy_correlated"])
def test_sample_paths_transmit_the_encoded_estimate(kind, params):
    # the sampled pipeline sends exactly what _encode computes from its gamma,
    # within a block of B paths and across block boundaries
    channel = ChannelParams.make(6, P=np.linspace(0.5, 2.0, 6), N=0.5)
    B = _BLOCK_ROWS
    for samples in (9, B - 1, B, B + 1, 2 * B + 3):
        runs = sample_paths(kind, params, channel, samples, 11)
        z, xbreve = _encode(params, channel, runs.gamma)
        assert np.array_equal(runs.z, z)
        assert np.array_equal(runs.xbreve, xbreve)


# SystemParams.make defaults to a noiseless sensor (c=1, d=0, V_vv=0): there
# gamma = x and _encode is the FullState encoder.
def test_encode_full_state_zero_state():
    params = SystemParams.make(3, a=1.0)
    channel = ChannelParams.make(3, P=1.0, N=1.0)
    assert_allclose(_encode(params, channel, np.zeros(4))[0],
                    np.zeros(3), rtol=0, atol=0)


def test_encode_full_state_unit_variance():
    # a=0, V_ww=1 keeps sigma_t = 1, so z = sqrt(P) x = 2x
    params = SystemParams.make(3, a=0.0, b=1.0, V_ww=1.0)
    channel = ChannelParams.make(3, P=4.0, N=1.0)
    x = np.array([0.0, 1.0, -2.0, 0.5])
    assert_allclose(_encode(params, channel, x)[0],
                    2.0 * x[1:], rtol=0, atol=0)


def test_encode_full_state_uses_variance_schedule():
    params = SystemParams.make(3, a=0.5, b=2.0)
    channel = ChannelParams.make(3, P=1.0, N=1.0)
    x = np.array([0.0, 1.0, 1.0, 1.0])
    z = _encode(params, channel, x)[0]
    # sigma_2^2 = 5 from the variance schedule example
    assert_allclose(z[1], 1.0 / np.sqrt(5.0), atol=1e-15)


def test_encode_noisy_state_uninformative_observation():
    # c = 0: the filter learns nothing and the transmitter stays silent
    params = SystemParams.make(3, a=1.0, c=0.0, d=1.0, V_vv=1.0)
    channel = ChannelParams.make(3, P=1.0, N=1.0)
    _, gamma = _one_path(params, 4)
    z, xbreve = _encode(params, channel, gamma)
    assert_allclose(z, np.zeros(3), rtol=0, atol=0)
    assert_allclose(xbreve, np.zeros(4), rtol=0, atol=0)


def test_encode_noisy_state_reduces_to_full_state():
    params = SystemParams.make(4, a=0.9, b=1.2, c=1.0, d=0.0, V_ww=1.0)
    channel = ChannelParams.make(4, P=1.0, N=0.5)
    x, gamma = _one_path(params, 8)
    z_noisy, xbreve = _encode(params, channel, gamma)
    z_full = power_scale(state_variance(params), channel) * x[1:]
    assert_allclose(xbreve, x, atol=1e-12)
    assert_allclose(z_noisy, z_full, atol=1e-12)


def test_encode_noisy_state_first_step_scale():
    # a=b=c=d=1, V_ww=V_vv=1, V_wv=0: sigma_1^2 = L(1)^2 * innovation_var(1) = 1/2
    params = SystemParams.make(2, a=1.0, b=1.0, c=1.0, d=1.0,
                               V_ww=1.0, V_vv=1.0, V_wv=0.0)
    channel = ChannelParams.make(2, P=1.0, N=1.0)
    g = transmitter_gain_schedule(params)
    assert_allclose(g.sigma_breve_sq[1], 0.5, atol=1e-15)
    assert_allclose(g.L[1]**2 * g.innovation_var[1], 0.5, atol=1e-15)
    _, gamma = _one_path(params, 1)
    z, xbreve = _encode(params, channel, gamma)
    assert_allclose(z[0], xbreve[1] / np.sqrt(0.5), atol=1e-14)


def test_analytic_mse_single_step():
    # T=1: the decoder only ever sees y(0) = 0, so the error is sigma_1^2
    for a, b in [(0.5, 1.0), (1.1, 2.0)]:
        params = SystemParams.make(1, a=a, b=b)
        channel = ChannelParams.make(1, P=1.0, N=1.0)
        res = analytic_mse(FULL, params, channel)
        assert_allclose(res.mse_analytic, [b**2], atol=1e-15)


def test_analytic_mse_two_step_example():
    params = SystemParams.make(2, a=1.0, b=1.0, V_ww=1.0)
    channel = ChannelParams.make(2, P=1.0, N=1.0)
    res = analytic_mse(FULL, params, channel)
    assert_allclose(res.mse_analytic, [1.0, 1.5], atol=1e-15)
    assert_allclose(res.avg_mse_analytic, 1.25, atol=1e-15)
    # MSE(2) = b^2 (1 + a^2 N / (P + N))
    assert_allclose(res.mse_analytic[1], 1.0 * (1.0 + 0.5), atol=1e-15)


def test_analytic_mse_noisy_reduction():
    for a in (0.5, 0.9, 1.1):
        full_p = SystemParams.make(4, a=a)
        noisy_p = SystemParams.make(4, a=a, c=1.0, d=0.0, V_wv=0.0)
        channel = ChannelParams.make(4, P=1.0, N=0.5)
        r_full = analytic_mse(FULL, full_p, channel)
        r_noisy = analytic_mse(NOISY, noisy_p, channel)
        assert_allclose(r_noisy.mse_analytic, r_full.mse_analytic, atol=1e-12)
        assert_allclose(r_noisy.power_used, r_full.power_used, atol=0)


def test_analytic_power_is_exact():
    params = SystemParams.make(3, a=0.9)
    channel = ChannelParams.make(3, P=2.5, N=1.0)
    res = analytic_mse(FULL, params, channel)
    assert_allclose(res.power_used, [2.5, 2.5, 2.5], rtol=0, atol=0)
    # zero-variance steps transmit nothing
    silent = SystemParams.make(3, a=0.9, b=[0.0, 1.0, 1.0], V_ww=1.0)
    res = analytic_mse(FULL, silent, channel)
    assert res.power_used[0] == 0.0
    assert np.all(res.power_used[1:] == 2.5)


def test_analytic_mse_high_snr_matches_decimal_reference():
    # At high SNR the receiver's error after a silent step (b = 0, and d = 0
    # for a noisy sensor, so the transmitter's own error vanishes) is a
    # small difference of O(1) terms: an update written as A S A' + Q -
    # g g' S cancels there, so double precision is held to a 60-digit
    # decimal run of that same update.
    rng = np.random.default_rng(7)
    T = 30
    a = rng.uniform(-1.3, 1.3, T)
    b = rng.uniform(0.3, 2.0, T)
    b[1::3] = 0.0
    cases = [
        (FULL, SystemParams.make(T, a=a, b=b, V_ww=rng.uniform(0.2, 2.0, T + 1))),
        (NOISY, SystemParams.make(T, a=0.9, b=1.0, c=1.0, d=0.5, V_ww=1.0,
                                  V_vv=1.0, V_wv=0.0)),
        (NOISY, SystemParams.make(T, a=a, b=b, c=rng.uniform(0.4, 2.0, T + 1),
                                  d=np.where(np.arange(T + 1) % 2, 0.0, 0.3),
                                  V_ww=1.0, V_vv=0.5,
                                  V_wv=rng.uniform(-0.6, 0.6, T + 1))),
    ]
    for snr in (1.0, 1e4, 1e7, 1e10):
        channel = ChannelParams.make(T, P=rng.uniform(0.5, 2.0, T),
                                     N=rng.uniform(0.5, 2.0, T) / snr)
        for kind, params in cases:
            assert_allclose(analytic_mse(kind, params, channel).mse_analytic,
                            decimal_receiver_mse(params, channel),
                            rtol=1e-13, atol=0)


def test_monte_carlo_matches_analytic_full_state():
    params = SystemParams.make(2, a=1.0, b=1.0)
    channel = ChannelParams.make(2, P=1.0, N=1.0)
    res = monte_carlo_mse(FULL, params, channel, 100000, 0)
    dev = np.abs(res.mse_empirical - res.mse_analytic)
    assert np.all(dev <= 3.0 * res.stderr)
    assert abs(res.avg_mse_empirical - 1.25) <= 3.0 * np.mean(res.stderr)


def test_monte_carlo_power_within_three_se():
    params = SystemParams.make(3, a=0.9)
    channel = ChannelParams.make(3, P=1.0, N=0.5)
    runs = sample_paths(FULL, params, channel, 100000, 1)
    zsq = runs.z**2
    se = zsq.std(axis=0, ddof=1) / np.sqrt(zsq.shape[0])
    assert np.all(np.abs(zsq.mean(axis=0) - channel.P) <= 3.0 * se)


def test_monte_carlo_high_power_limit():
    # P >> N: the channel is nearly transparent and MSE(2) approaches b^2
    params = SystemParams.make(2, a=1.0, b=1.0)
    channel = ChannelParams.make(2, P=1e6, N=1.0)
    res = monte_carlo_mse(FULL, params, channel, 20000, 5)
    assert res.mse_empirical[1] < 1.02
    assert res.mse_analytic[1] < 1.0001


@pytest.mark.parametrize("kind,params", [
    (FULL, SystemParams.make(40, a=np.linspace(0.7, 1.05, 40), b=1.3, x0=-3.7)),
    (NOISY, SystemParams.make(40, a=0.9, c=1.0, d=0.6, V_ww=1.0, V_vv=1.0,
                              V_wv=0.3, x0=2.5)),
], ids=["full", "noisy_correlated"])
def test_monte_carlo_blocks_match_one_shot_statistics(kind, params):
    # monte_carlo_mse reduces blocks of B rows step by step; sample_paths
    # returns the same paths, so the statistics must agree to summation order
    channel = ChannelParams.make(40, P=1.2, N=0.5)
    B = _BLOCK_ROWS
    for samples in (1, 7, B - 1, B, B + 1, 2 * B + 3):
        res = monte_carlo_mse(kind, params, channel, samples, 17)
        runs = sample_paths(kind, params, channel, samples, 17)
        sq_err = (runs.x[:, 1:] - runs.xhat) ** 2
        assert res.samples == samples
        assert_allclose(res.mse_empirical, sq_err.mean(axis=0), rtol=1e-12, atol=0)
        assert_allclose(res.power_used, (runs.z**2).mean(axis=0), rtol=1e-12, atol=0)
        if samples == 1:
            assert np.all(res.stderr == 0.0)
        else:
            assert_allclose(res.stderr, sq_err.std(axis=0, ddof=1) / np.sqrt(samples),
                            rtol=1e-12, atol=0)


def test_monte_carlo_memory_bounded_in_samples():
    # 25x more paths may not need much more memory: blocks stream through
    params = SystemParams.make(100, a=0.9, c=1.0, d=0.5, V_vv=1.0, V_wv=0.3)
    channel = ChannelParams.make(100, P=1.0, N=0.5)
    # warm-up: one-time allocations of a first call must not inflate the baseline
    monte_carlo_mse(NOISY, params, channel, 2_000, 3)
    peaks = []
    for samples in (2_000, 50_000):
        tracemalloc.start()
        try:
            monte_carlo_mse(NOISY, params, channel, samples, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_monte_carlo_rejects_zero_samples():
    params = SystemParams.make(2, a=1.0)
    channel = ChannelParams.make(2, P=1.0, N=1.0)
    with pytest.raises(ValueError):
        monte_carlo_mse(FULL, params, channel, 0, 0)


def test_noisy_monte_carlo_agreement_with_correlation():
    params = SystemParams.make(3, a=0.9, b=1.0, c=1.0, d=1.0,
                               V_ww=1.0, V_vv=1.0, V_wv=0.3)
    channel = ChannelParams.make(3, P=1.0, N=0.5)
    res = monte_carlo_mse(NOISY, params, channel, 100000, 2)
    dev = np.abs(res.mse_empirical - res.mse_analytic)
    assert np.all(dev <= 3.0 * res.stderr)


def test_separation_decomposition():
    """E|x-xhat|^2 splits into filter error plus decoder error on xbreve."""
    params = SystemParams.make(4, a=0.9, b=1.0, c=1.0, d=1.0,
                               V_ww=1.0, V_vv=1.0, V_wv=0.0)
    channel = ChannelParams.make(4, P=1.0, N=0.5)
    runs = sample_paths(NOISY, params, channel, 100000, 3)
    x_late = runs.x[:, 1:]
    xb_late = runs.xbreve[:, 1:]
    total = ((x_late - runs.xhat) ** 2).mean(axis=0)
    filt = ((x_late - xb_late) ** 2).mean(axis=0)
    dec = ((xb_late - runs.xhat) ** 2).mean(axis=0)
    n = runs.x.shape[0]
    se = np.sqrt(((x_late - runs.xhat) ** 2).var(axis=0) / n
                 + ((x_late - xb_late) ** 2).var(axis=0) / n
                 + ((xb_late - runs.xhat) ** 2).var(axis=0) / n)
    assert np.all(np.abs(total - filt - dec) <= 3.0 * se)


def test_estimate_residual_orthogonality():
    # the MMSE residual is uncorrelated with the estimate at every step
    for kind, d in [(FULL, 0.0), (NOISY, 1.0)]:
        params = SystemParams.make(4, a=0.9, b=1.0, c=1.0, d=d,
                                   V_ww=1.0, V_vv=1.0)
        channel = ChannelParams.make(4, P=1.0, N=0.5)
        runs = sample_paths(kind, params, channel, 100000, 4)
        resid = runs.x[:, 1:] - runs.xhat
        n = runs.x.shape[0]
        for t in range(4):
            u, r = runs.xhat[:, t], resid[:, t]
            if u.std() == 0.0:
                continue
            corr = np.corrcoef(u, r)[0, 1]
            assert abs(corr) <= 3.0 / np.sqrt(n)


def test_full_state_encoder_is_memoryless():
    """Trajectories that agree at x(t) produce the same z(t) regardless of
    their history."""
    params = SystemParams.make(4, a=0.9)
    channel = ChannelParams.make(4, P=1.0, N=1.0)
    x1 = np.array([0.0, 1.0, -3.0, 2.0, 1.0])
    x2 = np.array([0.0, -2.0, 5.0, 2.0, 1.0])  # same x(3), different history
    z1 = _encode(params, channel, x1)[0]
    z2 = _encode(params, channel, x2)[0]
    assert z1[2] == z2[2]
    assert z1[3] == z2[3]
    assert z1[0] != z2[0]


_BATCH_CASES = [
    (FULL, SystemParams.make(12, a=np.linspace(0.6, 1.1, 12), b=1.3, x0=0.4)),
    (NOISY, SystemParams.make(12, a=0.9, b=[1.0, 0.0] * 6, c=1.2, d=0.6,
                              V_vv=1.0, V_wv=0.0)),
    (NOISY, SystemParams.make(12, a=np.linspace(1.1, 0.7, 12), b=[0.0] + [1.1] * 11,
                              c=0.8, d=0.5, V_ww=1.5, V_vv=0.7, V_wv=0.4)),
    (FULL, SystemParams.make(1, a=0.9)),
    (NOISY, SystemParams.make(1, a=0.9, b=0.0, c=1.0, d=0.5, V_vv=1.0, V_wv=0.2)),
]


@pytest.mark.parametrize("kind,params", _BATCH_CASES,
                         ids=["full", "noisy", "noisy_correlated", "full_T1", "noisy_T1_b0"])
def test_batched_receiver_equals_single_channels_bit_for_bit(kind, params):
    # column k of a (T, K) batch runs the same arithmetic on (K,) rows as the
    # single channel k runs on floats, so every value agrees to 0 ulp
    T = params.horizon
    rng = np.random.default_rng(T)
    P, N = rng.uniform(0.5, 2.0, T), rng.uniform(0.2, 1.0, T)
    levels = np.geomspace(1e-3, 1e4, 6)
    channels = ([ChannelParams.make(T, P=v, N=N) for v in levels]      # P sweep
                + [ChannelParams.make(T, P=P, N=v) for v in levels]    # N sweep
                + [ChannelParams.make(T, P=rng.uniform(0.1, 10.0, T),
                                      N=rng.uniform(0.1, 10.0, T))])
    batch = ChannelParams(P=np.column_stack([c.P for c in channels]),
                          N=np.column_stack([c.N for c in channels]))
    assert batch.horizon == T
    got = analytic_mse(kind, params, batch)
    sched = coupled_decoder_schedule(params, batch)
    assert got.mse_analytic.shape == got.power_used.shape == (T, len(channels))
    assert sched.coef.shape == (T - 1, 2, len(channels))
    for k, channel in enumerate(channels):
        want = analytic_mse(kind, params, channel)
        assert np.array_equal(got.mse_analytic[:, k], want.mse_analytic)
        assert np.array_equal(got.power_used[:, k], want.power_used)
        assert got.avg_mse_analytic[k] == want.avg_mse_analytic
        one = coupled_decoder_schedule(params, channel)
        for name in ("K", "mse", "coef"):
            assert np.array_equal(getattr(sched, name)[..., k], getattr(one, name)), name


def test_channel_batches_are_validated():
    with pytest.raises(ValueError):
        ChannelParams(P=np.ones((4, 3)), N=np.ones((4, 2)))
    with pytest.raises(ValueError):
        ChannelParams(P=np.ones(4), N=np.ones((4, 1)))
    with pytest.raises(ValueError):
        ChannelParams(P=np.ones((4, 3)), N=-np.ones((4, 3)))
    # only the analytic path takes a batch; K = T = samples would otherwise
    # broadcast into a wrong Monte Carlo result
    params = SystemParams.make(4, a=0.9)
    batch = ChannelParams(P=np.ones((4, 4)), N=np.ones((4, 4)))
    with pytest.raises(ValueError, match="one channel"):
        monte_carlo_mse(FULL, params, batch, 4, 0)
    with pytest.raises(ValueError, match="one channel"):
        sample_paths(NOISY, params, batch, 4, 0)
    with pytest.raises(ValueError, match="one channel"):
        alternating_optimize(params, batch, restarts=1)


def test_analytic_mse_monotone_in_channel_quality():
    base = dict(P=1.0, N=1.0)
    params = SystemParams.make(4, a=0.9)
    ref = analytic_mse(FULL, params, ChannelParams.make(4, **base)).mse_analytic
    better_p = analytic_mse(
        FULL, params, ChannelParams.make(4, P=2.0, N=1.0)).mse_analytic
    worse_n = analytic_mse(
        FULL, params, ChannelParams.make(4, P=1.0, N=3.0)).mse_analytic
    assert np.all(better_p <= ref + 1e-15)
    assert np.all(worse_n >= ref - 1e-15)


def test_sample_paths_y_convention():
    params = SystemParams.make(3, a=0.9)
    noisy = SystemParams.make(3, a=0.9, c=1.0, d=0.6, V_vv=1.0, V_wv=0.3, x0=1.5)
    channel = ChannelParams.make(3, P=1.0, N=1.0)
    B = _BLOCK_ROWS
    for samples in (10, B - 1, B, B + 1, 2 * B + 3):
        runs = sample_paths(FULL, params, channel, samples, 9)
        assert np.all(runs.y[:, 0] == 0.0)
        assert runs.z.shape == (samples, 3)
        # FullState draws no measurement noise: its plant is the one draw_noise
        # drives, and gamma and xbreve are x itself
        seed = RngSeed(9)
        x, _ = paths_from_noise(params, *draw_noise(params, samples, seed.stream(0),
                                                    seed.stream(1)))
        assert np.array_equal(runs.x, x)
        assert runs.gamma is runs.x and runs.xbreve is runs.x
        # NoisyState observes the plant through draw_noise's (w, v)
        runs = sample_paths(NOISY, noisy, channel, samples, 9)
        x, gamma = paths_from_noise(noisy, *draw_noise(noisy, samples, seed.stream(0),
                                                       seed.stream(1)))
        assert np.all(runs.y[:, 0] == 0.0)
        assert np.array_equal(runs.x, x) and np.array_equal(runs.gamma, gamma)


_CHUNK = scheme._CHUNK_STEPS


# horizons whose T+1 steps fit in one chunk, fill two chunks exactly, and
# span four; T = 1 draws no channel rows at all
@pytest.mark.parametrize("T", [1, _CHUNK - 2, 2 * _CHUNK - 1, 3 * _CHUNK + 2])
@pytest.mark.parametrize("kind", [FULL, NOISY], ids=["full", "noisy"])
@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "helper"])
def test_sample_paths_streams_across_chunks_and_blocks(monkeypatch, cpus, kind, T):
    # the rows each role draws, in order, are those of the one-shot draws:
    # draw_noise for (w, v), and (T-1, m) channel rows per block of m paths;
    # with or without the helper thread
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: cpus)
    if kind is FULL:
        params = SystemParams.make(T, a=0.95, b=1.2, x0=0.4)
    else:
        params = SystemParams.make(T, a=0.95, c=0.8, d=0.6, V_vv=1.0, V_wv=0.3, x0=0.4)
    channel = ChannelParams.make(T, P=1.0, N=np.linspace(0.5, 1.5, T))
    B = _BLOCK_ROWS
    for samples in (1, B - 1, 2 * B + 3):
        runs = sample_paths(kind, params, channel, samples, 21)
        seed = RngSeed(21)
        x, gamma = paths_from_noise(params, *draw_noise(params, samples, seed.stream(0),
                                                        seed.stream(1)))
        assert np.array_equal(runs.x, x) and np.array_equal(runs.gamma, gamma)
        n, rng = np.empty((samples, T - 1)), seed.stream(ROLE_CHANNEL)
        for start in range(0, samples, B):
            block = slice(start, min(start + B, samples))
            n[block] = rng.standard_normal((T - 1, block.stop - start)).T
        assert np.all(runs.y[:, 0] == 0.0)
        assert np.array_equal(runs.y[:, 1:], runs.z[:, :-1] + n * np.sqrt(channel.N[:-1]))


def _bounded(call, seconds=60):
    """``call()`` on a watched thread; fails the test if it has not returned
    within ``seconds``.  Returns the result or the exception raised."""
    box = []

    def run():
        try:
            box.append(call())
        except Exception as exc:  # handed to the test
            box.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "the Monte Carlo run hung"
    return box[0]


_HYGIENE = [(FULL, SystemParams.make(20, a=0.9)),
            (NOISY, SystemParams.make(20, a=0.9, c=1.0, d=0.5, V_vv=1.0, V_wv=0.3))]


@pytest.mark.parametrize("kind,params", _HYGIENE, ids=["full", "noisy"])
def test_pipeline_helper_thread_ends_with_the_run(monkeypatch, kind, params):
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 2)
    channel = ChannelParams.make(20, P=1.0, N=0.5)
    before = threading.active_count()
    result = _bounded(lambda: monte_carlo_mse(kind, params, channel, _BLOCK_ROWS + 3, 2))
    assert isinstance(result, scheme.RunResult)
    assert threading.active_count() == before
    # a step generator closed part way, past a chunk boundary, joins its helper
    steps = scheme._pipeline(kind, params, channel, _BLOCK_ROWS + 3, 2)[1]
    for _ in range(_CHUNK + 2):
        next(steps)
    assert threading.active_count() == before + 1  # exactly one helper
    assert _bounded(steps.close) is None
    assert threading.active_count() == before
    # on one CPU the draws run inline, with no helper, to the same result
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 1)
    steps = scheme._pipeline(kind, params, channel, _BLOCK_ROWS + 3, 2)[1]
    next(steps)
    assert threading.active_count() == before
    steps.close()
    inline = monte_carlo_mse(kind, params, channel, _BLOCK_ROWS + 3, 2)
    for field in ("mse_empirical", "stderr", "power_used"):
        assert np.array_equal(getattr(inline, field), getattr(result, field))


class _FailingStream:
    """A role stream whose ``fail_at``-th ``standard_normal`` call raises."""

    def __init__(self, rng, fail_at):
        self.rng, self.fail_at, self.calls = rng, fail_at, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("injected draw failure")
        return self.rng.standard_normal(*args, **kwargs)


# the first chunk, the second, and the first of the second block (21 steps)
@pytest.mark.parametrize("fail_at", [1, 2, -(-21 // _CHUNK) + 1])
@pytest.mark.parametrize("kind,params", _HYGIENE, ids=["full", "noisy"])
def test_draw_error_reaches_the_caller(monkeypatch, kind, params, fail_at):
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 2)
    stream = RngSeed.stream
    monkeypatch.setattr(RngSeed, "stream", lambda self, role, index=None:
                        _FailingStream(stream(self, role, index), fail_at))
    channel = ChannelParams.make(20, P=1.0, N=0.5)
    before = threading.active_count()
    error = _bounded(lambda: monte_carlo_mse(kind, params, channel, _BLOCK_ROWS + 3, 2))
    assert isinstance(error, RuntimeError) and str(error) == "injected draw failure"
    assert threading.active_count() == before


@pytest.mark.parametrize("kind,params", [
    (FULL, SystemParams.make(30, a=np.linspace(0.7, 1.05, 30), b=1.3, x0=-3.7)),
    (NOISY, SystemParams.make(30, a=0.9, c=1.0, d=0.6, V_ww=1.0, V_vv=1.0,
                              V_wv=0.3, x0=2.5)),
], ids=["full", "noisy_correlated"])
def test_monte_carlo_analytic_columns_are_analytic_mse(kind, params):
    # the analytic columns come from the receiver schedule the samples ran on
    channel = ChannelParams.make(30, P=np.linspace(0.5, 2.0, 30), N=0.5)
    want = analytic_mse(kind, params, channel)
    got = monte_carlo_mse(kind, params, channel, 50, 4)
    assert np.array_equal(got.mse_analytic, want.mse_analytic)
    assert got.avg_mse_analytic == want.avg_mse_analytic
    assert type(got.avg_mse_analytic) is float
