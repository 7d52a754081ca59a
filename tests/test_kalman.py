import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from statecast import (
    ChannelParams,
    RngSeed,
    SchemeKind,
    SystemParams,
    analytic_mse,
    coupled_decoder_filter,
    coupled_decoder_schedule,
    draw_noise,
    mean_trajectory,
    paths_from_noise,
    power_scale,
    state_variance,
    transmitter_filter,
    transmitter_gain_schedule,
)

from oracles import (
    condition,
    decimal_receiver_mse,
    decoder_estimate_rows,
    decoder_reference,
    plant_basis,
    transmitter_reference,
)


def _random_params(rng, T, correlated=False, x0_random=False):
    a = rng.uniform(-1.2, 1.2, T)
    b = rng.uniform(0.3, 2.0, T)
    c = rng.uniform(0.4, 2.0, T + 1)
    d = rng.uniform(0.2, 1.5, T + 1)
    ww = rng.uniform(0.2, 2.0, T + 1)
    vv = rng.uniform(0.2, 2.0, T + 1)
    if correlated:
        rho = rng.uniform(-0.8, 0.8, T + 1)
        wv = rho * np.sqrt(ww * vv)
    else:
        wv = np.zeros(T + 1)
    x0 = float(rng.uniform(-2.0, 2.0)) if x0_random else 0.0
    return SystemParams.make(T, a=a, b=b, c=c, d=d, V_ww=ww, V_vv=vv,
                             V_wv=wv, x0=x0)


def _direct(params):
    """The same plant behind a noiseless sensor gamma = x: the filtered
    scheme then transmits the state itself."""
    V = params.V.copy()
    V[:, 0, 1] = V[:, 1, 0] = V[:, 1, 1] = 0.0
    return dataclasses.replace(params, c=1.0, d=0.0, V=V)


def test_gain_schedule_worked_example():
    """a=b=c=d=1, V_ww=V_vv=1, V_wv=0: Vxi = [0, 1, 3/2], L = [0, 1/2, 3/5].

    Hand check for t=2: Vxi(2) = (1 - 1/2)^2 * 1 + 1 = 3/2 and
    L(2) = (3/2)/(3/2 + 1) = 3/5; the batch oracle below agrees.
    """
    params = SystemParams.make(3, a=1.0, b=1.0, c=1.0, d=1.0,
                               V_ww=1.0, V_vv=1.0, V_wv=0.0)
    g = transmitter_gain_schedule(params)
    assert_allclose(g.Vxi[:3], [0.0, 1.0, 1.5], rtol=0, atol=1e-15)
    assert_allclose(g.L[:3], [0.0, 0.5, 0.6], rtol=0, atol=1e-15)
    assert_allclose(g.innovation_var[:3], [1.0, 2.0, 2.5], rtol=0, atol=1e-15)
    # one-step error and estimate variance agree with batch conditioning
    _, err_var, xb_rows = transmitter_reference(params)
    _, _, Sigma, _ = plant_basis(params)
    assert_allclose(g.filtered_error_var, err_var, atol=1e-12)
    sbs = np.einsum("ij,jk,ik->i", xb_rows, Sigma, xb_rows)
    assert_allclose(g.sigma_breve_sq, sbs, atol=1e-12)


def test_prediction_error_is_process_noise_when_observation_clean():
    # d = 0 makes gamma a noiseless reading: Vxi(t) = b^2 V_ww for t >= 1
    params = SystemParams.make(4, a=0.7, b=1.3, c=2.0, d=0.0, V_ww=0.9)
    g = transmitter_gain_schedule(params)
    assert_allclose(g.Vxi[1:], np.full(4, 1.3**2 * 0.9), atol=1e-15)
    assert_allclose(g.filtered_error_var, np.zeros(5), atol=0)


def test_gain_schedule_zero_denominator_convention():
    # c = 0 and d = 0 give a deterministic observation: L must be 0, not NaN
    params = SystemParams.make(3, a=1.0, b=1.0, c=0.0, d=0.0)
    g = transmitter_gain_schedule(params)
    assert_allclose(g.L, np.zeros(4), rtol=0, atol=0)
    assert np.all(np.isfinite(g.sigma_breve_sq))
    assert_allclose(g.sigma_breve_sq, np.zeros(4), rtol=0, atol=0)


def test_transmitter_filter_matches_batch_conditioning():
    """Recursive estimate equals dense conditioning, with and without
    process/observation noise correlation and with x0 != 0."""
    for seed, correlated in [(0, False), (1, True), (2, True)]:
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 8))
        params = _random_params(rng, T, correlated=correlated, x0_random=True)
        g = transmitter_gain_schedule(params)
        coef, err_var, _ = transmitter_reference(params)

        w, v = draw_noise(params, 6, RngSeed(seed).stream(0), RngSeed(seed).stream(1))
        _, gamma = paths_from_noise(params, w, v)
        xb = transmitter_filter(params, g, gamma)

        xbar = mean_trajectory(params)
        gam_bar = params.c * xbar
        want = xbar + (gamma - gam_bar) @ coef.T
        assert_allclose(xb, want, atol=1e-10)
        assert_allclose(g.filtered_error_var, err_var, atol=1e-10)


def test_transmitter_filter_batch_shape():
    params = SystemParams.make(3, a=1.0, c=1.0, d=1.0, V_vv=1.0)
    g = transmitter_gain_schedule(params)
    one = transmitter_filter(params, g, np.ones(4))
    many = transmitter_filter(params, g, np.ones((5, 4)))
    assert one.shape == (4,)
    assert many.shape == (5, 4)
    assert_allclose(many, np.broadcast_to(one, (5, 4)), atol=0)
    with pytest.raises(ValueError, match="gamma must have 4 entries, got 3"):
        transmitter_filter(params, g, np.ones(3))


def test_decoder_schedule_worked_example():
    # a=b=1, V_ww=1, P=N: Q(1) = 1/2 and R(2) = a^2 Q(1) + 1 = 3/2
    params = SystemParams.make(2, a=1.0, b=1.0, V_ww=1.0)
    channel = ChannelParams.make(2, P=1.0, N=1.0)
    ds = coupled_decoder_schedule(params, channel)
    assert_allclose(ds.K, [1.0, 1.0 / np.sqrt(2.0)], atol=1e-15)
    assert_allclose(ds.mse[0], 1.0, atol=0)
    assert_allclose(ds.mse[1], 1.5, atol=1e-15)


def test_decoder_schedule_monotone_information():
    # conditioning on channel outputs never hurts: the decoder error equals
    # Var x(1) before any output has arrived and drops strictly below
    # Var x(t) once live samples have
    rng = np.random.default_rng(3)
    for _ in range(5):
        T = int(rng.integers(1, 9))
        params = _random_params(rng, T)
        channel = ChannelParams.make(T, P=float(rng.uniform(0.5, 3.0)),
                                     N=float(rng.uniform(0.3, 3.0)))
        prior = state_variance(params)[1:]
        for p in (params, _direct(params)):
            ds = coupled_decoder_schedule(p, channel)
            assert ds.mse[0] == prior[0]
            assert np.all(ds.K > 0)
            assert np.all(ds.mse[1:] < prior[1:])


def test_decoder_filter_matches_batch_conditioning():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        T = int(rng.integers(2, 9))
        params = _random_params(rng, T, x0_random=True)
        channel = ChannelParams.make(
            T, P=rng.uniform(0.5, 2.0, T), N=rng.uniform(0.3, 2.0, T))

        xrows, _, Sigma, _ = plant_basis(params)
        k_ref, mse_ref = decoder_reference(params, channel, xrows, Sigma)

        # transmit the state itself: the filtered scheme behind a noiseless sensor
        direct = _direct(params)
        ds = coupled_decoder_schedule(direct, channel)
        assert_allclose(ds.K, k_ref, atol=1e-12)
        assert_allclose(ds.mse, mse_ref, atol=1e-10)

        # run the filter on sampled paths and compare against conditioning
        w, v = draw_noise(params, 5, RngSeed(seed).stream(0), RngSeed(seed).stream(1))
        x, _ = paths_from_noise(params, w, v)
        xbar = mean_trajectory(params)
        n = RngSeed(seed).stream(2).standard_normal((5, T)) * np.sqrt(channel.N)
        z = ds.K * (x[:, 1:] - xbar[1:])
        y = np.zeros((5, T))
        y[:, 1:] = (z + n)[:, :T - 1]
        got = coupled_decoder_filter(ds, direct, y)

        _, _, coef_rows = decoder_estimate_rows(params, channel, xrows, Sigma)
        want = xbar[1:] + y[:, 1:] @ coef_rows[:, :T - 1].T
        assert_allclose(got, want, atol=1e-10)

        # transmit the estimate of a noisy sensor, uncorrelated and with
        # V_wv != 0
        for noisy in (params, _random_params(rng, T, correlated=True,
                                             x0_random=True)):
            gains = transmitter_gain_schedule(noisy)
            ds = coupled_decoder_schedule(noisy, channel, gains)
            w, v = draw_noise(noisy, 5, RngSeed(seed).stream(3),
                              RngSeed(seed).stream(4))
            _, gamma = paths_from_noise(noisy, w, v)
            xbar = mean_trajectory(noisy)
            z = ds.K * (transmitter_filter(noisy, gains, gamma)[:, 1:] - xbar[1:])
            y = np.zeros((5, T))
            y[:, 1:] = (z + n)[:, :T - 1]
            got = coupled_decoder_filter(ds, noisy, y)

            _, _, xb_rows = transmitter_reference(noisy)
            _, _, Sigma_n, _ = plant_basis(noisy)
            _, _, coef_rows = decoder_estimate_rows(noisy, channel, xb_rows, Sigma_n)
            want = xbar[1:] + y[:, 1:] @ coef_rows[:, :T - 1].T
            assert_allclose(got, want, atol=1e-10)


def test_estimate_chain_reduction_to_plant():
    """c=1, d=0, V_wv=0: the estimate chain is the plant chain itself."""
    params = SystemParams.make(5, a=[0.5, 0.9, 1.1, 0.7, 1.0],
                               b=[1.0, 2.0, 0.5, 1.5, 1.0],
                               c=1.0, d=0.0, V_ww=0.8)
    g = transmitter_gain_schedule(params)
    assert_allclose(np.abs(g.L[1:]) * np.sqrt(g.innovation_var[1:]),
                    np.abs(params.b) * np.sqrt(0.8), atol=1e-12)
    assert_allclose(g.sigma_breve_sq, state_variance(params), atol=1e-12)
    assert_allclose(g.filtered_error_var, np.zeros(6), atol=0)


def test_coupled_decoder_matches_batch_conditioning_when_correlated():
    cases = []
    for seed in (21, 22, 23):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 8))
        cases.append((_random_params(rng, T, correlated=True),
                      ChannelParams.make(T, P=1.0, N=0.7)))
    # uncorrelated noise, and noiseless sensors (direct state transmission),
    # one with a silent b=0 step and |a| > 1
    cases.append((SystemParams.make(4, a=0.9, b=1.0, c=1.0, d=1.0, V_ww=1.0,
                                    V_vv=1.0, V_wv=0.0),
                  ChannelParams.make(4, P=1.0, N=0.5)))
    rng = np.random.default_rng(24)
    uncorrelated = _random_params(rng, 6, x0_random=True)
    channel = ChannelParams.make(6, P=rng.uniform(0.5, 2.0, 6),
                                 N=rng.uniform(0.3, 2.0, 6))
    cases += [(uncorrelated, channel), (_direct(uncorrelated), channel)]
    cases.append((SystemParams.make(5, a=[0.5, 1.3, -1.1, 0.9, 1.2],
                                    b=[1.0, 0.0, 2.0, 1.5, 0.7], V_ww=0.8),
                  ChannelParams.make(5, P=[1.0, 2.0, 0.5, 1.0, 1.5], N=0.6)))

    for params, channel in cases:
        gains = transmitter_gain_schedule(params)
        _, _, xb_rows = transmitter_reference(params)
        _, _, Sigma, _ = plant_basis(params)
        k_ref, mse_ref = decoder_reference(params, channel, xb_rows, Sigma)

        coupled = coupled_decoder_schedule(params, channel, gains)
        assert_allclose(coupled.K, k_ref, atol=1e-10)
        assert_allclose(coupled.mse, mse_ref, atol=1e-10)


def test_coupled_filter_runs_batches():
    params = SystemParams.make(3, a=0.9, c=1.0, d=1.0, V_ww=1.0, V_vv=1.0,
                               V_wv=0.3)
    channel = ChannelParams.make(3, P=1.0, N=0.5)
    schedule = coupled_decoder_schedule(params, channel)
    y = np.zeros((7, 3))
    y[:, 1] = np.linspace(-1, 1, 7)
    out = coupled_decoder_filter(schedule, params, y)
    assert out.shape == (7, 3)
    # first estimate uses no data: it is the (zero) mean of x(1)
    assert_allclose(out[:, 0], np.zeros(7), atol=0)
    # horizons must agree
    with pytest.raises(ValueError):
        coupled_decoder_schedule(params, ChannelParams.make(1, P=1.0, N=0.5))
    with pytest.raises(ValueError):
        coupled_decoder_filter(schedule, params, y[:, :2])


def test_power_scale_conventions():
    channel = ChannelParams.make(3, P=4.0, N=1.0)
    k = power_scale(np.array([0.0, 1.0, 0.0, 16.0]), channel)
    assert_allclose(k, [2.0, 0.0, 0.5], rtol=0, atol=0)


def _degenerate_params(rng, T):
    """Random time-varying plant with silent (b=0), blind (c=0), noiseless
    (d=0 or V_vv=0) steps, |a| > 1 and correlated noise mixed in."""
    def steps(lo, hi, n, zero):
        v = rng.uniform(lo, hi, n)
        v[rng.random(n) < zero] = 0.0
        return v

    ww, vv = rng.uniform(0.2, 2.0, T + 1), steps(0.2, 2.0, T + 1, 0.2)
    rho = rng.uniform(-0.9, 0.9, T + 1) * (rng.random() < 0.5)
    return SystemParams.make(T, a=rng.uniform(-1.3, 1.3, T), b=steps(0.3, 2.0, T, 0.25),
                             c=steps(0.3, 2.0, T + 1, 0.25), d=steps(0.2, 1.5, T + 1, 0.3),
                             V_ww=ww, V_vv=vv, V_wv=rho * np.sqrt(ww * vv),
                             x0=float(rng.uniform(-2.0, 2.0)))


def test_scanned_schedules_match_the_oracles():
    """The scanned schedules against dense conditioning and, at any SNR, the
    60-digit receiver recursion: every kind of degenerate step, P/N from 1e-2
    to 1e10.  Horizons up to 10 are one block of steps; 65 to 600 cross one
    and two levels of block maps, against the 60-digit recursion only."""
    rng = np.random.default_rng(11)
    for case in range(40):
        T = int(rng.integers(2, 11))
        params = _degenerate_params(rng, T)
        snr = 10.0 ** rng.uniform(-2, 10, T) if case % 2 else np.full(T, 1.0)
        N = rng.uniform(0.5, 2.0, T)
        channel = ChannelParams.make(T, P=N * snr, N=N)
        gains = transmitter_gain_schedule(params)
        xrows, grows, Sigma, _ = plant_basis(params)
        Vxi = [condition(xrows[t:t + 1], grows[:t], Sigma)[1][0] for t in range(1, T + 1)]
        _, err_var, xb_rows = transmitter_reference(params)
        sbs = np.einsum("ij,jk,ik->i", xb_rows, Sigma, xb_rows)
        assert_allclose(gains.Vxi, [0.0, *Vxi], rtol=1e-9, atol=1e-10)
        assert_allclose(gains.filtered_error_var, err_var, rtol=1e-9, atol=1e-10)
        assert_allclose(gains.sigma_breve_sq, sbs, rtol=1e-9, atol=1e-10)
        ds = coupled_decoder_schedule(params, channel, gains)
        assert_allclose(ds.mse, decimal_receiver_mse(params, channel), rtol=1e-13, atol=0)
        if case % 2 == 0:  # dense conditioning loses digits at high SNR
            k_ref, mse_ref = decoder_reference(params, channel, xb_rows, Sigma)
            assert_allclose(ds.K, k_ref, rtol=1e-9, atol=1e-10)
            assert_allclose(ds.mse, mse_ref, rtol=1e-9, atol=1e-10)
    for T in (9, 65, 66, 520, 521, 600):
        params = _degenerate_params(rng, T)
        N = rng.uniform(0.5, 2.0, T)
        channel = ChannelParams.make(T, P=N * 10.0 ** rng.uniform(-2, 10, T), N=N)
        ds = coupled_decoder_schedule(params, channel)
        assert_allclose(ds.mse, decimal_receiver_mse(params, channel), rtol=1e-13, atol=0)


def test_overflowing_schedule_reads_inf_not_nan():
    """a = 1e3 takes Var p(t) past double range at t = 53.  Each later step of
    the affine scan (gamma = 0) must read +inf, as a step-by-step float loop
    does, not 0 * inf = NaN; the CLI then reports the power budget as spent."""
    T = 200
    params = SystemParams.make(T, a=1e3)
    with np.errstate(all="ignore"):
        gains = transmitter_gain_schedule(params)
        result = analytic_mse(SchemeKind.FULL_STATE, params, ChannelParams.make(T, P=1.0, N=1.0))
    a, L, J, vi = (v.tolist() for v in (params.a, gains.L, gains.pred_gain, gains.innovation_var))
    pv, ref = 0.0, []
    for t in range(T + 1):  # Python float products overflow to inf without raising
        ref.append(pv + L[t] * L[t] * vi[t])
        if t < T:
            pv = a[t] * a[t] * pv + J[t] * J[t] * vi[t]
    sbs = gains.sigma_breve_sq
    assert not np.isnan(sbs).any()
    assert np.array_equal(np.isinf(sbs), np.isinf(ref)) and np.isinf(sbs).sum() == 148
    assert_allclose(sbs[np.isfinite(sbs)], np.array(ref)[np.isfinite(ref)], rtol=1e-13)
    assert np.all(result.power_used == 1.0)
