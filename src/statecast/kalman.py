"""Recursive MMSE filters for both ends of the link.

Transmitter side: a scalar Kalman filter produces xbreve(t) = E{x(t) | gamma^t}
from the observations, together with its gain/variance schedules.  When the
process and observation noises are correlated (V_wv != 0) the one-step
predictor also absorbs what the current innovation says about the pending
process noise w(t); with V_wv = 0 the recursions reduce to the familiar
textbook form.

Receiver side: one exact two-state recursion estimates the plant state from
the delayed channel outputs y(0) .. y(t-1).  It tracks (x(t), p(t)) jointly,
where p(t) is the transmitter's one-step predictor, so it stays exact for any
V_wv.  Direct state transmission is the same scheme behind a noiseless sensor
(c = 1, d = 0), so this one recursion serves every case.

The schedule loops run on Python floats read from and written to float64
arrays; the sample-path filters run time-major, one contiguous row per step.
All second moments are taken about the deterministic mean path; estimators
are affine around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import mean_trajectory


@dataclass(frozen=True)
class GainSchedule:
    """Transmitter-filter schedules.

    L, Vxi, sigma_breve_sq, innovation_var and filtered_error_var have T+1
    entries (times 0 .. T); pred_gain and beta have T entries (entry t couples
    times t and t+1).
    """

    L: np.ndarray                   # innovation gain of the filtered estimate
    Vxi: np.ndarray                 # one-step prediction error variance E xi(t)^2
    sigma_breve_sq: np.ndarray      # variance of the transmitter estimate xbreve(t)
    innovation_var: np.ndarray      # variance of gamma(t) - c(t) * (predicted xbreve)
    pred_gain: np.ndarray           # innovation -> next one-step predictor coefficient
    filtered_error_var: np.ndarray  # E (x(t) - xbreve(t))^2

    @property
    def beta(self):
        """Innovation scale of the estimate chain, beta(t)^2 = L(t+1)^2 innovation_var(t+1)."""
        return np.abs(self.L[1:]) * np.sqrt(self.innovation_var[1:])


@dataclass(frozen=True)
class CoupledDecoderSchedule:
    """Exact receiver schedule.

    Entry i of ``K`` and ``mse`` is time t = i+1: the encoder scale factor
    and E (x(t) - xhat(t))^2.  Row t-1 of ``coef`` holds the sample filter's
    step t = 1 .. T-1 on the centered estimate s = (x, p):
    s(t+1) = [[m00, m01], [m10, m11]] s(t) + (g0, g1) y(t), stored as
    (m00, m01, m10, m11, g0, g1).
    """

    K: np.ndarray      # encoder scale factors, t = 1 .. T
    mse: np.ndarray    # exact per-step estimation error, t = 1 .. T
    coef: np.ndarray   # (T-1, 6) per-step filter coefficients


def power_scale(sigma_sq, channel):
    """Per-step encoder scale k_t = sqrt(P(t)) / sigma_t, with k_t = 0 when
    the source variance vanishes (a zero-variance source carries nothing).

    ``sigma_sq`` has T+1 entries (times 0 .. T); the returned schedule has T
    entries, element i for time t = i+1.
    """
    sigma_sq = np.asarray(sigma_sq, dtype=float)
    live = sigma_sq[1:] > 0
    return np.where(live, np.sqrt(channel.P / np.where(live, sigma_sq[1:], 1.0)), 0.0)


def _noise_views(params):
    # per-step (V_ww, V_wv, V_vv), read element-wise as Python floats
    V = params.V
    return memoryview(V[:, 0, 0]), memoryview(V[:, 0, 1]), memoryview(V[:, 1, 1])


def transmitter_gain_schedule(params):
    """Exact gain/variance schedules for estimating x(t) from gamma^t."""
    T = params.horizon
    a, b, c, d = (memoryview(arr) for arr in (params.a, params.b, params.c, params.d))
    ww, wv, vv = _noise_views(params)

    # the loop writes Python floats through views of these arrays
    arrays = [np.empty(T + 1) for _ in range(5)] + [np.empty(T)]
    L, Vxi, vi, sbs, fev, J = (memoryview(arr) for arr in arrays)

    xi_var = 0.0  # E xi(t)^2; x(0) is known
    pv = 0.0      # variance of the one-step predictor p(t)
    for t, ct, dt, wvt, vvt in zip(range(T + 1), c, d, wv, vv):
        i_var = ct * ct * xi_var + dt * dt * vvt
        if i_var > 0:
            lt = ct * xi_var / i_var
            wg = dt * wvt / i_var  # gain from innovation to E{w(t) | gamma^t}
        else:
            lt = wg = 0.0
        L[t], Vxi[t], vi[t] = lt, xi_var, i_var
        sbs[t] = pv + lt * lt * i_var
        fev[t] = (1.0 - lt * ct) * xi_var
        if t == T:
            break
        # next predictor p(t+1) = a p(t) + J(t) i(t); the cross gain feeds the
        # innovation's information about w(t) forward.
        at, bt = a[t], b[t]
        jt = at * lt + bt * wg
        J[t] = jt
        m = at - jt * ct
        xi_var = (m * m * xi_var
                  + bt * bt * ww[t]
                  - 2.0 * bt * jt * dt * wvt
                  + (jt * jt) * (dt * dt) * vvt)
        pv = at * at * pv + jt * jt * i_var

    L, Vxi, vi, sbs, fev, J = arrays
    return GainSchedule(L=L, Vxi=Vxi, sigma_breve_sq=sbs, innovation_var=vi,
                        pred_gain=J, filtered_error_var=fev)


def transmitter_filter(params, schedule, gamma):
    """Run the transmitter filter on one or many observation paths.

    ``gamma`` has shape (..., T+1); returns xbreve with the same shape,
    where xbreve(t) = E{x(t) | gamma^t} (xbreve(0) = x0).
    """
    gamma = np.asarray(gamma, dtype=float)
    T = params.horizon
    if gamma.shape[-1] != T + 1:
        raise ValueError(f"gamma must have {T + 1} entries, got {gamma.shape[-1]}")
    xbar = mean_trajectory(params)
    lead = (T + 1,) + (1,) * (gamma.ndim - 1)
    # time-major centered observations; each row is overwritten by the estimate
    rows = np.subtract(np.moveaxis(gamma, -1, 0), (params.c * xbar).reshape(lead),
                       order="C")

    a, c, L, J = params.a, params.c, schedule.L, schedule.pred_gain
    p = np.zeros(rows.shape[1:])  # centered one-step predictor
    for t in range(T + 1):
        g = rows[t]
        est = (1.0 - L[t] * c[t]) * p + L[t] * g
        if t < T:
            p = (a[t] - J[t] * c[t]) * p + J[t] * g
        rows[t] = xbar[t] + est
    return np.moveaxis(rows, 0, -1)


def coupled_decoder_schedule(params, channel, gains=None):
    """Exact decoder schedule for the filtered-transmission scheme.

    Valid for arbitrary V_wv, and for direct state transmission run as the
    filtered scheme behind a noiseless sensor.
    """
    T = params.horizon
    if channel.horizon != T:
        raise ValueError(f"channel has horizon {channel.horizon}, expected {T}")
    if gains is None:
        gains = transmitter_gain_schedule(params)
    a, b, c, d = (memoryview(arr) for arr in (params.a, params.b, params.c, params.d))
    ww, wv, vv = _noise_views(params)
    L, J = memoryview(gains.L), memoryview(gains.pred_gain)

    K = power_scale(gains.sigma_breve_sq, channel)
    mse = np.empty(T)
    coef = np.empty((T - 1, 6))
    out, step = memoryview(mse), memoryview(coef.reshape(-1))

    # Cov of (x(1), p(1)): the exogenous noise (b w(0), J(0) d v(0)); no
    # channel output has arrived yet.
    b0, jd = b[0], J[0] * d[0]
    s00 = b0 * b0 * ww[0]
    s01 = b0 * jd * wv[0]
    s11 = jd * jd * vv[0]
    out[0] = s00
    i = 0
    steps = zip(range(1, T), memoryview(K)[:T - 1], a[1:], b[1:], L[1:T], J[1:],
                c[1:T], d[1:T], ww[1:T], wv[1:T], vv[1:T], memoryview(channel.N)[:T - 1])
    for t, kt, at, bt, lt, jt, ct, dt, wwt, wvt, vvt, nt in steps:
        lc, jc, jd = lt * ct, jt * ct, jt * dt
        # received sample y(t) = kt * xbreve(t) + n(t) with
        # xbreve = L c x + (1 - L c) p + L d v: observation row (c0, c1) and
        # observation-noise gain gv on v(t)
        c0, c1, gv = kt * lc, kt * (1.0 - lc), kt * lt * dt
        # transition [[a, 0], [J c, e]]; process noise (b w(t), J d v(t))
        e = at - jc
        sc0 = s00 * c0 + s01 * c1
        sc1 = s01 * c0 + s11 * c1
        S = c0 * sc0 + c1 * sc1 + gv * gv * vvt + nt
        g0 = (at * sc0 + bt * gv * wvt) / S
        g1 = (jc * sc0 + e * sc1 + jd * gv * vvt) / S
        # Joseph form: s(t+1) - shat(t+1) = M (s - shat) + (process noise
        # - gain * observation noise) with M = transition - gain * row; a sum
        # of covariances, so no cancellation at high SNR.
        m00, m01, m10, m11 = at - g0 * c0, -g0 * c1, jc - g1 * c0, e - g1 * c1
        r00, r01 = m00 * s00 + m01 * s01, m00 * s01 + m01 * s11
        r10, r11 = m10 * s00 + m11 * s01, m10 * s01 + m11 * s11
        q, h = g0 * gv, jd - g1 * gv
        s00, s01, s11 = (
            r00 * m00 + r01 * m01
            + bt * bt * wwt - 2.0 * bt * q * wvt + q * q * vvt + g0 * g0 * nt,
            r00 * m10 + r01 * m11 + h * (bt * wvt - q * vvt) + g0 * g1 * nt,
            r10 * m10 + r11 * m11 + h * h * vvt + g1 * g1 * nt,
        )
        out[t] = s00
        step[i], step[i + 1], step[i + 2] = m00, m01, m10
        step[i + 3], step[i + 4], step[i + 5] = m11, g0, g1
        i += 6
    return CoupledDecoderSchedule(K=K, mse=mse, coef=coef)


def coupled_decoder_filter(schedule, params, y):
    """Run the exact two-state decoder on one or many received paths.

    ``y`` has shape (..., T) with y[..., 0] == 0; returns xhat of the same
    shape, where element i estimates x(i+1) from y(0) .. y(i).
    """
    y = np.asarray(y, dtype=float)
    T = params.horizon
    if y.shape[-1] != T:
        raise ValueError(f"y must have {T} entries, got {y.shape[-1]}")
    xbar = mean_trajectory(params)
    rows = np.ascontiguousarray(np.moveaxis(y, -1, 0))  # time-major

    xhat = np.empty(rows.shape)
    s0 = s1 = np.zeros(rows.shape[1:])  # centered estimate of (x(t), p(t))
    xhat[0] = xbar[1] + s0
    for t in range(1, T):
        m00, m01, m10, m11, g0, g1 = schedule.coef[t - 1]
        yt = rows[t]
        s0, s1 = m00 * s0 + m01 * s1 + g0 * yt, m10 * s0 + m11 * s1 + g1 * yt
        xhat[t] = xbar[t + 1] + s0
    return np.moveaxis(xhat, 0, -1)
