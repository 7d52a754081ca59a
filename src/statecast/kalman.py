"""Recursive MMSE filters for both ends of the link.

Transmitter side: a scalar Kalman filter produces xbreve(t) = E{x(t) | gamma^t}
from the observations, together with its gain/variance schedules.  When the
process and observation noises are correlated (V_wv != 0) the one-step
predictor also absorbs what the current innovation says about the pending
process noise w(t); with V_wv = 0 the recursions reduce to the familiar
textbook form.

Receiver side: one exact scalar recursion estimates the plant state from the
delayed channel outputs y(0) .. y(t-1).  The transmitter's prediction error
xi(t) = x(t) - p(t), with p(t) its one-step predictor, is orthogonal to
everything it has seen, and so to y(0) .. y(t-1); hence xhat(t) =
E{p(t) | y^{t-1}} and the error is Vxi(t) plus the error of a scalar Kalman
filter on p.  That filter sees y(t) = k p(t) + (k L i(t) + n(t)) while p
moves by J i(t): the innovation i(t) drives both noises, so it stays exact
for any V_wv.  Direct state transmission is the same scheme behind a
noiseless sensor (c = 1, d = 0), so this one recursion serves every case.
The ``coupled_*`` names are kept as the stable public surface.

The schedule loops run on Python floats read from and written to float64
arrays.  For a batch of K channels (``ChannelParams`` of shape (T, K)) the
receiver schedule runs the same loop body on (K,) rows, one per step.  The
sample-path filters and the Monte Carlo pipeline in ``scheme`` advance rows
of paths by the same step functions.  Second moments are taken about the
deterministic mean path; estimators are affine around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import mean_trajectory


@dataclass(frozen=True)
class GainSchedule:
    """Transmitter-filter schedules.

    L, Vxi, sigma_breve_sq, innovation_var and filtered_error_var have T+1
    entries (times 0 .. T); pred_gain has T entries (entry t couples times t
    and t+1).
    """

    L: np.ndarray                   # innovation gain of the filtered estimate
    Vxi: np.ndarray                 # one-step prediction error variance E xi(t)^2
    sigma_breve_sq: np.ndarray      # variance of the transmitter estimate xbreve(t)
    innovation_var: np.ndarray      # variance of gamma(t) - c(t) * (predicted xbreve)
    pred_gain: np.ndarray           # innovation -> next one-step predictor coefficient
    filtered_error_var: np.ndarray  # E (x(t) - xbreve(t))^2


@dataclass(frozen=True)
class CoupledDecoderSchedule:
    """Exact receiver schedule.

    Entry i of ``K`` and ``mse`` is time t = i+1: the encoder scale factor
    and E (x(t) - xhat(t))^2.  The receiver keeps one scalar state, its
    centered estimate s(t) of the transmitter's predictor p(t), and
    xhat(t) is the mean path plus s(t).  Row t-1 of ``coef`` holds the sample
    filter's step t = 1 .. T-1, s(t+1) = m s(t) + g y(t), stored as (m, g).
    For a batch of K channels each entry gains a trailing axis of length K.
    """

    K: np.ndarray      # encoder scale factors, t = 1 .. T
    mse: np.ndarray    # exact per-step estimation error, t = 1 .. T
    coef: np.ndarray   # (T-1, 2) per-step filter coefficients


def power_scale(sigma_sq, channel):
    """Per-step encoder scale k_t = sqrt(P(t)) / sigma_t, with k_t = 0 when
    the source variance vanishes (a zero-variance source carries nothing).

    ``sigma_sq`` has T+1 entries (times 0 .. T); the returned schedule has
    the shape of ``channel.P``, row i for time t = i+1.
    """
    sigma_sq = np.asarray(sigma_sq, dtype=float)
    live = sigma_sq[1:] > 0
    # P.T puts time last, so the (T,) schedule broadcasts over a (T, K) batch
    return np.where(live, np.sqrt(channel.P.T / np.where(live, sigma_sq[1:], 1.0)), 0.0).T


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


def _transmitter_step(params, schedule, t, p, gamma):
    """xbreve(t) from gamma(t) on a row of paths; moves the one-step
    predictor p to p(t+1) in place (it is not used past T)."""
    ct, lt = params.c[t], schedule.L[t]
    est = (1.0 - lt * ct) * p + lt * gamma
    if t < params.horizon:
        jt = schedule.pred_gain[t]
        p *= params.a[t] - jt * ct
        p += jt * gamma
    return est


def transmitter_filter(params, schedule, gamma):
    """Run the transmitter filter on one or many observation paths.

    ``gamma`` has shape (..., T+1); returns xbreve with the same shape,
    where xbreve(t) = E{x(t) | gamma^t} (xbreve(0) = x0).
    """
    gamma = np.asarray(gamma, dtype=float)
    T = params.horizon
    if gamma.shape[-1] != T + 1:
        raise ValueError(f"gamma must have {T + 1} entries, got {gamma.shape[-1]}")
    p = np.full(gamma.shape[:-1], params.x0)  # one-step predictor, p(0) = x0
    out = [_transmitter_step(params, schedule, t, p, gamma[..., t]) for t in range(T + 1)]
    return np.stack(out, axis=-1)


def coupled_decoder_schedule(params, channel, gains=None):
    """Exact decoder schedule for the filtered-transmission scheme.

    Valid for arbitrary V_wv, and for direct state transmission run as the
    filtered scheme behind a noiseless sensor.  A (T, K) channel batch runs
    the same loop on (K,) rows in place of Python floats.
    """
    T = params.horizon
    if channel.horizon != T:
        raise ValueError(f"channel has horizon {channel.horizon}, expected {T}")
    if gains is None:
        gains = transmitter_gain_schedule(params)
    L, J, vi, Vxi = (memoryview(arr) for arr in
                     (gains.L, gains.pred_gain, gains.innovation_var, gains.Vxi))

    batch = channel.P.shape[1:]
    view = memoryview if not batch else np.asarray  # per step: a float or a (K,) row
    K = power_scale(gains.sigma_breve_sq, channel)
    mse = np.empty((T,) + batch)
    coef = np.empty((T - 1, 2) + batch)
    out, step = view(mse), view(coef.reshape((-1,) + batch))

    # error variance of the estimate of p(1) = J(0) i(0); no channel output
    # has arrived yet
    r = J[0] * J[0] * vi[0]
    out[0] = Vxi[1] + r
    steps = zip(range(1, T), view(K), memoryview(params.a)[1:], L[1:], J[1:],
                vi[1:], Vxi[2:], view(channel.N))
    for t, kt, at, lt, jt, vt, xt, nt in steps:
        # y(t) = k p(t) + (k L i(t) + n(t)); p(t+1) = a p(t) + J i(t)
        kl = kt * lt
        S = kt * kt * r + kl * kl * vt + nt
        g = (at * kt * r + jt * kl * vt) / S
        # Joseph form: p(t+1) - phat(t+1) = m (p - phat) + h i(t) - g n(t), a
        # sum of variances, so no cancellation at high SNR
        m, h = at - g * kt, jt - g * kl
        r = m * m * r + h * h * vt + g * g * nt
        out[t] = xt + r
        step[2 * t - 2], step[2 * t - 1] = m, g
    return CoupledDecoderSchedule(K=K, mse=mse, coef=coef)


def _receiver_step(schedule, t, s, y):
    """s(t+1) = m s(t) + g y(t) on a row of paths, in place, t = 1 .. T-1."""
    mt, gt = schedule.coef[t - 1]
    s *= mt
    s += gt * y


def coupled_decoder_filter(schedule, params, y):
    """Run the exact decoder on one or many received paths.

    ``y`` has shape (..., T) with y[..., 0] == 0; returns xhat of the same
    shape, where element i estimates x(i+1) from y(0) .. y(i).
    """
    y = np.asarray(y, dtype=float)
    T = params.horizon
    if y.shape[-1] != T:
        raise ValueError(f"y must have {T} entries, got {y.shape[-1]}")
    xbar = mean_trajectory(params)
    s = np.zeros(y.shape[:-1])  # centered estimate of the predictor p(t+1)
    xhat = [xbar[1] + s]
    for t in range(1, T):
        _receiver_step(schedule, t, s, y[..., t])
        xhat.append(xbar[t + 1] + s)
    return np.stack(xhat, axis=-1)
