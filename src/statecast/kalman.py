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

Both error variances step by r' = (alpha r + beta) / (gamma r + delta) with
nonnegative coefficients: each schedule is one scan of 2x2 matrix products
(``model._lft_scan``), a channel batch (T, K) its trailing axis, and the gains
follow elementwise; the information floor is the receiver's scan with
entropy-power steps.  The sample-path filters and the Monte Carlo pipeline in
``scheme`` share step functions.  Second moments are taken about the
deterministic mean path; estimators are affine around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _lft_scan, _noise_factors, mean_trajectory


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


def _column(values, batch):
    """A time schedule as a column over the trailing axes of a batch."""
    return values.reshape((-1,) + (1,) * len(batch))


def transmitter_gain_schedule(params):
    """Exact gain/variance schedules for estimating x(t) from gamma^t.

    Vxi(t+1) = (alpha Vxi + beta) / (c^2 Vxi + d^2 V_vv), alpha = (l11 c b -
    l21 a d)^2 + (l22 a d)^2, beta = (b d l11 l22)^2 (``_noise_factors``).  With
    d^2 V_vv = 0, gamma(t) reads x(t) exactly (Vxi(t+1) = b^2 V_ww) or, if c =
    0, not at all (a^2 Vxi + b^2 V_ww).  Var p(t) is an affine scan.
    """
    T = params.horizon
    a, b, c, d = params.a, params.b, params.c, params.d
    ww, wv, vv = params.V[:, 0, 0], params.V[:, 0, 1], params.V[:, 1, 1]
    # built in place: T-long temporaries freed between the outputs fragment
    # the heap, which then holds them and raises the process's peak RSS
    rows = np.empty((2, 2, T + 1))  # both scans' steps t < T; rows[0] doubles as work space
    steps = rows[:, :, :T]
    (alpha, beta), (gamma, delta) = steps
    l11, l21, l22 = (f[:T] for f in _noise_factors(params))
    # alpha = (l11 c b - l21 a d)^2 + (l22 a d)^2, beta = (b d l11 l22)^2, all
    # four over 4^k near the noise variances (beta ~ V^2 would leave double
    # range past 1e+-154); a step's map and rounding ignore a power of two
    k = int(np.frexp(max(ww.max(), vv.max()))[1]) // 2
    np.multiply(a, d[:T], out=gamma)
    np.multiply(l22, gamma, out=delta)
    gamma *= l21
    np.multiply(l11, c[:T], out=alpha)
    alpha *= b
    alpha -= gamma
    alpha *= alpha
    delta *= delta
    alpha += delta
    np.multiply(b, d[:T], out=beta)
    beta *= l11
    beta *= l22
    np.ldexp(beta, -k, out=beta)
    beta *= beta
    del l11, l21, l22
    np.multiply(c[:T], c[:T], out=gamma)
    np.multiply(d[:T], d[:T], out=delta)
    delta *= vv[:T]
    exact = delta == 0
    np.multiply(a, a, out=alpha, where=exact & (c[:T] == 0))
    np.copyto(alpha, 0.0, where=exact & (c[:T] != 0))
    np.multiply(b, b, out=beta, where=exact)
    np.multiply(beta, ww[:T], out=beta, where=exact)
    np.copyto(steps[1], [[0.0], [1.0]], where=exact)
    np.ldexp(alpha, -2 * k, out=alpha, where=~exact)
    np.ldexp(steps[1], -2 * k, out=steps[1], where=~exact)
    Vxi = np.zeros(T + 1)  # E xi(t)^2; x(0) is known
    _lft_scan(steps, Vxi)

    tmp, wg = rows[0]
    vi = c * c
    vi *= Vxi
    np.multiply(d, d, out=tmp)
    tmp *= vv
    vi += tmp
    live = vi > 0
    L = np.zeros(T + 1)  # 0 where the innovation vanishes
    np.multiply(c, Vxi, out=tmp)
    np.divide(tmp, vi, out=L, where=live)
    wg[:] = 0.0  # innovation -> E{w(t) | gamma^t}
    np.multiply(d, wv, out=tmp)
    np.divide(tmp, vi, out=wg, where=live)
    # p(t+1) = a p(t) + J(t) i(t): the cross gain wg carries i(t)'s news of w(t)
    J = a * L[:T]
    wg[:T] *= b
    J += wg[:T]
    fev = L * c
    np.subtract(1.0, fev, out=fev)
    fev *= Vxi
    np.multiply(a, a, out=alpha)  # Var p(t+1) = a^2 Var p(t) + J^2 vi(t)
    np.multiply(J, J, out=beta)
    beta *= vi[:T]
    steps[1] = [[0.0], [1.0]]
    sbs = np.zeros(T + 1)
    _lft_scan(steps, sbs)
    np.multiply(L, L, out=tmp)
    tmp *= vi
    sbs += tmp
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


def _channel_batch(params, channel):
    """The channel's batch shape, () for one, once its horizon is the plant's."""
    if channel.horizon != params.horizon:
        raise ValueError(f"channel has horizon {channel.horizon}, expected {params.horizon}")
    return channel.P.shape[1:]


def _receiver_error(params, gains, steps):
    """Vxi(t) + r(t), t = 1 .. T, and r: r(t), the error in p(t), starts at
    J(0)^2 vi(0) with no output yet and steps by the (2, 2, T-1, ...) maps
    ``steps``.  At t = 1 the error is Var x(1) = b(0)^2 V_ww(0), set exactly:
    x(0) is known."""
    batch = steps.shape[3:]
    r = np.empty((params.horizon,) + batch)
    r[0] = gains.pred_gain[0] ** 2 * gains.innovation_var[0]
    _lft_scan(steps, r)
    mse = r + _column(gains.Vxi[1:], batch)
    mse[0] = params.b[0] ** 2 * params.V[0, 0, 0]
    return mse, r


def coupled_decoder_schedule(params, channel, gains=None):
    """Exact decoder schedule for the filtered-transmission scheme.

    Valid for arbitrary V_wv, and for direct state transmission run as the
    filtered scheme behind a noiseless sensor.  The error r(t) in p(t) steps
    by r' = (alpha r + J^2 vi N) / (k^2 r + k^2 L^2 vi + N), alpha = a^2 N +
    k^2 vi (J - a L)^2: one scan, over a (T, K) channel batch as a trailing
    axis.  K, the MSE and the filter's (m, g) follow elementwise.
    """
    T, batch = params.horizon, _channel_batch(params, channel)
    if gains is None:
        gains = transmitter_gain_schedule(params)
    K = power_scale(gains.sigma_breve_sq, channel)
    # y(t) = k p(t) + (k L i(t) + n(t)); p(t+1) = a p(t) + J i(t), t = 1 .. T-1
    a, L, J, vi = (_column(v[1:T], batch) for v in
                   (params.a, gains.L, gains.pred_gain, gains.innovation_var))
    k, N = K[:T - 1], channel.N[:T - 1]
    steps = np.empty((2, 2, T - 1) + batch)
    (alpha, beta), (gamma, delta) = steps
    np.multiply(k, k, out=gamma)
    np.multiply(gamma, vi * (J - a * L) ** 2, out=alpha)
    alpha += a * a * N
    np.multiply(J * J * vi, N, out=beta)
    np.multiply(gamma, L * L * vi, out=delta)
    delta += N
    mse, r = _receiver_error(params, gains, steps)

    # s(t+1) = m s(t) + g y(t) from r(t); (m, g) take the spent (alpha, beta)
    r = r[:-1]
    delta += gamma * r  # Var y(t)
    np.multiply(a, r, out=beta)
    beta += J * L * vi
    beta *= k
    beta /= delta
    np.subtract(a, beta * k, out=alpha)
    return CoupledDecoderSchedule(K=K, mse=mse, coef=np.moveaxis(steps[0], 0, 1))


def _information_floor(params, channel, gains):
    """``scheme.mse_floor``: xi(t) is independent of y^{t-1}, so any error is
    at least Vxi(t) + R(t), R(t) the error in p(t).  p(t+1) = a p(t) + J i(t)
    adds an innovation independent of (p(t), y^{t-1}), so entropy powers
    add, and a channel use shrinks entropy power by at most 1 + P/N (Cover &
    Thomas ch. 17; Tatikonda, Sahai & Mitter, IEEE TAC 49(9), 2004):
    R(t+1) = (a^2 R + J^2 vi) / (1 + P(t)/N(t))."""
    T, batch = params.horizon, _channel_batch(params, channel)
    steps = np.zeros((2, 2, T - 1) + batch)
    steps[0] = (_column(params.a[1:] ** 2, batch),
                _column(gains.pred_gain[1:] ** 2 * gains.innovation_var[1:T], batch))
    steps[1, 1] = 1.0 + channel.P[:-1] / channel.N[:-1]
    return _receiver_error(params, gains, steps)[0]


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
