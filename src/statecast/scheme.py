"""End-to-end transmission schemes and their analytic / empirical MSE.

Two schemes share the same architecture (scale the transmitter's best
estimate of the state to the power budget, MMSE-decode the delayed channel
output):

* FullState — the transmitter observes x(t) itself and sends
  z(t) = sqrt(P(t))/sigma_t * x(t).
* NoisyState — the transmitter only sees gamma(t) = c x(t) + d v(t), runs the
  recursive MMSE filter, and transmits its estimate xbreve(t) the same way.

FullState is NoisyState with a noiseless sensor (c = 1, d = 0, V_vv = V_wv =
0): the filter then returns the state itself.  Both schemes therefore run one
pipeline — transmitter filter, power scaling, exact decoder — and differ only
in the parameters handed to it.  The decoder keeps one scalar state, its
estimate of the transmitter's one-step predictor (``kalman``).  Sampled
FullState paths skip the v draw and the filter (gamma = xbreve = x), and Monte
Carlo statistics stream over blocks of paths: memory bounded in n and T.

Known means are handled deterministically: encoders scale deviations from the
mean path and decoders add the mean back, so the power budget is spent
entirely on the random part.  With x0 = 0 (the usual setting) this coincides
with scaling the raw state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import kalman
from .model import (
    ROLE_CHANNEL,
    ROLE_MEASUREMENT,
    ROLE_PROCESS,
    _coerce_seed,
    _noise_factors,
    _plant,
    draw_noise,
    mean_trajectory,
    paths_from_noise,
)


class SchemeKind(enum.Enum):
    FULL_STATE = "FullState"
    NOISY_STATE = "NoisyState"


@dataclass(frozen=True)
class RunResult:
    """Per-step and averaged MSE of one scheme on one configuration.

    Analytic-only results leave the empirical fields as None.  power_used is
    the exact transmit power for analytic runs and the empirical mean of
    z(t)^2 for Monte Carlo runs.  An analytic run on a batch of K channels
    has (T, K) columns and a (K,) array of averages.
    """

    mse_analytic: np.ndarray
    avg_mse_analytic: float
    power_used: np.ndarray
    samples: int = 0
    mse_empirical: np.ndarray | None = None
    stderr: np.ndarray | None = None
    avg_mse_empirical: float | None = None


@dataclass(frozen=True)
class SchemeSamples:
    """Raw per-sample arrays from one Monte Carlo pipeline run.

    Shapes: x, gamma and xbreve are (samples, T+1); z, y, xhat are
    (samples, T) with y[:, 0] = 0 and column i of z / xhat at time t = i+1.
    FullState runs behind a noiseless sensor: gamma and xbreve are the array
    x.  ``monte_carlo_mse`` streams such blocks of paths and keeps none.
    """

    x: np.ndarray
    gamma: np.ndarray
    xbreve: np.ndarray
    z: np.ndarray
    y: np.ndarray
    xhat: np.ndarray


def _coerce_kind(kind):
    if isinstance(kind, SchemeKind):
        return kind
    return SchemeKind(kind)


def _scheme_params(kind, params):
    # FullState is the filtered scheme behind a noiseless sensor gamma = x.
    if _coerce_kind(kind) is SchemeKind.NOISY_STATE:
        return params
    V = params.V.copy()
    V[:, 0, 1] = V[:, 1, 0] = V[:, 1, 1] = 0.0
    return replace(params, c=1.0, d=0.0, V=V)


def analytic_mse(kind, params, channel):
    """Exact per-step estimation error of the scheme; no sampling.

    Runs the transmitter gain schedule and the exact decoder schedule;
    FullState runs them behind a noiseless sensor.  A (T, K) channel batch
    shares one transmitter schedule and yields one column per channel.
    """
    params = _scheme_params(kind, params)
    gains = kalman.transmitter_gain_schedule(params)
    mse = kalman.coupled_decoder_schedule(params, channel, gains).mse
    # P.T puts time last, so the (T,) mask broadcasts over a (T, K) batch
    power = np.where(gains.sigma_breve_sq[1:] > 0, channel.P.T, 0.0).T
    # each average sums one contiguous row, in the order of a single channel's
    avg = np.mean(np.ascontiguousarray(mse.T), axis=-1)
    return RunResult(mse_analytic=mse, avg_mse_analytic=avg if avg.ndim else float(avg),
                     power_used=power)


def _block_rows(T):
    # about 1 MB per (rows, T+1) float64 array: memory bounded in T and in n
    return max(1, 2**20 // (8 * (T + 1)))


def _sample_blocks(kind, params, channel, samples, seed, rows):
    """Yield SchemeSamples for consecutive blocks of at most ``rows`` paths.

    Each role stream continues across blocks, so stacked blocks are the
    paths of one block of ``samples`` rows, bit for bit.
    """
    full = _coerce_kind(kind) is SchemeKind.FULL_STATE
    params = _scheme_params(kind, params)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if channel.P.ndim != 1:
        raise ValueError("Monte Carlo runs one channel, not a (T, K) batch")
    T = params.horizon
    gains = kalman.transmitter_gain_schedule(params)
    k = kalman.power_scale(gains.sigma_breve_sq, channel)
    xbar = mean_trajectory(params)
    schedule = kalman.coupled_decoder_schedule(params, channel, gains)
    rng_w, rng_v, rng_n = (_coerce_seed(seed).stream(role) for role in
                           (ROLE_PROCESS, ROLE_MEASUREMENT, ROLE_CHANNEL))
    sd, w_sd = np.sqrt(channel.N), _noise_factors(params)[0]

    def block(m):
        if full:  # the noiseless sensor reads no v and the filter returns x
            x = gamma = xbreve = _plant(params, rng_w.standard_normal((m, T + 1)) * w_sd)
        else:
            x, gamma = paths_from_noise(params, *draw_noise(params, m, rng_w, rng_v))
            xbreve = kalman.transmitter_filter(params, gains, gamma)
        z = k * (xbreve[:, 1:] - xbar[1:])
        y = np.zeros_like(z)
        y[:, 1:] = z[:, :-1] + (rng_n.standard_normal((m, T)) * sd)[:, :-1]
        xhat = kalman.coupled_decoder_filter(schedule, params, y)
        return SchemeSamples(x=x, gamma=gamma, xbreve=xbreve, z=z, y=y, xhat=xhat)

    for start in range(0, samples, rows):
        yield block(min(rows, samples - start))


def sample_paths(kind, params, channel, samples, seed):
    """Run the full pipeline (simulate, encode, channel, decode) per sample.

    Returns one block of all paths; ``monte_carlo_mse`` streams them in blocks."""
    return next(_sample_blocks(kind, params, channel, samples, seed, samples))


def monte_carlo_mse(kind, params, channel, samples, seed):
    """Empirical per-step MSE, its standard error, and empirical power.

    Streams over blocks of paths: per-step sums of the squared error and of
    z(t)^2, and per-block (mean, M2) pairs of the squared error merged by the
    pairwise update of Chan, Golub & LeVeque (1979).
    """
    T = params.horizon
    n, sum_e, sum_z, m2 = 0, np.zeros(T), np.zeros(T), np.zeros(T)
    for runs in _sample_blocks(kind, params, channel, samples, seed, _block_rows(T)):
        e = (runs.x[:, 1:] - runs.xhat) ** 2
        m, block_sum = e.shape[0], e.sum(axis=0)
        delta = block_sum / m - sum_e / max(n, 1)
        m2 += ((e - block_sum / m) ** 2).sum(axis=0) + delta**2 * (n * m / (n + m))
        sum_e += block_sum
        sum_z += (runs.z**2).sum(axis=0)
        n += m
        del runs, e  # release the block before the next one is drawn
    analytic = analytic_mse(kind, params, channel)
    mse_emp = sum_e / n
    return RunResult(
        mse_analytic=analytic.mse_analytic,
        avg_mse_analytic=analytic.avg_mse_analytic,
        power_used=sum_z / n,
        samples=n,
        mse_empirical=mse_emp,
        # a single path has m2 = 0 exactly, so its standard error is 0
        stderr=np.sqrt(m2 / max(n - 1, 1)) / np.sqrt(n),
        avg_mse_empirical=float(np.mean(mse_emp)),
    )
