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
estimate of the transmitter's one-step predictor (``kalman``).

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
    z(t)^2 for Monte Carlo runs.
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
    FullState runs behind a noiseless sensor, so its gamma and xbreve equal x.
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


def encode_noisy_state(params, channel, gamma):
    """Filter the observations, then transmit the scaled estimate.

    Returns (z, xbreve): z(t) = sqrt(P(t))/sigma_t * xbreve(t) with
    sigma_t^2 = E xbreve(t)^2, and xbreve the transmitter-filter output
    (shape (..., T+1)).  Behind a noiseless sensor (c = 1, d = 0) xbreve is
    the state itself and this is the FullState encoder.
    """
    gains = kalman.transmitter_gain_schedule(params)
    xbreve = kalman.transmitter_filter(params, gains, gamma)
    k = kalman.power_scale(gains.sigma_breve_sq, channel)
    xbar = mean_trajectory(params)
    return k * (xbreve[..., 1:] - xbar[1:]), xbreve


def analytic_mse(kind, params, channel):
    """Exact per-step estimation error of the scheme; no sampling.

    Runs the transmitter gain schedule and the exact decoder schedule;
    FullState runs them behind a noiseless sensor.
    """
    params = _scheme_params(kind, params)
    gains = kalman.transmitter_gain_schedule(params)
    mse = kalman.coupled_decoder_schedule(params, channel, gains).mse
    power = np.where(gains.sigma_breve_sq[1:] > 0, channel.P, 0.0)
    return RunResult(mse_analytic=mse, avg_mse_analytic=float(np.mean(mse)),
                     power_used=power)


def sample_paths(kind, params, channel, samples, seed):
    """Run the full pipeline (simulate, encode, channel, decode) per sample."""
    params = _scheme_params(kind, params)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    seed = _coerce_seed(seed)
    T = params.horizon

    w, v = draw_noise(params, samples,
                      seed.stream(ROLE_PROCESS), seed.stream(ROLE_MEASUREMENT))
    x, gamma = paths_from_noise(params, w, v)
    del w, v  # each (samples, T+1) array is freed before the filters allocate
    z, xbreve = encode_noisy_state(params, channel, gamma)

    n = seed.stream(ROLE_CHANNEL).standard_normal((samples, T)) * np.sqrt(channel.N)
    y = np.zeros_like(z)
    y[:, 1:] = z[:, :T - 1]
    y[:, 1:] += n[:, :T - 1]
    del n

    schedule = kalman.coupled_decoder_schedule(params, channel)
    xhat = kalman.coupled_decoder_filter(schedule, params, y)
    return SchemeSamples(x=x, gamma=gamma, xbreve=xbreve, z=z, y=y, xhat=xhat)


def monte_carlo_mse(kind, params, channel, samples, seed):
    """Empirical per-step MSE, its standard error, and empirical power."""
    runs = sample_paths(kind, params, channel, samples, seed)
    analytic = analytic_mse(kind, params, channel)

    sq_err = (runs.x[:, 1:] - runs.xhat) ** 2
    mse_emp = sq_err.mean(axis=0)
    if samples > 1:
        stderr = sq_err.std(axis=0, ddof=1) / np.sqrt(samples)
    else:
        stderr = np.zeros(params.horizon)
    power = (runs.z**2).mean(axis=0)
    return RunResult(
        mse_analytic=analytic.mse_analytic,
        avg_mse_analytic=analytic.avg_mse_analytic,
        power_used=power,
        samples=int(samples),
        mse_empirical=mse_emp,
        stderr=stderr,
        avg_mse_empirical=float(np.mean(mse_emp)),
    )
