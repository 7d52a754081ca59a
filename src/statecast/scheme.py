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
estimate of the transmitter's one-step predictor (``kalman``).  Monte Carlo
makes one pass over t per block of paths, reducing each step at once: memory
bounded in n and T.  One helper thread draws the noise rows a chunk of
steps ahead of the paths, on any number of CPUs (on one it overlaps nothing,
and README gives its cost); each stream is drawn in the same order as by a
single thread, so the draws are unchanged.  FullState paths skip the v draw
and the filter.

Known means are handled deterministically: encoders scale deviations from the
mean path and decoders add the mean back, so the power budget is spent
entirely on the random part.  With x0 = 0 (the usual setting) this coincides
with scaling the raw state.
"""

from __future__ import annotations

import enum
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import kalman
from .model import (_BLOCK_ROWS, ROLE_CHANNEL, ROLE_MEASUREMENT, ROLE_PROCESS, SystemParams,
                    _coerce_seed, _noise_factors, _plant_step, mean_trajectory)


# Monte Carlo draws the noise rows of this many steps per chunk, one chunk
# ahead of the paths; the ring of two chunks bounds the buffers in n and T.
_CHUNK_STEPS = 8


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
    x.  These are the rows ``monte_carlo_mse`` reduces step by step.
    """

    x: np.ndarray
    gamma: np.ndarray
    xbreve: np.ndarray
    z: np.ndarray
    y: np.ndarray
    xhat: np.ndarray


def _gains(kind, params):
    # FullState is the filtered scheme behind a noiseless sensor gamma = x; the
    # decoder reads a, b(0) and V_ww(0) only, so it keeps the caller's params
    if SchemeKind(kind) is SchemeKind.FULL_STATE:
        params = SystemParams.make(params.horizon, params.a, params.b, c=1.0, d=0.0,
                                   V_ww=params.V[:, 0, 0], x0=params.x0)
    return kalman.transmitter_gain_schedule(params)


def analytic_mse(kind, params, channel):
    """Exact per-step estimation error of the scheme; no sampling.

    Runs the transmitter gain schedule and the exact decoder schedule;
    FullState runs them behind a noiseless sensor.  A (T, K) channel batch
    shares one transmitter schedule and yields one column per channel.
    """
    gains = _gains(kind, params)
    mse = kalman.coupled_decoder_schedule(params, channel, gains).mse
    # P.T puts time last, so the (T,) mask broadcasts over a (T, K) batch
    power = np.where(gains.sigma_breve_sq[1:] > 0, channel.P.T, 0.0).T
    # each average sums one contiguous row, in the order of a single channel's
    avg = np.mean(np.ascontiguousarray(mse.T), axis=-1)
    return RunResult(mse_analytic=mse, avg_mse_analytic=avg if avg.ndim else float(avg),
                     power_used=power)


def mse_floor(kind, params, channel):
    """Per-step floor on E (x(t) - xhat(t))^2, t = 1 .. T, for any causal
    encoder and decoder of the scheme's observations, linear or not; a (T, K)
    channel batch yields one column per channel.  It runs the exact
    receiver's recursion with entropy-power steps (``kalman``), so it refuses
    a channel of another horizon and at t = 1 reads Var x(1), as every
    scheme does."""
    return kalman._information_floor(params, channel, _gains(kind, params))


def _pipeline(kind, params, channel, samples, seed):
    """Time-major Monte Carlo over blocks of ``_BLOCK_ROWS`` paths: returns
    the receiver schedule and a generator of steps t = 0 .. T per block.

    Each role stream draws one row per step and continues across blocks;
    plant, transmitter predictor and receiver state advance in place.  One
    helper thread (``_drawn_ahead``) draws the rows of the next
    ``_CHUNK_STEPS`` steps while the caller advances the paths through the
    current ones; each stream is still drawn by one thread in the same
    order, so the draws are unchanged.
    A step yields the block's slice of the paths, t and the rows x, gamma,
    xbreve, z, y, xhat at t, valid until the next step (None where undefined).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if channel.P.ndim != 1:
        raise ValueError("Monte Carlo runs one channel, not a (T, K) batch")
    full = SchemeKind(kind) is SchemeKind.FULL_STATE
    gains = _gains(kind, params)
    schedule = kalman.coupled_decoder_schedule(params, channel, gains)
    T, xbar, k, sd = params.horizon, mean_trajectory(params), schedule.K, np.sqrt(channel.N)
    l11, l21, l22 = _noise_factors(params)
    # the noiseless sensor reads no v: FullState draws w and n only
    roles = (ROLE_PROCESS, ROLE_CHANNEL) if full else (ROLE_PROCESS, ROLE_MEASUREMENT, ROLE_CHANNEL)
    rngs = [_coerce_seed(seed).stream(role) for role in roles]
    # a two-slot ring: the helper fills one slot while the caller reads the other
    ring = np.empty((2, len(roles), _CHUNK_STEPS * min(samples, _BLOCK_ROWS)))

    def chunks():  # each role stream continues across blocks
        for start in range(0, samples, _BLOCK_ROWS):
            for t0 in range(0, T + 1, _CHUNK_STEPS):
                yield slice(start, min(start + _BLOCK_ROWS, samples)), t0

    def draw(slot, chunk):
        """Each role's rows for the chunk's steps, row i at step t0 + i; the
        channel draws rows 1 <= t < T only."""
        rows, t0 = chunk
        m, steps = rows.stop - rows.start, min(_CHUNK_STEPS, T + 1 - t0)
        out = [buf[:steps * m].reshape(steps, m) for buf in ring[slot]]
        for rng, rows_drawn in zip(rngs, out[:-1]):
            rng.standard_normal(out=rows_drawn)
        rngs[-1].standard_normal(out=out[-1][max(1 - t0, 0):T - t0])
        return rows, t0, out

    def steps():
        with closing(_drawn_ahead(draw, chunks())) as drawn:
            for rows, t0, (w, *v, n) in drawn:  # v: [] or [v]
                if t0 == 0:
                    s = np.zeros(rows.stop - rows.start)
                    x, p = np.full((2, s.size), params.x0)
                    z = y = xhat = None
                for t in range(t0, min(t0 + _CHUNK_STEPS, T + 1)):
                    u1 = w[t - t0]
                    if full:  # the filter returns x
                        gamma = xbreve = x
                    else:
                        u2 = v[0][t - t0]
                        gamma = params.c[t] * x + params.d[t] * (u1 * l21[t] + u2 * l22[t])
                        xbreve = kalman._transmitter_step(params, gains, t, p, gamma)
                    if t:
                        z, xhat, y = k[t - 1] * (xbreve - xbar[t]), xbar[t] + s, None
                        if t < T:
                            y = z + n[t - t0] * sd[t - 1]
                            kalman._receiver_step(schedule, t, s, y)
                    yield rows, t, x, gamma, xbreve, z, y, xhat
                    if t < T:
                        _plant_step(params.a[t], params.b[t], x, u1 * l11[t], out=x)

    return schedule, steps()


def _drawn_ahead(draw, chunks):
    """Yield ``draw(slot, chunk)`` for each chunk in order.

    One helper thread runs each draw one chunk ahead.  Chunk j goes to slot
    j % 2 when the caller asks for chunk j - 1, so it is done with chunk
    j - 2, the slot's last contents; a draw's exception is raised to the
    caller, and closing this generator joins the helper.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="statecast-draw") as helper:
        ahead = None
        for j, chunk in enumerate(chunks):
            drawn = helper.submit(draw, j % 2, chunk)
            if ahead is not None:
                yield ahead.result()
            ahead = drawn
        yield ahead.result()


def sample_paths(kind, params, channel, samples, seed):
    """Run the full pipeline (simulate, encode, channel, decode) per sample:
    every path of the time-major pipeline that ``monte_carlo_mse`` reduces,
    its noise drawn a chunk ahead by one helper thread, the draws unchanged."""
    full = SchemeKind(kind) is SchemeKind.FULL_STATE
    steps = _pipeline(kind, params, channel, samples, seed)[1]
    T = channel.horizon
    x, z, y, xhat = np.zeros((4, T + 1, samples))  # time-major
    gamma, xbreve = (x, x) if full else np.zeros((2, T + 1, samples))
    for rows, t, *values in steps:
        for path, value in zip((x, gamma, xbreve, z, y, xhat), values):
            if value is not None:
                path[t, rows] = value
    x, gamma, xbreve = (x.T,) * 3 if full else (x.T, gamma.T, xbreve.T)
    return SchemeSamples(x=x, gamma=gamma, xbreve=xbreve, z=z.T[:, 1:], y=y.T[:, :T],
                         xhat=xhat.T[:, 1:])


def monte_carlo_mse(kind, params, channel, samples, seed):
    """Empirical per-step MSE, its standard error, and empirical power.

    Reduces each pipeline step at once: the block's sum and two-pass M2 of
    the squared error, merged by the pairwise update of Chan, Golub & LeVeque
    (1979), and the sum of z(t)^2.  The analytic columns are the pipeline's
    receiver schedule.  Memory is bounded in n and T apart from O(T) columns.
    One helper thread draws the noise a chunk of steps ahead while this
    thread advances and reduces the paths; the draws are unchanged, and a
    draw error is raised here.
    """
    schedule, steps = _pipeline(kind, params, channel, samples, seed)
    sums = np.zeros((3, channel.horizon + 1))  # per t: sum and M2 of e, sum of z^2
    for rows, t, x, _, _, z, _, xhat in steps:
        if t:
            n, m = rows.start, rows.stop - rows.start
            e = (x - xhat) ** 2
            block = e.sum()
            e -= block / m
            delta = block / m - sums[0, t] / max(n, 1)
            sums[:, t] += (block, e @ e + delta * delta * (n * m / (n + m)), z @ z)
    mse_emp, var, power = sums[:, 1:] / [[samples], [max(samples - 1, 1)], [samples]]
    return RunResult(mse_analytic=schedule.mse, avg_mse_analytic=float(np.mean(schedule.mse)),
                     power_used=power, samples=samples, mse_empirical=mse_emp,
                     # a single path has M2 = 0 exactly, so its standard error is 0
                     stderr=np.sqrt(var) / np.sqrt(samples),
                     avg_mse_empirical=float(np.mean(mse_emp)))
