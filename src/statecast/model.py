"""Plant, channel, and horizon data model.

The scalar plant

    x(t+1) = a(t) x(t) + b(t) w(t),          x(0) = x0,
    gamma(t) = c(t) x(t) + d(t) v(t),        t = 0 .. T,

runs for a finite horizon T.  The noise pair (w(t), v(t)) is jointly Gaussian
with per-step 2x2 covariance V(t) and independent across time.  Transmissions
z(t), t = 1 .. T, cross an additive white Gaussian channel with per-sample
power budget E z(t)^2 <= P(t) and noise variance N(t); the receiver sees each
channel output one step late, so y(0) = 0 and the estimate of x(t) may use
y(0) .. y(t-1) only.

Index conventions used throughout the package:

* ``a``, ``b`` have length T; entry t drives the transition from t to t+1.
* ``c``, ``d``, ``V`` are stored with T+1 entries so that the final
  observation gamma(T) is defined.  Inputs of length T are accepted and the
  last entry is reused for step T (for constant parameters the two
  conventions coincide).
* Arrays indexed "1 .. T" (z, y, xhat, P, N, per-step errors) are stored
  0-based: element i corresponds to time t = i + 1, except y where element i
  is y(i) and y[0] == 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fixed sub-stream labels for the master seed.  Each noise role draws from
# its own child stream so that, e.g., changing the channel noise realisation
# never perturbs the plant trajectory.
ROLE_PROCESS = 0
ROLE_MEASUREMENT = 1
ROLE_CHANNEL = 2
ROLE_BASELINE = 3

# Seeds are 64-bit unsigned integers: 0 <= seed < _SEED_BOUND.
_SEED_BOUND = 2**64

# Monte Carlo draws paths in blocks of this many rows, time-major (one row
# per role and step); the constant fixes the mapping from a seed to draws.
_BLOCK_ROWS = 2048


def _as_readonly(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _require_finite(value, name):
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


def _broadcast(value, length, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(length, float(arr))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a scalar or 1-D sequence")
    return arr


def _sized(value, length, name):
    """``_broadcast``, and the result must have exactly ``length`` entries."""
    arr = _broadcast(value, length, name)
    if arr.size != length:
        raise ValueError(f"{name} has length {arr.size}, expected {length}")
    return arr


@dataclass(frozen=True)
class RngSeed:
    """Master seed for all randomness; identical seeds reproduce runs bit for bit."""

    seed: int

    def __post_init__(self):
        if not (0 <= int(self.seed) < _SEED_BOUND):
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "seed", int(self.seed))

    def stream(self, role, index=None):
        """Generator for one noise role (and optional sub-index, e.g. a restart)."""
        key = (role,) if index is None else (role, index)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


def _coerce_seed(seed):
    return seed if isinstance(seed, RngSeed) else RngSeed(seed)


@dataclass(frozen=True)
class SystemParams:
    """Plant and observation coefficients for one horizon.

    ``V`` has shape (T+1, 2, 2); block t is [[V_ww, V_wv], [V_vw, V_vv]] for
    (w(t), v(t)).  Only blocks 0 .. T-1 contribute process noise; block T
    covers the final observation noise v(T).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    V: np.ndarray
    x0: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("a must be a 1-D sequence of length T >= 1")
        T = a.size
        b = _sized(self.b, T, "b")

        def obs_seq(value, name):
            arr = _broadcast(value, T + 1, name)
            if arr.size == T:  # per-transition input: reuse the last entry at t = T
                arr = np.concatenate([arr, arr[-1:]])
            if arr.size != T + 1:
                raise ValueError(f"{name} has length {arr.size}, expected {T} or {T + 1}")
            return arr

        c = obs_seq(self.c, "c")
        d = obs_seq(self.d, "d")

        V = np.asarray(self.V, dtype=float)
        if V.ndim == 2 and V.shape == (2, 2):
            V = np.broadcast_to(V, (T + 1, 2, 2)).copy()
        if V.shape == (T, 2, 2):
            V = np.concatenate([V, V[-1:]], axis=0)
        if V.shape != (T + 1, 2, 2):
            raise ValueError(f"V has shape {V.shape}, expected ({T} or {T + 1}, 2, 2)")
        x0 = float(self.x0)
        for name, arr in (("a", a), ("b", b), ("c", c), ("d", d), ("V", V), ("x0", x0)):
            _require_finite(arr, name)
        ww, wv, vw, vv = V[:, 0, 0], V[:, 0, 1], V[:, 1, 0], V[:, 1, 1]
        asym = np.abs(wv - vw) > 1e-12 * np.maximum(1.0, np.abs(wv))
        det = ww * vv - wv * vw
        bad = asym | (ww < 0) | (vv < 0) | (det < -1e-12 * np.maximum(1.0, ww * vv))
        if bad.any():
            t = int(np.argmax(bad))
            kind = "symmetric" if asym[t] else "positive semidefinite"
            raise ValueError(f"V[{t}] is not {kind}")

        object.__setattr__(self, "a", _as_readonly(a))
        object.__setattr__(self, "b", _as_readonly(b))
        object.__setattr__(self, "c", _as_readonly(c))
        object.__setattr__(self, "d", _as_readonly(d))
        object.__setattr__(self, "V", _as_readonly(V))
        object.__setattr__(self, "x0", x0)

    @property
    def horizon(self):
        return self.a.size

    @classmethod
    def make(cls, T, a, b=1.0, c=1.0, d=0.0, V_ww=1.0, V_vv=0.0, V_wv=0.0, x0=0.0):
        """Build params from scalars or sequences; scalars broadcast to the horizon."""
        a_arr = _sized(a, T, "a")
        # scalars take the length of the V_* arrays given, T+1 if none is
        n = max((np.size(v) for v in (V_ww, V_vv, V_wv) if np.size(v) > 1), default=T + 1)
        ww = _broadcast(V_ww, n, "V_ww")
        vv = _broadcast(V_vv, n, "V_vv")
        wv = _broadcast(V_wv, n, "V_wv")
        if n not in (T, T + 1):
            raise ValueError("V_* entries must have length T or T+1 (or be scalars)")

        def pad(arr):
            if arr.size == n:
                return arr
            if arr.size == 1:
                return np.full(n, arr[0])
            raise ValueError("V_* sequences must share one length")

        ww, vv, wv = pad(ww), pad(vv), pad(wv)
        V = np.empty((n, 2, 2))
        V[:, 0, 0] = ww
        V[:, 1, 1] = vv
        V[:, 0, 1] = wv
        V[:, 1, 0] = wv
        return cls(a=a_arr, b=_broadcast(b, T, "b"), c=_broadcast(c, T + 1, "c"),
                   d=_broadcast(d, T + 1, "d"), V=V, x0=x0)


@dataclass(frozen=True)
class ChannelParams:
    """Per-sample transmit power budgets P(t) and channel noise variances N(t), t = 1 .. T.

    P and N of shape (T, K) hold a batch of K channels, column k one channel,
    for the receiver schedule and ``analytic_mse``.
    """

    P: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        P = np.atleast_1d(np.asarray(self.P, dtype=float))
        N = np.atleast_1d(np.asarray(self.N, dtype=float))
        if P.shape != N.shape or P.ndim > 2:
            raise ValueError("P and N must have one shape, (T,) or (T, K)")
        _require_finite(P, "P(t)")
        _require_finite(N, "N(t)")
        if np.any(P <= 0):
            raise ValueError("P(t) must be positive for all t")
        if np.any(N <= 0):
            raise ValueError("N(t) must be positive for all t")
        object.__setattr__(self, "P", _as_readonly(P))
        object.__setattr__(self, "N", _as_readonly(N))

    @property
    def horizon(self):
        return self.P.shape[0]

    @classmethod
    def make(cls, T, P, N):
        return cls(P=_sized(P, T, "P"), N=_sized(N, T, "N"))


def mean_trajectory(params):
    """Deterministic mean path xbar(t) = a(t-1) ... a(0) x0, t = 0 .. T."""
    T = params.horizon
    xbar = np.empty(T + 1)
    xbar[0] = params.x0
    for t in range(T):
        xbar[t + 1] = params.a[t] * xbar[t]
    return xbar


def state_variance(params):
    """Variance schedule sigma^2(t) = Var x(t), t = 0 .. T.

    The initial state is a known constant, so sigma^2(0) = 0 and all
    second moments here are taken about the mean path.
    """
    sig = np.zeros(params.horizon + 1)
    out, s = memoryview(sig), 0.0  # the loop runs on Python floats
    try:
        for t, at, bt, ww in zip(range(1, sig.size), memoryview(params.a),
                                 memoryview(params.b), memoryview(params.V[:, 0, 0])):
            s = out[t] = at ** 2 * s + bt ** 2 * ww
    except OverflowError:  # float ** raises where the variance leaves double range
        sig[t:] = np.inf
    return sig


def _noise_factors(params):
    """Per-step lower-triangular factors of the 2x2 noise covariances.

    Returns (l11, l21, l22) arrays of length T+1 such that
    (w, v) = (l11 u1, l21 u1 + l22 u2) for independent standard normals u1, u2.
    """
    ww, wv, vv = params.V[:, 0, 0], params.V[:, 0, 1], params.V[:, 1, 1]
    l11 = np.sqrt(ww)
    with np.errstate(divide="ignore", invalid="ignore"):
        l21 = np.where(l11 > 0, wv / np.where(l11 > 0, l11, 1.0), 0.0)
    l22 = np.sqrt(np.maximum(vv - l21**2, 0.0))
    return l11, l21, l22


def draw_noise(params, samples, rng_process, rng_measurement):
    """Draw (w, v) jointly for ``samples`` paths.

    Returns arrays of shape (samples, T+1); w(T) is drawn but never used by
    the plant.  Process and measurement deviates come from separate
    generators so the roles stay independent and reproducible.  Each fills
    blocks of ``_BLOCK_ROWS`` paths time-major, one row per step, as Monte
    Carlo consumes the streams; the arrays are views of (T+1, samples) ones.
    """
    u1, u2 = np.empty((2, params.horizon + 1, samples))
    for start in range(0, samples, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, samples))
        u1[:, block] = rng_process.standard_normal(u1[:, block].shape)
        u2[:, block] = rng_measurement.standard_normal(u2[:, block].shape)
    l11, l21, l22 = (f[:, None] for f in _noise_factors(params))
    return (u1 * l11).T, (u1 * l21 + u2 * l22).T


def _plant_step(at, bt, x, w, out):
    """x(t+1) = a(t) x(t) + b(t) w(t) on a row of paths, written to ``out``."""
    np.multiply(x, at, out=out)
    out += bt * w


def paths_from_noise(params, w, v):
    """Run the plant and observation equations on given noise arrays.

    ``w`` and ``v`` have shape (samples, T+1) (only w(0..T-1) is used).
    Returns (x, gamma) with shape (samples, T+1).
    """
    x = np.empty((params.horizon + 1, w.shape[0]))  # time-major
    x[0] = params.x0
    for t, (at, bt) in enumerate(zip(params.a, params.b)):
        _plant_step(at, bt, x[t], w[:, t], out=x[t + 1])
    return x.T, params.c * x.T + params.d * v
