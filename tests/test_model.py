import dataclasses
import decimal
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from statecast import (
    ChannelParams,
    RngSeed,
    SchemeKind,
    SystemParams,
    draw_noise,
    mean_trajectory,
    paths_from_noise,
    state_variance,
)
from statecast import scheme
from statecast.model import _BLOCK_ROWS, _lft_scan


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


def test_state_variance_overflow_reads_inf():
    # past double range the variance is +inf from the first overflowing step
    # on, not NaN, so the CLI's "state variance exceeds" check still fires;
    # no floating-point warning escapes the library
    params = SystemParams.make(200, a=1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = state_variance(params)
    first = int(np.argmax(np.isinf(sig)))
    assert 50 < first < 200
    assert np.all(np.isfinite(sig[:first])) and np.all(sig[first:] == np.inf)
    assert np.max(sig) > 1e12
    # a(t) = 0 right after the overflow multiplies 0 by inf; that entry reads +inf too
    params = SystemParams.make(6, a=[1e150, 1e150, 1e150, 0.0, 0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = state_variance(params)
    assert np.all(np.isfinite(sig[:3])) and np.all(sig[3:] == np.inf)


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


def _decimal_lft_iterates(coef, r0, digits=40):
    """r(0) .. r(n) of r(i+1) = (alpha r(i) + beta) / (gamma r(i) + delta),
    stepped one map at a time in ``digits``-digit decimal arithmetic; ``coef``
    is (2, 2, n)."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        r, out = D(float(r0)), [float(r0)]
        for alpha, beta, gamma, delta in coef.reshape(4, -1).T.tolist():
            r = (D(alpha) * r + D(beta)) / (D(gamma) * r + D(delta))
            out.append(float(r))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 511, 512, 513])
def test_lft_scan_matches_a_decimal_loop(n):
    # step counts on both sides of every block boundary, alone and as a batch
    # of three columns; coefficients span 1e-6 .. 1e6, and about one step in
    # ten is a constant map (alpha = gamma = 0) or has beta = 0
    rng = np.random.default_rng(n)
    for batch in ((), (3,)):
        coef = 10.0 ** rng.uniform(-6.0, 6.0, (2, 2, n) + batch)
        constant = rng.random((n,) + batch) < 0.1
        coef[0, 0][constant] = coef[1, 0][constant] = 0.0
        coef[0, 1][rng.random((n,) + batch) < 0.1] = 0.0
        out = np.empty((n + 1,) + batch)
        out[0] = 10.0 ** rng.uniform(-3.0, 3.0, batch)
        _lft_scan(coef, out)
        for k in np.ndindex(batch):
            column = (slice(None),) * 3 + k
            want = _decimal_lft_iterates(coef[column], out[(0,) + k])
            assert_allclose(out[(slice(None),) + k], want, rtol=2e-15, atol=0)


@pytest.mark.parametrize("n", [64, 600])
def test_lft_scan_ignores_a_power_of_two_per_step(n):
    # a step's map ignores a factor common to its four entries: powers of two
    # up to 2^+-300 per step change no bit, where block products of 8 steps
    # would leave double range unless rescaled
    rng = np.random.default_rng(n)
    coef = rng.uniform(0.1, 2.0, (2, 2, n))
    out, scaled = np.ones((2, n + 1))
    _lft_scan(coef, out)
    _lft_scan(np.ldexp(coef, rng.integers(-300, 301, n)), scaled)
    assert_array_equal(scaled, out)


@pytest.mark.parametrize("length", [3, 4])  # T and T+1 entries at T=3
def test_make_accepts_a_lone_V_array(length):
    # each V_* may be a per-step array on its own; the scalar ones repeat
    scalars = {"V_ww": 2.0, "V_vv": 1.0, "V_wv": 0.1}
    values = [0.5, 0.4, 0.3, 0.2][:length]
    for name in scalars:
        lone = SystemParams.make(3, a=0.9, **{**scalars, name: values})
        arrays = {key: [value] * length for key, value in scalars.items()}
        every = SystemParams.make(3, a=0.9, **{**arrays, name: values})
        assert_array_equal(lone.V, every.V)


def _blocks(ww, vv, wv):
    """V as (T+1, 2, 2) blocks [[V_ww, V_wv], [V_wv, V_vv]] from per-step lists."""
    return np.array([[[w, c], [c, v]] for w, v, c in zip(ww, vv, wv)])


# every input form the package, its demos, tests and benchmark pass, at T = 3:
# make's keywords and the exact arrays they build
_INPUT_FORMS = {
    "scalars": (
        dict(a=0.9, b=2.0, c=1.5, d=0.5, V_ww=1.0, V_vv=2.0, V_wv=0.3, x0=1.0),
        dict(a=[0.9] * 3, b=[2.0] * 3, c=[1.5] * 4, d=[0.5] * 4,
             V=_blocks([1.0] * 4, [2.0] * 4, [0.3] * 4), x0=1.0)),
    "defaults": (
        dict(a=0.9),
        dict(a=[0.9] * 3, b=[1.0] * 3, c=[1.0] * 4, d=[0.0] * 4,
             V=_blocks([1.0] * 4, [0.0] * 4, [0.0] * 4), x0=0.0)),
    "T entries": (
        dict(a=[0.5, 0.9, 1.1], b=[1.0, 0.0, 2.0], c=[1.0, 2.0, 3.0], d=[0.1, 0.2, 0.3],
             V_ww=[1.0, 2.0, 3.0], V_vv=[4.0, 5.0, 6.0], V_wv=[0.1, 0.2, 0.3]),
        dict(a=[0.5, 0.9, 1.1], b=[1.0, 0.0, 2.0], c=[1.0, 2.0, 3.0, 3.0],
             d=[0.1, 0.2, 0.3, 0.3],
             V=_blocks([1.0, 2.0, 3.0, 3.0], [4.0, 5.0, 6.0, 6.0], [0.1, 0.2, 0.3, 0.3]),
             x0=0.0)),
    "T+1 entries": (
        dict(a=np.array([0.5, 0.9, 1.1]), b=np.array([1.0, 0.0, 2.0]),
             c=np.array([1.0, 2.0, 3.0, 4.0]), d=[0.1, 0.2, 0.3, 0.4],
             V_ww=np.array([1.0, 2.0, 3.0, 4.0]), V_vv=[4.0, 5.0, 6.0, 7.0],
             V_wv=[0.1, 0.2, 0.3, 0.4], x0=-2),
        dict(a=[0.5, 0.9, 1.1], b=[1.0, 0.0, 2.0], c=[1.0, 2.0, 3.0, 4.0],
             d=[0.1, 0.2, 0.3, 0.4],
             V=_blocks([1.0, 2.0, 3.0, 4.0], [4.0, 5.0, 6.0, 7.0], [0.1, 0.2, 0.3, 0.4]),
             x0=-2.0)),
    "lone V_ww, T entries": (
        dict(a=0.9, V_ww=[1.0, 2.0, 3.0], V_vv=2.0, V_wv=0.1),
        dict(a=[0.9] * 3, b=[1.0] * 3, c=[1.0] * 4, d=[0.0] * 4,
             V=_blocks([1.0, 2.0, 3.0, 3.0], [2.0] * 4, [0.1] * 4), x0=0.0)),
    "lone V_vv, T+1 entries": (
        dict(a=0.9, d=1.0, V_ww=2.0, V_vv=[1.0, 2.0, 3.0, 4.0]),
        dict(a=[0.9] * 3, b=[1.0] * 3, c=[1.0] * 4, d=[1.0] * 4,
             V=_blocks([2.0] * 4, [1.0, 2.0, 3.0, 4.0], [0.0] * 4), x0=0.0)),
    "lone V_wv, T entries": (
        dict(a=0.9, V_vv=1.0, V_wv=[0.1, -0.2, 0.3]),
        dict(a=[0.9] * 3, b=[1.0] * 3, c=[1.0] * 4, d=[0.0] * 4,
             V=_blocks([1.0] * 4, [1.0] * 4, [0.1, -0.2, 0.3, 0.3]), x0=0.0)),
}


def _assert_builds(params, expected):
    for name in ("a", "b", "c", "d", "V"):
        got = getattr(params, name)
        want = np.array(expected[name], dtype=float)
        assert got.dtype == float and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert not got.flags.writeable, name
    assert type(params.x0) is float and params.x0 == expected["x0"]


@pytest.mark.parametrize("form", _INPUT_FORMS)
def test_make_input_forms_build_exact_arrays(form):
    keywords, expected = _INPUT_FORMS[form]
    _assert_builds(SystemParams.make(3, **keywords), expected)


def test_noiseless_copies_build_exact_arrays_and_share_a_and_b(monkeypatch):
    params = SystemParams.make(3, **_INPUT_FORMS["T+1 entries"][0])
    noiseless = dict(a=params.a, b=params.b, c=[1.0] * 4, d=[0.0] * 4,
                     V=_blocks(params.V[:, 0, 0], [0.0] * 4, [0.0] * 4), x0=-2.0)
    # the tests' direct sensor: a replace of c, d and V
    V = params.V.copy()
    V[:, 0, 1] = V[:, 1, 0] = V[:, 1, 1] = 0.0
    direct = dataclasses.replace(params, c=1.0, d=0.0, V=V)
    _assert_builds(direct, noiseless)
    # FullState's copy, as the scheme makes it for its gain schedule
    copies = []
    monkeypatch.setattr(scheme.kalman, "transmitter_gain_schedule", copies.append)
    scheme._gains(SchemeKind.FULL_STATE, params)
    _assert_builds(copies[0], noiseless)
    for copy in (direct, copies[0]):
        assert np.shares_memory(copy.a, params.a) and np.shares_memory(copy.b, params.b)


@pytest.mark.parametrize("keywords, expected", [
    (dict(P=1.0, N=0.5), dict(P=[1.0] * 3, N=[0.5] * 3)),
    (dict(P=[1.0, 2.0, 0.5], N=0.5), dict(P=[1.0, 2.0, 0.5], N=[0.5] * 3)),
    (dict(P=2, N=np.array([0.2, 0.4, 0.6])), dict(P=[2.0] * 3, N=[0.2, 0.4, 0.6])),
])
def test_channel_make_input_forms_build_exact_arrays(keywords, expected):
    channel = ChannelParams.make(3, **keywords)
    for name in ("P", "N"):
        got, want = getattr(channel, name), np.array(expected[name])
        assert got.dtype == float and np.array_equal(got, want) and not got.flags.writeable


def _system(**fields):
    return lambda: SystemParams(**{**dict(a=[1.0] * 3, b=1.0, c=1.0, d=0.0,
                                          V=_blocks([1.0] * 4, [0.0] * 4, [0.0] * 4)), **fields})


@pytest.mark.parametrize("build, message", [
    (lambda: SystemParams.make(0, a=1.0), "a must be a 1-D sequence of length T >= 1"),
    (lambda: SystemParams.make(3, a=[1.0, 1.0]), "a has length 2, expected 3"),
    (lambda: SystemParams.make(3, a=np.ones((1, 3))), "a must be a scalar or 1-D sequence"),
    (lambda: SystemParams.make(3, a=1.0, b=[1.0, 1.0]), "b has length 2, expected 3"),
    (lambda: SystemParams.make(3, a=1.0, b=[[1.0] * 3]), "b must be a scalar or 1-D sequence"),
    (lambda: SystemParams.make(3, a=1.0, c=[1.0] * 5), "c has length 5, expected 3 or 4"),
    (lambda: SystemParams.make(3, a=1.0, d=[0.0] * 2), "d has length 2, expected 3 or 4"),
    (lambda: SystemParams.make(3, a=1.0, d=np.zeros((4, 1))),
     "d must be a scalar or 1-D sequence"),
    (lambda: SystemParams.make(3, a=1.0, V_ww=np.ones((1, 4))),
     "V_ww must be a scalar or 1-D sequence"),
    (lambda: SystemParams.make(3, a=1.0, V_vv=[1.0] * 5), "length"),
    (lambda: SystemParams.make(3, a=1.0, V_ww=[1.0] * 3, V_vv=[1.0] * 4),
     "V_\\* sequences must share one length"),
    (lambda: SystemParams.make(3, a=1.0, V_ww=-1.0), "V\\[0\\] is not positive semidefinite"),
    (lambda: SystemParams.make(3, a=1.0, c=[1.0, np.nan, 1.0]), "c must be finite"),
    (_system(V=np.ones((5, 2, 2))), "V has shape \\(5, 2, 2\\)"),
    (_system(V=_blocks([1.0] * 4, [1.0] * 4, [0.0] * 4) + [[0.0, 0.5], [0.0, 0.0]]),
     "V\\[0\\] is not symmetric"),
    (lambda: ChannelParams.make(3, P=[1.0, 2.0], N=1.0), "P has length 2, expected 3"),
    (lambda: ChannelParams.make(3, P=1.0, N=[1.0] * 4), "N has length 4, expected 3"),
    (lambda: ChannelParams.make(3, P=np.ones((3, 2)), N=1.0),
     "P must be a scalar or 1-D sequence"),
    (lambda: ChannelParams.make(3, P=1.0, N=0.0), "N\\(t\\) must be positive for all t"),
    (lambda: ChannelParams.make(3, P=np.inf, N=1.0), "P\\(t\\) must be finite"),
    (lambda: ChannelParams(P=np.ones((3, 2)), N=np.ones(3)), "P and N must have one shape"),
])
def test_input_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
    with pytest.raises(ValueError, match="P has length 3, expected 5"):
        ChannelParams.make(5, P=[1.0, 2.0, 3.0], N=[1.0, 1.0, 1.0])
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


def test_params_copy_inputs_and_share_frozen_arrays():
    # a caller's array, or a read-only view of it, is copied: writing it later
    # leaves the params alone; another params' own arrays are shared
    a = np.full(3, 0.5)
    view = a[:]
    view.setflags(write=False)
    params = SystemParams.make(3, a=a, b=view)
    a[0] = 2.0
    assert params.a[0] == 0.5 and params.b[0] == 0.5
    again = SystemParams.make(3, a=params.a, b=params.b, c=params.c, V_ww=params.V[:, 0, 0])
    assert again.a is params.a and again.b is params.b and again.c is params.c
    assert not (again.a.flags.writeable or again.V.flags.writeable)


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
    # a float, bool or string seed is refused, not truncated or parsed
    for seed in (1.9, 1.0, True, np.bool_(True), "7", None):
        with pytest.raises(ValueError, match="64-bit unsigned integer"):
            RngSeed(seed)
    for seed in (7, np.int64(7), np.uint64(7), np.uint8(7)):
        assert type(RngSeed(seed).seed) is int and RngSeed(seed).seed == 7
    assert RngSeed(np.uint64(2**64 - 1)).seed == 2**64 - 1
    with pytest.raises(ValueError):
        RngSeed(np.int64(-1))
