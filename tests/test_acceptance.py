"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) before asserting, so a full run always yields a ten-line scorecard.

Criteria 1, 2 and 9 certify the brute-force search over causal linear
encoder/decoder pairs and measure the closed-form schemes against it.  The
paper's abstract (PAPER.md) says optimal linear encoders need no memory,
but the closed forms are not the causal-linear optimum beyond T = 2: with no
feedback, once the receiver holds y(t-1) only the posterior uncertainty of
x(t-1) is still worth sending, yet the power budget charges it at its prior
variance, so z(t) should subtract part of x(t-1).  At T = 3 that optimum is
exact and one-dimensional (z(1) can only scale x(1), z(3) reaches no
estimate, so only the angle of z(2) on its power ellipse is free), and
``oracles.full_state_three_step_optimum`` computes it with no package code;
at T = 2 the optimum sends E{x(2) | inputs} (``oracles.two_step_optimum``).
The criteria therefore hold the search to those exact optima where they are
known and to the closed form from above beyond them.  Everywhere the search
must report ``converged`` (its tangent, i.e. KKT, residual met the
tolerance) and survive independent rescoring of its encoder.  Row z(T) is
not identified by the objective, so criterion 9 reads only rows z(1..T-1).
Each criterion prints how far the closed form sits above the optimum.  See
README.md and demos/certify_small_horizons.py.
"""

import dataclasses
import json
import time

import numpy as np

from statecast import (
    ChannelParams,
    RngSeed,
    SchemeKind,
    SystemParams,
    alternating_optimize,
    analytic_mse,
    build_H,
    coupled_decoder_filter,
    coupled_decoder_schedule,
    draw_noise,
    main,
    mean_trajectory,
    monte_carlo_mse,
    paths_from_noise,
    sample_paths,
    state_variance,
    transmitter_filter,
    transmitter_gain_schedule,
)
from statecast.baseline import _Formulation, _shift_cols
from oracles import (
    decoder_estimate_rows,
    decoder_reference,
    full_state_three_step_optimum,
    linear_scheme_mse,
    plant_basis,
    transmitter_reference,
    two_step_optimum,
)

FULL = SchemeKind.FULL_STATE
NOISY = SchemeKind.NOISY_STATE

GRID_T = (2, 3, 4, 5)
GRID_A = (0.5, 0.9, 1.1)
GRID_N = (0.5, 2.0)

# sensor used when the filtered scheme runs on the criterion-1 matrix
SENSOR = dict(c=1.0, d=1.0, V_ww=1.0, V_vv=1.0, V_wv=0.0)


def _report(capsys, num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


def _grid():
    for T in GRID_T:
        for a in GRID_A:
            for N in GRID_N:
                yield (T, SystemParams.make(T, a=a, b=1.0),
                       ChannelParams.make(T, P=1.0, N=N), a, N)


def _certificate(res, params, channel, band):
    """Rescore the search's encoder with the dense oracle.

    True when the reported objective agrees with the oracle's MSE of G_opt
    to 1e-9 relative and no row exceeds its budget by more than 1e-9.
    """
    mse, power = linear_scheme_mse(params, channel, res.G_opt.entries, band)
    return (abs(res.objective - mse) <= 1e-9 * mse
            and bool(np.all(power <= channel.P * (1.0 + 1e-9))))


def _exact_gap_ok(gap):
    return abs(gap) <= 1e-3 and gap >= -1e-6


def test_criterion_01_full_state_certification(capsys):
    start = time.monotonic()
    exact_gaps, upper_gaps, excess = [], [], []
    certified = True
    for T, params, channel, a, N in _grid():
        closed = analytic_mse(FULL, params, channel).avg_mse_analytic
        res = alternating_optimize(params, channel, restarts=20, seed=0)
        certified &= res.converged and _certificate(res, params, channel, 0)
        if T <= 3:
            # exact causal-linear optimum: the closed form at T=2, the
            # one-angle oracle at T=3
            exact = closed if T == 2 else \
                full_state_three_step_optimum(params, channel)[0]
            exact_gaps.append(((res.objective - exact) / exact, T, a, N))
            excess.append(((closed - exact) / exact, T, a, N))
        else:
            upper_gaps.append(((res.objective - closed) / closed, T, a, N))
    elapsed = time.monotonic() - start
    lo, hi = min(exact_gaps), max(exact_gaps)
    up = max(upper_gaps)
    worst_cf = max(excess)
    below = min(upper_gaps)
    ok = (all(_exact_gap_ok(g[0]) for g in exact_gaps)
          and all(g[0] <= 1e-3 for g in upper_gaps)
          and certified and elapsed < 120.0)
    _report(capsys, 1, ok,
            f"search vs exact optimum at T<=3 (12 configs): rel gap in "
            f"[{lo[0]:+.3e}, {hi[0]:+.3e}], required |gap|<=1e-3 and "
            f"gap>=-1e-6; vs closed form at T=4,5: at most {up[0]:+.3e} "
            f"(bound +1e-3); converged and rescored to 1e-9 with row "
            f"power <= P(1+1e-9): {certified}; {elapsed:.1f}s.  Closed form "
            f"above the exact optimum by up to {worst_cf[0]:.3e} (T={worst_cf[1]} "
            f"a={worst_cf[2]} N={worst_cf[3]}), above the search by up to "
            f"{-below[0]:.3e} (T={below[1]} a={below[2]} N={below[3]})")


def test_criterion_02_filtered_certification(capsys):
    start = time.monotonic()
    certified = True
    upper_gaps, exact_gaps = [], []
    closed_at_optimum = True
    for T in (2, 3):
        for wv in (0.0, 0.3):
            params = SystemParams.make(T, a=0.9, b=1.0, c=1.0, d=1.0,
                                       V_ww=1.0, V_vv=1.0, V_wv=wv)
            channel = ChannelParams.make(T, P=1.0, N=0.5)
            closed = analytic_mse(NOISY, params, channel).avg_mse_analytic
            res = alternating_optimize(params, channel, restarts=20, seed=0,
                                       kind=NOISY)
            certified &= res.converged and _certificate(res, params, channel, 1)
            if T == 2:
                exact = two_step_optimum(params, channel, 1)[0]
                exact_gaps.append(((res.objective - exact) / exact, wv,
                                   (closed - exact) / exact))
                if wv == 0.0:
                    closed_at_optimum = abs(closed - exact) <= 1e-12 * exact
            else:
                upper_gaps.append(((res.objective - closed) / closed, wv))
    elapsed = time.monotonic() - start
    worst_exact = max(exact_gaps, key=lambda g: abs(g[0]))
    up = max(upper_gaps)
    excess = max(exact_gaps, key=lambda g: g[2])
    below = min(upper_gaps)
    ok = (all(_exact_gap_ok(g[0]) for g in exact_gaps)
          and all(g[0] <= 1e-3 for g in upper_gaps)
          and certified and closed_at_optimum and elapsed < 60.0)
    _report(capsys, 2, ok,
            f"filtered scheme: search vs exact optimum at T=2, worst rel gap "
            f"{worst_exact[0]:+.3e} at V_wv={worst_exact[1]} (required "
            f"|gap|<=1e-3, gap>=-1e-6); closed form equals it at V_wv=0: "
            f"{closed_at_optimum}; vs closed form at T=3: at most "
            f"{up[0]:+.3e} (bound +1e-3); converged and rescored: "
            f"{certified}; {elapsed:.1f}s.  Closed form above the optimum by "
            f"{excess[2]:.3e} at T=2 V_wv={excess[1]}, above the search by "
            f"{-below[0]:.3e} at T=3 V_wv={below[1]}")


def test_criterion_03_monte_carlo_agreement(capsys):
    n = 100_000
    worst = 0.0
    slowest = 0.0
    for T, params, channel, a, N in _grid():
        noisy_params = SystemParams.make(T, a=a, b=1.0, **SENSOR)
        for kind, p in ((FULL, params), (NOISY, noisy_params)):
            t0 = time.monotonic()
            r = monte_carlo_mse(kind, p, channel, n, seed=0)
            slowest = max(slowest, time.monotonic() - t0)
            dev = np.abs(r.mse_empirical - r.mse_analytic) / r.stderr
            worst = max(worst, float(dev.max()))
    ok = worst <= 3.0 and slowest < 60.0
    _report(capsys, 3, ok,
            f"1e5-sample MSE vs analytic, both schemes, 24 configs: "
            f"worst deviation {worst:.2f} standard errors (bound 3); "
            f"slowest config {slowest:.2f}s")


def test_criterion_04_filters_match_batch_conditioning(capsys):
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 9))
        correlated = bool(seed % 2)
        a = rng.uniform(-1.2, 1.2, T)
        b = rng.uniform(0.3, 2.0, T)
        c = rng.uniform(0.4, 2.0, T + 1)
        d = rng.uniform(0.2, 1.5, T + 1)
        ww = rng.uniform(0.2, 2.0, T + 1)
        vv = rng.uniform(0.2, 2.0, T + 1)
        wv = rng.uniform(-0.8, 0.8, T + 1) * np.sqrt(ww * vv) if correlated \
            else np.zeros(T + 1)
        params = SystemParams.make(T, a=a, b=b, c=c, d=d, V_ww=ww, V_vv=vv,
                                   V_wv=wv, x0=float(rng.uniform(-2, 2)))
        channel = ChannelParams.make(T, P=rng.uniform(0.5, 2.0, T),
                                     N=rng.uniform(0.3, 2.0, T))
        xbar = mean_trajectory(params)

        # transmitter: recursive filter vs dense conditioning on sampled paths
        g = transmitter_gain_schedule(params)
        coef, err_var, xb_rows = transmitter_reference(params)
        w, v = draw_noise(params, 6, RngSeed(seed).stream(0),
                          RngSeed(seed).stream(1))
        x, gamma = paths_from_noise(params, w, v)
        xb = transmitter_filter(params, g, gamma)
        want = xbar + (gamma - params.c * xbar) @ coef.T
        worst = max(worst, float(np.abs(xb - want).max()),
                    float(np.abs(g.filtered_error_var - err_var).max()))

        xrows, _, Sigma, _ = plant_basis(params)
        if correlated:
            # joint receiver recursion vs conditioning on the filtered source
            k_ref, mse_ref = decoder_reference(params, channel, xb_rows, Sigma)
            cd = coupled_decoder_schedule(params, channel, g)
            worst = max(worst, float(np.abs(cd.K - k_ref).max()),
                        float(np.abs(cd.mse - mse_ref).max()))
        else:
            # receiver recursion + filter on the state itself (the filtered
            # scheme behind a noiseless sensor) vs dense conditioning
            V = params.V.copy()
            V[:, 0, 1] = V[:, 1, 0] = V[:, 1, 1] = 0.0
            direct = dataclasses.replace(params, c=1.0, d=0.0, V=V)
            cd = coupled_decoder_schedule(direct, channel)
            k_ref, yrows, coef_rows = decoder_estimate_rows(
                params, channel, xrows, Sigma)
            nch = RngSeed(seed).stream(2).standard_normal((6, T)) \
                * np.sqrt(channel.N)
            z = cd.K * (x[:, 1:] - xbar[1:])
            y = np.zeros((6, T))
            y[:, 1:] = (z + nch)[:, :T - 1]
            got = coupled_decoder_filter(cd, direct, y)
            want = xbar[1:] + y[:, 1:] @ coef_rows[:, :T - 1].T
            worst = max(worst, float(np.abs(cd.K - k_ref).max()),
                        float(np.abs(got - want).max()))
    ok = worst <= 1e-10
    _report(capsys, 4, ok,
            f"recursive filters vs dense Gaussian conditioning, 10 seeded "
            f"configs T<=8: max |diff| {worst:.2e} (bound 1e-10)")


def test_criterion_05_estimate_residual_orthogonality(capsys):
    n = 100_000
    bound = 3.0 / np.sqrt(n)
    worst = 0.0
    for kind, extra in ((FULL, {}), (NOISY, SENSOR)):
        params = SystemParams.make(5, a=0.9, b=1.0, **extra)
        channel = ChannelParams.make(5, P=1.0, N=0.5)
        s = sample_paths(kind, params, channel, n, seed=0)
        est = s.xhat - s.xhat.mean(axis=0)
        res = (s.x[:, 1:] - s.xhat)
        res = res - res.mean(axis=0)
        num = (est * res).mean(axis=0)
        den = est.std(axis=0) * res.std(axis=0)
        corr = np.abs(np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0))
        worst = max(worst, float(corr.max()))
    ok = worst <= bound
    _report(capsys, 5, ok,
            f"estimate/residual correlation at every step, both schemes: "
            f"max |corr| {worst:.2e} (bound 3/sqrt(1e5) = {bound:.2e})")


def test_criterion_06_power_constraint(capsys):
    # analytic transmit power: exactly P(t) on live steps, 0 on dead ones
    params = SystemParams.make(4, a=0.9, b=[0.0, 1.0, 1.0, 1.0])
    channel = ChannelParams.make(4, P=[1.0, 2.0, 0.5, 1.0], N=1.0)
    r = analytic_mse(FULL, params, channel)
    live = state_variance(params)[1:] > 0
    exact = (np.all(r.power_used[live] == channel.P[live])
             and np.all(r.power_used[~live] == 0.0))

    # empirical power within 3 standard errors of P at every step
    params2 = SystemParams.make(5, a=1.1, b=1.0)
    channel2 = ChannelParams.make(5, P=1.3, N=0.5)
    s = sample_paths(FULL, params2, channel2, 100_000, seed=0)
    zsq = s.z**2
    dev = np.abs(zsq.mean(axis=0) - channel2.P) \
        / (zsq.std(axis=0, ddof=1) / np.sqrt(100_000))
    empirical_dev = float(dev.max())

    # the search's rows never exceed the budget
    res = alternating_optimize(params2, channel2, restarts=5, seed=0)
    over = float((res.per_row_power / channel2.P).max())

    ok = exact and empirical_dev <= 3.0 and over <= 1.0 + 1e-9
    _report(capsys, 6, ok,
            f"analytic power exact on live steps: {exact}; empirical "
            f"{empirical_dev:.2f} standard errors from P (bound 3); max "
            f"searched row power {over:.12f}*P (bound 1+1e-9)")


def test_criterion_07_silent_sensor_reduction(capsys):
    worst = 0.0
    for a, b, ww in ((0.9, 1.0, 1.0), ([0.5, 1.1, 0.9, 0.7, 1.0], 1.3, 0.8)):
        T = 5
        full = SystemParams.make(T, a=a, b=b, V_ww=ww)
        noisy = SystemParams.make(T, a=a, b=b, V_ww=ww,
                                  c=1.0, d=0.0, V_vv=1.0, V_wv=0.0)
        channel = ChannelParams.make(T, P=1.0, N=0.5)
        g = transmitter_gain_schedule(noisy)
        worst = max(
            worst,
            float(np.abs(g.sigma_breve_sq - state_variance(full)).max()),
            float(np.abs(g.L[1:]**2 * g.innovation_var[1:] - full.b**2 * full.V[:T, 0, 0]).max()),
            float(np.abs(g.filtered_error_var).max()))
        rf = analytic_mse(FULL, full, channel)
        rn = analytic_mse(NOISY, noisy, channel)
        worst = max(
            worst,
            float(np.abs(rf.mse_analytic - rn.mse_analytic).max()),
            float(np.abs(rf.power_used - rn.power_used).max()))
    ok = worst <= 1e-12
    _report(capsys, 7, ok,
            f"filtered pipeline with a silent sensor vs direct pipeline: "
            f"max |diff| across schedules and MSE {worst:.2e} (bound 1e-12)")


def test_criterion_08_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(8)
    params = SystemParams.make(4, a=0.9)
    H = build_H(params).entries
    mask = np.tril(np.ones((4, 4), dtype=bool))
    # the search's objective chain, decoder given as F
    form = _Formulation(Hx=H, Hin=H, mask=mask, N=np.full(4, 0.5),
                        P=np.ones(4))
    worst = 0.0
    h = 1e-6
    for _ in range(10):
        G = np.tril(rng.standard_normal((4, 4)))
        F = np.tril(rng.standard_normal((4, 4)))
        an = (form.loss(G @ H, _shift_cols(F).T)[1] @ H.T) * mask
        fd = np.zeros_like(G)
        for i in range(4):
            for j in range(i + 1):
                Gp, Gm = G.copy(), G.copy()
                Gp[i, j] += h
                Gm[i, j] -= h
                fd[i, j] = (form.objective(Gp, F)
                            - form.objective(Gm, F)) / (2 * h)
        scale = np.abs(an[mask]).max()
        rel = np.abs(an - fd)[mask] / np.maximum(
            np.maximum(np.abs(an), np.abs(fd)), 1e-9 * scale)[mask]
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-5
    _report(capsys, 8, ok,
            f"objective gradient vs central differences at 10 random "
            f"points, T=4: max entrywise rel err {worst:.2e} (bound 1e-5)")


def _live_memory_ratio(G):
    """Off-diagonal/diagonal Frobenius ratio over the live rows z(1..T-1)."""
    live = G[:-1]
    diag = np.zeros_like(live)
    idx = np.arange(live.shape[0])
    diag[idx, idx] = live[idx, idx]
    return float(np.linalg.norm(live - diag) / np.linalg.norm(diag))


def test_criterion_09_memoryless_structure(capsys):
    # z(T) reaches no estimate inside the horizon, so its row is not
    # identified and only rows z(1..T-1) carry structure.
    params = SystemParams.make(3, a=0.9)
    channel = ChannelParams.make(3, P=1.0, N=0.5)
    res = alternating_optimize(params, channel, restarts=20, seed=0)
    ratio = _live_memory_ratio(res.G_opt.entries)
    exact = _live_memory_ratio(full_state_three_step_optimum(params, channel)[1])
    ok = abs(ratio - exact) <= 1e-3
    _report(capsys, 9, ok,
            f"off-diagonal/diagonal Frobenius energy of the optimized "
            f"encoder's live rows at T=3: {ratio:.6f} against the exact "
            f"optimum's {exact:.6f} (bound 1e-3); the memoryless closed form "
            f"has 0, and the optimal encoder keeps a memory tap")


def test_criterion_10_deterministic_output(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "horizon": 3,
        "system": {"a": 0.9},
        "channel": {"P": 1.0, "N": 0.5},
        "samples": 2000,
        "seed": 11,
        "baseline": {"restarts": 5},
    }))
    outputs = []
    for name in ("out1.csv", "out2.csv"):
        path = tmp_path / name
        code = main(["compare", "--config", str(cfg), "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()  # drop any captured stream noise
    same = outputs[0] == outputs[1]
    ok = same and b"\r" not in outputs[0]
    _report(capsys, 10, ok,
            f"two seeded compare runs byte-identical: {same} "
            f"({len(outputs[0])} bytes, LF-only)")
