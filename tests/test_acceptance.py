"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
capture) before asserting, so a full run always yields a ten-line scorecard.

Criteria 1, 2 and 9 currently FAIL, and the failures are real: the
brute-force search over causal linear encoder/decoder pairs lands strictly
below the closed-form scheme for horizons T >= 3 (its encoders use memory
taps to pre-subtract predictable state), so "certification" in those
criteria cannot hold as stated.  The unit suite pins the achieved optima as
regression values instead; see also README.md and
demos/certify_small_horizons.py.  The thresholds here are kept as written
on purpose rather than widened to make the suite green.
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
    mse_objective,
    objective_gradient_G,
    paths_from_noise,
    project_power,
    sample_paths,
    state_variance,
    transmitter_filter,
    transmitter_gain_schedule,
)
from oracles import (
    decoder_estimate_rows,
    decoder_reference,
    plant_basis,
    transmitter_reference,
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


def test_criterion_01_full_state_certification(capsys):
    start = time.monotonic()
    gaps = []
    for T, params, channel, a, N in _grid():
        want = analytic_mse(FULL, params, channel).avg_mse_analytic
        res = alternating_optimize(params, channel, restarts=20, seed=0)
        gaps.append(((res.objective - want) / want, T, a, N))
    elapsed = time.monotonic() - start
    hi = max(gaps)
    lo = min(gaps)
    ok = (all(abs(g[0]) <= 1e-3 for g in gaps)
          and all(g[0] >= -1e-6 for g in gaps)
          and elapsed < 120.0)
    _report(capsys, 1, ok,
            f"baseline vs closed form over 24 configs: rel gap in "
            f"[{lo[0]:+.3e} (T={lo[1]} a={lo[2]} N={lo[3]}), "
            f"{hi[0]:+.3e} (T={hi[1]} a={hi[2]} N={hi[3]})], "
            f"required |gap|<=1e-3 and gap>=-1e-6; {elapsed:.1f}s")


def test_criterion_02_filtered_certification(capsys):
    start = time.monotonic()
    gaps = []
    for wv in (0.0, 0.3):
        params = SystemParams.make(3, a=0.9, b=1.0, c=1.0, d=1.0,
                                   V_ww=1.0, V_vv=1.0, V_wv=wv)
        channel = ChannelParams.make(3, P=1.0, N=0.5)
        want = analytic_mse(NOISY, params, channel).avg_mse_analytic
        res = alternating_optimize(params, channel, restarts=20, seed=0,
                                   kind=NOISY)
        gaps.append(((res.objective - want) / want, wv))
    elapsed = time.monotonic() - start
    worst = max(gaps, key=lambda g: abs(g[0]))
    ok = all(abs(g[0]) <= 1e-3 for g in gaps) and elapsed < 60.0
    _report(capsys, 2, ok,
            f"filtered-scheme baseline vs closed form: worst rel gap "
            f"{worst[0]:+.3e} at V_wv={worst[1]}, required <=1e-3; "
            f"{elapsed:.1f}s")


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

    # projected rows never exceed the budget
    rng = np.random.default_rng(3)
    H = build_H(params2)
    over = 0.0
    for _ in range(20):
        G = project_power(np.tril(rng.standard_normal((5, 5))) * 3.0, H,
                          channel2.P).entries
        rows = np.sum((G @ H.entries)**2, axis=1)
        over = max(over, float((rows / channel2.P).max()))
    res = alternating_optimize(params2, channel2, restarts=5, seed=0)
    over = max(over, float((res.per_row_power / channel2.P).max()))

    ok = exact and empirical_dev <= 3.0 and over <= 1.0 + 1e-9
    _report(capsys, 6, ok,
            f"analytic power exact on live steps: {exact}; empirical "
            f"{empirical_dev:.2f} standard errors from P (bound 3); max "
            f"projected row power {over:.12f}*P (bound 1+1e-9)")


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
            float(np.abs(g.beta**2 - full.b**2 * full.V[:T, 0, 0]).max()),
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
    H = build_H(params)
    N = np.full(4, 0.5)
    mask = np.tril(np.ones((4, 4), dtype=bool))
    worst = 0.0
    h = 1e-6
    for _ in range(10):
        G = np.tril(rng.standard_normal((4, 4)))
        F = np.tril(rng.standard_normal((4, 4)))
        an = objective_gradient_G(G, F, H, N)
        fd = np.zeros_like(G)
        for i in range(4):
            for j in range(i + 1):
                Gp, Gm = G.copy(), G.copy()
                Gp[i, j] += h
                Gm[i, j] -= h
                fd[i, j] = (mse_objective(Gp, F, H, N)
                            - mse_objective(Gm, F, H, N)) / (2 * h)
        scale = np.abs(an[mask]).max()
        rel = np.abs(an - fd)[mask] / np.maximum(
            np.maximum(np.abs(an), np.abs(fd)), 1e-9 * scale)[mask]
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-5
    _report(capsys, 8, ok,
            f"objective gradient vs central differences at 10 random "
            f"points, T=4: max entrywise rel err {worst:.2e} (bound 1e-5)")


def test_criterion_09_memoryless_structure(capsys):
    params = SystemParams.make(4, a=0.9)
    channel = ChannelParams.make(4, P=1.0, N=0.5)
    res = alternating_optimize(params, channel, restarts=20, seed=0)
    G = res.G_opt.entries
    diag = np.diag(np.diag(G))
    ratio = float(np.linalg.norm(G - diag) / np.linalg.norm(diag))
    ok = ratio < 1e-3
    _report(capsys, 9, ok,
            f"off-diagonal/diagonal Frobenius energy of the optimized "
            f"encoder map at T=4: {ratio:.2e} (bound 1e-3); the search "
            f"keeps genuine memory taps because they lower the objective")


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
