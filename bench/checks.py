"""Correctness gate: independent references and checks on the CLI's CSV.

The references here share no code with ``statecast``:

* ``reference_mse`` is the exact per-step MSE of the closed-form scheme,
  written on plain Python floats from the model equations.  One two-state
  (x, transmitter predictor) recursion covers FullState (c=1, d=0, V_vv=0)
  and NoisyState with or without correlated noise.  ``selftest.py`` checks it
  against the dense Gaussian oracle in ``tests/oracles.py``.
* ``dense_objective`` scores an encoder/decoder pair (G, F) from dense
  impulse-response matrices built here, not by ``statecast.baseline``.

Each ``check_*`` function returns a list of problems; a call with any
problem counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

ANALYTIC_RTOL = 1e-9     # CLI columns against the reference recursion
OBJECTIVE_RTOL = 1e-9    # baseline objective against the dense formula
PRINT_RTOL = 1e-11       # a value against its own 12-digit CSV rendering
REPLAY_RTOL = 1e-12      # replayed per-step values against the CLI's columns
Z_MAX = 5.0              # Monte Carlo: largest |empirical - analytic| / stderr


# ---------------------------------------------------------------- references

def _seq(value, length):
    """Broadcast a config field the way the CLI does (scalars, length T or T+1)."""
    if isinstance(value, (int, float)):
        return [float(value)] * length
    vals = [float(v) for v in value]
    if len(vals) == length - 1:
        vals.append(vals[-1])
    return vals


def model_arrays(config):
    """Plant and channel sequences of one config, with the CLI's defaults."""
    T = config["horizon"]
    s = config["system"]
    ch = config["channel"]
    full = config.get("scheme", "FullState") == "FullState"
    return {
        "T": T,
        "a": _seq(s["a"], T),
        "b": _seq(s.get("b", 1.0), T),
        # FullState observes the state itself
        "c": _seq(1.0 if full else s.get("c", 1.0), T + 1),
        "d": _seq(0.0 if full else s.get("d", 0.0), T + 1),
        "ww": _seq(s.get("V_ww", 1.0), T + 1),
        "vv": _seq(0.0 if full else s.get("V_vv", 0.0), T + 1),
        "wv": _seq(0.0 if full else s.get("V_wv", 0.0), T + 1),
        "P": _seq(ch["P"], T),
        "N": _seq(ch["N"], T),
    }


def reference_mse(config):
    """Exact per-step MSE and transmit power of the closed-form scheme.

    Returns (mse, power), lists of T floats for t = 1 .. T.  The transmitter
    runs the MMSE filter of x(t) from gamma(0..t) with one-step predictor
    p(t); it sends z(t) = k(t) * (xbreve(t) - mean) with k(t)^2 = P(t) /
    Var xbreve(t).  The receiver tracks the error covariance of (x(t), p(t))
    given y(1..t-1); the observation noise k L d v(t) + n(t) is correlated
    with the process noise (b w(t), J d v(t)), and the update accounts for it.
    """
    m = model_arrays(config)
    T = m["T"]
    a, b, c, d = m["a"], m["b"], m["c"], m["d"]
    ww, vv, wv = m["ww"], m["vv"], m["wv"]

    # transmitter filter schedules, t = 0 .. T
    L = [0.0] * (T + 1)
    J = [0.0] * (T + 1)
    var_breve = [0.0] * (T + 1)
    Vxi = 0.0   # Var(x(t) - p(t))
    Vp = 0.0    # Var p(t) about the mean path
    for t in range(T + 1):
        vi = c[t] * c[t] * Vxi + d[t] * d[t] * vv[t]
        gain_w = 0.0
        if vi > 0:
            L[t] = c[t] * Vxi / vi
            gain_w = d[t] * wv[t] / vi      # E{w(t) | innovation} coefficient
        var_breve[t] = Vp + L[t] * L[t] * vi
        if t == T:
            break
        J[t] = a[t] * L[t] + b[t] * gain_w
        f = a[t] - J[t] * c[t]
        Vxi = (f * f * Vxi + b[t] * b[t] * ww[t] - 2.0 * b[t] * J[t] * d[t] * wv[t]
               + J[t] * J[t] * d[t] * d[t] * vv[t])
        Vp = a[t] * a[t] * Vp + J[t] * J[t] * vi

    k = [math.sqrt(m["P"][t - 1] / var_breve[t]) if var_breve[t] > 0 else 0.0
         for t in range(T + 1)]
    power = [m["P"][t - 1] if var_breve[t] > 0 else 0.0 for t in range(1, T + 1)]

    def noise_cov(t):
        bw, jdv = b[t], J[t] * d[t]
        return bw * bw * ww[t], bw * jdv * wv[t], jdv * jdv * vv[t]

    s00, s01, s11 = noise_cov(0)   # nothing received before t = 1
    mse = [s00]
    for t in range(1, T):
        kt = k[t]
        C0, C1 = kt * L[t] * c[t], kt * (1.0 - L[t] * c[t])
        var_obs = (kt * L[t] * d[t]) ** 2 * vv[t] + m["N"][t - 1]
        e, f = J[t] * c[t], a[t] - J[t] * c[t]
        U0 = b[t] * kt * L[t] * d[t] * wv[t]
        U1 = J[t] * d[t] * kt * L[t] * d[t] * vv[t]
        m0, m1 = s00 * C0 + s01 * C1, s01 * C0 + s11 * C1
        S = C0 * m0 + C1 * m1 + var_obs
        g0 = (a[t] * m0 + U0) / S
        g1 = (e * m0 + f * m1 + U1) / S
        q00, q01, q11 = noise_cov(t)
        s00, s01, s11 = (a[t] * a[t] * s00 + q00 - S * g0 * g0,
                         a[t] * (e * s00 + f * s01) + q01 - S * g0 * g1,
                         e * e * s00 + 2.0 * e * f * s01 + f * f * s11 + q11 - S * g1 * g1)
        mse.append(s00)
    return mse, power


def _dense_operators(config):
    """(Hx, Hin) over whitened driving noise for the scheme of ``config``.

    Rows of Hx are x(1..T).  FullState encodes x(1..T), so Hin = Hx.
    NoisyState encodes gamma(0..T-1) and the noise columns are
    (u_w(0..T-1), u_v(0..T-1)) with w = l11 u_w, v = l21 u_w + l22 u_v.
    """
    m = model_arrays(config)
    T = m["T"]
    # H[t-1, s]: response of x(t) to w(s) = b(s) * a(s+1) ... a(t-1)
    H = np.zeros((T, T))
    for s in range(T):
        g = m["b"][s]
        for t in range(s + 1, T + 1):
            H[t - 1, s] = g
            if t < T:
                g *= m["a"][t]
    l11 = np.sqrt(np.array(m["ww"][:T]))
    if config.get("scheme", "FullState") == "FullState":
        Hx = H * l11[None, :]
        return Hx, Hx
    wv, vv = np.array(m["wv"][:T]), np.array(m["vv"][:T])
    l21 = np.where(l11 > 0, wv / np.where(l11 > 0, l11, 1.0), 0.0)
    l22 = np.sqrt(np.maximum(vv - l21**2, 0.0))
    Hx = np.hstack([H * l11[None, :], np.zeros((T, T))])
    Hin = np.zeros((T, 2 * T))
    for s in range(T):
        if s >= 1:
            Hin[s] = m["c"][s] * Hx[s - 1]
        Hin[s, s] += m["d"][s] * l21[s]
        Hin[s, T + s] += m["d"][s] * l22[s]
    return Hx, Hin


def dense_objective(config, G, F):
    """Average MSE of the pair (G, F) and the per-row transmit power.

    xhat = F y with y(0) = 0 and y(t) = z(t) + n(t) delayed one step, i.e.
    y = D (z + n) for the subdiagonal delay D.  The error is
    (Hx - F D G Hin) u - F D n, so
    MSE = (||Hx - F D G Hin||^2 + sum_j N_j ||(F D)[:, j]||^2) / T.
    """
    Hx, Hin = _dense_operators(config)
    T = Hx.shape[0]
    N = np.array(model_arrays(config)["N"])
    FD = F @ np.eye(T, k=-1)
    resid = Hx - FD @ G @ Hin
    objective = (np.sum(resid**2) + np.sum(FD**2 * N[None, :])) / T
    return float(objective), np.sum((G @ Hin) ** 2, axis=1)


# ---------------------------------------------------------------- CSV parsing

def _num(text):
    return None if text == "" else float(text)


def parse_footer(text):
    """The ``# key = value`` lines of one output (the last value per key)."""
    return dict(line[2:].split(" = ", 1) for line in text.splitlines()
                if line.startswith("# ") and " = " in line)


def parse_record(lines):
    """Rows and footer of one ``render_record`` block (list of lines)."""
    if not lines or lines[0] != "t,mse_analytic,mse_empirical,stderr,power_used":
        raise ValueError("missing CSV header")
    rows, footer = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if not sep:
                raise ValueError(f"bad footer line {line!r}")
            footer[key] = value
        else:
            t, *rest = line.split(",")
            if len(rest) != 4:
                raise ValueError(f"bad row {line!r}")
            rows.append((int(t), *(_num(v) for v in rest)))
    return rows, footer


def parse_sweep(text):
    """Per-value records and the summary pairs of one ``sweep`` output."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    lines = lines[:-1]
    try:
        cut = lines.index("# sweep summary")
    except ValueError:
        raise ValueError("missing sweep summary") from None
    records, current = [], None
    for line in lines[:cut]:
        if line.startswith("# sweep "):
            current = []
            records.append((float(line.rpartition(" = ")[2]), current))
        elif current is None:
            raise ValueError("record before the first sweep marker")
        else:
            current.append(line)
    summary = [tuple(float(v) for v in line.split(",")) for line in lines[cut + 2:]]
    return [(v, parse_record(rec)) for v, rec in records], summary


# ---------------------------------------------------------------- checks

def _close(x, ref, rtol):
    return x is not None and math.isfinite(x) and abs(x - ref) <= rtol * max(abs(ref), 1e-300)


def _check_columns(rows, mse_ref, power_ref, problems, where="", exact_power=True):
    """Analytic MSE column, and the exact power column unless it is empirical."""
    if [r[0] for r in rows] != list(range(1, len(mse_ref) + 1)):
        problems.append(f"{where}row count or t column differs from horizon {len(mse_ref)}")
        return
    for (t, mse, _emp, _se, power), m, p in zip(rows, mse_ref, power_ref):
        if not _close(mse, m, ANALYTIC_RTOL):
            problems.append(f"{where}mse_analytic(t={t}) = {mse} but reference {m!r}")
            return
        if exact_power and not (power == p == 0.0 or _close(power, p, ANALYTIC_RTOL)):
            problems.append(f"{where}power_used(t={t}) = {power} but reference {p!r}")
            return


def _footer_float(footer, key, problems):
    try:
        value = float(footer[key])
    except (KeyError, ValueError):
        problems.append(f"footer {key} missing or not a number")
        return None
    if not math.isfinite(value):
        problems.append(f"footer {key} is not finite")
        return None
    return value


def check_analytic(text, reference):
    """``analytic`` or ``baseline`` output against the reference recursion."""
    problems = []
    rows, footer = parse_record(text.rstrip("\n").split("\n"))
    mse_ref, power_ref = reference
    _check_columns(rows, mse_ref, power_ref, problems)
    if any(r[2] is not None or r[3] is not None for r in rows):
        problems.append("empirical columns filled in an analytic run")
    avg = _footer_float(footer, "avg_mse_analytic", problems)
    if avg is not None and not _close(avg, sum(mse_ref) / len(mse_ref), ANALYTIC_RTOL):
        problems.append(f"avg_mse_analytic = {avg} differs from the reference")
    return problems, footer


def check_sweep(text, config, references):
    """``sweep`` output: every per-value record and the summary table."""
    problems = []
    values = config["sweep"]["values"]
    records, summary = parse_sweep(text)
    if [v for v, _ in records] != values or [v for v, _ in summary] != values:
        return [f"swept values differ from the config ({len(records)} records)"]
    for (value, (rows, footer)), (_, avg), (mse_ref, power_ref) in zip(records, summary, references):
        where = f"P={value}: "
        _check_columns(rows, mse_ref, power_ref, problems, where)
        ref_avg = sum(mse_ref) / len(mse_ref)
        if not _close(avg, ref_avg, ANALYTIC_RTOL):
            problems.append(f"{where}summary avg {avg} differs from reference {ref_avg!r}")
        if footer.get("avg_mse_analytic") != f"{avg:.12g}":
            problems.append(f"{where}record footer disagrees with the summary")
        if problems:
            break
    return problems


def check_simulate(text, config, reference):
    """``simulate`` output: analytic columns, z-scores and empirical power."""
    problems = []
    rows, footer = parse_record(text.rstrip("\n").split("\n"))
    mse_ref, power_ref = reference
    n = config["samples"]
    _check_columns(rows, mse_ref, power_ref, problems, exact_power=False)
    worst_z = 0.0
    for t, mse, emp, se, power in rows:
        if emp is None or se is None or not (math.isfinite(emp) and se > 0):
            problems.append(f"t={t}: missing or degenerate Monte Carlo columns")
            break
        worst_z = max(worst_z, abs(emp - mse) / se)
        P = power_ref[t - 1]
        if abs(power - P) > Z_MAX * P * math.sqrt(2.0 / n):
            problems.append(f"t={t}: empirical power {power} outside 5 P sqrt(2/n) of P = {P}")
            break
    if worst_z > Z_MAX:
        problems.append(f"Monte Carlo |z| reaches {worst_z:.2f} > {Z_MAX}")
    if footer.get("samples") != str(n):
        problems.append(f"footer samples = {footer.get('samples')} but config asks {n}")
    _footer_float(footer, "avg_mse_empirical", problems)
    return problems, footer


def check_baseline(text, config, reference):
    """``baseline`` output: analytic columns plus a consistent optimizer footer."""
    problems, footer = check_analytic(text, reference)
    avg = _footer_float(footer, "avg_mse_analytic", problems)
    obj = _footer_float(footer, "baseline_objective", problems)
    gap = _footer_float(footer, "baseline_gap_rel", problems)
    if None not in (avg, obj, gap):
        if not obj > 0:
            problems.append("baseline objective is not positive")
        elif abs((obj - avg) / avg - gap) > 1e-9:
            problems.append("baseline_gap_rel disagrees with the objective")
    if footer.get("baseline_restarts") != str(config["baseline"]["restarts"]):
        problems.append("baseline_restarts differs from the config")
    if footer.get("baseline_converged") not in ("true", "false"):
        problems.append("baseline_converged is not a boolean")
    return problems, footer


def check_certificate(config, result, footer):
    """Re-score the optimizer's own (G, F) with ``dense_objective``."""
    problems = []
    G, F = np.asarray(result.G_opt.entries), np.asarray(result.F_opt.entries)
    objective, power = dense_objective(config, G, F)
    if not _close(result.objective, objective, OBJECTIVE_RTOL):
        problems.append(f"reported objective {result.objective!r} but dense formula gives {objective!r}")
    if not _close(float(footer["baseline_objective"]), result.objective, PRINT_RTOL):
        problems.append("CLI objective differs from the direct call with the same arguments")
    P = np.array(model_arrays(config)["P"])
    if np.any(power > P * (1 + 1e-9)):
        problems.append(f"row power exceeds the budget by up to {float(np.max(power / P)) - 1:.3g}")
    return problems


COLUMNS = ("mse_analytic", "mse_empirical", "stderr", "power_used")


def csv_columns(case, text):
    """The value columns of each record of one output: a (T, 4) float array
    per record, in ``COLUMNS`` order, with nan where a field is empty."""
    if case.command == "sweep":
        records = [rows for _, (rows, _) in parse_sweep(text)[0]]
    else:
        records = [parse_record(text.rstrip("\n").split("\n"))[0]]
    return [np.array([[math.nan if v is None else v for v in row[1:]] for row in rows],
                     dtype=float).reshape(-1, 4) for rows in records]


def check_replay(columns, results):
    """Replayed results against the CLI's columns of the same config.

    Each value must equal the CLI's to ``REPLAY_RTOL``.  The CSV holds the
    CLI's values rounded to 12 significant digits, so half a unit of the
    12th printed digit is allowed on top.
    """
    if len(columns) != len(results):
        return [f"replay has {len(results)} records, the CLI {len(columns)}"]
    for i, (printed, result) in enumerate(zip(columns, results)):
        T = len(result.mse_analytic)
        replayed = np.column_stack([np.full(T, np.nan) if c is None else np.asarray(c, float)
                                    for c in (result.mse_analytic, result.mse_empirical,
                                              result.stderr, result.power_used)])
        if replayed.shape != printed.shape:
            return [f"record {i}: replay has {T} rows, the CLI {len(printed)}"]
        empty = np.isnan(printed)
        if np.any(empty != np.isnan(replayed)):
            return [f"record {i}: replay and CLI fill different columns"]
        magnitude = np.where(empty | (printed == 0), 1.0, np.abs(printed))
        half_digit = np.where(printed == 0, 0.0, 0.5 * 10.0 ** (np.floor(np.log10(magnitude)) - 11))
        bad = ~empty & ~(np.abs(printed - replayed) <= REPLAY_RTOL * np.abs(replayed) + half_digit)
        if np.any(bad):
            t, col = np.argwhere(bad)[0]
            return [f"record {i}: replayed {COLUMNS[col]}(t={t + 1}) = {float(replayed[t, col])!r}"
                    f" but the CLI printed {float(printed[t, col])!r}"]
    return []


def check_output(case, exit_code, text, reference):
    """All checks for one CLI call; returns (problems, footer)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    try:
        if case.command == "analytic":
            return check_analytic(text, reference)
        if case.command == "sweep":
            return check_sweep(text, case.config, reference), {}
        if case.command == "simulate":
            return check_simulate(text, case.config, reference)
        return check_baseline(text, case.config, reference)
    except ValueError as exc:   # unparsable output
        return [f"malformed output: {exc}"], {}


def reference_for(case):
    """Reference values for ``check_output``: one per swept value for sweeps."""
    if case.command != "sweep":
        return reference_mse(case.config)
    field = case.config["sweep"]["field"]
    refs = []
    for value in case.config["sweep"]["values"]:
        cfg = dict(case.config)
        section = "system" if field == "a" else "channel"
        cfg[section] = {**case.config[section], field: value}
        refs.append(reference_mse(cfg))
    return refs
