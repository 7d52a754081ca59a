"""Independent reference computations for the test suite.

Everything here is built by brute force from the model equations: variables
are represented as linear maps over the raw per-step noise vector
(w(0), v(0), ..., w(T), v(T), n(1), ..., n(T)) whose covariance is assembled
blockwise, and conditional expectations come from one dense Gaussian
conditioning formula.  No recursion from the package is reused, so agreement
with the package's schedules and filters is meaningful evidence.
``decimal_receiver_mse`` is the one recursion here: the textbook two-state
Kalman filter in high-precision decimal arithmetic, a reference for the
digits double precision can lose at high SNR.  ``reference_record`` writes
the CLI's CSV one cell at a time.
"""

import decimal

import numpy as np


def plant_basis(params):
    """Linear maps of x and gamma over the raw noise coordinates.

    Returns (xrows, grows, Sigma, mean_x): xrows[t] gives the deviation of
    x(t) from its mean as a row over (w(0), v(0), ..., w(T), v(T)); grows
    likewise for gamma(t); Sigma is the block-diagonal noise covariance.
    """
    T = params.horizon
    dim = 2 * (T + 1)
    xrows = np.zeros((T + 1, dim))
    for t in range(T):
        xrows[t + 1] = params.a[t] * xrows[t]
        xrows[t + 1, 2 * t] += params.b[t]
    grows = params.c[:, None] * xrows
    for t in range(T + 1):
        grows[t, 2 * t + 1] += params.d[t]

    Sigma = np.zeros((dim, dim))
    for t in range(T + 1):
        Sigma[2 * t:2 * t + 2, 2 * t:2 * t + 2] = params.V[t]

    mean_x = np.empty(T + 1)
    mean_x[0] = params.x0
    for t in range(T):
        mean_x[t + 1] = params.a[t] * mean_x[t]
    return xrows, grows, Sigma, mean_x


def condition(target_rows, obs_rows, Sigma):
    """Batch Gaussian conditioning of centered variables.

    Returns (coef, cond_var): the estimate of each target given the joint
    observation vector is coef @ obs, and cond_var[i] is the posterior
    variance of target i.  Singular observation covariances are handled by
    pseudoinverse.
    """
    S = obs_rows @ Sigma @ obs_rows.T
    C = target_rows @ Sigma @ obs_rows.T
    coef = C @ np.linalg.pinv(S, rcond=1e-12, hermitian=True)
    prior = target_rows @ Sigma @ target_rows.T
    cond = prior - coef @ C.T
    return coef, np.diag(cond)


def transmitter_reference(params):
    """Batch xbreve(t) = E{x(t) | gamma^t}: coefficient rows and variances.

    Returns (coef, err_var, xb_rows): coef[t] maps the centered gamma(0..T)
    vector to the centered estimate (entries beyond t are zero);
    err_var[t] = E (x(t) - xbreve(t))^2; xb_rows[t] is the estimate's row
    over the raw noise coordinates.
    """
    xrows, grows, Sigma, _ = plant_basis(params)
    T = params.horizon
    coef = np.zeros((T + 1, T + 1))
    err_var = np.zeros(T + 1)
    for t in range(T + 1):
        c_t, v_t = condition(xrows[t:t + 1], grows[:t + 1], Sigma)
        coef[t, :t + 1] = c_t[0]
        err_var[t] = v_t[0]
    xb_rows = coef @ grows
    return coef, err_var, xb_rows


def decoder_reference(params, channel, source_rows, Sigma):
    """Batch decoder for transmitting the rows of ``source_rows``.

    The encoder sends z(t) = k_t * source(t) with k_t = sqrt(P(t)/Var) (zero
    for zero variance); the decoder estimate of x(t) conditions on
    y(1..t-1) = z + channel noise.  Returns (k, mse) with entry i at time
    t = i+1; mse is the error about the plant state x(t).
    """
    T = params.horizon
    xrows = plant_basis(params)[0]
    dim = Sigma.shape[0]
    var = np.array([source_rows[t] @ Sigma @ source_rows[t] for t in range(T + 1)])
    k = np.zeros(T)
    for t in range(1, T + 1):
        if var[t] > 0:
            k[t - 1] = np.sqrt(channel.P[t - 1] / var[t])

    # extend coordinates with the channel noise
    big = np.zeros((dim + T, dim + T))
    big[:dim, :dim] = Sigma
    big[dim:, dim:] = np.diag(channel.N)
    yrows = np.zeros((T, dim + T))
    for t in range(1, T + 1):
        yrows[t - 1, :dim] = k[t - 1] * source_rows[t]
        yrows[t - 1, dim + t - 1] = 1.0

    xbig = np.zeros((T + 1, dim + T))
    xbig[:, :dim] = xrows
    mse = np.zeros(T)
    for t in range(1, T + 1):
        _, v_t = condition(xbig[t:t + 1], yrows[:t - 1], big)
        mse[t - 1] = v_t[0]
    return k, mse


def decoder_estimate_rows(params, channel, source_rows, Sigma):
    """Coefficient rows of xhat(t) = E{x(t) | y^{t-1}} over (noise, n)."""
    T = params.horizon
    xrows = plant_basis(params)[0]
    dim = Sigma.shape[0]
    k, _ = decoder_reference(params, channel, source_rows, Sigma)
    big = np.zeros((dim + T, dim + T))
    big[:dim, :dim] = Sigma
    big[dim:, dim:] = np.diag(channel.N)
    yrows = np.zeros((T, dim + T))
    for t in range(1, T + 1):
        yrows[t - 1, :dim] = k[t - 1] * source_rows[t]
        yrows[t - 1, dim + t - 1] = 1.0
    xbig = np.zeros((T + 1, dim + T))
    xbig[:, :dim] = xrows
    out = np.zeros((T, T))
    for t in range(1, T + 1):
        coef, _ = condition(xbig[t:t + 1], yrows[:t - 1], big)
        out[t - 1, :t - 1] = coef[0]
    return k, yrows, out


def _encoder_inputs(params, band):
    """Rows of the encoder inputs: x(1..T) for band 0, gamma(0..T-1) for band 1."""
    xrows, grows, _, _ = plant_basis(params)
    T = params.horizon
    return xrows[1:] if band == 0 else grows[:T]


def linear_scheme_mse(params, channel, G, band):
    """Average MSE of any causal linear encoder under its MMSE decoder.

    Row t of ``G`` (t = 1..T) forms z(t) from x(1..T) when ``band`` is 0
    (full state) or from gamma(0..T-1) when it is 1 (noisy state); entries
    more than ``band`` places above the diagonal must be zero.  The decoder
    is the conditional mean of x(t) given y(1..t-1).  Returns (avg_mse,
    power) with power[t-1] = E z(t)^2.
    """
    G = np.asarray(G, dtype=float)
    T = params.horizon
    if np.any(np.triu(G, band + 1) != 0.0):
        raise ValueError("encoder is not causal")
    xrows, _, Sigma, _ = plant_basis(params)
    zrows = G @ _encoder_inputs(params, band)
    dim = Sigma.shape[0]
    big = np.zeros((dim + T, dim + T))
    big[:dim, :dim] = Sigma
    big[dim:, dim:] = np.diag(channel.N)
    yrows = np.hstack([zrows, np.eye(T)])
    xbig = np.hstack([xrows, np.zeros((T + 1, T))])
    mse = [condition(xbig[t:t + 1], yrows[:t - 1], big)[1][0]
           for t in range(1, T + 1)]
    power = np.einsum("ti,ij,tj->t", zrows, Sigma, zrows)
    return float(np.mean(mse)), power


def two_step_optimum(params, channel, band):
    """Exact best causal linear encoder at T = 2, either scheme.

    Only y(1) reaches an estimate inside the horizon, and it serves x(2)
    alone, so z(1) should carry the best estimate of x(2) from its inputs:
    z(1) = k E{x(2) | inputs}, scaled to power P(1).  Row z(2) is never read
    and is left zero.  Returns (avg_mse, G).
    """
    if params.horizon != 2:
        raise ValueError("two_step_optimum needs T = 2")
    xrows, _, Sigma, _ = plant_basis(params)
    inputs = _encoder_inputs(params, band)[:1 + band]
    coef, _ = condition(xrows[2:3], inputs, Sigma)
    est = coef[0] @ inputs
    var = float(est @ Sigma @ est)
    G = np.zeros((2, 2))
    if var > 0:
        G[0, :1 + band] = np.sqrt(channel.P[0] / var) * coef[0]
    return linear_scheme_mse(params, channel, G, band)[0], G


def full_state_three_step_optimum(params, channel):
    """Exact best causal linear full-state encoder at T = 3.

    z(1) can only scale x(1), and z(3) reaches no estimate inside the
    horizon, so only z(2) = g1 x(1) + g2 x(2) is free, and only through its
    direction on the power ellipse g M g' = P(2) (M the Gram matrix of
    x(1), x(2)): one angle.  Given y(1), y(2) adds (g.r)^2 / (g K g') to the
    explained variance of x(3), where r = Cov(x(3) - E{x(3)|y(1)}, (x(1),
    x(2))), and K = M - c c' / Var y(1) + (N(2)/P(2)) M uses the power
    equality to fold N(2) into a quadratic form (c = Cov((x(1), x(2)), y(1))).
    That ratio of quadratic forms is maximised exactly at g proportional to
    K^-1 r.  Returns (avg_mse, G); row z(3) is left zero.
    """
    if params.horizon != 3:
        raise ValueError("full_state_three_step_optimum needs T = 3")
    xrows, _, Sigma, _ = plant_basis(params)
    P, N = channel.P, channel.N
    X2 = xrows[1:3]
    M = X2 @ Sigma @ X2.T
    z1 = np.sqrt(P[0] / M[0, 0]) * xrows[1]
    var_y1 = P[0] + N[0]
    c = X2 @ Sigma @ z1
    cov_x3 = X2 @ Sigma @ xrows[3]
    r = cov_x3 - (xrows[3] @ Sigma @ z1) * c / var_y1
    K = M - np.outer(c, c) / var_y1 + (N[1] / P[1]) * M
    g = np.linalg.solve(K, r)
    g *= np.sqrt(P[1] / (g @ M @ g))
    G = np.zeros((3, 3))
    G[0, 0] = np.sqrt(P[0] / M[0, 0])
    G[1, :2] = g
    return linear_scheme_mse(params, channel, G, 0)[0], G


def decimal_receiver_mse(params, channel, digits=60):
    """Receiver MSE of the filtered scheme, computed in ``digits``-digit
    decimal arithmetic by the standard-form covariance recursion.

    The transmitter runs the one-step predictor p(t+1) = a p(t) + J i(t) on
    its innovations i(t) = c (x - p) + d v(t) and sends
    z(t) = k(t) (p(t) + L(t) i(t)), with k(t) = sqrt(P(t) / Var z-source).
    The receiver tracks the pair (x(t), p(t)) given y(1..t-1) with a Kalman
    filter whose process and observation noises are correlated, updating
    the error covariance as A Sigma A' + Q - g g' S.  Direct state
    transmission is the same scheme behind a noiseless sensor (c = 1, d = 0).
    Returns the per-step MSE of x(t), t = 1..T, as floats.
    """
    T = params.horizon
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        zero = D(0)

        def col(arr):
            return [D(float(v)) for v in arr]

        a, b, c, d = col(params.a), col(params.b), col(params.c), col(params.d)
        ww, wv, vv = col(params.V[:, 0, 0]), col(params.V[:, 0, 1]), col(params.V[:, 1, 1])
        P, N = col(channel.P), col(channel.N)

        # transmitter: prediction error Vxi, innovation variance, gains L and
        # J, and the variance of the sent estimate, from Var x minus the
        # filtering error
        Vxi, var_x = [zero], [zero]
        L, J, vi, sent = [], [], [], []
        for t in range(T + 1):
            v_i = c[t] * c[t] * Vxi[t] + d[t] * d[t] * vv[t]
            gl = c[t] * Vxi[t] / v_i if v_i else zero
            L.append(gl)
            vi.append(v_i)
            sent.append(var_x[t] - (Vxi[t] - gl * c[t] * Vxi[t]))
            if t == T:
                break
            gj = (a[t] * c[t] * Vxi[t] + b[t] * d[t] * wv[t]) / v_i if v_i else zero
            J.append(gj)
            Vxi.append(a[t] * a[t] * Vxi[t] + b[t] * b[t] * ww[t] - gj * gj * v_i)
            var_x.append(a[t] * a[t] * var_x[t] + b[t] * b[t] * ww[t])
        k = [(P[t - 1] / sent[t]).sqrt() if sent[t] > 0 else zero
             for t in range(T + 1)]

        # receiver: error covariance of (x(t), p(t)) given y(1..t-1)
        s00 = b[0] * b[0] * ww[0]
        s01 = b[0] * J[0] * d[0] * wv[0]
        s11 = J[0] * J[0] * d[0] * d[0] * vv[0]
        mse = [s00]
        for t in range(1, T):
            # y(t) = h0 x + h1 p + e v(t) + n(t)
            h0, h1, e = k[t] * L[t] * c[t], k[t] * (1 - L[t] * c[t]), k[t] * L[t] * d[t]
            # x(t+1) = a x + b w;  p(t+1) = J c x + (a - J c) p + J d v
            A = ((a[t], zero), (J[t] * c[t], a[t] - J[t] * c[t]))
            q00 = b[t] * b[t] * ww[t]
            q01 = b[t] * J[t] * d[t] * wv[t]
            q11 = J[t] * J[t] * d[t] * d[t] * vv[t]
            cross = (b[t] * e * wv[t], J[t] * d[t] * e * vv[t])
            Sh = (s00 * h0 + s01 * h1, s01 * h0 + s11 * h1)
            S = h0 * Sh[0] + h1 * Sh[1] + e * e * vv[t] + N[t - 1]
            g = [(A[r][0] * Sh[0] + A[r][1] * Sh[1] + cross[r]) / S for r in (0, 1)]
            Sig = ((s00, s01), (s01, s11))
            ASA = [[sum(A[r][i] * Sig[i][j] * A[q][j] for i in (0, 1) for j in (0, 1))
                    for q in (0, 1)] for r in (0, 1)]
            s00 = ASA[0][0] + q00 - g[0] * g[0] * S
            s01 = ASA[0][1] + q01 - g[0] * g[1] * S
            s11 = ASA[1][1] + q11 - g[1] * g[1] * S
            mse.append(s00)
        return np.array([float(m) for m in mse])


CSV_HEADER = "t,mse_analytic,mse_empirical,stderr,power_used\n"


def reference_rows(rows):
    """CSV rows one line and one cell at a time: ``format(v, ".12g")`` of each
    value, an empty cell for None.  Below 1e12 this prints an integer as the
    CLI's integer columns do."""
    return "".join(",".join("" if v is None else format(v, ".12g") for v in row) + "\n"
                   for row in rows)


def reference_record(rows, footer):
    """The CLI's CSV record: header, ``reference_rows`` and '# key = value'
    footer lines (bools as true/false, integers in full, floats at 12 digits)."""
    def text(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v) if isinstance(v, int) else format(v, ".12g")

    return CSV_HEADER + reference_rows(rows) + "".join(
        f"# {key} = {text(value)}\n" for key, value in footer)
