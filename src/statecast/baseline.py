"""Brute-force linear-scheme optimizer used to certify the closed forms.

Everything here works in the dense operator picture: stack the states into a
vector, write the plant as x = H u for an impulse-response matrix H over the
whitened driving noise, and search over causal (lower-triangular) encoder and
decoder matrices

    minimize (1/T) * ( ||Hx - F S G Hin||_F^2 + ||F S diag(sqrt(N))||_F^2 )
    subject to per-row transmit power  ||(G Hin)_t||^2 <= P(t),

where S is the subdiagonal shift that delays the channel output one step and
pins y(0) = 0.  The decoder is eliminated exactly, as in variable projection
(Golub & Pereyra, Inverse Problems 19, 2003): for a fixed encoder the best F
is a set of nested least-squares regressions, solved by one Cholesky
factorisation of the channel-output Gram matrix, and by the envelope theorem
the reduced objective J(G) has the partial gradient at that F as its
gradient.  The encoder rows are searched in whitened coordinates, where each
power budget is a sphere, by L-BFGS on the product of spheres (Absil, Mahony
& Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008), from many
random restarts.  The problem is nonconvex: the result is the best local
optimum found, and ``converged`` says whether its tangent (KKT) residual
met the tolerance (see ``alternating_optimize``).

Row z(T) reaches no estimate inside the horizon, so the objective never
reads it; the search returns that row as its random start drew it, scaled
to its power budget.

Timeline alignment: rows of G are z(1..T).  For the full-state scheme the
encoder input is x(1..T) and G is lower-triangular in the strict matrix
sense.  For the noisy-state scheme the encoder input is gamma(0..T-1), whose
column timeline sits one step earlier, so "causal" admits one extra band
above the matrix diagonal (z(t) may use gamma(t)); CausalOperator carries
that offset explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ROLE_BASELINE, _coerce_seed, _noise_factors
from .scheme import SchemeKind, _coerce_kind

ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
MIN_STEP = 1e-13
PINV_RCOND = 1e-10
LBFGS_MEMORY = 10
FIRST_ANGLE = 0.1        # radians; first trial of a steepest-descent step
ROUNDING = 1e-13         # relative objective noise tolerated by a step
CURVATURE_FLOOR = 1e-10  # smallest accepted cos(s, y) of an L-BFGS pair


@dataclass(frozen=True)
class CausalOperator:
    """A T x T matrix whose output at time t uses inputs up to time t.

    ``band`` is the number of allowed diagonals above the matrix diagonal; it
    is 0 (strictly lower-triangular) unless the column timeline leads the row
    timeline, as for the noisy-state encoder acting on gamma(0..T-1).
    """

    entries: np.ndarray
    band: int = 0

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        if np.any(np.triu(entries, k=self.band + 1) != 0.0):
            raise ValueError("entries above the causal band must be exactly zero")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def horizon(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class BaselineResult:
    G_opt: CausalOperator
    F_opt: CausalOperator
    objective: float
    per_row_power: np.ndarray
    restarts_run: int
    converged: bool


def _shift_cols(F):
    # Right-multiplication by the shift: (F S)[:, j] = F[:, j + 1].
    FS = np.zeros_like(F)
    FS[:, :-1] = F[:, 1:]
    return FS


def build_H(params):
    """Impulse-response matrix of the plant: x(1..T) = H w(0..T-1).

    Entry (t, s) = b(s) * prod_{r=s+1}^{t-1} a(r); Toeplitz when a, b are
    constant.
    """
    T = params.horizon
    H = np.zeros((T, T))
    for s in range(T):
        gain = params.b[s]
        for t in range(s + 1, T + 1):
            H[t - 1, s] = gain
            if t <= T - 1:
                gain *= params.a[t]
    return CausalOperator(H)


@dataclass(frozen=True)
class _Formulation:
    """Dense operator chain for one scheme (unit-variance driving noise)."""

    Hx: np.ndarray    # states over whitened noise, rows x(1..T)
    Hin: np.ndarray   # encoder inputs over whitened noise
    mask: np.ndarray  # causal support of G
    N: np.ndarray
    P: np.ndarray

    def loss(self, U, D):
        """Objective and its gradient in U for channel inputs z = U u and
        decoder weights D (see ``decoder``)."""
        T = self.Hx.shape[0]
        resid = self.Hx - D.T @ U
        J = (np.sum(resid**2) + np.sum(D**2 * self.N[:, None])) / T
        return J, (-2.0 / T) * D @ resid

    def objective(self, G, F):
        return self.loss(G @ self.Hin, _shift_cols(F).T)[0]

    def decoder(self, U):
        """Exact decoder for the channel inputs z = U u.

        Returns D with D[i, j] the weight of y(i+1) in the estimate of x(j+1)
        (zero unless i < j).  One Cholesky factor L of the output Gram matrix
        serves every row: the leading blocks of L factor the leading blocks
        of the Gram matrix, so B = L^-1 Cov(y, x) cut to i < j and D =
        L^-T B solve all the prefix regressions at once.  A Gram matrix that
        is singular in floating point falls back to row-wise pseudoinverses.
        """
        T = self.Hx.shape[0]
        gram = U @ U.T + np.diag(self.N)
        cyx = U @ self.Hx.T
        try:
            L = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            D = np.zeros((T, T))
            for j in range(1, T):
                sub = np.linalg.pinv(gram[:j, :j], rcond=PINV_RCOND, hermitian=True)
                D[:j, j] = sub @ cyx[:j, j]
            return D
        return np.linalg.solve(L.T, np.triu(np.linalg.solve(L, cyx), 1))

    def optimal_F(self, G):
        # Row t regresses x(t) on y(1..t-1); the y(0) slot stays zero.
        D = self.decoder(G @ self.Hin)
        F = np.zeros_like(D)
        F[:, 1:] = D[:-1].T
        return F

    def row_power(self, G):
        return np.sum((G @ self.Hin) ** 2, axis=1)


def _full_state_formulation(params, channel):
    T = params.horizon
    H = build_H(params).entries
    Hx = H * np.sqrt(params.V[:T, 0, 0])[None, :]
    mask = np.tril(np.ones((T, T)))
    return _Formulation(Hx=Hx, Hin=Hx, mask=mask, N=channel.N, P=channel.P)


def _noisy_state_formulation(params, channel):
    # Whitened noise columns: u_w(0..T-1) then u_v(0..T-1), with
    # w(s) = l11 u_w(s) and v(s) = l21 u_w(s) + l22 u_v(s).
    T = params.horizon
    H = build_H(params).entries
    l11, l21, l22 = _noise_factors(params)
    Hx = np.hstack([H * l11[:T][None, :], np.zeros((T, T))])
    Hgam = np.zeros((T, 2 * T))
    for s in range(T):
        if s >= 1:
            Hgam[s] = params.c[s] * Hx[s - 1]
        Hgam[s, s] += params.d[s] * l21[s]
        Hgam[s, T + s] += params.d[s] * l22[s]
    mask = np.tril(np.ones((T, T)), k=1)
    return _Formulation(Hx=Hx, Hin=Hgam, mask=mask, N=channel.N, P=channel.P)


class _Spheres:
    """The encoder as whitened rows on their power spheres.

    Row t of U = G Hin lies in the row space of the inputs that G's row t
    may use, a prefix Hin[:k] of the input rows.  The prefixes are nested,
    so Gram-Schmidt over the rows of Hin, keeping a direction only when it
    is not already spanned (to PINV_RCOND of the largest row), gives one
    orthonormal basis Q whose first r_t vectors span row t's outputs:
    U_t = sqrt(P_t) x_t Q with x_t zero beyond r_t, and the power budget is
    the unit sphere ||x_t|| = 1.  Rank drops at b=0 or d=0 steps; G is
    recovered by pseudoinverse, and rows with no reachable output keep
    x_t = 0.  ``evaluate`` solves the decoder exactly, so J(x) is the
    reduced objective.
    """

    def __init__(self, form):
        Hin = form.Hin
        floor = PINV_RCOND * np.max(np.linalg.norm(Hin, axis=1))
        basis = np.zeros((0, Hin.shape[1]))
        ranks = []
        for row in Hin:
            for _ in range(2):  # one re-orthogonalisation pass
                row = row - (basis @ row) @ basis
            norm = np.linalg.norm(row)
            if norm > floor:
                basis = np.vstack([basis, row / norm])
            ranks.append(basis.shape[0])
        self.widths = form.mask.sum(axis=1).astype(int)
        self.ranks = np.array(ranks)[self.widths - 1]
        self.live = np.arange(basis.shape[0]) < self.ranks[:, None]
        self.Q = basis
        self.radius = np.sqrt(form.P)[:, None]
        self.form = form

    def from_G(self, G):
        return _retract((G @ self.form.Hin @ self.Q.T) * self.live)

    def to_G(self, x):
        coords = self.form.Hin @ self.Q.T
        G = np.zeros_like(self.form.mask)
        for t, (k, r) in enumerate(zip(self.widths, self.ranks)):
            G[t, :k] = (self.radius[t] * x[t, :r]) @ np.linalg.pinv(coords[:k, :r])
        return G

    def evaluate(self, x):
        """Objective and its gradient along the spheres."""
        U = (self.radius * x) @ self.Q
        J, grad_U = self.form.loss(U, self.form.decoder(U))
        grad = self.radius * (grad_U @ self.Q.T) * self.live
        return J, _tangent(x, grad)


def _tangent(x, v):
    # Component of v tangent to the unit row spheres at x.
    return v - np.sum(v * x, axis=1, keepdims=True) * x


def _retract(x):
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norm > 0, norm, 1.0)


def _lbfgs_direction(grad, pairs):
    """L-BFGS two-loop recursion; ``pairs`` hold (s, y, 1 / s.y), oldest first.

    The initial inverse Hessian is the secant scale s.y / y.y of the newest
    pair taken per row, because the curvature can differ between rows by
    orders of magnitude; a row without positive curvature takes the global
    scale.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * np.vdot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, _ = pairs[-1]
    sy, yy = np.sum(s * y, axis=1), np.sum(y * y, axis=1)
    ok = (sy > 0) & (yy > 0)
    q *= np.where(ok, sy / np.where(ok, yy, 1.0), np.vdot(s, y) / np.vdot(y, y))[:, None]
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.vdot(y, q)) * s
    return -q


def _descend(spheres, x, max_iters, tol):
    """Riemannian L-BFGS with backtracking from unit rows ``x``.

    Returns the final rows, their objective J and their tangent residual
    ||grad|| / J.  A step is accepted on the Armijo condition or, once
    objective differences sink to rounding, on its derivative form at the
    new point.  The search stops when the residual meets ``tol``, after
    ``max_iters`` iterations, or when no steepest-descent step makes
    progress.
    """
    J, grad = spheres.evaluate(x)
    pairs = []
    for _ in range(max_iters):
        gnorm = np.sqrt(np.vdot(grad, grad))
        if gnorm <= tol * J:
            break
        slope = 0.0
        if pairs:
            d = _tangent(x, _lbfgs_direction(grad, pairs))
            slope = np.vdot(grad, d)
        if slope >= 0.0:
            pairs = []
            d = -grad * (FIRST_ANGLE / gnorm)
            slope = np.vdot(grad, d)
        step = 1.0
        while step > MIN_STEP:
            x_new = _retract(x + step * d)
            J_new, grad_new = spheres.evaluate(x_new)
            if (J_new <= J + ARMIJO_SLOPE * step * slope
                    or (J_new <= J * (1.0 + ROUNDING)
                        and np.vdot(grad_new, d) <= (2.0 * ARMIJO_SLOPE - 1.0) * slope)):
                break
            step *= ARMIJO_SHRINK
        else:
            if not pairs:
                break
            pairs = []
            continue
        s, y = x_new - x, grad_new - grad
        sy = np.vdot(s, y)
        if sy > CURVATURE_FLOOR * np.sqrt(np.vdot(s, s) * np.vdot(y, y)):
            pairs = pairs[1 - LBFGS_MEMORY:] + [(s, y, 1.0 / sy)]
        x, J, grad = x_new, J_new, grad_new
    return x, J, (np.sqrt(np.vdot(grad, grad)) / J if J > 0 else 0.0)


def alternating_optimize(params, channel, restarts=20, max_iters=4000,
                         tol=1e-11, seed=0, kind=SchemeKind.FULL_STATE):
    """Minimize the operator objective from random restarts.

    Each restart draws an i.i.d. normal encoder on the causal support, moves
    its rows onto their power spheres, and runs L-BFGS on the reduced
    objective (the decoder solved exactly at every evaluation) until the
    tangent residual falls to ``tol``, ``max_iters`` iterations pass, or no
    step makes progress.  The tangent residual is the norm of the
    objective's gradient along the spheres, with each row in whitened
    coordinates scaled by its radius sqrt(P(t)), divided by the objective:
    the relative first-order change of the objective per radian of row
    rotation.  It is zero exactly at the KKT points of the power-constrained
    problem that have every row at power equality, and power equality loses
    nothing, because a louder row is never less informative.

    Returns the best pair across restarts; ``converged`` says whether that
    pair's tangent residual met ``tol``.  Row z(T) of ``G_opt`` is not
    identified by the objective (see the module docstring).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if channel.P.ndim != 1:
        raise ValueError("the search runs one channel, not a (T, K) batch")
    kind = _coerce_kind(kind)
    seed = _coerce_seed(seed)
    if kind is SchemeKind.FULL_STATE:
        form = _full_state_formulation(params, channel)
        band = 0
    else:
        form = _noisy_state_formulation(params, channel)
        band = 1

    spheres = _Spheres(form)
    best = None
    for r in range(restarts):
        rng = seed.stream(ROLE_BASELINE, r)
        x = spheres.from_G(rng.standard_normal(form.mask.shape) * form.mask)
        x, J, residual = _descend(spheres, x, max_iters, tol)
        if best is None or J < best[1]:
            best = (x, J, residual)

    x, _, residual = best
    G = spheres.to_G(x)
    F = form.optimal_F(G)
    return BaselineResult(
        G_opt=CausalOperator(G, band=band),
        F_opt=CausalOperator(F),
        objective=float(form.objective(G, F)),
        per_row_power=form.row_power(G),
        restarts_run=int(restarts),
        converged=bool(residual <= tol),
    )
