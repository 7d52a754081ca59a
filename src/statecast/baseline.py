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
met the tolerance (see ``alternating_optimize``).  The restarts descend in
lock-step, in blocks of ``_BLOCK_RESTARTS``: each round every live restart
evaluates one trial point, and the whole block shares one batched decoder
solve; each restart's path is the one it would take alone.

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

from .kalman import _channel_batch
from .model import ROLE_BASELINE, _coerce_seed, _noise_factors
from .scheme import SchemeKind

ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
MIN_STEP = 1e-13
PINV_RCOND = 1e-10
LBFGS_MEMORY = 10
FIRST_ANGLE = 0.1        # radians; first trial of a steepest-descent step
ROUNDING = 1e-13         # relative objective noise tolerated by a step
CURVATURE_FLOOR = 1e-10  # smallest accepted cos(s, y) of an L-BFGS pair

_BLOCK_RESTARTS = 32     # restarts per lock-step block; bounds the L-BFGS history


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
        decoder weights D (see ``decoder``); U and D may be stacks."""
        T = self.Hx.shape[0]
        resid = self.Hx - D.swapaxes(-1, -2) @ U
        J = (np.sum(resid**2, axis=(-2, -1))
             + np.sum(D**2 * self.N[:, None], axis=(-2, -1))) / T
        return J, (-2.0 / T) * D @ resid

    def objective(self, G, F):
        return self.loss(G @ self.Hin, _shift_cols(F).T)[0]

    def decoder(self, U):
        """Exact decoder for the channel inputs z = U u (or each of a stack).

        Returns D with D[..., i, j] the weight of y(i+1) in the estimate of
        x(j+1) (zero unless i < j).  One Cholesky factor L of the output Gram
        matrix serves every row: the leading blocks of L factor the leading
        blocks of the Gram matrix, so B = L^-1 Cov(y, x) cut to i < j and
        D = L^-T B solve all the prefix regressions at once.  L^-T, the
        inverse of a triangular matrix, is exactly triangular, so D is
        exactly causal.  A Gram matrix that is singular in floating point
        falls back to row-wise pseudoinverses, for its own slice only.
        """
        T = self.Hx.shape[0]
        gram = U @ U.swapaxes(-1, -2) + np.diag(self.N)
        cyx = U @ self.Hx.T
        try:
            Lit = np.linalg.inv(np.linalg.cholesky(gram).swapaxes(-1, -2))
        except np.linalg.LinAlgError:
            if U.ndim > 2:
                return np.stack([self.decoder(u) for u in U])
            D = np.zeros((T, T))
            for j in range(1, T):
                sub = np.linalg.pinv(gram[:j, :j], rcond=PINV_RCOND, hermitian=True)
                D[:j, j] = sub @ cyx[:j, j]
            return D
        return Lit @ np.triu(Lit.swapaxes(-1, -2) @ cyx, 1)

    def optimal_F(self, G):
        # Row t regresses x(t) on y(1..t-1); the y(0) slot stays zero.
        D = self.decoder(G @ self.Hin)
        F = np.zeros_like(D)
        F[:, 1:] = D[:-1].T
        return F


def _formulation(params, channel, band):
    """The operator chain of the scheme whose encoder has causal ``band``:
    FullState (0) encodes x(1..T), NoisyState (1) gamma(0..T-1)."""
    T = params.horizon
    l11, l21, l22 = _noise_factors(params)
    Hx = Hin = build_H(params).entries * l11[:T]
    if band:
        # Whitened noise columns: u_w(0..T-1) then u_v(0..T-1), with
        # w(s) = l11 u_w(s) and v(s) = l21 u_w(s) + l22 u_v(s).
        Hx = np.hstack([Hx, np.zeros((T, T))])
        Hin = np.zeros((T, 2 * T))
        Hin[1:] = params.c[1:T, None] * Hx[:-1]
        s = np.arange(T)
        Hin[s, s] += params.d[:T] * l21[:T]
        Hin[s, T + s] += params.d[:T] * l22[:T]
    mask = np.tril(np.ones((T, T)), k=band)
    return _Formulation(Hx=Hx, Hin=Hin, mask=mask, N=channel.N, P=channel.P)


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
        """Objective and its gradient along the spheres (``x`` may be a stack)."""
        U = (self.radius * x) @ self.Q
        J, grad_U = self.form.loss(U, self.form.decoder(U))
        grad = self.radius * (grad_U @ self.Q.T) * self.live
        return J, _tangent(x, grad)


def _tangent(x, v):
    # Component of v tangent to the unit row spheres at x.
    return v - np.sum(v * x, axis=-1, keepdims=True) * x


def _retract(x):
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(norm > 0, norm, 1.0)


def _dot(a, b):
    # Inner product of each slice of two stacks of rows.
    return np.einsum("...ij,...ij->...", a, b)


def _lbfgs_direction(grad, S, Y, rho, head):
    """L-BFGS two-loop recursion for a stack of restarts.

    The histories S, Y are (R, m, T, W) rings with next free slot ``head``;
    rho = 1 / s.y, and empty slots hold zeros.  Each loop's coefficients
    depend on the earlier ones only through the products s_i.y_j, so each
    loop is one solve over the m slots, unit-triangular once sorted by age.
    The initial inverse Hessian is the secant scale s.y / y.y of the newest
    pair per row, because the curvature can differ between rows by orders of
    magnitude; a row without positive curvature takes the global scale.
    """
    R, m = rho.shape
    age = (head[:, None] - 1 - np.arange(m)) % m
    s, y, g = S.reshape(R, m, -1), Y.reshape(R, m, -1), grad.reshape(R, -1, 1)
    # newer[:, i, j] = s_i.y_j where pair j is newer than pair i, else 0
    newer = (s @ y.swapaxes(-1, -2)) * (age[:, None, :] < age[:, :, None])
    w = rho[:, :, None]
    alpha = np.linalg.solve(np.eye(m) + w * newer, w * (s @ g))
    q = (g - y.swapaxes(-1, -2) @ alpha).reshape(grad.shape)
    s0, y0 = S[np.arange(R), (head - 1) % m], Y[np.arange(R), (head - 1) % m]
    sr, yr = np.sum(s0 * y0, axis=-1), np.sum(y0 * y0, axis=-1)
    ok, yy = (sr > 0) & (yr > 0), np.sum(yr, axis=-1)
    scale = np.divide(np.sum(sr, axis=-1), yy, out=np.zeros(R), where=yy > 0)
    r = (q * np.where(ok, sr / np.where(ok, yr, 1.0), scale[:, None])[..., None]).reshape(g.shape)
    coef = np.linalg.solve(np.eye(m) + w * newer.swapaxes(-1, -2), alpha - w * (y @ r))
    return -(r + s.swapaxes(-1, -2) @ coef).reshape(grad.shape)


def _descend(spheres, x, max_iters, tol):
    """Riemannian L-BFGS with backtracking, in lock-step, from a stack of
    unit rows ``x`` (one restart per slice).

    Returns the final rows (``x``, updated in place), their objectives J and
    their tangent residuals ||grad|| / J.  Each round, every restart that
    begins an iteration applies the stop rules and takes its direction, and
    then every live restart evaluates one trial point in one batched
    ``evaluate``; no restart reads another's numbers.  A step is accepted on
    the Armijo condition or, once objective differences sink to rounding, on
    its derivative form at the new point.  A restart stops when its residual
    meets ``tol``, after ``max_iters`` iterations, or when no steepest-descent
    step makes progress.
    """
    R = x.shape[0]
    J, grad = spheres.evaluate(x)
    S, Y = np.zeros((2, R, LBFGS_MEMORY) + x.shape[1:])
    d, rho, slope, step = np.zeros_like(x), np.zeros((R, LBFGS_MEMORY)), np.zeros(R), np.ones(R)
    head, iters = np.zeros(R, dtype=int), np.zeros(R, dtype=int)
    done, begin = np.zeros(R, dtype=bool), np.ones(R, dtype=bool)
    while True:
        i = np.flatnonzero(begin)
        begin[i] = False
        gnorm = np.sqrt(_dot(grad[i], grad[i]))
        stop = (iters[i] >= max_iters) | (gnorm <= tol * J[i])
        done[i[stop]] = True
        i, gnorm = i[~stop], gnorm[~stop]
        iters[i] += 1
        fresh = ~rho[i].any(axis=1)
        k = i[~fresh]
        if k.size:
            d[k] = _tangent(x[k], _lbfgs_direction(grad, S, Y, rho, head)[k])
            slope[k] = _dot(grad[k], d[k])
        steep = fresh | (slope[i] >= 0.0)
        j = i[steep]
        S[j] = Y[j] = rho[j] = 0.0
        d[j] = grad[j] * (-FIRST_ANGLE / gnorm[steep])[:, None, None]
        slope[j], step[i] = _dot(grad[j], d[j]), 1.0
        live = np.flatnonzero(~done)
        if not live.size:
            break
        x_new = _retract(x[live] + step[live, None, None] * d[live])
        J_new, grad_new = spheres.evaluate(x_new)
        ok = ((J_new <= J[live] + ARMIJO_SLOPE * step[live] * slope[live])
              | ((J_new <= J[live] * (1.0 + ROUNDING))
                 & (_dot(grad_new, d[live]) <= (2.0 * ARMIJO_SLOPE - 1.0) * slope[live])))
        a, b = live[ok], live[~ok]
        s, y = x_new[ok] - x[a], grad_new[ok] - grad[a]
        sy = _dot(s, y)
        pair = sy > CURVATURE_FLOOR * np.sqrt(_dot(s, s) * _dot(y, y))
        p, slot = a[pair], head[a[pair]]
        S[p, slot], Y[p, slot], rho[p, slot] = s[pair], y[pair], 1.0 / sy[pair]
        head[p] = (slot + 1) % LBFGS_MEMORY
        x[a], J[a], grad[a] = x_new[ok], J_new[ok], grad_new[ok]
        step[b] *= ARMIJO_SHRINK
        b = b[step[b] <= MIN_STEP]  # failed searches: stop, or retry without history
        done[b[~rho[b].any(axis=1)]] = True
        b = b[~done[b]]
        rho[b] = 0.0
        begin[a] = begin[b] = True
    return x, J, np.divide(np.sqrt(_dot(grad, grad)), J, out=np.zeros(R), where=J > 0)


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

    The restarts descend in lock-step, ``_BLOCK_RESTARTS`` at a time, with
    one batched decoder solve per round; a restart's path does not depend on
    its neighbours, so the result does not depend on the block size.
    Returns the best pair across restarts (the first, on ties); ``converged``
    says whether that pair's tangent residual met ``tol``.  Row z(T) of
    ``G_opt`` is not identified by the objective (see the module docstring).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if _channel_batch(params, channel):
        raise ValueError("the search runs one channel, not a (T, K) batch")
    seed = _coerce_seed(seed)
    band = int(SchemeKind(kind) is not SchemeKind.FULL_STATE)
    form = _formulation(params, channel, band)

    spheres = _Spheres(form)
    best = None
    for first in range(0, restarts, _BLOCK_RESTARTS):
        block = range(first, min(first + _BLOCK_RESTARTS, restarts))
        G = [seed.stream(ROLE_BASELINE, r).standard_normal(form.mask.shape) for r in block]
        x, J, residual = _descend(spheres, spheres.from_G(np.stack(G) * form.mask), max_iters, tol)
        k = np.argmin(J)
        if best is None or J[k] < best[1]:
            best = (x[k], J[k], residual[k])

    x, _, residual = best
    G = spheres.to_G(x)
    F = form.optimal_F(G)
    return BaselineResult(
        G_opt=CausalOperator(G, band=band),
        F_opt=CausalOperator(F),
        objective=float(form.objective(G, F)),
        per_row_power=np.sum((G @ form.Hin) ** 2, axis=1),
        restarts_run=int(restarts),
        converged=bool(residual <= tol),
    )
