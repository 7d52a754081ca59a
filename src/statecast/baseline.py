"""Brute-force linear-scheme optimizer used to certify the closed forms.

Everything here works in the dense operator picture: stack the states into a
vector, write the plant as x = H u for an impulse-response matrix H over the
whitened driving noise, and search over causal (lower-triangular) encoder and
decoder matrices

    minimize (1/T) * ( ||Hx - F S G Hin||_F^2 + ||F S diag(sqrt(N))||_F^2 )
    subject to per-row transmit power  ||(G Hin)_t||^2 <= P(t),

where S is the subdiagonal shift that delays the channel output one step and
pins y(0) = 0.  The problem is nonconvex; the optimizer alternates an exact
decoder step (row-wise least squares) with one Armijo-backtracked projected
gradient step on the encoder, from many random restarts.

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


def _entries(op):
    if isinstance(op, CausalOperator):
        return op.entries
    return np.asarray(op, dtype=float)


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

    def objective(self, G, F):
        FS = _shift_cols(F)
        resid = self.Hx - FS @ (G @ self.Hin)
        noise = np.sum(FS**2 * self.N)
        T = self.Hx.shape[0]
        return (np.sum(resid**2) + noise) / T

    def optimal_F(self, G):
        # Row t regresses x(t) on y(1..t-1); the deterministic y(0) slot is
        # excluded and residual singular directions are pseudoinverted.
        T = self.Hx.shape[0]
        Z = G @ self.Hin
        gram = Z @ Z.T + np.diag(self.N)
        cxy = self.Hx @ Z.T
        F = np.zeros((T, T))
        for t in range(2, T + 1):
            m = t - 1
            sub = np.linalg.pinv(gram[:m, :m], rcond=PINV_RCOND, hermitian=True)
            F[t - 1, 1:m + 1] = sub @ cxy[t - 1, :m]
        return F

    def gradient_G(self, G, F):
        FS = _shift_cols(F)
        resid = self.Hx - FS @ (G @ self.Hin)
        T = self.Hx.shape[0]
        return (-2.0 / T) * (FS.T @ resid @ self.Hin.T) * self.mask

    def row_power(self, G):
        return np.sum((G @ self.Hin) ** 2, axis=1)

    def project(self, G):
        power = self.row_power(G)
        live = power > 0
        scale = np.where(live, np.minimum(1.0, np.sqrt(self.P / np.where(live, power, 1.0))), 1.0)
        return G * scale[:, None]

    def random_init(self, rng):
        G = rng.standard_normal(self.mask.shape) * self.mask
        power = self.row_power(G)
        live = power > 0
        scale = np.where(live, np.sqrt(self.P / np.where(live, power, 1.0)), 1.0)
        return G * scale[:, None]


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


def _problem1_formulation(G, F, H, N):
    H = _entries(H)
    T = H.shape[0]
    G, F = _entries(G), _entries(F)
    if G.shape != (T, T) or F.shape != (T, T):
        raise ValueError("operator dimensions disagree")
    N = np.broadcast_to(np.asarray(N, dtype=float), (T,))
    form = _Formulation(Hx=H, Hin=H, mask=np.tril(np.ones((T, T))),
                        N=N, P=np.ones(T))
    return form, G, F


def mse_objective(G, F, H, N):
    """Average MSE (1/T)(||H - F S G H||_F^2 + ||F S diag(sqrt N)||_F^2)."""
    form, G, F = _problem1_formulation(G, F, H, N)
    return float(form.objective(G, F))


def optimal_F_given_G(G, H, N):
    """Exact decoder for a fixed encoder: row-wise MMSE regression."""
    form, G, _ = _problem1_formulation(G, np.zeros_like(_entries(H)), H, N)
    return CausalOperator(form.optimal_F(G))


def project_power(G, H, P):
    """Scale each encoder row onto its power budget (no-op when feasible)."""
    H = _entries(H)
    T = H.shape[0]
    P = np.broadcast_to(np.asarray(P, dtype=float), (T,))
    form = _Formulation(Hx=H, Hin=H, mask=np.tril(np.ones((T, T))),
                        N=np.ones(T), P=P)
    G_arr = _entries(G)
    projected = form.project(G_arr)
    band = G.band if isinstance(G, CausalOperator) else 0
    return CausalOperator(projected, band=band)


def objective_gradient_G(G, F, H, N):
    """Gradient of mse_objective in the free (lower-triangular) entries of G."""
    form, G, F = _problem1_formulation(G, F, H, N)
    return form.gradient_G(G, F)


def _optimize_one(form, rng, max_iters, tol):
    G = form.random_init(rng)
    J_prev = None
    met_tol = False
    for _ in range(max_iters):
        F = form.optimal_F(G)
        J = form.objective(G, F)

        grad = form.gradient_G(G, F)
        grad_sq = float(np.sum(grad**2))
        if grad_sq > 0.0:
            step = 1.0
            while step > MIN_STEP:
                cand = form.project(G - step * grad)
                J_cand = form.objective(cand, F)
                if J_cand <= J - ARMIJO_SLOPE * step * grad_sq:
                    G, J = cand, J_cand
                    break
                step *= ARMIJO_SHRINK

        if J_prev is not None and J_prev - J <= tol * J_prev:
            met_tol = True
            break
        J_prev = J
    F = form.optimal_F(G)
    return G, F, form.objective(G, F), met_tol


def alternating_optimize(params, channel, restarts=20, max_iters=4000,
                         tol=1e-11, seed=0, kind=SchemeKind.FULL_STATE):
    """Minimize the operator objective from random restarts.

    Each restart draws an i.i.d. normal encoder scaled to power equality,
    then alternates {exact decoder, one projected-gradient encoder step with
    Armijo backtracking} until the relative objective decrease drops below
    ``tol`` or ``max_iters`` is hit.  Returns the best pair across restarts;
    ``converged`` records whether any restart met ``tol``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    kind = _coerce_kind(kind)
    seed = _coerce_seed(seed)
    if kind is SchemeKind.FULL_STATE:
        form = _full_state_formulation(params, channel)
        band = 0
    else:
        form = _noisy_state_formulation(params, channel)
        band = 1

    best = None
    converged = False
    for r in range(restarts):
        rng = seed.stream(ROLE_BASELINE, r)
        G, F, J, met_tol = _optimize_one(form, rng, max_iters, tol)
        converged = converged or met_tol
        if best is None or J < best[2]:
            best = (G, F, J)

    G, F, J = best
    return BaselineResult(
        G_opt=CausalOperator(G, band=band),
        F_opt=CausalOperator(F),
        objective=float(J),
        per_row_power=form.row_power(G),
        restarts_run=int(restarts),
        converged=converged,
    )
