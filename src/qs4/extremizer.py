"""Fixed-point ascent for extremizers of the Strichartz quotient.

The stationarity condition for the quotient restricted to the unit L2 sphere
is Lambda(f) = omega f with omega = <f, Lambda(f)>, so unit-norm extremizers
are fixed points of f -> Lambda(f)/||Lambda(f)||.  run_iteration accelerates
that map by type-II Anderson mixing over the last _DEPTH accepted steps, so
it knows two step rules, the plain step and the mixed one.  The ascent guard
is the safeguard: a mixed step that lowers the quotient is discarded for a
plain one (a fallback), and a plain step that lowers it aborts the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .functional import TimeWindow, el_map, spacetime_norm
from .grid import (
    Field,
    Grid2D,
    dft_forward,
    inner_product,
    make_gaussian,
    spectral_cutoff,
)
from .profiles import SymmetryParams, apply_symmetry

__all__ = [
    "IterationConfig",
    "ExtremizerReport",
    "DiagnosticsSummary",
    "run_iteration",
    "recenter",
    "diagnostics",
]

# A step may lower the quotient by this much and still be accepted.
_ASCENT_SLACK = 1e-8
# Accepted steps the Anderson mixing combines.  Each holds two fields, so the
# history costs 2 * _DEPTH * 16 n^2 bytes.
_DEPTH = 10


@dataclass(frozen=True)
class IterationConfig:
    """Everything needed for a reproducible extremizer run."""

    grid: Grid2D
    window: TimeWindow
    max_iters: int = 500
    tol_residual: float = 1e-3
    seed_width: float = 0.8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.tol_residual < np.inf:
            raise ValidationError(f"tol_residual must be positive and finite, got {self.tol_residual}")

    def make_seed(self) -> Field:
        """The unit-norm Gaussian of width seed_width; pass run_iteration an
        `initial` field to start anywhere else."""
        return _normalize(make_gaussian(self.grid, width=self.seed_width))


@dataclass(frozen=True)
class ExtremizerReport:
    """Outcome of a run: the accepted quotient trajectory, the final unit-norm
    field, its Euler-Lagrange residual, and the multiplier omega."""

    quotient_history: tuple
    final_field: Field
    residual: float
    omega: float
    converged: bool
    n_iters: int
    n_fallbacks: int


@dataclass(frozen=True)
class DiagnosticsSummary:
    """Independent checks of a report at doubled time resolution: the
    quotient against the reported one, and the Euler-Lagrange residual."""

    quotient_reported: float
    quotient_refined: float
    quotient_discrepancy: float
    discrepancy_flagged: bool
    residual_refined: float


def _normalize(f: Field) -> Field:
    nrm = f.l2_norm()
    if nrm == 0:
        raise ValidationError("cannot normalize the zero field")
    return Field(f.grid, f.values / nrm)


def _evaluate(f: Field, w: TimeWindow) -> tuple:
    """(Lambda f, omega, quotient, residual) for unit-norm f in the guarded band.

    el_map returns Lambda(f) already projected onto the guarded band, the
    subspace the ascent maximizes over, so the residual measures that
    stationarity condition and the mass the anti-aliasing guard discards is
    not charged against the fixed-point defect.
    """
    lam = el_map(f, w)
    omega = float(inner_product(f, lam).real)
    lam_norm = lam.l2_norm()
    residual = (lam - omega * f).l2_norm() / lam_norm
    return lam, omega, omega ** (1.0 / 6.0), residual


def run_iteration(cfg: IterationConfig, initial: Field | None = None) -> ExtremizerReport:
    """Drive f to a fixed point of f -> Lambda(f)/||Lambda(f)|| by Anderson
    mixing, safeguarded by the ascent guard.

    At the iterate f the plain step is g = Lambda(f)/||Lambda(f)||, with
    residual r = g - f.  The mixed candidate is
    normalize(g - sum_i gamma_i (g - g_i)), where (g_i, r_i) are the plain
    steps and residuals of the last _DEPTH accepted iterates and the real
    gamma minimizes ||r - sum_i gamma_i (r - r_i)||.  Real coefficients keep
    a real seed's iterates exactly real.

    A mixed candidate that lowers the quotient by more than _ASCENT_SLACK is
    discarded for the plain step normalize(g) and counted in n_fallbacks;
    the mixing history is kept.  The sextic form Q is convex on the padded
    lattice with gradient Lambda on the band, so
    Q(h) >= Q(f) + 6 Re<h - f, Lambda f> >= Q(f) for h = g, and damping
    toward f cannot rescue a plain step that fails: that means rounding
    above the slack or a broken gradient, and raises DivergenceError.  The
    history holds accepted steps only, nondecreasing up to the slack, and
    n_iters (el_map evaluations) = len(quotient_history) + n_fallbacks.

    The seed (or `initial`) is projected once onto el_map's guarded band,
    removing a mass fraction on the order of the guard tolerance; every step
    is a combination of fields in that band and stays there, where the
    ascent is a well-posed maximization.  The final field must pass the
    window's tail gate (TailTestError).
    """
    if initial is None:
        initial = cfg.make_seed()
    elif initial.grid != cfg.grid:
        raise ValidationError("initial field grid does not match the config grid")
    f = _normalize(spectral_cutoff(initial, 0.0, cfg.grid.band))

    lam, omega, quotient, residual = _evaluate(f, cfg.window)
    history = [quotient]
    converged = residual < cfg.tol_residual
    n_iters = 1
    n_fallbacks = 0
    steps, residuals = deque(maxlen=_DEPTH), deque(maxlen=_DEPTH)
    mixed = False

    while not converged and n_iters < cfg.max_iters:
        g = (1.0 / lam.l2_norm()) * lam.values
        r = g - f.values
        step = _anderson_step(g, r, steps, residuals) if mixed else g
        candidate = _normalize(Field(f.grid, step))
        lam_c, omega_c, q_c, res_c = _evaluate(candidate, cfg.window)
        n_iters += 1
        if q_c < quotient - _ASCENT_SLACK:
            if not mixed:
                raise DivergenceError(
                    f"plain step lowered the quotient from {quotient:.12g} "
                    f"to {q_c:.12g} (evaluation {n_iters})"
                )
            n_fallbacks += 1
            mixed = False
            continue
        steps.append(g)
        residuals.append(r)
        mixed = True
        f, lam, omega, quotient, residual = candidate, lam_c, omega_c, q_c, res_c
        history.append(quotient)
        converged = residual < cfg.tol_residual

    # el_map applies no tail gate: the final field must pass the one the
    # quotient's norm applies
    spacetime_norm(f, cfg.window)
    return ExtremizerReport(
        quotient_history=tuple(history),
        final_field=f,
        residual=float(residual),
        omega=float(omega),
        converged=bool(converged),
        n_iters=n_iters,
        n_fallbacks=n_fallbacks,
    )


def _anderson_step(g: np.ndarray, r: np.ndarray, steps: deque, residuals: deque) -> np.ndarray:
    """g - sum_i gamma_i (g - g_i), gamma the real least-squares solution of
    r ~ sum_i gamma_i (r - r_i).

    The m x m normal equations come from pairwise real inner products, with
    1e-12 of their trace added to the diagonal against a degenerate history;
    no n^2 x m matrix is formed, so no BLAS product runs on it.
    """
    diffs = [r - ri for ri in residuals]
    m = len(diffs)
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = np.vdot(diffs[i], diffs[j]).real
    gram[np.diag_indices(m)] += 1e-12 * np.trace(gram)
    gamma = np.linalg.solve(gram, [np.vdot(d, r).real for d in diffs])
    step = (1.0 - gamma.sum()) * g
    for c, gi in zip(gamma, steps):
        step += c * gi
    return step


def recenter(f: Field) -> tuple:
    """Normalize out translation, dilation, and global phase.

    Returns (g, p) with g centered (|f|^2 barycenter on the torus at the
    origin), of unit rms radius, and dephased so the zero-frequency
    coefficient is real nonnegative; p = (h, x0) describes the removed part.

    x0 = (L/2pi) arg sum_x |f|^2 e^{2 pi i x/L} per axis, and h is f's rms
    radius about x0.  The dilation g = h f_c(h x) of the centered f_c is
    exact: g lives on Grid2D(n, L/h) with the values h f_c, and g's quotient
    on [-T/h^4, T/h^4] equals f's on [-T, T].  f is recovered on its own
    lattice Grid2D(n, h * g.grid.extent) from g.values / h, translated by x0,
    up to the discarded constant phase.
    """
    g = f.grid
    nrm2 = f.l2_norm() ** 2
    if nrm2 == 0:
        raise ValidationError("cannot recenter the zero field")
    p = np.abs(f.values) ** 2 * g.spacing ** 2 / nrm2
    wave = np.exp(2j * np.pi * g.x / g.extent)
    xbar = g.extent / (2 * np.pi) * np.angle([wave @ p.sum(axis=1), wave @ p.sum(axis=0)])
    centered = apply_symmetry(f, SymmetryParams(x0=tuple(-xbar)))

    pc = np.abs(centered.values) ** 2 * g.spacing ** 2 / nrm2
    r_sq = g.x[:, None] ** 2 + g.x[None, :] ** 2
    sigma = float(np.sqrt(np.sum(r_sq * pc)))
    if not g.spacing / 2 < sigma < g.extent / 4:
        raise ValidationError(
            f"second moment {sigma:.3g} is degenerate for this grid "
            f"(resolvable range ({g.spacing / 2:.3g}, {g.extent / 4:.3g}))"
        )

    coeffs = dft_forward(centered).coeffs
    c0 = coeffs[g.n // 2, g.n // 2]
    if abs(c0) <= 1e-12 * np.max(np.abs(coeffs)):
        c0 = coeffs.flat[np.argmax(np.abs(coeffs))]
    out = Field(Grid2D(g.n, g.extent / sigma), sigma * centered.values * np.exp(-1j * np.angle(c0)))
    return out, SymmetryParams(h=sigma, x0=tuple(xbar))


def diagnostics(report: ExtremizerReport, w: TimeWindow) -> DiagnosticsSummary:
    """Recompute the reported quotient and residual at doubled time resolution.

    The refined residual is formed from el_map's band-projected Lambda f,
    the same stationarity condition that run_iteration converges to.  It
    also bounds the weak form: |<g, Lambda f - omega f>| / omega is at most
    residual_refined * ||Lambda f|| / omega for every unit g."""
    f = _normalize(report.final_field)
    fine = w.refined()
    q_fine = spacetime_norm(f, fine)
    q_rep = report.quotient_history[-1] if report.quotient_history else float("nan")
    disc = abs(q_fine - q_rep) / q_fine if np.isfinite(q_rep) else float("inf")
    flagged = not np.isfinite(q_rep) or disc > 0.01

    residual_fine = _evaluate(f, fine)[3]
    return DiagnosticsSummary(
        quotient_reported=float(q_rep),
        quotient_refined=float(q_fine),
        quotient_discrepancy=float(disc),
        discrepancy_flagged=bool(flagged),
        residual_refined=float(residual_fine),
    )
