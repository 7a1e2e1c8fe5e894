"""Fixed-point ascent for extremizers of the Strichartz quotient.

The stationarity condition for the quotient restricted to the unit L2 sphere
is Lambda(f) = omega f with omega = <f, Lambda(f)>, so unit-norm extremizers
are fixed points of f -> Lambda(f)/||Lambda(f)||.  run_iteration drives that
map, optionally damped, with an ascent guard that halves the step on any
quotient drop.
"""

from __future__ import annotations

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
    make_random_field,
    spectral_cutoff,
)
from .profiles import SymmetryParams, apply_symmetry
from .propagator import BAND_GUARD_FRACTION, resample_linear

__all__ = [
    "IterationConfig",
    "ExtremizerReport",
    "DiagnosticsSummary",
    "run_iteration",
    "recenter",
    "diagnostics",
]

_MIN_BETA = 1e-3
# A step may lower the quotient by this much and still be accepted.
_ASCENT_SLACK = 1e-8
# Random probes of the weak form in diagnostics().
_N_PAIRINGS = 10


@dataclass(frozen=True)
class IterationConfig:
    """Everything needed for a reproducible extremizer run."""

    grid: Grid2D
    window: TimeWindow
    max_iters: int = 500
    tol_residual: float = 1e-3
    beta: float = 1.0
    seed_width: float = 0.8
    seed_noise: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol_residual <= 0:
            raise ValidationError("tol_residual must be positive")
        if not 0 < self.beta <= 1:
            raise ValidationError(f"beta must lie in (0, 1], got {self.beta}")
        if self.seed_noise < 0:
            raise ValidationError("seed_noise must be >= 0")

    def make_seed(self) -> Field:
        f = make_gaussian(self.grid, width=self.seed_width)
        if self.seed_noise > 0:
            noise = make_random_field(self.grid, self.rng_seed,
                                      band_radius=0.5 * self.grid.nyquist,
                                      envelope_width=self.grid.extent / 8)
            f = f + self.seed_noise * noise
        return _normalize(f)


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
    beta_final: float


@dataclass(frozen=True)
class DiagnosticsSummary:
    """Independent checks of a report at doubled time resolution."""

    quotient_reported: float
    quotient_refined: float
    quotient_discrepancy: float
    discrepancy_flagged: bool
    residual_refined: float
    pairing_errors: tuple


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
    """Iterate f <- normalize((1 - beta) f + beta Lambda(f)/||Lambda(f)||).

    Any step that lowers the quotient by more than _ASCENT_SLACK is
    rejected and beta halved; below beta = 1e-3 the run aborts as divergent.
    The recorded quotient history therefore contains accepted steps only and
    is nondecreasing up to the tolerance.

    The seed (or `initial`) is projected once onto el_map's guarded band,
    removing a mass fraction on the order of the guard tolerance; every step
    then stays in that band, where the ascent is a well-posed maximization.
    The final field must pass the window's tail gate (TailTestError).
    """
    if initial is None:
        initial = cfg.make_seed()
    elif initial.grid != cfg.grid:
        raise ValidationError("initial field grid does not match the config grid")
    f = _normalize(spectral_cutoff(initial, 0.0, BAND_GUARD_FRACTION * cfg.grid.nyquist))

    beta = cfg.beta
    lam, omega, quotient, residual = _evaluate(f, cfg.window)
    history = [quotient]
    converged = residual < cfg.tol_residual
    n_iters = 1

    while not converged and n_iters < cfg.max_iters:
        candidate = _normalize((1 - beta) * f + (beta / lam.l2_norm()) * lam)
        lam_c, omega_c, q_c, res_c = _evaluate(candidate, cfg.window)
        n_iters += 1
        if q_c < quotient - _ASCENT_SLACK:
            beta /= 2
            if beta < _MIN_BETA:
                raise DivergenceError(
                    f"quotient still dropping at beta = {beta:.2e} "
                    f"(iteration {n_iters})"
                )
            continue
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
        beta_final=beta,
    )


def recenter(f: Field) -> tuple:
    """Normalize out translation, dilation, and global phase.

    Returns (g, p) with g centered (|f|^2 barycenter at the origin), rescaled
    so its second moment matches the unit-width Gaussian's, and dephased so
    the zero-frequency coefficient is real nonnegative; p = (h, x0) describes
    the removed part, f ~ T_p g up to the discarded constant phase.
    """
    g = f.grid
    nrm2 = f.l2_norm() ** 2
    if nrm2 == 0:
        raise ValidationError("cannot recenter the zero field")
    p = np.abs(f.values) ** 2 * g.spacing ** 2 / nrm2
    xbar = np.array([float(np.sum(g.x[:, None] * p)), float(np.sum(g.x[None, :] * p))])
    centered = apply_symmetry(f, SymmetryParams(x0=tuple(-xbar)))

    pc = np.abs(centered.values) ** 2 * g.spacing ** 2 / nrm2
    r_sq = g.x[:, None] ** 2 + g.x[None, :] ** 2
    sigma = float(np.sqrt(np.sum(r_sq * pc)))
    if not g.spacing / 2 < sigma < g.extent / 4:
        raise ValidationError(
            f"second moment {sigma:.3g} is degenerate for this grid "
            f"(resolvable range ({g.spacing / 2:.3g}, {g.extent / 4:.3g}))"
        )
    scaled = centered if abs(sigma - 1.0) < 1e-14 else resample_linear(centered, sigma)

    coeffs = dft_forward(scaled).coeffs
    c0 = coeffs[g.n // 2, g.n // 2]
    if abs(c0) <= 1e-12 * np.max(np.abs(coeffs)):
        c0 = coeffs.flat[np.argmax(np.abs(coeffs))]
    out = Field(g, scaled.values * np.exp(-1j * np.angle(c0)))
    return out, SymmetryParams(h=sigma, x0=tuple(xbar))


def diagnostics(report: ExtremizerReport, w: TimeWindow) -> DiagnosticsSummary:
    """Recompute the reported quotient and residual at doubled time resolution
    and probe the weak form <g, Lambda f> = omega <g, f> with random fields.

    The refined residual is formed from el_map's band-projected Lambda f,
    the same stationarity condition that run_iteration converges to."""
    f = _normalize(report.final_field)
    fine = w.refined()
    q_fine = spacetime_norm(f, fine)
    q_rep = report.quotient_history[-1] if report.quotient_history else float("nan")
    disc = abs(q_fine - q_rep) / q_fine if np.isfinite(q_rep) else float("inf")
    flagged = not np.isfinite(q_rep) or disc > 0.01

    lam, omega, _, residual_fine = _evaluate(f, fine)
    errors = []
    for k in range(_N_PAIRINGS):
        probe = make_random_field(f.grid, 1000 + k, band_radius=0.3 * f.grid.nyquist,
                                  envelope_width=f.grid.extent / 8)
        lhs = inner_product(probe, lam)
        rhs = omega * inner_product(probe, f)
        errors.append(abs(lhs - rhs) / omega)
    return DiagnosticsSummary(
        quotient_reported=float(q_rep),
        quotient_refined=float(q_fine),
        quotient_discrepancy=float(disc),
        discrepancy_flagged=bool(flagged),
        residual_refined=float(residual_fine),
        pairing_errors=tuple(errors),
    )
