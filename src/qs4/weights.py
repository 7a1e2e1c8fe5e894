"""Quartic exponential weights, the constraint-manifold sampler, the kernel
subadditivity check, and the spectral decay fit.

The weight F(eta) = mu |eta|^4 / (1 + eps |eta|^4) is radial and
nondecreasing.  On tuples (eta_1..eta_6) lying on the resonance surface
b = |eta_1|^4 + |eta_2|^4 + |eta_3|^4 - |eta_4|^4 - |eta_5|^4 - |eta_6|^4 = 0,
the first weight never exceeds the sum of the other five, so the exponential
kernel exp(F_1 - sum_{k>=2} F_k) stays at or below one.  That bound is what
lets the weighted multilinear form inherit the unweighted decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QS4Error, ValidationError
from .grid import SpectralField

__all__ = [
    "WeightParams",
    "KernelReport",
    "DecayFitReport",
    "weight_f",
    "sample_constraint_tuples",
    "weight_kernel_check",
    "decay_fit",
]

_MODULUS_FLOOR = 1e-15
# RMS log-residual below which a fitted spectrum is accepted as following a
# quartic-exponential envelope.
QUARTIC_PROFILE_RESIDUAL = 0.2


@dataclass(frozen=True)
class WeightParams:
    """Weight parameters (mu, eps); a cutoff scale s enters as mu = s^-8."""

    mu: float = 1.0
    eps: float = 0.0

    def __post_init__(self):
        if self.mu < 0 or self.eps < 0:
            raise ValidationError("mu and eps must be nonnegative")

    def to_dict(self) -> dict:
        return {"mu": self.mu, "eps": self.eps}


def weight_f(eta, p: WeightParams):
    """F(eta) = mu |eta|^4 / (1 + eps |eta|^4); accepts (..., 2) arrays."""
    eta = np.asarray(eta, dtype=float)
    q = np.sum(eta ** 2, axis=-1) ** 2
    out = p.mu * q / (1.0 + p.eps * q)
    return float(out) if out.ndim == 0 else out


def sample_constraint_tuples(count: int, radius: float, rng_seed: int) -> np.ndarray:
    """Draw eta_2..eta_6 uniformly in the ball, reject draws where the last
    three quartic powers fall short of the middle two, and solve for |eta_1|;
    the b-constraint then holds by construction.  Returns the tuples as one
    float (count, 6, 2) array, eta_1 first.  Deterministic in the seed."""
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if radius <= 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(rng_seed)
    batches = []
    kept = attempts = 0
    while kept < count:
        batch = 2 * (count - kept) + 16
        attempts += batch
        r = radius * np.sqrt(rng.uniform(0, 1, (batch, 5)))
        th = rng.uniform(0, 2 * np.pi, (batch, 5))
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        quart = np.sum(pts ** 2, axis=-1) ** 2
        D = quart[:, 2:].sum(axis=1) - quart[:, :2].sum(axis=1)
        th1 = rng.uniform(0, 2 * np.pi, batch)
        keep = D >= 0
        if attempts > 100 * count and kept + keep.sum() < 0.01 * attempts:
            raise ValidationError("rejection rate above 99%; radius pathologically configured")
        mag = D[keep] ** 0.25
        eta1 = np.stack([mag * np.cos(th1[keep]), mag * np.sin(th1[keep])], axis=-1)
        batches.append(np.concatenate([eta1[:, None], pts[keep]], axis=1))
        kept += len(eta1)
    return np.concatenate(batches)[:count]


@dataclass(frozen=True)
class KernelReport:
    """Extremes of exp(F(eta_1) - sum_{k=2}^6 F(eta_k)) over checked tuples;
    argmax is the maximizing tuple as six (x, y) pairs."""

    n_checked: int
    max_kernel: float
    argmax: tuple


def weight_kernel_check(tuples, p: WeightParams) -> KernelReport:
    """Verify the kernel bound <= 1 + 1e-12 on every tuple of an (m, 6, 2)
    array; a violation is a hard failure because it would falsify the
    subadditivity of the weight on the resonance surface.

    Rejects an empty or misshapen array, non-finite entries, and rows off the
    resonance surface (|b| above 1e-9 of sum_k |eta_k|^4), where the bound
    does not apply.  The vector constraint a (sum of the first three minus
    the last three) stays free: the bound only uses the b-support.
    """
    etas = np.asarray(tuples, dtype=float)
    if etas.ndim != 3 or etas.shape[1:] != (6, 2) or len(etas) == 0:
        raise ValidationError(f"expected an (m, 6, 2) array with m >= 1, got shape {etas.shape}")
    if not np.all(np.isfinite(etas)):
        raise ValidationError("tuples contain non-finite frequencies")
    quart = np.sum(etas ** 2, axis=-1) ** 2
    b = np.abs(quart[:, :3].sum(axis=1) - quart[:, 3:].sum(axis=1))
    off = b > 1e-9 * quart.sum(axis=1)
    if np.any(off):
        k = int(np.argmax(off))
        raise ValidationError(
            f"tuple {k} violates the b-constraint: |b| = {b[k]:.3e} "
            f"vs scale {quart[k].sum():.3e}"
        )
    F = weight_f(etas, p)
    log_kernel = F[:, 0] - F[:, 1:].sum(axis=1)
    i = int(np.argmax(log_kernel))
    best = float(np.exp(log_kernel[i]))
    if best > 1 + 1e-12:
        raise QS4Error(
            f"weight kernel bound violated: max exp(F1 - sum F_k) = {best:.17g}"
        )
    return KernelReport(len(etas), best, tuple(map(tuple, etas[i].tolist())))


@dataclass(frozen=True)
class DecayFitReport:
    """Fit of log shell-maximum moduli against -mu_hat |xi|^4 + c."""

    mu_hat: float
    intercept: float
    goodness: float
    n_shells: int

    @property
    def quartic_profile(self) -> bool:
        return self.goodness <= QUARTIC_PROFILE_RESIDUAL


def decay_fit(F: SpectralField, r_min: float) -> DecayFitReport:
    """Least-squares decay-rate fit over the shell r_min <= |xi| <= 0.8 Nyquist.

    Uses the maximum modulus per radial shell (the claim is about the angular
    envelope, which may oscillate), floored at 1e-15 to avoid fitting noise.
    mu_hat > 0 certifies quartic-exponential decay at this resolution; the
    goodness value is the RMS log residual.
    """
    g = F.grid
    r_max = 0.8 * g.nyquist
    if not 0 <= r_min < r_max:
        raise ValidationError(f"r_min must lie in [0, {r_max:.3g}), got {r_min}")
    mod = np.abs(F.coeffs).ravel()
    r = g.xi_abs.ravel()
    d_xi = 2 * np.pi / g.extent
    edges = np.arange(r_min, r_max + d_xi, d_xi)
    radii, logs = [], []
    for lo, hi in zip(edges, edges[1:]):
        sel = (r >= lo) & (r < hi)
        if not np.any(sel):
            continue
        i = np.argmax(mod[sel])
        m = mod[sel][i]
        if m <= _MODULUS_FLOOR:
            continue
        radii.append(r[sel][i])
        logs.append(np.log(m))
    if len(radii) < 6:
        raise ValidationError(
            f"only {len(radii)} usable shells in [{r_min:.3g}, {r_max:.3g}]; "
            "spectrum is at the modulus floor or the range is too narrow"
        )
    x = np.asarray(radii) ** 4
    y = np.asarray(logs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return DecayFitReport(
        mu_hat=float(-slope),
        intercept=float(intercept),
        goodness=float(np.sqrt(np.mean(resid ** 2))),
        n_shells=len(radii),
    )
