"""Fourier-multiplier evolution operators, the A0 frequency map, and exact
resampling by isotropic dilations.

A0 maps frequencies: the modulation limit evolves phi under the symbol
-|A0 xi|^2, so no field is resampled through A0.

Sign convention: the quartic propagator multiplies the spectrum by
exp(+i t |xi|^4).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NyquistGuardError, SupportGuardError, ValidationError
from .grid import BAND_GUARD_FRACTION, Field, SpectralField, dft_forward, dft_inverse

__all__ = [
    "LinearMapA0",
    "evolve_quartic",
    "demodulated_phase",
    "phase_expansion",
    "check_band_guard",
    "check_support_guard",
    "resample_linear",
]

# Spectral mass fraction tolerated outside the guarded band (Grid2D.band).
BAND_GUARD_MASS = 1e-8

# Fields are expected to live (to SUPPORT_GUARD_MASS of their mass) inside
# this fraction of the half-extent; resampling maps may not pull support
# beyond it.
SAFE_SUPPORT_FRACTION = 0.5
SUPPORT_GUARD_MASS = 1e-8


def check_band_guard(F: SpectralField) -> None:
    """Reject spectra with more than BAND_GUARD_MASS of their L2 mass outside
    the guarded band, |xi| > grid.band."""
    g = F.grid
    p = np.abs(F.coeffs) ** 2
    total = p.sum()
    if total == 0:
        return
    high = p[g.xi_abs > g.band].sum()
    if high > BAND_GUARD_MASS * total:
        raise NyquistGuardError(
            f"spectral mass fraction {high / total:.3e} above "
            f"{BAND_GUARD_FRACTION:.2f} * Nyquist (limit {BAND_GUARD_MASS:.0e})"
        )


def evolve_quartic(f: Field, t: float) -> Field:
    """e^{it Delta^2}: multiply the spectrum by exp(i t |xi|^4)."""
    if not np.isfinite(t):
        raise ValidationError(f"evolution time must be finite, got {t}")
    F = dft_forward(f)
    check_band_guard(F)
    return dft_inverse(SpectralField(f.grid, F.coeffs * np.exp(1j * t * f.grid.xi_sq ** 2)))


def demodulated_phase(xi, xi_n) -> np.ndarray:
    """|xi + xi_n|^4 - |xi_n|^4 - 4|xi_n|^2 (xi_n.xi) on (..., 2) arrays:

    |xi|^4 + 4|xi|^2 (xi.xi_n) + 2|xi|^2 |xi_n|^2 + 4(xi.xi_n)^2

    in component form: |xi|^2 = xi_1^2 + xi_2^2 and
    xi.xi_n = xi_1 xi_n,1 + xi_2 xi_n,2, read from xi[..., 0] and xi[..., 1].
    """
    xi = np.asarray(xi, dtype=float)
    xi_n = np.asarray(xi_n, dtype=float)
    a2 = xi[..., 0] ** 2 + xi[..., 1] ** 2
    b2 = xi_n[..., 0] ** 2 + xi_n[..., 1] ** 2
    dot = xi[..., 0] * xi_n[..., 0] + xi[..., 1] * xi_n[..., 1]
    return a2 ** 2 + 4 * a2 * dot + 2 * a2 * b2 + 4 * dot ** 2


def phase_expansion(xi, xi_n) -> float:
    """Six-term expansion of |xi + xi_n|^4: the demodulated phase plus
    4|xi_n|^2 (xi_n.xi) + |xi_n|^4."""
    xi = np.asarray(xi, dtype=float)
    xi_n = np.asarray(xi_n, dtype=float)
    b2 = xi_n[..., 0] ** 2 + xi_n[..., 1] ** 2
    dot = xi[..., 0] * xi_n[..., 0] + xi[..., 1] * xi_n[..., 1]
    out = demodulated_phase(xi, xi_n) + 4 * b2 * dot + b2 ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LinearMapA0:
    """The frame map xi -> sqrt(2) xi_perp + sqrt(6) xi_par relative to a unit
    direction; |det| = 2*sqrt(3) and |A0 xi|^2 = (2 + 4 cos^2 theta)|xi|^2."""

    direction: tuple

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (2,) or not abs(np.hypot(*d) - 1.0) <= 1e-12:
            raise ValidationError(f"direction must be a unit vector in R^2, got {self.direction}")
        object.__setattr__(self, "direction", (float(d[0]), float(d[1])))

    @cached_property
    def matrix(self) -> np.ndarray:
        d = np.asarray(self.direction)
        proj = np.outer(d, d)
        return np.sqrt(2.0) * (np.eye(2) - proj) + np.sqrt(6.0) * proj

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        return np.asarray(xi, dtype=float) @ self.matrix.T


def check_support_guard(f: Field) -> None:
    """Reject fields with more than SUPPORT_GUARD_MASS of their L2 mass
    outside SAFE_SUPPORT_FRACTION of the half-extent."""
    g = f.grid
    half = SAFE_SUPPORT_FRACTION * g.extent / 2
    p = np.abs(f.values) ** 2
    outside = (np.abs(g.x[:, None]) > half) | (np.abs(g.x[None, :]) > half)
    total, mass_out = p.sum(), p[outside].sum()
    if mass_out > SUPPORT_GUARD_MASS * total:
        raise SupportGuardError(
            f"mass fraction {mass_out / total:.3e} outside the periodization-safe "
            f"region [-{half:.3g}, {half:.3g}]^2 (limit {SUPPORT_GUARD_MASS:.0e})"
        )


def resample_linear(f: Field, a: float) -> Field:
    """Return a f(a x), the L2-unitary dilation by a positive scalar a.

    The Fourier series of f is summed exactly at the dilated points as
    E @ C @ E.T with E[i, k] = exp(i a x_i xi_k), which costs O(n^3).
    A row of E is zero where a x_i leaves the fundamental domain: there
    the Schwartz-like field is taken to vanish, which models the R^2
    composition rather than its periodization.
    """
    if not isinstance(a, numbers.Real) or not 0 < a < np.inf:
        raise ValidationError(f"dilation factor must be a positive finite scalar, got {a!r}")
    check_support_guard(f)
    g = f.grid
    y = a * g.x
    e = np.where((np.abs(y) <= g.extent / 2)[:, None], np.exp(1j * np.outer(y, g.xi)), 0)
    return Field(g, a * (e @ dft_forward(f).coeffs @ e.T / g.extent ** 2))
