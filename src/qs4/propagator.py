"""Fourier-multiplier evolution operators, the A0 frequency map, and exact
separable resampling by diagonal dilations.

A0 maps frequencies: the modulation limit evolves phi under the symbol
-|A0 xi|^2, so no field is resampled through A0.

Sign conventions: the quartic propagator multiplies the spectrum by
exp(+i t |xi|^4); the second-order comparison propagator uses exp(-i t |xi|^2),
the sign being pinned by the requirement that the modulation-limit comparison
in the asymptotics module reproduce the target phase -i T (2 + 4 cos^2) |xi|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NyquistGuardError, SupportGuardError, ValidationError
from .grid import Field, SpectralField, dft_forward, dft_inverse

__all__ = [
    "LinearMapA0",
    "evolve_quartic",
    "evolve_schrodinger",
    "phase_expansion",
    "check_band_guard",
    "check_support_guard",
    "resample_linear",
]

# Fraction of the Nyquist radius beyond which spectral mass is considered
# dangerous for oscillatory multipliers, and the tolerated mass fraction.
BAND_GUARD_FRACTION = 0.9
BAND_GUARD_MASS = 1e-8

# Fields are expected to live (to 1e-8 of their mass) inside this fraction of
# the half-extent; resampling maps may not pull support beyond it.
SAFE_SUPPORT_FRACTION = 0.5


def check_band_guard(F: SpectralField) -> None:
    """Reject spectra with more than BAND_GUARD_MASS of their L2 mass above
    BAND_GUARD_FRACTION of the Nyquist radius."""
    g = F.grid
    p = np.abs(F.coeffs) ** 2
    total = p.sum()
    if total == 0:
        return
    high = p[g.xi_abs > BAND_GUARD_FRACTION * g.nyquist].sum()
    if high > BAND_GUARD_MASS * total:
        raise NyquistGuardError(
            f"spectral mass fraction {high / total:.3e} above "
            f"{BAND_GUARD_FRACTION:.2f} * Nyquist (limit {BAND_GUARD_MASS:.0e})"
        )


def _apply_multiplier(f: Field, multiplier: np.ndarray) -> Field:
    F = dft_forward(f)
    check_band_guard(F)
    return dft_inverse(SpectralField(f.grid, F.coeffs * multiplier))


def evolve_quartic(f: Field, t: float) -> Field:
    """e^{it Delta^2}: multiply the spectrum by exp(i t |xi|^4)."""
    if not np.isfinite(t):
        raise ValidationError(f"evolution time must be finite, got {t}")
    return _apply_multiplier(f, np.exp(1j * t * f.grid.xi_sq ** 2))


def evolve_schrodinger(f: Field, t: float) -> Field:
    """e^{it Delta}: multiply the spectrum by exp(-i t |xi|^2)."""
    if not np.isfinite(t):
        raise ValidationError(f"evolution time must be finite, got {t}")
    return _apply_multiplier(f, np.exp(-1j * t * f.grid.xi_sq))


def phase_expansion(xi, xi_n) -> float:
    """Six-term expansion of |xi + xi_n|^4:

    |xi|^4 + 4|xi|^2 (xi.xi_n) + 2|xi|^2 |xi_n|^2 + 4(xi.xi_n)^2
          + 4|xi_n|^2 (xi_n.xi) + |xi_n|^4
    """
    xi = np.asarray(xi, dtype=float)
    xi_n = np.asarray(xi_n, dtype=float)
    a2 = np.sum(xi ** 2, axis=-1)
    b2 = np.sum(xi_n ** 2, axis=-1)
    dot = np.sum(xi * xi_n, axis=-1)
    out = a2 ** 2 + 4 * a2 * dot + 2 * a2 * b2 + 4 * dot ** 2 + 4 * b2 * dot + b2 ** 2
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LinearMapA0:
    """The frame map xi -> sqrt(2) xi_perp + sqrt(6) xi_par relative to a unit
    direction; |det| = 2*sqrt(3) and |A0 xi|^2 = (2 + 4 cos^2 theta)|xi|^2."""

    direction: tuple

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (2,) or abs(np.hypot(*d) - 1.0) > 1e-12:
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
    """Reject fields with more than 1e-8 of their L2 mass outside
    SAFE_SUPPORT_FRACTION of the half-extent."""
    g = f.grid
    half = SAFE_SUPPORT_FRACTION * g.extent / 2
    p = np.abs(f.values) ** 2
    outside = (np.abs(g.x[:, None]) > half) | (np.abs(g.x[None, :]) > half)
    if p[outside].sum() > 1e-8 * p.sum():
        raise SupportGuardError(
            "field support escapes the periodization-safe region "
            f"[-{half:.3g}, {half:.3g}]^2"
        )


def resample_linear(f: Field, matrix: np.ndarray) -> Field:
    """Return |det M|^{1/2} f(M x) for a diagonal M = diag(a1, a2).

    The Fourier series of f is summed exactly at the dilated points as
    E1 @ C @ E2.T with Ej[i, k] = exp(i aj x_i xi_k), which costs O(n^3).
    A row of Ej is zero where aj x_i leaves the fundamental domain: there
    the Schwartz-like field is taken to vanish, which models the R^2
    composition rather than its periodization.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (2, 2) or matrix[0, 1] != 0 or matrix[1, 0] != 0:
        raise ValidationError(f"resampling map must be a diagonal 2x2 matrix, got {matrix.tolist()}")
    check_support_guard(f)
    g = f.grid

    def axis_factor(a):
        y = a * g.x
        return np.where((np.abs(y) <= g.extent / 2)[:, None], np.exp(1j * np.outer(y, g.xi)), 0)

    e1, e2 = (axis_factor(a) for a in np.diag(matrix))
    values = e1 @ dft_forward(f).coeffs @ e2.T / g.extent ** 2
    return Field(g, np.sqrt(abs(np.linalg.det(matrix))) * values)
