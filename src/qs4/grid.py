"""Periodic square grid, discrete Fourier transforms, and L2 tooling.

The computational domain is [-L/2, L/2)^2 sampled on an n x n lattice with n a
power of two.  The frequency lattice is xi_k = 2*pi*k/L for k in
{-n/2, ..., n/2-1} per axis, stored in that signed order.

Transform convention (non-unitary):

    forward:  F(xi) =  (L/n)^2 * sum_x exp(-i x.xi) u(x)
    inverse:  u(x)  =  (2*pi)^-2 * sum_xi exp(i x.xi) F(xi) * (2*pi/L)^2

so that Parseval reads ||F||_2^2 = (2*pi)^2 ||u||_2^2.  All quadrature weights
((L/n)^2 in space, (2*pi/L)^2 in frequency) are carried explicitly.

Fields are treated as samples of Schwartz-like functions on R^2; callers are
responsible for keeping essential support inside [-L/4, L/4]^2 so that
periodization error stays below the tolerances quoted in the operation
contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from .errors import ValidationError

__all__ = [
    "Grid2D",
    "Field",
    "SpectralField",
    "make_grid",
    "dft_forward",
    "dft_inverse",
    "inner_product",
    "spectral_cutoff",
    "make_gaussian",
    "make_random_field",
]

# Fraction of the Nyquist radius beyond which spectral mass is considered
# dangerous for oscillatory multipliers.
BAND_GUARD_FRACTION = 0.9


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    """Periodic square domain [-extent/2, extent/2)^2 with n points per axis."""

    n: int
    extent: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 16:
            raise ValidationError(f"grid size must be a power of two >= 16, got {self.n}")
        if not np.isfinite(self.extent) or self.extent <= 0:
            raise ValidationError(f"grid extent must be positive, got {self.extent}")

    @property
    def spacing(self) -> float:
        return self.extent / self.n

    @property
    def nyquist(self) -> float:
        """Largest resolvable frequency magnitude per axis, pi*n/extent."""
        return np.pi * self.n / self.extent

    # k1^2 + k2^2 = 0.2025 n^2 has no integer solution for n a power of two,
    # so no lattice point lies on the band's circle: |xi| > band and
    # |xi| < band split the lattice.
    @property
    def band(self) -> float:
        """Radius of the guarded band, BAND_GUARD_FRACTION of the Nyquist radius."""
        return BAND_GUARD_FRACTION * self.nyquist

    @cached_property
    def x(self) -> np.ndarray:
        """Physical sample positions along one axis."""
        return -self.extent / 2 + self.spacing * np.arange(self.n)

    @cached_property
    def xi(self) -> np.ndarray:
        """Signed-order frequency lattice along one axis."""
        return (2 * np.pi / self.extent) * np.arange(-self.n // 2, self.n // 2)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the 2-D frequency lattice, signed order, shape (n, n)."""
        return self.xi[:, None] ** 2 + self.xi[None, :] ** 2

    @cached_property
    def xi_abs(self) -> np.ndarray:
        return np.sqrt(self.xi_sq)

    @cached_property
    def alt_sign(self) -> np.ndarray:
        """(-1)^(k1+k2) phase relating numpy's FFT to the centered transform."""
        k = np.arange(-self.n // 2, self.n // 2)
        return ((-1.0) ** (k[:, None] + k[None, :])).astype(float)


def _check_values(grid: Grid2D, values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.n, grid.n):
        raise ValidationError(f"{what} shape {values.shape} does not match grid ({grid.n}, {grid.n})")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} contains non-finite entries")
    return values


@dataclass(frozen=True)
class Field:
    """Complex samples of a function on the physical lattice, row-major."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, "field values"))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)) * self.grid.spacing)

    def __add__(self, other: "Field") -> "Field":
        _require_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _require_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients indexed by the signed frequency lattice."""

    grid: Grid2D
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _check_values(self.grid, self.coeffs, "spectral coefficients"))

    def l2_norm(self) -> float:
        """Frequency-side L2 norm with the (2*pi/L)^2 quadrature weight."""
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)) * 2 * np.pi / self.grid.extent)


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValidationError("operands live on different grids")


def make_grid(n: int, extent: float) -> Grid2D:
    """Build the periodic grid; rejects non-power-of-two n and bad extents."""
    return Grid2D(int(n), float(extent))


def dft_forward(f: Field) -> SpectralField:
    """Discrete analogue of F(xi) = int exp(-i x.xi) u(x) dx."""
    g = f.grid
    coeffs = g.spacing ** 2 * g.alt_sign * sfft.fftshift(sfft.fft2(f.values))
    return SpectralField(g, coeffs)


def dft_inverse(F: SpectralField) -> Field:
    """Inverse transform with the (2*pi)^-2 prefactor; round trip is identity."""
    g = F.grid
    values = sfft.ifft2(sfft.ifftshift(g.alt_sign * F.coeffs)) * (g.n / g.extent) ** 2
    return Field(g, values)


def inner_product(f: Field, g: Field) -> complex:
    """<f, g> = int conj(f) g dx, conjugate-linear in the first slot."""
    _require_same_grid(f, g)
    return complex(np.vdot(f.values, g.values) * f.grid.spacing ** 2)


def spectral_cutoff(f: Field, r_lo: float, r_hi: float) -> Field:
    """Keep only frequencies with r_lo <= |xi| < r_hi; orthogonal projection."""
    g = f.grid
    if r_lo < 0 or not r_lo < r_hi:
        raise ValidationError(f"cutoff radii must satisfy 0 <= r_lo < r_hi, got ({r_lo}, {r_hi})")
    if r_hi > g.nyquist:
        raise ValidationError(f"cutoff radius {r_hi} exceeds the Nyquist radius {g.nyquist}")
    F = dft_forward(f)
    mask = (g.xi_abs >= r_lo) & (g.xi_abs < r_hi)
    return dft_inverse(SpectralField(g, F.coeffs * mask))


def make_gaussian(grid: Grid2D, center=(0.0, 0.0), width: float = 1.0, modulation=(0.0, 0.0)) -> Field:
    """L2-normalized Gaussian bump exp(-|x-c|^2/(2 w^2)) exp(i m.x)."""
    if not grid.spacing < width < grid.extent / 8:
        raise ValidationError(
            f"gaussian width {width} not resolvable on this grid "
            f"(need {grid.spacing} < width < {grid.extent / 8})"
        )
    center = np.asarray(center, dtype=float)
    modulation = np.asarray(modulation, dtype=float)
    if np.hypot(*modulation) >= grid.nyquist:
        raise ValidationError("modulation exceeds the Nyquist radius")
    x1 = grid.x[:, None] - center[0]
    x2 = grid.x[None, :] - center[1]
    envelope = np.exp(-(x1 ** 2 + x2 ** 2) / (2 * width ** 2))
    phase = np.exp(1j * (modulation[0] * grid.x[:, None] + modulation[1] * grid.x[None, :]))
    f = Field(grid, envelope * phase)
    return Field(grid, f.values / f.l2_norm())


def make_random_field(grid: Grid2D, seed: int, band_radius: float, envelope_width: float | None = None) -> Field:
    """Seeded complex noise, optionally localized by a Gaussian envelope, then
    band-limited to |xi| < band_radius and L2-normalized.  Deterministic in seed."""
    if band_radius <= 0 or band_radius > grid.nyquist:
        raise ValidationError(f"band radius {band_radius} outside (0, {grid.nyquist}]")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    if envelope_width is not None:
        x1, x2 = grid.x[:, None], grid.x[None, :]
        values = values * np.exp(-(x1 ** 2 + x2 ** 2) / (2 * envelope_width ** 2))
    f = spectral_cutoff(Field(grid, values), 0.0, band_radius)
    nrm = f.l2_norm()
    if nrm == 0:
        raise ValidationError("random field vanished after band limiting")
    return Field(grid, f.values / nrm)
