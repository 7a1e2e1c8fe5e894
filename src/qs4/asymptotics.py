"""Large-modulation asymptotics and the oscillatory-integral bounds.

For a fixed bump phi and growing carrier frequency xi_n = m * dir, the L6
space-time norm of e^{it Delta^2}[e^{i x . xi_n} phi] decays like m^{-1/3};
after compensating by m^{1/3} the values converge to the norm of a free
second-order evolution of the frame-changed bump (2 sqrt(3))^{-1/3}
|| e^{iT Delta} A0_* phi ||_6, which a change of variables in frequency turns
into || e^{-iT |A0 xi|^2} phi ||_6.  modulation_scan measures this numerically.

The carrier is never represented on the lattice.  Writing the evolved field
as e^{i x . xi_n} e^{i t |xi_n|^4} v(t, x + ...) absorbs the modulation into
the envelope v, which evolves under the demodulated multiplier

    psi_m(xi) = |xi + xi_n|^4 - |xi_n|^4 - 4 |xi_n|^2 (xi_n . xi),

(propagator.demodulated_phase), a phase that only involves envelope
frequencies, so the scan runs on a small cropped spectral block whatever the
magnitude m.  The linear term dropped from psi_m is a rigid spatial transport
that moves no L^p mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .functional import TimeWindow, spacetime_slices, window_norm
from .grid import Field, Grid2D, SpectralField, dft_forward
from .propagator import (
    BAND_GUARD_FRACTION,
    LinearMapA0,
    check_band_guard,
    check_support_guard,
    demodulated_phase,
)

__all__ = [
    "ModulationScan",
    "DominationReport",
    "modulation_scan",
    "phase_phi_n",
    "oscillatory_integral",
    "dominating_function_check",
]

# Spectral mass fraction allowed outside the reported bump radius.
_RADIUS_MASS = 1e-10


@dataclass(frozen=True)
class ModulationScan:
    """Raw and m^(1/3)-compensated L6 norms along increasing carrier
    magnitudes, with the second-order frame-changed reference value."""

    magnitudes: tuple
    direction: tuple
    raw_norms: tuple
    compensated: tuple
    limit_reference: float
    decay_threshold: float | None

    @property
    def cauchy_gap(self) -> float:
        """Relative gap of the last two compensated values."""
        a, b = self.compensated[-2], self.compensated[-1]
        return abs(b - a) / abs(b)


def _bump_radius(F: SpectralField) -> float:
    """Radius containing all but _RADIUS_MASS of the spectral mass."""
    g = F.grid
    p = np.abs(F.coeffs.ravel()) ** 2
    r = g.xi_abs.ravel()
    order = np.argsort(r)
    cum = np.cumsum(p[order])
    keep = cum <= (1 - _RADIUS_MASS) * cum[-1]
    idx = int(np.count_nonzero(keep))
    return float(r[order][min(idx, len(r) - 1)])


def _crop_grid(F: SpectralField, radius: float) -> SpectralField:
    """Restrict to the central block of a coarser power-of-two lattice whose
    guarded band still contains `radius`."""
    g = F.grid
    n_c = 16
    while np.pi * n_c / g.extent * BAND_GUARD_FRACTION < 1.05 * radius and n_c < g.n:
        n_c *= 2
    if n_c >= g.n:
        return F
    lo = (g.n - n_c) // 2
    return SpectralField(Grid2D(n_c, g.extent), F.coeffs[lo:lo + n_c, lo:lo + n_c].copy())


def _lattice_points(grid: Grid2D) -> np.ndarray:
    """The (n, n, 2) array of frequency lattice points."""
    return np.stack(np.meshgrid(grid.xi, grid.xi, indexing="ij"), axis=-1)


def modulation_scan(phi: Field, magnitudes, direction, w: TimeWindow) -> ModulationScan:
    """Scan ||e^{it Delta^2} e^{i x . m dir} phi||_6 over carrier magnitudes.

    Each magnitude m is integrated over its own window |t| <= t_max / m^2, so
    the rescaled time T = m^2 t covers the same fixed range [-t_max, t_max]
    for every scan point and for the second-order reference.
    """
    a0 = LinearMapA0(direction)
    direction = np.asarray(a0.direction)
    magnitudes = [float(m) for m in magnitudes]
    if len(magnitudes) < 2 or any(b <= a for a, b in zip(magnitudes, magnitudes[1:])):
        raise ValidationError("need at least two strictly increasing magnitudes")
    if magnitudes[0] < 0:
        raise ValidationError("magnitudes must be nonnegative")

    check_support_guard(phi)
    F = dft_forward(phi)
    check_band_guard(F)
    g = phi.grid
    radius = _bump_radius(F)
    if magnitudes[-1] + radius > BAND_GUARD_FRACTION * g.nyquist:
        raise ValidationError(
            f"largest carrier {magnitudes[-1]} plus bump radius {radius:.2f} "
            f"exceeds the guarded band {BAND_GUARD_FRACTION * g.nyquist:.2f}"
        )
    Fc = _crop_grid(F, radius)
    points = _lattice_points(Fc.grid)

    raw = []
    for m in magnitudes:
        symbol = demodulated_phase(points, m * direction)
        # m = 0 is unmodulated: no rescaled time exists, use the window as is
        wm = w if m == 0 else TimeWindow(w.t_max / m ** 2, w.n_t)
        slices = spacetime_slices(Fc, symbol, wm)
        raw.append(window_norm(slices, wm, 6, f"modulated L^6 norm at m={m:g}"))

    compensated = [m ** (1.0 / 3.0) * r for m, r in zip(magnitudes, raw)]

    # ||e^{iT Delta} A0_* phi||_6 = (2 sqrt 3)^{1/3} ||e^{-iT|A0 xi|^2} phi||_6
    # by the change of variables xi -> A0 xi, so the limit is phi's own norm
    # under the symbol -|A0 xi|^2.  In phi's coordinates that wave travels A0
    # times as far as the mapped one, so phi is zero-padded to twice its
    # extent to keep its periodic images apart.
    Fp = dft_forward(Field(Grid2D(2 * g.n, 2 * g.extent), np.pad(phi.values, g.n // 2)))
    Fpc = _crop_grid(Fp, _bump_radius(Fp))
    del Fp  # free the doubled lattice and its cached arrays before the evolution
    a0_sq = np.sum(a0(_lattice_points(Fpc.grid)) ** 2, axis=-1)
    slices = spacetime_slices(Fpc, -a0_sq, w)
    limit_reference = window_norm(slices, w, 6, "second-order reference norm")

    threshold = None
    for i in range(len(raw) - 1):
        if all(b < a for a, b in zip(raw[i:], raw[i + 1:])):
            threshold = magnitudes[i]
            break
    return ModulationScan(
        magnitudes=tuple(magnitudes),
        direction=a0.direction,
        raw_norms=tuple(raw),
        compensated=tuple(compensated),
        limit_reference=float(limit_reference),
        decay_threshold=threshold,
    )


def phase_phi_n(T, X, xi, xi_n) -> np.ndarray:
    """Rescaled phase X . xi - T psi_m(xi) / |xi_n|^2, which expands to
    X . xi - T (2 + 4 cos^2 theta_n)|xi|^2
    - T (4 |xi|^2 (xi . dir_n)/|xi_n| + |xi|^4/|xi_n|^2)."""
    xi = np.asarray(xi, dtype=float)
    xi_n = np.asarray(xi_n, dtype=float)
    X = np.asarray(X, dtype=float)
    mag = float(np.hypot(*xi_n))
    if mag == 0:
        raise ValidationError("xi_n must be nonzero")
    return np.sum(X * xi, axis=-1) - T * demodulated_phase(xi, xi_n) / mag ** 2


def oscillatory_integral(T: float, X, amplitude: SpectralField, xi_n) -> complex:
    """Direct lattice quadrature of int a(xi) e^{i phi_n(T, X, xi)} dxi over the
    support of the amplitude; at T = 0, X = 0 this is (2 pi)^2 times the
    physical value at the origin."""
    g = amplitude.grid
    X = np.asarray(X, dtype=float)
    if X.shape != (2,):
        raise ValidationError("X must be a 2-vector")
    pts = _lattice_points(g).reshape(-1, 2)
    a = amplitude.coeffs.ravel()
    live = a != 0
    if not np.any(live):
        raise ValidationError("amplitude has empty support")
    phase = phase_phi_n(T, X, pts[live], np.asarray(xi_n, dtype=float))
    d_xi = (2 * np.pi / g.extent) ** 2
    return complex(np.sum(a[live] * np.exp(1j * phase)) * d_xi)


def _dominating_f(T: np.ndarray, X_abs: np.ndarray, C: float, C_prime: float) -> np.ndarray:
    base = (1 + np.abs(T)) * (1 + X_abs)
    inner = X_abs <= C_prime * np.abs(T)
    return np.where(inner, C * base ** -0.25, C * base ** -0.5)


@dataclass(frozen=True)
class DominationReport:
    """Pointwise envelope values and dyadic L6 mass increments.

    sample_values holds (T, X1, X2, F); boundary_jumps holds, for samples on
    the cone boundary |X| = C'|T|, the pair (inner branch, outer branch).
    The increments are midpoint-rule integrals of F^6 over dyadic shells; the
    two flags report whether they shrink and whether their successive ratios
    stay below one.  No integrability conclusion is drawn beyond the measured
    ratios.
    """

    sample_values: tuple
    boundary_jumps: tuple
    box_sizes: tuple
    increments: tuple
    ratios: tuple
    strictly_decreasing: bool
    ratios_below_one: bool


def dominating_function_check(samples, C: float, C_prime: float,
                              k_min: int = 2, k_max: int = 8,
                              points_per_axis: int = 48) -> DominationReport:
    """Evaluate the dominating envelope F on the given (T, X) samples and
    integrate F^6 over dyadic shells of (T, X) space by the midpoint rule.

    F has exponent -1/4 inside the cone |X| <= C'|T| and -1/2 outside; for
    samples exactly on the boundary both branch values are recorded.
    """
    if C <= 0 or C_prime <= 0:
        raise ValidationError("envelope constants must be positive")
    if not (0 <= k_min < k_max):
        raise ValidationError("need 0 <= k_min < k_max")
    sample_values = []
    boundary_jumps = []
    for T, X in samples:
        X = np.asarray(X, dtype=float)
        X_abs = float(np.hypot(*X))
        F = float(_dominating_f(np.asarray(T), np.asarray(X_abs), C, C_prime))
        sample_values.append((float(T), float(X[0]), float(X[1]), F))
        if X_abs == C_prime * abs(T):
            base = (1 + abs(T)) * (1 + X_abs)
            boundary_jumps.append((C * base ** -0.25, C * base ** -0.5))
    increments = []
    sizes = []
    for k in range(k_min, k_max + 1):
        R0, R1 = 2.0 ** k, 2.0 ** (k + 1)
        h = 2 * R1 / points_per_axis
        grid_1d = -R1 + h * (np.arange(points_per_axis) + 0.5)
        T, X1, X2 = np.meshgrid(grid_1d, grid_1d, grid_1d, indexing="ij")
        X_abs = np.hypot(X1, X2)
        in_outer = (np.abs(T) <= R1) & (X_abs <= R1)
        in_inner = (np.abs(T) <= R0) & (X_abs <= R0)
        shell = in_outer & ~in_inner
        vals = _dominating_f(T[shell], X_abs[shell], C, C_prime) ** 6
        increments.append(float(vals.sum() * h ** 3))
        sizes.append(R0)
    ratios = [b / a for a, b in zip(increments, increments[1:])]
    return DominationReport(
        sample_values=tuple(sample_values),
        boundary_jumps=tuple(boundary_jumps),
        box_sizes=tuple(sizes),
        increments=tuple(increments),
        ratios=tuple(ratios),
        strictly_decreasing=all(b < a for a, b in zip(increments, increments[1:])),
        ratios_below_one=all(r < 1 for r in ratios),
    )
