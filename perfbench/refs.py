"""Plain reference computations for the benchmark's output checks.

Written with numpy and scipy only, without qs4's kernel helpers: one time
node at a time, no chunking, no sign trick, and fftshift/ifftshift for the
centred frequency order.  Conventions follow qs4's documented ones: the
lattice [-L/2, L/2)^2 with n points per axis, xi_k = 2 pi k / L, and
F(xi) = (L/n)^2 sum_x exp(-i x.xi) u(x).

Run `python3 perfbench/refs.py` for the self-test: the plain L6 routine with
the -|xi|^2 symbol against the closed form for a Gaussian.
"""

from __future__ import annotations

import math
import struct
import sys
from pathlib import Path

import numpy as np

_FIELD_HEADER = struct.Struct("<4sHIdB")


def read_field(path: Path) -> tuple:
    """(values, extent) of a .qs4f field file: magic, version, n, extent,
    flag, then n*n complex samples as little-endian (re, im) float64 pairs."""
    raw = Path(path).read_bytes()
    magic, _, n, extent, flag = _FIELD_HEADER.unpack_from(raw)
    if magic != b"QS4F" or flag != 0:
        raise ValueError(f"{path}: not a physical-space field file")
    pairs = np.frombuffer(raw, dtype="<f8", offset=_FIELD_HEADER.size).reshape(n, n, 2)
    return pairs[..., 0] + 1j * pairs[..., 1], extent


def l2_norm(values: np.ndarray, extent: float) -> float:
    return float(np.sqrt(np.sum(np.abs(values) ** 2)) * extent / values.shape[0])


def _spectrum(values: np.ndarray, extent: float) -> np.ndarray:
    """Centred coefficients F(xi_k), k = -n/2 .. n/2-1 on both axes."""
    n = values.shape[0]
    return (extent / n) ** 2 * np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(values)))


def _symbol(n: int, extent: float, order: str) -> np.ndarray:
    xi = 2 * np.pi / extent * np.arange(-n // 2, n // 2)
    xi_sq = xi[:, None] ** 2 + xi[None, :] ** 2
    # e^{it Delta^2} multiplies by exp(i t |xi|^4), e^{it Delta} by exp(-i t |xi|^2)
    return xi_sq ** 2 if order == "quartic" else -xi_sq


def _padded_physical(coeffs: np.ndarray, extent: float, pad: int) -> np.ndarray:
    """Samples on the pad-times finer lattice of the band-limited function
    whose centred coefficients are `coeffs`."""
    n = coeffs.shape[0]
    m = pad * n
    big = np.zeros((m, m), dtype=complex)
    lo = (m - n) // 2
    big[lo:lo + n, lo:lo + n] = coeffs
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(big))) * (m / extent) ** 2


def _trapezoid(t_max: float, n_t: int) -> tuple:
    nodes = np.linspace(-t_max, t_max, n_t)
    weights = np.full(n_t, 2 * t_max / (n_t - 1))
    weights[0] /= 2
    weights[-1] /= 2
    return nodes, weights


def _spacetime_sum(fields: list, extent: float, t_max: float, n_t: int, power: float,
                   pad: int, order: str = "quartic") -> float:
    """Trapezoid in t of sum_x |prod_j u_j(t, x)|^power (L / (pad n))^2,
    with u_j the free evolution of each field, evolved on the padded lattice."""
    n = fields[0].shape[0]
    spectra = [_spectrum(v, extent) for v in fields]
    symbol = _symbol(n, extent, order)
    cell = (extent / (pad * n)) ** 2
    total = 0.0
    for t, wt in zip(*_trapezoid(t_max, n_t)):
        phase = np.exp(1j * t * symbol)
        prod = np.ones((pad * n, pad * n))
        for F in spectra:
            prod = prod * np.abs(_padded_physical(F * phase, extent, pad))
        total += wt * np.sum(prod ** power) * cell
    return total


def l6_norm(values: np.ndarray, extent: float, t_max: float, n_t: int,
            order: str = "quartic") -> float:
    """||e^{it Delta^2} u||_{L^6} over [-t_max, t_max], 3x zero padding
    (or e^{it Delta} with order='quadratic')."""
    return _spacetime_sum([values], extent, t_max, n_t, 6, 3, order) ** (1 / 6)


def product_l3_norm(f: np.ndarray, g: np.ndarray, extent: float, t_max: float, n_t: int) -> float:
    """||(e^{it Delta^2} f)(e^{it Delta^2} g)||_{L^3} over [-t_max, t_max],
    2x zero padding as in qs4's bilinear product norm."""
    return _spacetime_sum([f, g], extent, t_max, n_t, 3, 2) ** (1 / 3)


def gaussian_sixth_power(width: float, t_max: float) -> float:
    """int_{-t_max}^{t_max} int |e^{iT Delta} A0_* phi|^6 dx dT for the unit
    Gaussian phi of width w: the map A0 leaves a Gaussian with widths
    a1 = w / sqrt 6 and a2 = w / sqrt 2, whose sixth power integrates in x to
    1 / (3 pi^2 a1^2 a2^2) prod_j (1 + 4 T^2 / a_j^4)^-1."""
    from scipy.integrate import quad

    a = (width / math.sqrt(6.0), width / math.sqrt(2.0))

    def slice_integral(T):
        return 1.0 / (3 * math.pi ** 2 * a[0] ** 2 * a[1] ** 2) / math.prod(
            1 + 4 * T ** 2 / aj ** 4 for aj in a)

    value, _ = quad(slice_integral, -t_max, t_max, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def modulation_limit(width: float, t_max: float) -> float:
    """The modulation scan's limit (2 sqrt 3)^(-1/3) ||e^{iT Delta} A0_* phi||_6."""
    return (2 * math.sqrt(3.0)) ** (-1 / 3) * gaussian_sixth_power(width, t_max) ** (1 / 6)


def stationary_phase_leading(T: float) -> float:
    """|I(T)| at X = 0 to leading order: the phase -T (6 xi_1^2 + 2 xi_2^2)
    with unit amplitude at xi = 0 gives pi / (T sqrt 12) = 2 pi / (T sqrt 48)."""
    return 2 * math.pi / (T * math.sqrt(48.0))


def self_test() -> float:
    """Relative gap between the plain quadratic L6 norm of A0_* phi and the
    closed form, on a lattice like the modulation workload's."""
    n, extent, width, t_max, n_t = 128, 16.0, 0.8, 3.0, 161
    x = extent / n * np.arange(-n // 2, n // 2)
    a1, a2 = width / math.sqrt(6.0), width / math.sqrt(2.0)
    mapped = np.exp(-x[:, None] ** 2 / (2 * a1 ** 2) - x[None, :] ** 2 / (2 * a2 ** 2)).astype(complex)
    mapped /= l2_norm(mapped, extent)
    plain = l6_norm(mapped, extent, t_max, n_t, order="quadratic")
    closed = gaussian_sixth_power(width, t_max) ** (1 / 6)
    return abs(plain - closed) / closed


if __name__ == "__main__":
    gap = self_test()
    print(f"plain L6 vs closed form, relative gap {gap:.3e} (limit 2e-3)")
    sys.exit(0 if gap <= 2e-3 else 1)
