"""The L^6 space-time norm, the Strichartz quotient, the 6-linear form Q, and
the Euler-Lagrange map.

Time integrals over R are truncated to a symmetric window [-t_max, t_max] and
evaluated by the composite trapezoid rule; window_norm accepts a window only
if the integrand slices at the endpoints contribute less than TAIL_FRACTION
of the accumulated p-th power.

All four quantities, and the bilinear product norm, run on one kernel,
evolve_padded, the only code that knows the padded lattice.  It evolves the
spectra to a chunk of time nodes, embeds them zero-padded by PAD_FACTOR per
axis and inverse-transforms them, so pointwise products (the |u|^4 u
quintic, Q's six-fold product, the sixth power inside the norm) are formed
on the refined lattice.  Every spectrum must pass check_band_guard at the
kernel's entry: that guard is the condition under which the padded products
keep wrapped frequencies out of the working band.  A per-chunk operation
supplied by the caller reduces the padded samples to a plain lattice sum,
and the kernel returns it times the refined lattice's cell area.  Each
chunk's padded arrays are freed before the next chunk is evolved.  A chunk
holds at most _TIME_CHUNK nodes and _CHUNK_BYTES of padded samples (but at
least one node), so memory stays bounded at any lattice size.

The working band sits at the start of each padded axis, not at its centre.
The samples then come out rolled by half the torus and multiplied by the
unimodular e^{i pi (j1 + j2) / pad}; |u|^p ignores both, even products
cancel the modulation pairwise, and _padded_forward removes it from el_map's
odd quintic by reading the band back from the same place.

The padded transforms are pruned 1-D passes (Orszag, J. Atmos. Sci. 28,
1971).  Going in, only the n nonzero columns of the (pad n)^2 lattice are
transformed along axis -2, then every row along axis -1.  Coming out,
_padded_forward transforms every row, keeps the n columns of the working
band, and transforms only those along axis -2.  Each pass transforms
(pad + 1) n lines of length pad n where a full 2-D transform takes 2 pad n:
2/3 of the line work at pad 3, 3/4 at pad 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from .errors import TailTestError, ValidationError
from .grid import Field, SpectralField, dft_forward, dft_inverse
from .propagator import check_band_guard

__all__ = [
    "TimeWindow",
    "evolve_padded",
    "window_norm",
    "spacetime_slices",
    "spacetime_norm",
    "strichartz_quotient",
    "q_form",
    "el_map",
]

PAD_FACTOR = 3
# Endpoint-slice contribution limit for accepting a time window: the share
# of the trapezoid sum held by the two endpoint slices.  That share carries
# the weight dt/2, so it halves when nt doubles while the truncation stays
# the same; the gate therefore does not bound the truncation error.  On the
# window [-2, 2] at nt = 257, shares of 4.5e-5 and 3.5e-4 went with norm
# losses of 0.066% and 0.62%.
TAIL_FRACTION = 1e-3
_TIME_CHUNK = 16
# Padded-sample budget of one chunk: 16 nodes of two pad-2 operands at n=256.
_CHUNK_BYTES = 128 << 20


@dataclass(frozen=True)
class TimeWindow:
    """Trapezoidal quadrature on [-t_max, t_max] with n_t nodes (n_t odd)."""

    t_max: float
    n_t: int

    def __post_init__(self):
        if not np.isfinite(self.t_max) or self.t_max <= 0:
            raise ValidationError(f"t_max must be positive, got {self.t_max}")
        if self.n_t < 3 or self.n_t % 2 == 0:
            raise ValidationError(f"n_t must be odd and >= 3, got {self.n_t}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.t_max, self.t_max, self.n_t)

    @cached_property
    def weights(self) -> np.ndarray:
        dt = 2 * self.t_max / (self.n_t - 1)
        w = np.full(self.n_t, dt)
        w[0] = w[-1] = dt / 2
        return w

    def refined(self) -> "TimeWindow":
        """The same window with the node spacing halved."""
        return TimeWindow(self.t_max, 2 * self.n_t - 1)


def _padded_inverse(coeffs: np.ndarray, pad: int, extent: float) -> np.ndarray:
    """Samples on the pad-fold refined lattice of centered coefficients
    (batched).

    Embeds the n x n block at the start of each (pad*n)-point axis, so the
    samples come out rolled by half the torus and multiplied by
    e^{i pi (j1 + j2) / pad}.  Only the n nonzero columns are transformed
    along axis -2 before every row is transformed along axis -1.
    """
    n = coeffs.shape[-1]
    nn = pad * n
    cols = np.zeros(coeffs.shape[:-2] + (nn, n), dtype=complex)
    np.multiply(coeffs, (nn / extent) ** 2, out=cols[..., :n, :])
    big = np.zeros(coeffs.shape[:-2] + (nn, nn), dtype=complex)
    big[..., :n] = sfft.ifft(cols, axis=-2, overwrite_x=True)
    return sfft.ifft(big, axis=-1, overwrite_x=True)


def _padded_forward(u: np.ndarray, n: int) -> np.ndarray:
    """Centered coefficients of the working band from samples laid out as
    _padded_inverse returns them (batched, overwrites u), up to the cell
    area: the rows are transformed and their first n entries kept, then only
    those n columns are transformed and their first n entries kept."""
    rows = sfft.fft(u, axis=-1, overwrite_x=True)[..., :n]
    return sfft.fft(rows, axis=-2, overwrite_x=True)[..., :n, :]


def evolve_padded(spectra: list, symbol: np.ndarray, times: np.ndarray,
                  op, pad: int = PAD_FACTOR) -> list:
    """The padded-evolution kernel: [cell * op(chunk, phases, us) for each
    time chunk], cell the area of the refined lattice's cell.

    `spectra` are SpectralFields on one grid; each must pass check_band_guard.
    `times` is cut into chunks of at most _TIME_CHUNK nodes and _CHUNK_BYTES
    of padded samples over all spectra (but at least one node).  For each,
    `chunk` is the slice of `times` it covers, `phases` is
    exp(i times[chunk] symbol) with shape (len, n, n), and `us[k]` holds the
    samples of spectra[k] evolved to those nodes on the pad-fold refined
    lattice, laid out as _padded_inverse returns them.  The padded arrays
    live only for the call to `op`, so op must reduce them to a small lattice
    sum; it may overwrite `us` (el_map forms its quintic and transforms in
    place), never the spectra.
    """
    g = spectra[0].grid
    if any(F.grid != g for F in spectra):
        raise ValidationError("operands live on different grids")
    for F in spectra:
        check_band_guard(F)
    cell = (g.extent / (pad * g.n)) ** 2
    step = max(1, min(_TIME_CHUNK, _CHUNK_BYTES // (len(spectra) * 16 * (pad * g.n) ** 2)))
    results = []
    for lo in range(0, len(times), step):
        chunk = slice(lo, lo + step)
        phases = np.exp(1j * times[chunk, None, None] * symbol[None, :, :])
        results.append(cell * op(chunk, phases, [_padded_inverse(F.coeffs * phases, pad, g.extent)
                                                 for F in spectra]))
    return results


def window_norm(slices: np.ndarray, w: TimeWindow, p: float, what: str,
                limit: float = TAIL_FRACTION) -> float:
    """(sum_t w_t slices_t)^(1/p) over the window.

    Raises TailTestError when the endpoint slices contribute more than
    `limit` of the sum: the integrand has not decayed inside the window.
    """
    total = float(np.dot(w.weights, slices))
    tail = w.weights[0] * slices[0] + w.weights[-1] * slices[-1]
    if total != 0 and tail > limit * total:
        raise TailTestError(
            f"{what}: endpoint slices contribute {tail / total:.3e} of the "
            f"integral (limit {limit:.0e}); enlarge the time window"
        )
    return total ** (1.0 / p)


def spacetime_slices(F: SpectralField, symbol: np.ndarray, w: TimeWindow) -> np.ndarray:
    """Per-node integrand slices sum_x |e^{it symbol} f|^6 on the padded grid.

    `symbol` is the real multiplier phase (the evolution is exp(i t symbol)).
    """
    def powers(chunk, phases, us):
        u, = us
        a2 = u.real ** 2
        a2 += u.imag ** 2
        return np.sum(a2 * a2 * a2, axis=(-2, -1))

    return np.concatenate(evolve_padded([F], symbol, w.nodes, powers))


def spacetime_norm(f: Field, w: TimeWindow) -> float:
    """(sum_t w_t sum_x |e^{it Delta^2} f|^6)^(1/6) over the window."""
    slices = spacetime_slices(dft_forward(f), f.grid.xi_sq ** 2, w)
    return window_norm(slices, w, 6, "space-time L^6 norm")


def strichartz_quotient(f: Field, w: TimeWindow) -> float:
    """||e^{it Delta^2} f||_6 / ||f||_2, a lower bound on the sharp constant."""
    denom = f.l2_norm()
    if denom == 0:
        raise ValidationError("Strichartz quotient of the zero field")
    return spacetime_norm(f, w) / denom


def q_form(f1: Field, f2: Field, f3: Field, f4: Field, f5: Field, f6: Field,
           w: TimeWindow) -> complex:
    """Q(f1..f6) = int prod_{k=1..3} conj(u_k) u_{k+3} dx dt with u = e^{it Delta^2} f.

    Each distinct operand object is evolved once, whatever slots it fills.
    """
    fields = (f1, f2, f3, f4, f5, f6)
    operands = {id(f): f for f in fields}
    slots = [list(operands).index(id(f)) for f in fields]
    spectra = [dft_forward(f) for f in operands.values()]

    def integrate(chunk, phases, us):
        u = [us[k] for k in slots]
        # the six modulations cancel pairwise in the even product
        prod = np.conj(u[0] * u[1] * u[2]) * (u[3] * u[4] * u[5])
        return np.dot(w.weights[chunk], prod.sum(axis=(-2, -1)))

    return complex(sum(evolve_padded(spectra, f1.grid.xi_sq ** 2, w.nodes, integrate)))


def el_map(f: Field, w: TimeWindow) -> Field:
    """Euler-Lagrange map Lambda(f) = P sum_t w_t e^{-it Delta^2}[|u|^4 u],
    u = e^{it Delta^2} f, P the projection onto the band check_band_guard
    admits (|xi| < grid.band, clear of the Nyquist row and column): the
    unique field in that band with <g, Lambda(f)> = Q(g, f, ..., f) for
    every g in it."""
    if f.l2_norm() == 0:
        raise ValidationError("Euler-Lagrange map of the zero field")
    g = f.grid
    real = np.max(np.abs(f.values.imag)) <= 1e-14 * np.max(np.abs(f.values.real))
    if real:
        # Real input: the t and -t contributions are complex conjugates, so
        # only the nonnegative half of the window needs evolving (t = 0 at
        # half weight, doubled along with everything else by taking 2 Re).
        mid = w.n_t // 2
        times, weights = w.nodes[mid:], w.weights[mid:].copy()
        weights[0] /= 2
    else:
        times, weights = w.nodes, w.weights

    def project(chunk, phases, us):
        u, = us
        # |u|^4 u, formed in place, keeps the single modulation, which
        # _padded_forward removes
        a2 = u.real ** 2
        a2 += u.imag ** 2
        a2 *= a2
        u *= a2
        return np.einsum("t,tab->ab", weights[chunk], _padded_forward(u, g.n) * np.conj(phases))

    acc = sum(evolve_padded([dft_forward(f)], g.xi_sq ** 2, times, project))
    result = dft_inverse(SpectralField(g, acc * (g.xi_abs < g.band)))
    if real:
        return Field(g, (2.0 * result.values.real).astype(complex))
    return result
