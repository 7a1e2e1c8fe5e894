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
and the kernel returns it times the refined lattice's cell area.  A chunk
holds at most _TIME_CHUNK nodes and _CHUNK_BYTES of padded samples (but at
least one node), so memory stays bounded at any lattice size.  The kernel
allocates its buffers once per call, for one chunk, and every chunk is
evolved, padded and transformed in place in them; the phases of a chunk
are the exp of the symbol's distinct values, gathered onto the lattice.

The working band sits at the start of each padded axis, not at its centre:
the spectrum is zero-padded at the end of each axis.  The samples then come
out rolled by half the torus and multiplied by the unimodular
e^{i pi (j1 + j2) / pad}; |u|^p ignores both, even products cancel the
modulation pairwise, and _padded_forward removes it from el_map's odd
quintic by reading the band back from the same place.

The padded transforms are pruned 1-D passes (Orszag, J. Atmos. Sci. 28,
1971).  Going in, only the n nonzero columns of the (pad n)^2 lattice are
transformed along axis -2, then every row along axis -1.  Coming out,
_padded_forward transforms every row, keeps the n columns of the working
band, and transforms only those along axis -2.  Each pass transforms
(pad + 1) n lines of length pad n where a full 2-D transform takes 2 pad n:
2/3 of the line work at pad 3, 3/4 at pad 2.

Spectra of fields that are real and even in each axis (f(x1, x2) =
f(-x1, x2) = f(x1, -x2)) have a second transform pair, on a quarter of the
lattice.  Such a spectrum is real and even in each axis, and so is its
evolution's phase, so for M = pad n the evolved field is even on the
refined lattice and its DFT along an axis is the DCT-I of the M/2 + 1
samples at x = 0, L/M, ..., L/2 (Martucci, IEEE Trans. Signal Process. 42,
1994).  The kernel reads the (n/2)^2 quarter k1, k2 = 0..n/2 - 1 of the
centred spectrum, zero-pads it at the end of each axis to M/2 + 1 points
and runs dct(type=1) along each axis, pruned as above; _quarter_forward
reads the same quarter back.  The samples come out unrolled and
unmodulated, at the points m1 L/M, m2 L/M of the (M/2 + 1)^2 quarter
lattice, m = 0..M/2.  An op on that lattice stands for the whole lattice:
its lattice sums weight the lines m = 0 and m = M/2 once and every other
line twice, and the DCT-I of _quarter_forward applies exactly those
weights.  The Nyquist line k = -n/2 is not read; for a spectrum in the
guarded band it is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

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
    "classify",
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
# Padded-sample budget of one chunk, in buffers allocated once per call: two
# nodes of the bilinear scan's two pad-2 operands at n=256, one pad-3 node at
# n=256, all 16 nodes of el_map's quarter lattice up to n=128.  Budgets of 32
# to 128 MiB ran the bilinear product norm at n=256 20-50% slower (2-core x86).
_CHUNK_BYTES = 16 << 20


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


def _padded_inverse(cols: np.ndarray, out: np.ndarray, even: bool) -> np.ndarray:
    """Samples on the pad-fold refined lattice of centered coefficients
    (batched), up to the factor (pad n / extent)^2 the caller applies.

    The transforms run in place in two buffers the caller owns, and both are
    overwritten: the first n rows of `cols`, shaped (..., M, n) with
    M = pad n, hold the coefficients, and `out`, shaped (..., M, M),
    receives the samples and is returned.  The coefficients are zero-padded
    at the end of each axis, so the samples come out rolled by half the
    torus and multiplied by e^{i pi (j1 + j2) / pad}.  Only the n nonzero
    columns are transformed along axis -2 before every row is transformed
    along axis -1.

    With `even`, `cols` holds the (n/2)^2 quarter k1, k2 >= 0 of a spectrum
    even in each axis, M = pad n/2 + 1 and each pass is a DCT-I: the samples
    lie on the M x M quarter of the refined lattice, unrolled and
    unmodulated.
    """
    n = cols.shape[-1]
    if even:
        transform = partial(sfft.dct, type=1, norm="forward")
    else:
        transform = sfft.ifft
    cols[..., n:, :] = 0
    out[..., :n] = transform(cols, axis=-2, overwrite_x=True)
    out[..., n:] = 0
    return transform(out, axis=-1, overwrite_x=True)


def _padded_forward(u: np.ndarray, n: int) -> np.ndarray:
    """Centered coefficients of the working band from samples laid out as
    _padded_inverse returns them (batched, overwrites u), up to the cell
    area: the rows are transformed and their first n entries kept, then only
    those n columns are transformed and their first n entries kept."""
    rows = sfft.fft(u, axis=-1, overwrite_x=True)[..., :n]
    return sfft.fft(rows, axis=-2, overwrite_x=True)[..., :n, :]


def _quarter_forward(u: np.ndarray, h: int) -> np.ndarray:
    """_padded_forward for samples laid out as _padded_inverse returns them
    with `even` (batched, overwrites u): the quarter k1, k2 = 0..h-1 of the
    spectrum of their even extension, up to the cell area."""
    rows = sfft.dct(u, type=1, axis=-1, overwrite_x=True)[..., :h]
    return sfft.dct(rows, type=1, axis=-2, overwrite_x=True)[..., :h, :]


def evolve_padded(spectra: list, symbol: np.ndarray, times: np.ndarray,
                  op, pad: int = PAD_FACTOR, even: bool = False) -> list:
    """The padded-evolution kernel: [cell * op(chunk, phases, us) for each
    time chunk], cell the area of the refined lattice's cell.

    `spectra` are SpectralFields on one grid; each must pass check_band_guard.
    `times` is cut into chunks of at most _TIME_CHUNK nodes and _CHUNK_BYTES
    of padded samples over all spectra (but at least one node).  For each,
    `chunk` is the slice of `times` it covers, `phases` is
    exp(i times[chunk] symbol) with shape (len, n, n), and `us[k]` holds the
    samples of spectra[k] evolved to those nodes on the pad-fold refined
    lattice, laid out as _padded_inverse returns them.  `phases` and `us`
    are views of buffers allocated once per call and refilled for every
    chunk, so op must reduce them to a small lattice sum and keep no
    reference to them; it may overwrite `us` (el_map forms its quintic and
    transforms in place), never the spectra.

    With `even`, the spectra belong to fields real and even in each axis
    and `symbol` is even in each axis: `phases` is its (len, n/2, n/2)
    quarter and `us[k]` the samples on the quarter lattice, laid out as
    _padded_inverse returns them with `even` (see the module docstring for
    the weights op's lattice sums take there).
    """
    g = spectra[0].grid
    if any(F.grid != g for F in spectra):
        raise ValidationError("operands live on different grids")
    for F in spectra:
        check_band_guard(F)
    nn = pad * g.n
    scale, cell = (nn / g.extent) ** 2, (g.extent / nn) ** 2
    if even:
        h = g.n // 2
        coeffs = [F.coeffs[h:, h:] for F in spectra]
        symbol, side = symbol[h:, h:], nn // 2 + 1
    else:
        coeffs = [F.coeffs for F in spectra]
        side = nn
    n = symbol.shape[-1]
    step = max(1, min(_TIME_CHUNK, len(times),
                      _CHUNK_BYTES // (len(spectra) * 16 * side ** 2)))
    # each chunk takes exp of the symbol's distinct values and gathers it:
    # the same floats go into the same exp
    values, where = np.unique(symbol, return_inverse=True)
    where = where.reshape(symbol.shape)
    phase_buf = np.empty((step, n, n), complex)
    col_bufs = [np.empty((step, side, n), complex) for _ in spectra]
    pad_bufs = [np.empty((step, side, side), complex) for _ in spectra]
    results = []
    for lo in range(0, len(times), step):
        chunk = slice(lo, lo + step)
        k = len(times[chunk])
        table = np.exp(1j * times[chunk, None] * values)
        # "clip" lets take write straight into the buffer ("raise" copies)
        phases = np.take(table, where, axis=1, out=phase_buf[:k], mode="clip")
        us = []
        for c, cols, out in zip(coeffs, col_bufs, pad_bufs):
            head = cols[:k, :n]
            np.multiply(c, phases, out=head)
            head *= scale
            us.append(_padded_inverse(cols[:k], out[:k], even))
        results.append(cell * op(chunk, phases, us))
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
        a6 = u.imag ** 2
        a2 += a6
        np.multiply(a2, a2, out=a6)
        a6 *= a2
        return np.sum(a6, axis=(-2, -1))

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


def classify(f: Field) -> tuple:
    """(symmetry, f projected exactly onto it), the class el_map is told.

    "general" unless the imaginary part is at most 1e-14 of the real part;
    then "even" if the real part's mirror defect along each axis
    (j -> n - j mod n, i.e. x -> -x) is at most 1e-14 of its peak, else
    "real".  The projection drops the imaginary part and, for "even",
    averages the four reflections, pairwise so that the result is exactly
    even.  These are the only tolerance tests of the classes: a caller
    classifies its starting field once and passes the class to every
    el_map call, since rounding can carry an iterate past the tolerances.
    """
    v = f.values
    if np.max(np.abs(v.imag)) > 1e-14 * np.max(np.abs(v.real)):
        return "general", f
    r = v.real
    r0 = np.roll(r[::-1, :], 1, axis=0)
    r1 = np.roll(r[:, ::-1], 1, axis=1)
    if max(np.max(np.abs(r - r0)), np.max(np.abs(r - r1))) > 1e-14 * np.max(np.abs(r)):
        return "real", Field(f.grid, r)
    s = r + r0
    s += np.roll(s[:, ::-1], 1, axis=1)
    return "even", Field(f.grid, s / 4)


def el_map(f: Field, w: TimeWindow, symmetry: str) -> Field:
    """Euler-Lagrange map Lambda(f) = P sum_t w_t e^{-it Delta^2}[|u|^4 u],
    u = e^{it Delta^2} f, P the projection onto the band check_band_guard
    admits (|xi| < grid.band, clear of the Nyquist row and column): the
    unique field in that band with <g, Lambda(f)> = Q(g, f, ..., f) for
    every g in it.

    `symmetry` is the class of f, decided once by the caller (see classify)
    and taken as given: "general" sums the whole window; "real" sums the
    t >= 0 half (the t and -t contributions are complex conjugates) and
    takes 2 Re; "even" does the same on the quarter lattice and mirrors the
    quarter spectrum exactly into the full one before the band projection.
    """
    if symmetry not in ("general", "real", "even"):
        raise ValidationError(f"symmetry must be general, real or even, got {symmetry!r}")
    if f.l2_norm() == 0:
        raise ValidationError("Euler-Lagrange map of the zero field")
    g = f.grid
    h = g.n // 2
    even = symmetry == "even"
    if symmetry == "general":
        times, weights = w.nodes, w.weights
    else:
        # t = 0 at half weight, doubled along with everything else by 2 Re
        times, weights = w.nodes[w.n_t // 2:], w.weights[w.n_t // 2:].copy()
        weights[0] /= 2

    def project(chunk, phases, us):
        u, = us
        # |u|^4 u, formed in place, keeps the single modulation, which
        # _padded_forward removes (the quarter lattice carries none)
        a2 = u.real ** 2
        a2 += u.imag ** 2
        a2 *= a2
        u *= a2
        back = _quarter_forward(u, h) if even else _padded_forward(u, g.n)
        return np.einsum("t,tab->ab", weights[chunk], back * np.conj(phases))

    acc = sum(evolve_padded([dft_forward(f)], g.xi_sq ** 2, times, project, even=even))
    if even:
        # centred rows and columns 1..n-1 hold k = 1-h..h-1; the Nyquist
        # line k = -h lies outside the band
        k = np.abs(np.arange(1 - h, h))
        full = np.zeros((g.n, g.n), complex)
        full[1:, 1:] = acc[np.ix_(k, k)]
        acc = full
    result = dft_inverse(SpectralField(g, acc * (g.xi_abs < g.band)))
    if symmetry == "general":
        return result
    return Field(g, (2.0 * result.values.real).astype(complex))
