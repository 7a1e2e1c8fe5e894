"""Bilinear interaction of frequency-separated waves.

For f supported in |xi| <= s and g in Ns <= |eta| <= 2Ns, the product of the
two evolutions gains from the separation: the L3 space-time norm of
(e^{it Delta^2} f)(e^{it Delta^2} g) decays in N.  decay_scan measures the
log-log slope of that decay over a geometric ladder of separations; the
underlying transversality is quantified by the Jacobian of the resonance
change of variables, bounded below on dyadic shells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .functional import TimeWindow, evolve_padded, window_norm
from .grid import Field, Grid2D, dft_forward, make_random_field, spectral_cutoff
from .propagator import BAND_GUARD_FRACTION, check_band_guard

__all__ = [
    "SeparatedPair",
    "DecayFit",
    "make_separated_pair",
    "product_norm_l3",
    "decay_scan",
    "jacobian_det",
    "jacobian_shell_bound",
]

# Two-field products double the band, so padding by 2 per axis dealiases them.
_PAIR_PAD = 2

# Endpoint-slice gate for the product norm.  On a torus the dispersed
# high-frequency factor equilibrates to a nonzero background instead of
# escaping to infinity, so the endpoint slice holds a small but irreducible
# share of the integral (about half a percent in the shipped scans); the
# gate is set above that floor while still catching windows that truncate
# the actual interaction (an order of magnitude larger when it happens).
TAIL_FRACTION_BILINEAR = 1e-2

REFERENCE_SLOPE_FULL = -5.0 / 6.0
REFERENCE_SLOPE_WEAK = -1.0 / 3.0


@dataclass(frozen=True)
class SeparatedPair:
    """Unit-norm fields with f̂ in the ball |xi| <= s and ĝ in the annulus
    N s <= |eta| <= 2 N s."""

    f: Field
    g: Field
    s: float
    N: float

    def __post_init__(self):
        if self.s <= 0 or self.N < 2:
            raise ValidationError(f"need s > 0 and N >= 2, got s={self.s}, N={self.N}")
        if self.f.grid != self.g.grid:
            raise ValidationError("pair members live on different grids")
        for field, lo, hi, name in (
            (self.f, 0.0, self.s, "ball factor"),
            (self.g, self.N * self.s, 2 * self.N * self.s, "annulus factor"),
        ):
            C = np.abs(dft_forward(field).coeffs) ** 2
            r = field.grid.xi_abs
            outside = C[(r < lo - 1e-9) | (r > hi + 1e-9)].sum()
            if outside > 1e-12 * C.sum():
                raise ValidationError(f"{name} has spectral mass outside its band")


def _check_annulus_in_band(grid: Grid2D, s: float, N: float) -> None:
    if 2 * N * s > BAND_GUARD_FRACTION * grid.nyquist:
        raise ValidationError(
            f"annulus edge {2 * N * s:.2f} exceeds the guarded band "
            f"{BAND_GUARD_FRACTION * grid.nyquist:.2f}; enlarge the grid or shrink the scan"
        )


def make_separated_pair(grid: Grid2D, s: float, N: float, seed: int,
                        envelope_width: float | None = None) -> SeparatedPair:
    """Seeded random pair: independent localized noise, band-limited to the
    ball and the annulus respectively, both L2-normalized."""
    if s < 2 * (2 * np.pi / grid.extent):
        raise ValidationError(f"ball radius {s} too small for the frequency lattice")
    _check_annulus_in_band(grid, s, N)
    if envelope_width is None:
        envelope_width = grid.extent / 10
    f = make_random_field(grid, seed, band_radius=grid.nyquist / 2,
                          envelope_width=envelope_width)
    f = spectral_cutoff(f, 0.0, np.nextafter(s, np.inf))
    g = make_random_field(grid, seed + 10 ** 6, band_radius=grid.nyquist,
                          envelope_width=envelope_width)
    g = spectral_cutoff(g, N * s, np.nextafter(2 * N * s, np.inf))
    nf, ng = f.l2_norm(), g.l2_norm()
    if nf == 0 or ng == 0:
        raise ValidationError("a band of the separated pair is empty on this lattice")
    return SeparatedPair(Field(grid, f.values / nf), Field(grid, g.values / ng),
                         float(s), float(N))


def product_norm_l3(pair: SeparatedPair, w: TimeWindow) -> float:
    """|| (e^{it Delta^2} f)(e^{it Delta^2} g) ||_{L^3_{t,x}} over the window."""
    grid = pair.f.grid
    Ff = dft_forward(pair.f)
    Fg = dft_forward(pair.g)
    check_band_guard(Fg)
    quad = (grid.extent / (_PAIR_PAD * grid.n)) ** 2

    def powers(chunk, phases, us):
        uf, ug = us
        prod_sq = (uf.real ** 2 + uf.imag ** 2) * (ug.real ** 2 + ug.imag ** 2)
        return np.sum(prod_sq * np.sqrt(prod_sq), axis=(-2, -1)) * quad

    slices = np.concatenate(evolve_padded(grid, [Ff.coeffs, Fg.coeffs], grid.xi_sq ** 2,
                                          w.nodes, powers, pad=_PAIR_PAD))
    return window_norm(slices, w, 3, "bilinear L^3 norm", limit=TAIL_FRACTION_BILINEAR)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log ||product||_3 against log N."""

    s: float
    n_values: tuple
    medians: tuple
    per_seed: tuple
    slope: float
    intercept: float
    residual: float

    @property
    def reliable(self) -> bool:
        return self.residual <= 0.1

    @property
    def reference_slopes(self) -> tuple:
        return (REFERENCE_SLOPE_FULL, REFERENCE_SLOPE_WEAK)


def decay_scan(grid: Grid2D, s: float, n_values, seeds, w: TimeWindow,
               envelope_width: float | None = None) -> DecayFit:
    """Median bilinear norm over seeds at each separation, with a log-log fit.

    n_values must be a geometric ladder (>= 4 points).  The group velocity of
    the high-frequency factor grows like N^3, so both the interaction time and
    the time the dispersed field takes to re-enter through the torus boundary
    shrink like N^-3.  Each separation therefore gets the window rescaled by
    (N0/N)^3 with the node count held fixed: the window is self-similar across
    the ladder, covers the whole interaction, and keeps re-entry artifacts out.
    w sets the base window for the smallest separation.  The largest
    separation's annulus must lie inside the guarded band; that is checked
    before any pair is built.
    """
    n_values = [float(N) for N in n_values]
    if len(n_values) < 4:
        raise ValidationError("need at least four separation values")
    ratios = [b / a for a, b in zip(n_values, n_values[1:])]
    if any(r <= 1 for r in ratios) or any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValidationError("separations must form an increasing geometric ladder")
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("need at least one seed")
    _check_annulus_in_band(grid, s, n_values[-1])

    medians = []
    per_seed = []
    for N in n_values:
        w_n = TimeWindow(w.t_max * (n_values[0] / N) ** 3, w.n_t)
        vals = []
        for seed in seeds:
            pair = make_separated_pair(grid, s, N, seed, envelope_width=envelope_width)
            vals.append(product_norm_l3(pair, w_n))
        per_seed.append(tuple(vals))
        medians.append(float(np.median(vals)))

    log_n = np.log(n_values)
    log_m = np.log(medians)
    slope, intercept = np.polyfit(log_n, log_m, 1)
    fit = slope * log_n + intercept
    res = float(np.sqrt(np.mean((log_m - fit) ** 2)))
    return DecayFit(
        s=float(s),
        n_values=tuple(n_values),
        medians=tuple(medians),
        per_seed=tuple(per_seed),
        slope=float(slope),
        intercept=float(intercept),
        residual=res,
    )


def jacobian_det(xi, eta) -> float:
    """|det| of the resonance map linearization: 4 |eta_1 |eta|^2 - xi_1 |xi|^2|."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    xi_sq = np.sum(xi ** 2, axis=-1)
    eta_sq = np.sum(eta ** 2, axis=-1)
    out = 4.0 * np.abs(eta[..., 0] * eta_sq - xi[..., 0] * xi_sq)
    return float(out) if np.ndim(out) == 0 else out


def jacobian_shell_bound(s: float, N: float, k: int, n_samples: int = 10000,
                         seed: int = 0) -> tuple:
    """Sampled transversality floor on a dyadic shell.

    Draws xi uniformly in |xi| <= s and eta in the annulus
    2^k N s <= |eta| <= 2^(k+1) N s subject to eta_1 - xi_1 >= N s, and
    returns (min sampled |det|, 2^{2k} (N s)^3), the scale against which the
    minimum should be bounded below by a k-independent constant.
    """
    if k < 0 or N < 2:
        raise ValidationError("need k >= 0 and N >= 2")
    rng = np.random.default_rng(seed)
    xi_list, eta_list = [], []
    count = 0
    while count < n_samples:
        batch = 4 * (n_samples - count)
        r_xi = s * np.sqrt(rng.uniform(0, 1, batch))
        th_xi = rng.uniform(0, 2 * np.pi, batch)
        xi = np.stack([r_xi * np.cos(th_xi), r_xi * np.sin(th_xi)], axis=-1)
        lo, hi = 2.0 ** k * N * s, 2.0 ** (k + 1) * N * s
        r_eta = np.sqrt(rng.uniform(lo ** 2, hi ** 2, batch))
        th_eta = rng.uniform(0, 2 * np.pi, batch)
        eta = np.stack([r_eta * np.cos(th_eta), r_eta * np.sin(th_eta)], axis=-1)
        keep = eta[:, 0] - xi[:, 0] >= N * s
        xi_list.append(xi[keep])
        eta_list.append(eta[keep])
        count += int(keep.sum())
    xi = np.concatenate(xi_list)[:n_samples]
    eta = np.concatenate(eta_list)[:n_samples]
    vals = jacobian_det(xi, eta)
    scale = 2.0 ** (2 * k) * (N * s) ** 3
    return float(np.min(vals)), float(scale)
