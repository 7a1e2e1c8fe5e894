"""Symmetry group actions and profile decompositions.

The group element p = (h, x0, t0, xi0) acts on a field g by

    (T_p g)(x) = e^{-i t0 Delta^2} [ e^{i (. ) . xi0} h^{-1} g((. - x0)/h) ](x),

that is: dilate by h (L2-unitarily), modulate by xi0, translate by x0, then
evolve backwards by t0.  Every operation preserves the L2 norm, and (h, x0,
t0) preserve the space-time L6 norm over R, so the quotient is invariant
under them.  Modulation is not: e^{it Delta^2} has no Galilean symmetry, and
xi0 = (2, 0) lowers a width-0.8 Gaussian's quotient on 128^2, extent 32,
window (2, 129) from 0.45805 to 0.38444 (see asymptotics.modulation_scan).

Decompositions u ~ sum_j T_{p_j} phi_j + remainder are represented by
DecompositionResult; extract_profiles builds one greedily with a matched
filter over a dictionary of candidate bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .functional import TimeWindow, spacetime_norm
from .grid import (
    Field,
    SpectralField,
    dft_forward,
    dft_inverse,
    inner_product,
    make_random_field,
)
from .propagator import check_band_guard, evolve_quartic, resample_linear

__all__ = [
    "SymmetryParams",
    "DecompositionResult",
    "apply_symmetry",
    "synthesize_sequence",
    "orthogonality_defect",
    "extract_profiles",
]

# A stage whose matched coefficient falls below this fraction of the
# residual norm ends the extraction.
_COEFF_FLOOR = 0.1


@dataclass(frozen=True)
class SymmetryParams:
    """Group element (scale h, space shift x0, time shift t0, modulation xi0)."""

    h: float = 1.0
    x0: tuple = (0.0, 0.0)
    t0: float = 0.0
    xi0: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not np.isfinite(self.h) or self.h <= 0:
            raise ValidationError(f"scale h must be positive, got {self.h}")
        x0 = np.asarray(self.x0, dtype=float)
        xi0 = np.asarray(self.xi0, dtype=float)
        if x0.shape != (2,) or not np.all(np.isfinite(x0)):
            raise ValidationError(f"x0 must be a finite 2-vector, got {self.x0}")
        if xi0.shape != (2,) or not np.all(np.isfinite(xi0)):
            raise ValidationError(f"xi0 must be a finite 2-vector, got {self.xi0}")
        if not np.isfinite(self.t0):
            raise ValidationError(f"t0 must be finite, got {self.t0}")
        object.__setattr__(self, "x0", (float(x0[0]), float(x0[1])))
        object.__setattr__(self, "xi0", (float(xi0[0]), float(xi0[1])))

    def inverse(self) -> "SymmetryParams":
        """Group inverse; defined here only for unmodulated elements, since a
        nonzero xi0 inverts only up to a constant phase."""
        if self.xi0 != (0.0, 0.0):
            raise ValidationError("inverse() requires xi0 = 0")
        h, t0 = self.h, self.t0
        x0 = np.asarray(self.x0)
        return SymmetryParams(h=1.0 / h, x0=tuple(-x0 / h), t0=-t0 / h ** 4)


def _translate(f: Field, x0: np.ndarray) -> Field:
    """Shift by x0 via the spectral phase (exact for band-limited samples)."""
    g = f.grid
    F = dft_forward(f)
    phase = np.exp(-1j * (g.xi[:, None] * x0[0] + g.xi[None, :] * x0[1]))
    return dft_inverse(SpectralField(g, F.coeffs * phase))


def apply_symmetry(f: Field, p: SymmetryParams) -> Field:
    """T_p f: dilate, modulate, translate, then evolve backwards by t0."""
    g = f.grid
    out = f
    if p.h != 1.0:
        out = resample_linear(out, 1.0 / p.h)
    if p.xi0 != (0.0, 0.0):
        phase = np.exp(1j * (p.xi0[0] * g.x[:, None] + p.xi0[1] * g.x[None, :]))
        out = Field(g, out.values * phase)
    if p.x0 != (0.0, 0.0):
        out = _translate(out, np.asarray(p.x0))
    if p.t0 != 0.0:
        out = evolve_quartic(out, -p.t0)
    return out


@dataclass(frozen=True)
class DecompositionResult:
    """Profiles phi_j in the dictionary frame, the group elements that place
    them into the analyzed field, and the unexplained remainder."""

    profiles: list
    params: list
    remainder: Field


def synthesize_sequence(profiles: list, param_seqs: list, n_index: int,
                        noise_amp: float = 0.0, rng_seed: int = 0) -> Field:
    """Superpose T_{p_j(n)} phi_j at sequence index n, plus optional seeded
    band-limited noise of L2 size noise_amp.

    param_seqs[j] is the parameter sequence for profile j; two profiles whose
    parameters coincide at this index would not be asymptotically orthogonal,
    so that is rejected.
    """
    if len(profiles) != len(param_seqs) or not profiles:
        raise ValidationError("need one parameter sequence per profile")
    params = []
    for seq in param_seqs:
        if not 0 <= n_index < len(seq):
            raise ValidationError(f"sequence index {n_index} out of range")
        params.append(seq[n_index])
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            if params[i] == params[j]:
                raise ValidationError(
                    f"profiles {i} and {j} share identical parameters at index {n_index}"
                )
    g = profiles[0].grid
    total = np.zeros((g.n, g.n), dtype=complex)
    for phi, p in zip(profiles, params):
        if phi.grid != g:
            raise ValidationError("profiles live on different grids")
        total += apply_symmetry(phi, p).values
    if noise_amp != 0.0:
        noise = make_random_field(g, rng_seed, band_radius=0.5 * g.nyquist,
                                  envelope_width=g.extent / 8)
        total += noise_amp * noise.values
    return Field(g, total)


def orthogonality_defect(u: Field, result: DecompositionResult, w: TimeWindow) -> tuple:
    """How far the decomposition is from Pythagorean: returns the relative
    defects of the L2 identity ||u||^2 = sum ||T phi_j||^2 + ||r||^2 and of the
    sixth-power space-time identity."""
    pieces = [apply_symmetry(phi, p) for phi, p in zip(result.profiles, result.params)]
    l2_u = u.l2_norm() ** 2
    if l2_u == 0:
        raise ValidationError("orthogonality defect of the zero field")
    l2_sum = sum(piece.l2_norm() ** 2 for piece in pieces) + result.remainder.l2_norm() ** 2
    l2_defect = abs(l2_u - l2_sum) / l2_u

    s_u = spacetime_norm(u, w) ** 6
    s_sum = sum(spacetime_norm(piece, w) ** 6 for piece in pieces)
    if result.remainder.l2_norm() > 1e-12 * np.sqrt(l2_u):
        s_sum += spacetime_norm(result.remainder, w) ** 6
    strichartz_defect = abs(s_u - s_sum) / s_u
    return float(l2_defect), float(strichartz_defect)


def _golden_max(fun, a: float, b: float, tol: float = 1e-3) -> tuple:
    """Golden-section maximization of a unimodal-ish scalar function."""
    invphi = (np.sqrt(5.0) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc > fd else (d, fd)


def extract_profiles(u: Field, dictionary: list, max_profiles: int, w: TimeWindow,
                     h_grid=None, t0_grid=None) -> DecompositionResult:
    """Greedy matched-filter decomposition of u against a dictionary of shapes.

    Each stage scans dictionary element, dyadic scale, and a time-shift grid
    (with golden-section refinement in t0), locates the best spatial shift by
    an exact cross-correlation, projects it out, and repeats until the matched
    coefficient drops below _COEFF_FLOOR * ||residual|| or max_profiles is hit.
    Scales that would squeeze a shape below the lattice spacing are skipped.
    The filter works on spectra: each candidate shape is transformed once,
    the residual once per stage, and each score costs one inverse transform.
    """
    if not dictionary:
        raise ValidationError("empty dictionary")
    if max_profiles < 1:
        raise ValidationError("max_profiles must be >= 1")
    g = u.grid
    if h_grid is None:
        h_grid = [2.0 ** k for k in range(-2, 3)]
    if t0_grid is None:
        t0_grid = np.linspace(-w.t_max / 2, w.t_max / 2, 9)
    xi4 = g.xi_sq ** 2

    candidates = []  # (dictionary index, scale, spectrum of the dilated shape)
    for d_idx, shape in enumerate(dictionary):
        for h in h_grid:
            try:
                base = resample_linear(shape, 1.0 / h) if h != 1.0 else shape
                B = dft_forward(base)
                check_band_guard(B)
            except (ValidationError, NumericalGuardError):
                # squeezed below what the lattice can represent
                continue
            candidates.append((d_idx, h, B.coeffs))
    if not candidates:
        raise ValidationError("no dictionary shape passes the band guard at any scale in h_grid")

    residual = u
    profiles, params = [], []
    norm_u_sq = u.l2_norm() ** 2

    for _ in range(max_profiles):
        r_norm = residual.l2_norm()
        if r_norm <= 1e-12 * np.sqrt(norm_u_sq):
            break
        R = dft_forward(residual).coeffs

        def correlation(B, t0):
            """<Tr_{x0} e^{-i t0 Delta^2} base, residual> for every lattice shift x0."""
            P = B * np.exp(-1j * t0 * xi4)
            return dft_inverse(SpectralField(g, np.conj(P) * R)).values

        best = None
        for d_idx, h, B in candidates:
            def score(t0, _B=B):
                return float(np.max(np.abs(correlation(_B, t0))))

            coarse = [(score(t0), t0) for t0 in t0_grid]
            s0, t0c = max(coarse)
            if len(t0_grid) > 1:
                step = t0_grid[1] - t0_grid[0]
                lo = max(t0c - step, t0_grid[0])
                hi = min(t0c + step, t0_grid[-1])
                t0_best, s_best = _golden_max(score, lo, hi)
                if s0 > s_best:
                    t0_best, s_best = t0c, s0
            else:
                t0_best, s_best = t0c, s0
            if best is None or s_best > best[0]:
                best = (s_best, d_idx, h, t0_best, B)
        _, d_idx, h, t0, B = best
        corr = correlation(B, t0)
        i, j = np.unravel_index(np.argmax(np.abs(corr)), corr.shape)
        p = SymmetryParams(h=h, x0=(float(g.x[i]), float(g.x[j])), t0=t0)
        atom = apply_symmetry(dictionary[d_idx], p)
        atom = Field(g, atom.values / atom.l2_norm())
        coeff = inner_product(atom, residual)
        if abs(coeff) < _COEFF_FLOOR * r_norm:
            break
        profiles.append(coeff * dictionary[d_idx])
        params.append(p)
        residual = residual - coeff * atom

    return DecompositionResult(profiles, params, residual)
