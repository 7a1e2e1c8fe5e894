"""Symmetry action, quotient invariance, synthesis, and profile extraction."""

import numpy as np
import pytest

from qs4.errors import ValidationError
from qs4.functional import TimeWindow, spacetime_norm, strichartz_quotient
from qs4.grid import make_gaussian, make_grid, make_random_field
from qs4.profiles import (
    DecompositionResult,
    SymmetryParams,
    apply_symmetry,
    extract_profiles,
    orthogonality_defect,
    synthesize_sequence,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(128, 32.0)


@pytest.fixture(scope="module")
def bump(grid):
    return make_gaussian(grid, width=0.8)


class TestSymmetryParams:
    def test_defaults_are_identity(self):
        p = SymmetryParams()
        assert p.h == 1.0 and p.x0 == (0.0, 0.0) and p.t0 == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            SymmetryParams(h=0.0)
        with pytest.raises(ValidationError):
            SymmetryParams(x0=(1.0,))
        with pytest.raises(ValidationError):
            SymmetryParams(t0=np.inf)

    def test_inverse_composition(self):
        p = SymmetryParams(h=2.0, x0=(1.0, -0.5), t0=0.01)
        q = p.inverse()
        assert q.h == 0.5
        assert np.allclose(q.x0, (-0.5, 0.25))
        assert np.isclose(q.t0, -0.01 / 16)

    def test_inverse_rejects_modulated(self):
        with pytest.raises(ValidationError):
            SymmetryParams(xi0=(1.0, 0.0)).inverse()


class TestApplySymmetry:
    def test_identity(self, bump):
        out = apply_symmetry(bump, SymmetryParams())
        assert np.max(np.abs(out.values - bump.values)) < 1e-14

    def test_l2_preserved(self, bump):
        p = SymmetryParams(h=2.0, x0=(1.5, -2.0), t0=0.05, xi0=(1.0, 0.5))
        out = apply_symmetry(bump, p)
        assert abs(out.l2_norm() - bump.l2_norm()) < 1e-6

    def test_inverse_recovers(self, bump):
        p = SymmetryParams(h=2.0, x0=(1.0, 0.5), t0=0.01)
        there = apply_symmetry(bump, p)
        back = apply_symmetry(there, p.inverse())
        assert np.max(np.abs(back.values - bump.values)) < 1e-5

    def test_translation_exact(self, grid, bump):
        # lattice translations are exact for band-limited samples
        p = SymmetryParams(x0=(2 * grid.spacing, 0.0))
        out = apply_symmetry(bump, p)
        assert np.max(np.abs(out.values - np.roll(bump.values, 2, axis=0))) < 1e-10


class TestQuotientInvariance:
    def test_translation_invariance(self, bump):
        w = TimeWindow(2.0, 33)
        q0 = strichartz_quotient(bump, w)
        q1 = strichartz_quotient(
            apply_symmetry(bump, SymmetryParams(x0=(1.0, -0.7))), w)
        assert abs(q1 - q0) / q0 < 1e-6

    def test_time_shift_invariance(self, bump):
        # the slice profile peaks sharply at t = 0, so the shift must be
        # node-aligned and the window long enough that the endpoint slices
        # are at the equilibrated floor
        w = TimeWindow(8.0, 129)
        dt = 2 * w.t_max / (w.n_t - 1)
        q0 = strichartz_quotient(bump, w)
        q1 = strichartz_quotient(
            apply_symmetry(bump, SymmetryParams(t0=dt)), w)
        assert abs(q1 - q0) / q0 < 1e-6

    def test_scaling_with_time_rescale(self, bump):
        # h-dilation with the window rescaled by h^4 preserves the norm
        w = TimeWindow(2.0, 33)
        h = 0.5
        scaled = apply_symmetry(bump, SymmetryParams(h=h))
        n0 = spacetime_norm(bump, w)
        n1 = spacetime_norm(scaled, TimeWindow(w.t_max * h ** 4, w.n_t))
        assert abs(n1 - n0) / n0 < 0.01


class TestSynthesis:
    def test_single_profile_roundtrip(self, bump):
        p = SymmetryParams(x0=(3.0, 0.0))
        u = synthesize_sequence([bump], [[p]], 0)
        expected = apply_symmetry(bump, p)
        assert np.max(np.abs(u.values - expected.values)) < 1e-12

    def test_identical_parameters_rejected(self, bump):
        p = SymmetryParams(x0=(1.0, 0.0))
        with pytest.raises(ValidationError):
            synthesize_sequence([bump, bump], [[p], [p]], 0)

    def test_index_out_of_range(self, bump):
        with pytest.raises(ValidationError):
            synthesize_sequence([bump], [[SymmetryParams()]], 5)

    @pytest.mark.parametrize("amp", [-0.5, np.nan, np.inf])
    def test_noise_amplitude_checked(self, bump, amp):
        # nan and inf had failed only after synthesis, -0.5 ran negated
        with pytest.raises(ValidationError, match="nonnegative and finite"):
            synthesize_sequence([bump], [[SymmetryParams()]], 0, noise_amp=amp)

    def test_noise_deterministic(self, bump):
        a = synthesize_sequence([bump], [[SymmetryParams()]], 0,
                                noise_amp=0.1, rng_seed=3)
        b = synthesize_sequence([bump], [[SymmetryParams()]], 0,
                                noise_amp=0.1, rng_seed=3)
        assert np.array_equal(a.values, b.values)


@pytest.fixture(scope="module")
def separated_setup():
    g = make_grid(128, 48.0)
    phi = make_gaussian(g, width=0.8)
    p1 = SymmetryParams(x0=(-9.0, 0.0))
    p2 = SymmetryParams(x0=(9.0, 0.0))
    u = synthesize_sequence([phi, phi], [[p1], [p2]], 0)
    return g, phi, (p1, p2), u


class TestOrthogonalityDefect:
    def test_separated_bubbles_nearly_pythagorean(self, separated_setup):
        g, phi, (p1, p2), u = separated_setup
        w = TimeWindow(2.0, 33)
        result = DecompositionResult([phi, phi], [p1, p2], 0.0 * phi)
        l2_d, s_d = orthogonality_defect(u, result, w)
        assert l2_d < 1e-3
        assert s_d < 1e-2


@pytest.fixture(scope="module")
def two_bumps(bump):
    seqs = [[SymmetryParams(x0=(-5.0, 0.0))], [SymmetryParams(x0=(5.0, 0.0))]]
    return synthesize_sequence([bump, bump], seqs, 0)


class TestExtractProfiles:
    def test_recovers_translated_bubbles(self, separated_setup):
        g, phi, (p1, p2), u = separated_setup
        w = TimeWindow(2.0, 33)
        result = extract_profiles(u, [phi], 2, w, h_grid=[1.0], t0_grid=[0.0])
        assert len(result.profiles) == 2
        found = sorted(p.x0[0] for p in result.params)
        assert np.allclose(found, [-9.0, 9.0], atol=g.spacing / 2)
        # each recovered coefficient within 5% of unit weight
        for prof in result.profiles:
            assert abs(prof.l2_norm() - 1.0) < 0.05
        assert result.remainder.l2_norm() < 0.05 * u.l2_norm()
        explained = sum(prof.l2_norm() ** 2 for prof in result.profiles)
        norm_sq = u.l2_norm() ** 2
        assert abs(norm_sq - explained - result.remainder.l2_norm() ** 2) / norm_sq < 1e-3

    def test_remainder_is_projection_onto_reported_atoms(self, separated_setup):
        # full scale and time-shift search; the reported group elements must
        # rebuild the atoms that were projected out
        g, phi, _, u = separated_setup
        w = TimeWindow(2.0, 33)
        result = extract_profiles(u, [phi], 2, w)
        assert len(result.params) == 2
        remainder = u
        for p in result.params:
            atom = apply_symmetry(phi, p)
            atom = atom * (1.0 / atom.l2_norm())
            coeff = np.vdot(atom.values, remainder.values) * g.spacing ** 2
            remainder = remainder - coeff * atom
        assert (remainder - result.remainder).l2_norm() <= 1e-12 * u.l2_norm()

    def test_stops_at_coeff_floor(self, separated_setup):
        g, phi, (p1, p2), u = separated_setup
        w = TimeWindow(2.0, 33)
        result = extract_profiles(u, [phi], 5, w, h_grid=[1.0], t0_grid=[0.0])
        assert len(result.profiles) <= 3

    def test_validation(self, bump):
        w = TimeWindow(2.0, 33)
        with pytest.raises(ValidationError):
            extract_profiles(bump, [], 1, w)
        with pytest.raises(ValidationError):
            extract_profiles(bump, [bump], 0, w)
        # a shape with mass at the lattice edge has no admissible scale here
        edge = make_random_field(bump.grid, 0, band_radius=bump.grid.nyquist)
        with pytest.raises(ValidationError):
            extract_profiles(bump, [edge], 1, w, h_grid=[1.0])

    @pytest.mark.parametrize("n, extent", [(128, 64.0), (64, 32.0)])
    def test_shape_on_other_grid_rejected(self, two_bumps, n, extent):
        # the first had returned no profiles, the second a broadcast error
        shape = make_gaussian(make_grid(n, extent), width=0.8)
        with pytest.raises(ValidationError, match="different grids"):
            extract_profiles(two_bumps, [shape], 2, TimeWindow(2.0, 33))

    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf])
    def test_scale_outside_positive_reals_rejected(self, two_bumps, bump, h):
        with pytest.raises(ValidationError, match="positive and finite"):
            extract_profiles(two_bumps, [bump], 2, TimeWindow(2.0, 33), h_grid=[h])
