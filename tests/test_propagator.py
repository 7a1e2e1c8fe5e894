"""Multiplier propagators, guards, the phase expansion, and the frame map."""

import numpy as np
import pytest

from qs4.errors import NyquistGuardError, SupportGuardError, ValidationError
from qs4.grid import Field, SpectralField, dft_forward, inner_product, make_gaussian, make_grid, make_random_field
from qs4.propagator import (
    SUPPORT_GUARD_MASS,
    LinearMapA0,
    check_band_guard,
    demodulated_phase,
    evolve_quartic,
    phase_expansion,
    resample_linear,
)


def _safe_field(g, seed):
    return make_random_field(g, seed, band_radius=0.5 * g.nyquist,
                             envelope_width=g.extent / 10)


class TestEvolution:
    def test_quartic_unitary(self):
        g = make_grid(64, 16.0)
        f = _safe_field(g, 0)
        u = evolve_quartic(f, 0.37)
        assert abs(u.l2_norm() - f.l2_norm()) < 1e-12

    def test_quartic_group_law(self):
        g = make_grid(64, 16.0)
        f = _safe_field(g, 1)
        ab = evolve_quartic(evolve_quartic(f, 0.2), 0.3)
        direct = evolve_quartic(f, 0.5)
        assert np.max(np.abs(ab.values - direct.values)) < 1e-12

    def test_quartic_inverse(self):
        g = make_grid(64, 16.0)
        f = _safe_field(g, 2)
        back = evolve_quartic(evolve_quartic(f, 0.4), -0.4)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_rejects_non_finite_time(self):
        g = make_grid(32, 8.0)
        f = make_gaussian(g, width=0.5)
        with pytest.raises(ValidationError):
            evolve_quartic(f, np.inf)


class TestBandGuard:
    def test_edge_mass_rejected(self):
        g = make_grid(32, 8.0)
        coeffs = np.zeros((32, 32), dtype=complex)
        coeffs[0, 0] = 1.0  # most negative frequency corner, |xi| > 0.9 nyquist
        with pytest.raises(NyquistGuardError):
            check_band_guard(SpectralField(g, coeffs))

    def test_interior_mass_passes(self):
        g = make_grid(64, 16.0)
        check_band_guard(dft_forward(make_gaussian(g, width=1.0)))

    def test_evolution_guards(self):
        g = make_grid(32, 8.0)
        vals = np.exp(1j * (g.nyquist - 0.1) * g.x)[:, None] * np.ones(32)[None, :]
        with pytest.raises(NyquistGuardError):
            evolve_quartic(Field(g, vals), 0.1)


class TestPhaseExpansion:
    def test_matches_quartic_norm(self):
        rng = np.random.default_rng(0)
        xi = rng.normal(size=(10000, 2))
        xi_n = rng.normal(size=(10000, 2))
        direct = np.sum((xi + xi_n) ** 2, axis=-1) ** 2
        expanded = phase_expansion(xi, xi_n)
        # relative to the natural magnitude scale: near-cancellation points
        # have direct values arbitrarily close to zero
        scale = (np.sum(xi ** 2, axis=-1) + np.sum(xi_n ** 2, axis=-1)) ** 2
        rel = np.abs(expanded - direct) / scale
        assert np.max(rel) < 1e-9

    def test_scalar_input(self):
        assert np.isclose(phase_expansion((1.0, 0.0), (2.0, 0.0)), 81.0)

    def test_demodulated_phase_drops_constant_and_linear_terms(self):
        rng = np.random.default_rng(2)
        xi = rng.normal(size=(1000, 2))
        xi_n = 10 * rng.normal(size=(1000, 2))
        b2 = np.sum(xi_n ** 2, axis=-1)
        direct = (np.sum((xi + xi_n) ** 2, axis=-1) ** 2 - b2 ** 2
                  - 4 * b2 * np.sum(xi * xi_n, axis=-1))
        scale = (np.sum(xi ** 2, axis=-1) + b2) ** 2
        assert np.max(np.abs(demodulated_phase(xi, xi_n) - direct) / scale) < 1e-9


class TestLinearMapA0:
    def test_determinant(self):
        m = LinearMapA0((1.0, 0.0))
        assert np.isclose(abs(np.linalg.det(m.matrix)), 2 * np.sqrt(3.0), rtol=1e-15)

    def test_quadratic_form(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            th = rng.uniform(0, 2 * np.pi)
            m = LinearMapA0((np.cos(th), np.sin(th)))
            xi = rng.normal(size=(200, 2))
            mapped_sq = np.sum(m(xi) ** 2, axis=-1)
            xi_sq = np.sum(xi ** 2, axis=-1)
            cos_sq = (xi @ np.array([np.cos(th), np.sin(th)])) ** 2 / xi_sq
            assert np.max(np.abs(mapped_sq - (2 + 4 * cos_sq) * xi_sq)) < 1e-10

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValidationError):
            LinearMapA0((1.0, 1.0))


class TestResample:
    def test_identity_matrix(self):
        g = make_grid(64, 16.0)
        f = make_gaussian(g, width=0.8)
        out = resample_linear(f, 1.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-10

    def test_l2_isometry(self):
        g = make_grid(128, 32.0)
        f = make_gaussian(g, width=1.0)
        out = resample_linear(f, 2.0)
        assert abs(out.l2_norm() - 1.0) < 1e-6

    def test_non_positive_or_non_finite_scale_rejected(self):
        g = make_grid(64, 16.0)
        f = make_gaussian(g, width=0.8)
        # a matrix, even a multiple of the identity, is not a scale
        for a in (0.0, -2.0, np.inf, np.nan, 2.0 + 0j, 2.0 * np.eye(2)):
            with pytest.raises(ValidationError):
                resample_linear(f, a)

    def test_gaussian_dilation_closed_form(self):
        g = make_grid(128, 32.0)
        w = 1.0
        vals = np.exp(-(g.x[:, None] ** 2 + g.x[None, :] ** 2) / (2 * w ** 2))
        f = Field(g, vals)
        out = resample_linear(f, 0.5)  # h = 2 dilation
        expected = 0.5 * np.exp(-(g.x[:, None] ** 2 + g.x[None, :] ** 2) / (2 * (2 * w) ** 2))
        assert np.max(np.abs(out.values - expected)) < 1e-8

    def test_support_guard(self):
        g = make_grid(64, 16.0)
        f = make_gaussian(g, center=(5.0, 5.0), width=1.0)
        message = rf"mass fraction \d\.\d{{3}}e[+-]\d+ .*limit {SUPPORT_GUARD_MASS:.0e}"
        with pytest.raises(SupportGuardError, match=message):
            resample_linear(f, 1.0)
