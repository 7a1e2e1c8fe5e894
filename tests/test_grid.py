"""Grid construction, transform round trips, Parseval, and field factories."""

import numpy as np
import pytest

from qs4.errors import ValidationError
from qs4.grid import (
    Field,
    SpectralField,
    dft_forward,
    dft_inverse,
    inner_product,
    make_gaussian,
    make_grid,
    make_random_field,
    spectral_cutoff,
)


class TestGrid2D:
    def test_lattice_shapes(self):
        g = make_grid(32, 8.0)
        assert g.spacing == 0.25
        assert g.x.shape == (32,)
        assert g.xi.shape == (32,)
        assert g.x[0] == -4.0
        assert np.isclose(g.xi[1] - g.xi[0], 2 * np.pi / 8.0)

    def test_nyquist(self):
        g = make_grid(64, 16.0)
        assert np.isclose(g.nyquist, np.pi * 64 / 16.0)

    @pytest.mark.parametrize("n", [2 ** k for k in range(4, 13)])
    def test_band_splits_the_lattice(self, n):
        # no lattice point lies on the band's circle, so the guard's "above
        # the band" (>) and el_map's "inside the band" (<) are complements
        for extent in (1.0, 16.0, 64.0, 128.0, 100.3):
            g = make_grid(n, extent)
            assert np.array_equal(g.xi_abs > g.band, ~(g.xi_abs < g.band)), extent

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            make_grid(48, 8.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValidationError):
            make_grid(8, 8.0)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValidationError):
            make_grid(32, -1.0)
        with pytest.raises(ValidationError):
            make_grid(32, np.inf)

    def test_equality_by_value(self):
        assert make_grid(32, 8.0) == make_grid(32, 8.0)
        assert make_grid(32, 8.0) != make_grid(64, 8.0)
        assert make_grid(32, 8.0) != make_grid(32, 16.0)


class TestFieldValidation:
    def test_shape_mismatch_rejected(self):
        g = make_grid(32, 8.0)
        with pytest.raises(ValidationError):
            Field(g, np.zeros((16, 16)))

    def test_non_finite_rejected(self):
        g = make_grid(32, 8.0)
        vals = np.zeros((32, 32), dtype=complex)
        vals[0, 0] = np.nan
        with pytest.raises(ValidationError):
            Field(g, vals)

    def test_arithmetic(self):
        g = make_grid(32, 8.0)
        f = make_gaussian(g, width=0.8)
        two = f + f
        assert np.allclose(two.values, 2 * f.values)
        assert np.allclose((2.0 * f).values, two.values)
        assert np.allclose((two - f).values, f.values)


class TestTransforms:
    def test_round_trip_identity(self):
        g = make_grid(64, 16.0)
        f = make_random_field(g, 0, band_radius=0.8 * g.nyquist)
        back = dft_inverse(dft_forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_parseval(self):
        g = make_grid(64, 16.0)
        f = make_random_field(g, 1, band_radius=0.8 * g.nyquist)
        F = dft_forward(f)
        assert np.isclose(F.l2_norm(), 2 * np.pi * f.l2_norm(), rtol=1e-12)

    def test_gaussian_spectrum_is_gaussian(self):
        # exp(-|x|^2/(2w^2)) transforms to 2 pi w^2 exp(-w^2 |xi|^2 / 2)
        g = make_grid(128, 32.0)
        w = 1.3
        vals = np.exp(-(g.x[:, None] ** 2 + g.x[None, :] ** 2) / (2 * w ** 2))
        F = dft_forward(Field(g, vals))
        expected = 2 * np.pi * w ** 2 * np.exp(-w ** 2 * g.xi_sq / 2)
        assert np.max(np.abs(F.coeffs - expected)) < 1e-10

    def test_forward_is_quadrature_of_continuum_integral(self):
        g = make_grid(64, 16.0)
        f = make_gaussian(g, width=1.0)
        F = dft_forward(f)
        # direct O(n^2) evaluation at one frequency
        k = (40, 29)
        phase = np.exp(-1j * (g.xi[k[0]] * g.x[:, None] + g.xi[k[1]] * g.x[None, :]))
        direct = g.spacing ** 2 * np.sum(phase * f.values)
        assert abs(F.coeffs[k] - direct) < 1e-12


class TestInnerProduct:
    def test_conjugate_linear_first_slot(self):
        g = make_grid(32, 8.0)
        f = make_random_field(g, 2, band_radius=0.5 * g.nyquist)
        h = make_random_field(g, 3, band_radius=0.5 * g.nyquist)
        assert np.isclose(inner_product(1j * f, h), -1j * inner_product(f, h))
        assert np.isclose(inner_product(f, 1j * h), 1j * inner_product(f, h))

    def test_norm_consistency(self):
        g = make_grid(32, 8.0)
        f = make_random_field(g, 4, band_radius=0.5 * g.nyquist)
        assert np.isclose(inner_product(f, f).real, f.l2_norm() ** 2)

    def test_grid_mismatch(self):
        f = make_gaussian(make_grid(32, 8.0), width=0.5)
        h = make_gaussian(make_grid(64, 8.0), width=0.5)
        with pytest.raises(ValidationError):
            inner_product(f, h)


class TestSpectralCutoff:
    def test_is_projection(self):
        g = make_grid(64, 16.0)
        f = make_random_field(g, 5, band_radius=0.9 * g.nyquist)
        once = spectral_cutoff(f, 0.0, 0.4 * g.nyquist)
        twice = spectral_cutoff(once, 0.0, 0.4 * g.nyquist)
        assert np.max(np.abs(twice.values - once.values)) < 1e-13

    def test_annulus_orthogonality(self):
        g = make_grid(64, 16.0)
        f = make_random_field(g, 6, band_radius=0.9 * g.nyquist)
        low = spectral_cutoff(f, 0.0, 4.0)
        high = spectral_cutoff(f, 4.0, 0.9 * g.nyquist)
        assert abs(inner_product(low, high)) < 1e-12

    def test_rejects_bad_radii(self):
        g = make_grid(32, 8.0)
        f = make_gaussian(g, width=0.5)
        with pytest.raises(ValidationError):
            spectral_cutoff(f, 2.0, 1.0)
        with pytest.raises(ValidationError):
            spectral_cutoff(f, 0.0, 2 * g.nyquist)


class TestFactories:
    def test_gaussian_normalized(self):
        g = make_grid(64, 16.0)
        f = make_gaussian(g, width=0.9, center=(0.5, -0.25), modulation=(2.0, 1.0))
        assert np.isclose(f.l2_norm(), 1.0, rtol=1e-12)

    def test_gaussian_width_guard(self):
        g = make_grid(32, 8.0)
        with pytest.raises(ValidationError):
            make_gaussian(g, width=10.0)
        with pytest.raises(ValidationError):
            make_gaussian(g, width=g.spacing / 2)

    def test_gaussian_modulation_guard(self):
        g = make_grid(32, 8.0)
        with pytest.raises(ValidationError):
            make_gaussian(g, width=0.5, modulation=(2 * g.nyquist, 0.0))

    def test_random_field_deterministic(self):
        g = make_grid(32, 8.0)
        a = make_random_field(g, 7, band_radius=0.5 * g.nyquist)
        b = make_random_field(g, 7, band_radius=0.5 * g.nyquist)
        assert np.array_equal(a.values, b.values)
        c = make_random_field(g, 8, band_radius=0.5 * g.nyquist)
        assert not np.array_equal(a.values, c.values)

    def test_random_field_band_limited(self):
        g = make_grid(64, 16.0)
        f = make_random_field(g, 9, band_radius=3.0)
        C = np.abs(dft_forward(f).coeffs)
        assert C[g.xi_abs >= 3.0].max() < 1e-13
