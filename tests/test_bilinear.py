"""Separated pairs, the bilinear product norm, decay fits, transversality."""

import numpy as np
import pytest

from qs4.bilinear import (
    REFERENCE_SLOPE_FULL,
    REFERENCE_SLOPE_WEAK,
    SeparatedPair,
    decay_scan,
    jacobian_det,
    jacobian_shell_bound,
    make_separated_pair,
    product_norm_l3,
)
from qs4.errors import ValidationError
from qs4.functional import TimeWindow
from qs4.grid import SpectralField, dft_forward, dft_inverse, make_grid
from qs4.propagator import evolve_quartic


class TestSeparatedPair:
    def test_band_supports(self):
        g = make_grid(128, 32.0)
        pair = make_separated_pair(g, 0.5, 4.0, seed=0)
        Cf = np.abs(dft_forward(pair.f).coeffs) ** 2
        Cg = np.abs(dft_forward(pair.g).coeffs) ** 2
        assert Cf[g.xi_abs > 0.5 + 1e-9].sum() < 1e-12 * Cf.sum()
        inside = (g.xi_abs >= 2.0 - 1e-9) & (g.xi_abs <= 4.0 + 1e-9)
        assert Cg[~inside].sum() < 1e-12 * Cg.sum()

    def test_unit_norms(self):
        g = make_grid(128, 32.0)
        pair = make_separated_pair(g, 0.5, 4.0, seed=1)
        assert np.isclose(pair.f.l2_norm(), 1.0, rtol=1e-12)
        assert np.isclose(pair.g.l2_norm(), 1.0, rtol=1e-12)

    def test_deterministic(self):
        g = make_grid(128, 32.0)
        a = make_separated_pair(g, 0.5, 4.0, seed=2)
        b = make_separated_pair(g, 0.5, 4.0, seed=2)
        assert np.array_equal(a.f.values, b.f.values)
        assert np.array_equal(a.g.values, b.g.values)

    def test_validator_rejects_mixed_bands(self):
        g = make_grid(128, 32.0)
        pair = make_separated_pair(g, 0.5, 4.0, seed=3)
        with pytest.raises(ValidationError):
            SeparatedPair(pair.g, pair.f, 0.5, 4.0)

    def test_annulus_outside_guard_rejected(self):
        g = make_grid(64, 16.0)
        with pytest.raises(ValidationError):
            make_separated_pair(g, 1.0, g.nyquist, seed=0)

    def test_ball_below_lattice_rejected(self):
        g = make_grid(64, 16.0)
        with pytest.raises(ValidationError):
            make_separated_pair(g, 0.1, 4.0, seed=0)


class TestProductNorm:
    def test_positive_and_deterministic(self):
        g = make_grid(128, 32.0)
        pair = make_separated_pair(g, 0.5, 4.0, seed=0, envelope_width=2.0)
        w = TimeWindow(0.5, 33)
        a = product_norm_l3(pair, w)
        b = product_norm_l3(pair, w)
        assert a > 0
        assert a == b

    def test_amplitude_scaling(self):
        # the norm is 1-homogeneous in each factor; pairs are unit-norm by
        # construction, so compare two windows of the same pair instead
        g = make_grid(128, 32.0)
        pair = make_separated_pair(g, 0.5, 4.0, seed=1, envelope_width=2.0)
        coarse = product_norm_l3(pair, TimeWindow(0.5, 33))
        fine = product_norm_l3(pair, TimeWindow(0.5, 65))
        assert abs(coarse - fine) / fine < 1e-2

    def test_matches_direct_quadrature_on_pad2_grid(self):
        # both factors resampled onto the doubled lattice by spectral
        # zero-padding, then evolved and multiplied node by node
        g = make_grid(128, 32.0)
        pair = make_separated_pair(g, 0.5, 4.0, seed=2, envelope_width=2.0)
        w = TimeWindow(0.5, 33)
        fine = make_grid(2 * g.n, g.extent)
        lo = g.n // 2

        def refine(f):
            C = np.zeros((fine.n, fine.n), dtype=complex)
            C[lo:lo + g.n, lo:lo + g.n] = dft_forward(f).coeffs
            return dft_inverse(SpectralField(fine, C))

        ff, fg = refine(pair.f), refine(pair.g)
        direct = 0.0
        for t, wt in zip(w.nodes, w.weights):
            prod = evolve_quartic(ff, t).values * evolve_quartic(fg, t).values
            direct += wt * np.sum(np.abs(prod) ** 3) * fine.spacing ** 2
        assert np.isclose(product_norm_l3(pair, w), direct ** (1.0 / 3.0), rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def fit():
    g = make_grid(256, 32.0)
    return decay_scan(g, 0.5, [2.5, 5.0, 10.0, 20.0], [0, 1],
                      TimeWindow(0.5, 49), envelope_width=2.0)


class TestDecayScan:
    def test_slope_beats_weak_reference(self, fit):
        assert fit.slope <= REFERENCE_SLOPE_WEAK + 0.05

    def test_fit_reliable(self, fit):
        assert fit.reliable

    def test_medians_decreasing(self, fit):
        assert all(b < a for a, b in zip(fit.medians, fit.medians[1:]))

    def test_reference_slopes_exposed(self, fit):
        assert fit.reference_slopes == (REFERENCE_SLOPE_FULL, REFERENCE_SLOPE_WEAK)

    def test_rejects_short_ladder(self):
        g = make_grid(64, 16.0)
        with pytest.raises(ValidationError):
            decay_scan(g, 0.5, [4.0, 8.0], [0], TimeWindow(0.5, 17))

    def test_rejects_non_geometric_ladder(self):
        g = make_grid(64, 16.0)
        with pytest.raises(ValidationError):
            decay_scan(g, 0.5, [4.0, 8.0, 12.0, 16.0], [0], TimeWindow(0.5, 17))

    def test_rejects_ladder_beyond_band(self, monkeypatch):
        # the largest annulus is checked before any pair is built
        def no_pairs(*args, **kwargs):
            raise AssertionError("a pair was built")

        monkeypatch.setattr("qs4.bilinear.make_separated_pair", no_pairs)
        g = make_grid(64, 16.0)
        with pytest.raises(ValidationError, match="guarded band"):
            decay_scan(g, 0.5, [2.0, 4.0, 8.0, 16.0], [0], TimeWindow(0.5, 17))

    @pytest.mark.parametrize("s, n_values", [
        (np.nan, [2.0, 4.0, 8.0, 16.0]),
        (0.5, [2.0, 2.5, 3.125, np.nan]),
        (0.5, [2.0, 4.0, 8.0, np.inf]),
    ])
    def test_rejects_non_finite_inputs(self, monkeypatch, s, n_values):
        # a NaN passes the ladder and band comparisons; it is rejected first
        def no_pairs(*args, **kwargs):
            raise AssertionError("a pair was built")

        monkeypatch.setattr("qs4.bilinear.make_separated_pair", no_pairs)
        g = make_grid(64, 16.0)
        with pytest.raises(ValidationError, match="finite"):
            decay_scan(g, s, n_values, [0], TimeWindow(0.5, 17))


class TestJacobian:
    def test_closed_form(self):
        assert jacobian_det((1.0, 0.0), (2.0, 0.0)) == 4 * abs(2 * 4 - 1 * 1)

    def test_vectorized(self):
        xi = np.zeros((5, 2))
        eta = np.tile([3.0, 0.0], (5, 1))
        assert np.allclose(jacobian_det(xi, eta), 4 * 27.0)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_shell_bound_scales(self, k):
        mn, scale = jacobian_shell_bound(0.5, 4.0, k, n_samples=2000, seed=0)
        assert scale == 2.0 ** (2 * k) * 2.0 ** 3
        # transversality floor: a k-independent fraction of the shell scale
        assert mn >= 0.5 * scale

    def test_validation(self):
        with pytest.raises(ValidationError):
            jacobian_shell_bound(0.5, 4.0, -1)
        with pytest.raises(ValidationError):
            jacobian_shell_bound(0.5, 1.0, 0)
