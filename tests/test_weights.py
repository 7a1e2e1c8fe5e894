"""Weight parameters, the constraint sampler, the kernel bound, decay fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qs4.errors import ValidationError
from qs4.grid import SpectralField, dft_forward, make_gaussian, make_grid
from qs4.weights import (
    WeightParams,
    decay_fit,
    sample_constraint_tuples,
    weight_f,
    weight_kernel_check,
)


class TestWeightParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            WeightParams(mu=-1.0)
        with pytest.raises(ValidationError):
            WeightParams(eps=-0.5)

    def test_to_dict(self):
        p = WeightParams(mu=2.0, eps=0.1)
        assert p.to_dict() == {"mu": 2.0, "eps": 0.1}


class TestWeightF:
    def test_zero_at_origin(self):
        assert weight_f((0.0, 0.0), WeightParams()) == 0.0

    def test_saturation(self):
        p = WeightParams(mu=1.0, eps=0.1)
        big = weight_f((100.0, 0.0), p)
        assert big < 1.0 / 0.1

    def test_radial(self):
        p = WeightParams(mu=1.3, eps=0.2)
        assert np.isclose(weight_f((3.0, 4.0), p), weight_f((5.0, 0.0), p))

    def test_monotone_radial(self):
        p = WeightParams(mu=1.0, eps=0.5)
        radii = np.linspace(0, 10, 200)
        vals = weight_f(np.stack([radii, np.zeros_like(radii)], axis=-1), p)
        assert np.all(np.diff(vals) >= 0)


class TestSampler:
    def test_deterministic(self):
        a = sample_constraint_tuples(50, 3.0, 42)
        b = sample_constraint_tuples(50, 3.0, 42)
        assert np.array_equal(a, b)

    def test_all_on_surface(self):
        etas = sample_constraint_tuples(200, 3.0, 0)
        quart = np.sum(etas ** 2, axis=-1) ** 2
        b = quart[:, :3].sum(axis=1) - quart[:, 3:].sum(axis=1)
        assert np.all(np.abs(b) <= 1e-9 * quart.sum(axis=1))

    def test_count_and_radius(self):
        etas = sample_constraint_tuples(25, 2.0, 1)
        assert etas.dtype == np.float64
        assert etas.shape == (25, 6, 2)
        # eta_2..eta_6 drawn in the ball; eta_1 solved, can only be smaller
        assert np.all(np.sum(etas ** 2, axis=-1) <= (2.0 ** 2) * 3 + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(1, 300), radius=st.floats(0.1, 10.0),
           seed=st.integers(0, 2 ** 32 - 1), eps=st.floats(0.0, 10.0))
    def test_property_on_surface_and_bounded(self, count, radius, seed, eps):
        etas = sample_constraint_tuples(count, radius, seed)
        assert etas.shape == (count, 6, 2)
        quart = np.sum(etas ** 2, axis=-1) ** 2
        b = quart[:, :3].sum(axis=1) - quart[:, 3:].sum(axis=1)
        assert np.all(np.abs(b) <= 1e-9 * quart.sum(axis=1))
        report = weight_kernel_check(etas, WeightParams(mu=1.0, eps=eps))
        assert report.max_kernel <= 1 + 1e-12


def _balanced():
    etas = np.zeros((6, 2))
    etas[0] = (1.0, 0.0)
    etas[3] = (0.0, 1.0)
    return etas


class TestKernelBound:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 10.0])
    def test_bound_holds(self, eps):
        tuples = sample_constraint_tuples(2000, 4.0, 7)
        report = weight_kernel_check(tuples, WeightParams(mu=1.0, eps=eps))
        assert report.max_kernel <= 1 + 1e-12
        assert report.n_checked == 2000

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            weight_kernel_check([], WeightParams())

    def test_balanced_tuple_accepted(self):
        report = weight_kernel_check([_balanced()], WeightParams(mu=1.0, eps=0.1))
        assert report.n_checked == 1
        assert report.max_kernel == 1.0
        assert np.array_equal(report.argmax, _balanced())

    def test_reports_compare_by_value(self):
        tuples = sample_constraint_tuples(500, 4.0, 3)
        p = WeightParams(mu=1.0, eps=0.1)
        assert weight_kernel_check(tuples, p) == weight_kernel_check(tuples.copy(), p)

    def test_off_surface_row_rejected(self):
        etas = np.stack([_balanced(), _balanced()])
        etas[1, 3] = 0.0
        with pytest.raises(ValidationError, match="b-constraint"):
            weight_kernel_check(etas, WeightParams())

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            weight_kernel_check(np.zeros((3, 5, 2)), WeightParams())

    def test_non_finite_rejected(self):
        etas = _balanced()[None].copy()
        etas[0, 4, 1] = np.nan
        with pytest.raises(ValidationError):
            weight_kernel_check(etas, WeightParams())


class TestDecayFit:
    @pytest.mark.parametrize("mu0", [0.5, 1.0, 2.0])
    def test_planted_quartic_recovered(self, mu0):
        g = make_grid(64, 16.0)
        coeffs = np.exp(-mu0 * (g.xi_sq ** 2) / 4.0 * 0 - mu0 * g.xi_abs ** 4)
        F = SpectralField(g, coeffs.astype(complex))
        report = decay_fit(F, 0.0)
        assert abs(report.mu_hat - mu0) / mu0 < 0.05
        assert report.quartic_profile

    def test_gaussian_spectrum_not_quartic(self):
        # a width-w Gaussian spectrum decays like exp(-c |xi|^2): the quartic
        # fit must either misfit (goodness above threshold) or fit with a tiny
        # rate; it must not report a clean quartic profile with a large rate
        g = make_grid(64, 16.0)
        F = dft_forward(make_gaussian(g, width=1.8))
        report = decay_fit(F, 0.0)
        assert not (report.quartic_profile and report.mu_hat > 1.0)

    def test_bad_range_rejected(self):
        g = make_grid(64, 16.0)
        F = dft_forward(make_gaussian(g, width=1.0))
        with pytest.raises(ValidationError):
            decay_fit(F, 0.9 * g.nyquist)
