"""Modulation scans, the rescaled oscillatory integral, the envelope check."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from qs4.asymptotics import (
    _bump_radius,
    _crop_grid,
    _lattice_points,
    dominating_function_check,
    modulation_scan,
    oscillatory_integral,
    phase_phi_n,
)
from qs4.errors import SupportGuardError, ValidationError
from qs4.functional import TimeWindow, spacetime_slices, window_norm
from qs4.grid import Field, Grid2D, SpectralField, dft_forward, make_gaussian, make_grid
from qs4.propagator import LinearMapA0


@pytest.fixture(scope="module")
def scan():
    g = make_grid(256, 32.0)
    phi = make_gaussian(g, width=0.8)
    return modulation_scan(phi, [4.0, 8.0], (1.0, 0.0), TimeWindow(6.0, 161))


@pytest.fixture(scope="module")
def amplitude():
    g = make_grid(1024, 800.0)
    coeffs = np.exp(-g.xi_sq / 2.0)
    coeffs[g.xi_sq > 16.0] = 0.0
    return SpectralField(g, coeffs.astype(complex))


class TestModulationScan:
    def test_raw_norms_decay(self, scan):
        assert scan.raw_norms[1] < scan.raw_norms[0]

    def test_compensated_near_reference(self, scan):
        # the full-precision configuration is exercised in the acceptance
        # suite; here a short scan should already land within ~10%
        assert abs(scan.compensated[-1] - scan.limit_reference) / scan.limit_reference < 0.1

    def test_threshold_reported(self, scan):
        assert scan.decay_threshold == 4.0

    def test_rejects_bad_direction(self):
        g = make_grid(64, 16.0)
        phi = make_gaussian(g, width=0.8)
        with pytest.raises(ValidationError):
            modulation_scan(phi, [4.0, 8.0], (1.0, 1.0), TimeWindow(2.0, 33))

    def test_rejects_unsorted_magnitudes(self):
        g = make_grid(64, 16.0)
        phi = make_gaussian(g, width=0.8)
        with pytest.raises(ValidationError):
            modulation_scan(phi, [8.0, 4.0], (1.0, 0.0), TimeWindow(2.0, 33))

    @pytest.mark.parametrize("magnitudes, direction", [
        ([4.0, 8.0], (np.nan, 0.0)),
        ([4.0, 8.0], (np.inf, 0.0)),
        ([2.0, np.nan], (1.0, 0.0)),
        ([2.0, np.inf], (1.0, 0.0)),
    ])
    def test_rejects_non_finite_inputs(self, magnitudes, direction):
        # a NaN direction passed the unit-vector test and gave NaN norms
        g = make_grid(64, 16.0)
        phi = make_gaussian(g, width=0.8)
        with pytest.raises(ValidationError, match="finite"):
            modulation_scan(phi, magnitudes, direction, TimeWindow(2.0, 33))

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_limit_reference_closed_form(self, theta):
        # A0 leaves the unit Gaussian of width w with widths a1 = w/sqrt 6 and
        # a2 = w/sqrt 2, whose free sixth power integrates in x to
        # (3 pi^2 a1^2 a2^2)^-1 prod_j (1 + 4 T^2 / a_j^4)^-1
        w, t_max = 0.8, 3.0
        a1, a2 = w / np.sqrt(6.0), w / np.sqrt(2.0)
        sixth, _ = quad(lambda T: 1.0 / (3 * np.pi ** 2 * a1 ** 2 * a2 ** 2)
                        / ((1 + 4 * T ** 2 / a1 ** 4) * (1 + 4 * T ** 2 / a2 ** 4)),
                        -t_max, t_max, epsabs=0.0, epsrel=1e-13, limit=200)
        closed = (2 * np.sqrt(3.0)) ** (-1.0 / 3.0) * sixth ** (1.0 / 6.0)
        phi = make_gaussian(make_grid(256, 16.0), width=w)
        scan = modulation_scan(phi, [4.0, 8.0], (np.cos(theta), np.sin(theta)),
                               TimeWindow(t_max, 161))
        assert abs(scan.limit_reference - closed) / closed < 2e-3

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_limit_reference_matches_doubled_lattice(self, theta):
        # the reference pads the cropped bump; padding phi itself to the
        # doubled 2n lattice and cropping that spectrum gives the same norm
        direction = (np.cos(theta), np.sin(theta))
        phi = make_gaussian(make_grid(256, 16.0), width=0.8)
        w = TimeWindow(3.0, 161)
        scan = modulation_scan(phi, [4.0, 8.0], direction, w)
        g = phi.grid
        Fp = dft_forward(Field(Grid2D(2 * g.n, 2 * g.extent), np.pad(phi.values, g.n // 2)))
        Fpc = _crop_grid(Fp, _bump_radius(Fp))
        a0_sq = np.sum(LinearMapA0(direction)(_lattice_points(Fpc.grid)) ** 2, axis=-1)
        doubled = window_norm(spacetime_slices(Fpc, -a0_sq, w), w, 6, "doubled reference")
        assert abs(scan.limit_reference - doubled) / doubled <= 1e-14

    def test_rejects_off_centre_bump(self):
        g = make_grid(64, 16.0)
        phi = make_gaussian(g, center=(5.0, 5.0), width=0.8)
        with pytest.raises(SupportGuardError):
            modulation_scan(phi, [4.0, 8.0], (1.0, 0.0), TimeWindow(2.0, 33))

    def test_rejects_carrier_outside_band(self):
        g = make_grid(64, 16.0)
        phi = make_gaussian(g, width=0.8)
        with pytest.raises(ValidationError):
            modulation_scan(phi, [4.0, 0.95 * g.nyquist], (1.0, 0.0),
                            TimeWindow(2.0, 33))


class TestPhaseFunction:
    def test_quadratic_term_at_zero_x(self):
        # for xi perpendicular to the carrier the cos^2 factor drops out and
        # the leading term is -2 T |xi|^2
        val = phase_phi_n(1.0, (0.0, 0.0), np.array([0.0, 1.0]), (1e8, 0.0))
        assert np.isclose(val, -2.0, atol=1e-6)

    def test_parallel_direction(self):
        val = phase_phi_n(1.0, (0.0, 0.0), np.array([1.0, 0.0]), (1e8, 0.0))
        assert np.isclose(val, -6.0, atol=1e-6)

    def test_linear_term(self):
        a = phase_phi_n(0.0, (2.0, 0.0), np.array([3.0, 0.0]), (1.0, 0.0))
        assert np.isclose(a, 6.0)

    def test_zero_carrier_rejected(self):
        with pytest.raises(ValidationError):
            phase_phi_n(1.0, (0.0, 0.0), np.array([1.0, 0.0]), (0.0, 0.0))

    @pytest.mark.parametrize("xi_n", [(np.nan, 0.0), (np.inf, 1.0)])
    def test_non_finite_carrier_rejected(self, xi_n):
        with pytest.raises(ValidationError, match="xi_n must be nonzero and finite"):
            phase_phi_n(1.0, (0.0, 0.0), np.array([1.0, 0.0]), xi_n)


class TestOscillatoryIntegral:
    def test_value_at_origin(self, amplitude):
        # int e^{-|xi|^2/2} dxi = 2 pi
        val, = oscillatory_integral([0.0], [(0.0, 0.0)], amplitude, (1e6, 0.0))
        assert abs(val - 2 * np.pi) / (2 * np.pi) < 1e-3

    def test_gaussian_oracle(self, amplitude):
        # closed form for a Gaussian amplitude with a huge carrier:
        # |I| = pi / ((a^2 + 36 T^2)(a^2 + 4 T^2))^{1/4} with a = 1/2... here
        # a = 1/(2 sigma^2) with sigma = 1, so a = 0.5
        a = 0.5
        t_vals = (1.0, 4.0)
        vals = np.abs(oscillatory_integral(t_vals, np.zeros((2, 2)), amplitude, (1e6, 0.0)))
        for T, val in zip(t_vals, vals):
            oracle = np.pi / ((a ** 2 + 36 * T ** 2) * (a ** 2 + 4 * T ** 2)) ** 0.25
            assert abs(val - oracle) / oracle < 1e-2

    def test_table_matches_plain_quadrature(self):
        g = make_grid(64, 24.0)
        coeffs = np.exp(-g.xi_sq / 2.0) * (1 + 0.3 * g.xi[:, None])
        coeffs[g.xi_sq > 9.0] = 0.0
        amp = SpectralField(g, coeffs.astype(complex))
        xi_n = np.array([3.0, -4.0])
        T = np.array([0.0, 0.3, 0.7, 0.2])
        X = np.array([[0.0, 0.0], [0.5, -1.5], [0.0, 2.0], [-1.0, 0.25]])
        vals = oscillatory_integral(T, X, amp, xi_n)

        # the rescaled phase from |xi + xi_n|^4 - |xi_n|^4 - 4|xi_n|^2 (xi_n . xi),
        # summed over the whole lattice
        k1, k2 = np.meshgrid(g.xi, g.xi, indexing="ij")
        b2 = xi_n @ xi_n
        psi = (((k1 + xi_n[0]) ** 2 + (k2 + xi_n[1]) ** 2) ** 2 - b2 ** 2
               - 4 * b2 * (xi_n[0] * k1 + xi_n[1] * k2))
        d_xi = (2 * np.pi / g.extent) ** 2
        for t, (x1, x2), val in zip(T, X, vals):
            ref = np.sum(amp.coeffs * np.exp(1j * (x1 * k1 + x2 * k2 - t * psi / b2))) * d_xi
            assert abs(val - ref) <= 1e-12 * abs(ref)
        # a table entry is the one-sample table, bit for bit
        for t, x, val in zip(T, X, vals):
            assert oscillatory_integral([t], [x], amp, xi_n)[0] == val

    @pytest.mark.parametrize("T, X", [(np.nan, (0.0, 0.0)), (np.inf, (0.0, 0.0)),
                                      (1.0, (np.nan, 0.0)), (1.0, (0.0, -np.inf))])
    def test_non_finite_rejected(self, amplitude, T, X):
        with pytest.raises(ValidationError, match="finite"):
            oscillatory_integral([T], [X], amplitude, (1e6, 0.0))

    def test_table_checked_before_amplitude_read(self):
        # a stand-in without coefficients: reading the support would raise
        # AttributeError, so the NaN in the last sample must be caught first
        amp = SimpleNamespace(grid=make_grid(64, 16.0))
        with pytest.raises(ValidationError, match="finite"):
            oscillatory_integral([1.0, 4.0, 16.0], [(0.0, 0.0), (1.0, 0.0), (0.0, np.nan)],
                                 amp, (1e6, 0.0))

    @pytest.mark.parametrize("T, X", [(1.0, [(0.0, 0.0)]), ([1.0, 2.0], [(0.0, 0.0)]),
                                      ([1.0], [(0.0, 0.0, 0.0)]), ([], np.zeros((0, 2)))])
    def test_table_shape_checked(self, amplitude, T, X):
        with pytest.raises(ValidationError, match="shapes"):
            oscillatory_integral(T, X, amplitude, (1e6, 0.0))

    def test_empty_amplitude_rejected(self):
        g = make_grid(64, 16.0)
        with pytest.raises(ValidationError):
            oscillatory_integral([1.0], [(0.0, 0.0)],
                                 SpectralField(g, np.zeros((64, 64), dtype=complex)),
                                 (1.0, 0.0))


class TestDominationReport:
    def test_branch_values(self):
        report = dominating_function_check([(2.0, (1.0, 0.0))], 1.0, 1.0,
                                           k_min=2, k_max=3)
        T, x1, x2, F = report.sample_values[0]
        assert np.isclose(F, ((1 + 2.0) * (1 + 1.0)) ** -0.25)

    def test_boundary_jump_recorded(self):
        report = dominating_function_check([(2.0, (2.0, 0.0))], 1.0, 1.0,
                                           k_min=2, k_max=3)
        inner, outer = report.boundary_jumps[0]
        assert inner > outer

    def test_increments_grow(self):
        # the inner-cone exponent -1/4 is too weak for sixth-power
        # integrability over space-time shells: the dyadic increments rise
        report = dominating_function_check([], 1.0, 1.0, k_min=2, k_max=6)
        assert not report.strictly_decreasing
        assert not report.ratios_below_one
        assert report.increments[-1] > report.increments[0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            dominating_function_check([], -1.0, 1.0)
        with pytest.raises(ValidationError):
            dominating_function_check([], 1.0, 1.0, k_min=5, k_max=5)
