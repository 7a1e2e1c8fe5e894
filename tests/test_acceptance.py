"""Acceptance suite: one test per shipped guarantee, at full tolerances.

Each numbered test asserts exactly the shipped claim; pytest -v therefore
shows one pass/fail line per criterion.  The dominating-function clause of
criterion 10 is recorded as a strict expected failure: the measured dyadic
increments genuinely rise, see the analysis notes shipped alongside the
repository history.
"""

import json
import time

import numpy as np
import pytest

from qs4.asymptotics import dominating_function_check, modulation_scan, oscillatory_integral
from qs4.bilinear import REFERENCE_SLOPE_WEAK, decay_scan, jacobian_det
from qs4.cli import parse_and_run, read_field, write_field
from qs4.functional import TimeWindow, el_map, spacetime_norm, strichartz_quotient
from qs4.grid import (
    Field,
    SpectralField,
    dft_forward,
    dft_inverse,
    inner_product,
    make_gaussian,
    make_grid,
    make_random_field,
)
from qs4.profiles import SymmetryParams, apply_symmetry, extract_profiles, orthogonality_defect, synthesize_sequence
from qs4.propagator import LinearMapA0, evolve_quartic, phase_expansion
from qs4.weights import WeightParams, decay_fit, sample_constraint_tuples, weight_kernel_check


class TestCriterion01Unitarity:
    def test_round_trips_and_norm_preservation(self):
        g = make_grid(256, 32.0)
        start = time.monotonic()
        rng_times = np.random.default_rng(11)
        for seed in range(100):
            f = make_random_field(g, seed, band_radius=0.8 * g.nyquist,
                                  envelope_width=g.extent / 8)
            F = dft_forward(f)
            back = dft_inverse(F)
            assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
            t = float(rng_times.uniform(-1.0, 1.0))
            u = evolve_quartic(f, t)
            assert abs(u.l2_norm() - f.l2_norm()) <= 1e-12 * f.l2_norm()
            undone = evolve_quartic(u, -t)
            assert np.max(np.abs(undone.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
        assert time.monotonic() - start < 10.0


class TestCriterion02AlgebraicIdentities:
    def test_phase_expansion_and_frame_map_and_jacobian(self):
        rng = np.random.default_rng(2)
        # carriers kept away from the cancellation locus |xi + xi_n| = 0
        xi = rng.normal(size=(10000, 2))
        mags = rng.uniform(5.0, 50.0, size=10000)
        angs = rng.uniform(0.0, 2 * np.pi, size=10000)
        xi_n = np.stack([mags * np.cos(angs), mags * np.sin(angs)], axis=-1)
        direct = np.sum((xi + xi_n) ** 2, axis=-1) ** 2
        rel = np.abs(phase_expansion(xi, xi_n) - direct) / direct
        assert np.max(rel) <= 1e-9

        for th in rng.uniform(0, 2 * np.pi, size=16):
            m = LinearMapA0((np.cos(th), np.sin(th)))
            assert abs(abs(np.linalg.det(m.matrix)) - 2 * np.sqrt(3.0)) <= 1e-12
            pts = rng.normal(size=(64, 2))
            mapped_sq = np.sum(m(pts) ** 2, axis=-1)
            pts_sq = np.sum(pts ** 2, axis=-1)
            cos_sq = (pts @ np.array([np.cos(th), np.sin(th)])) ** 2 / pts_sq
            assert np.max(np.abs(mapped_sq - (2 + 4 * cos_sq) * pts_sq)) <= 1e-10 * np.max(pts_sq)

        checked = 0
        while checked < 10000:
            a = rng.normal(size=(20000, 2))
            b = rng.normal(size=(20000, 2))
            closed = jacobian_det(a, b)
            scale = 4 * (np.sum(a ** 2, axis=-1) ** 1.5 + np.sum(b ** 2, axis=-1) ** 1.5)
            keep = closed > 1e-3 * scale  # degenerate resonance locus excluded
            a, b, closed = a[keep], b[keep], closed[keep]
            mats = np.empty((len(a), 2, 2))
            mats[:, 0, 0] = 1.0
            mats[:, 0, 1] = 1.0
            mats[:, 1, 0] = 4 * np.sum(a ** 2, axis=-1) * a[:, 0]
            mats[:, 1, 1] = 4 * np.sum(b ** 2, axis=-1) * b[:, 0]
            numeric = np.abs(np.linalg.det(mats))
            rel = np.abs(numeric - closed) / closed
            assert np.max(rel) <= 1e-10
            checked += len(a)


class TestCriterion03EulerLagrange:
    def test_pairing_identity(self):
        g = make_grid(128, 32.0)
        w = TimeWindow(2.0, 257)
        for seed in range(20):
            f = make_random_field(g, seed, band_radius=1.5, envelope_width=4.0)
            lam = el_map(f, w, "general")
            omega = float(inner_product(f, lam).real)
            sixth = spacetime_norm(f, w) ** 6
            assert abs(omega - sixth) / sixth <= 1e-8

    def test_converged_gaussian_seed_run(self, extremal_run):
        report, elapsed = extremal_run
        assert report.converged
        assert report.residual < 1e-3
        assert report.n_iters <= 500
        h = report.quotient_history
        assert all(b >= a - 1e-8 for a, b in zip(h, h[1:]))
        assert elapsed < 10 * 60


class TestCriterion04SymmetryInvariance:
    def test_exact_and_scaling_invariances(self):
        g = make_grid(128, 32.0)
        f = make_gaussian(g, width=0.8)
        w = TimeWindow(8.0, 129)
        q0 = strichartz_quotient(f, w)

        q_phase = strichartz_quotient(np.exp(0.9j) * f, w)
        assert abs(q_phase - q0) / q0 <= 1e-6

        q_trans = strichartz_quotient(
            apply_symmetry(f, SymmetryParams(x0=(1.7, -2.3))), w)
        assert abs(q_trans - q0) / q0 <= 1e-6

        dt = 2 * w.t_max / (w.n_t - 1)
        q_tshift = strichartz_quotient(
            apply_symmetry(f, SymmetryParams(t0=dt)), w)
        assert abs(q_tshift - q0) / q0 <= 1e-6

        h = 0.5
        w2 = TimeWindow(2.0, 33)
        n0 = spacetime_norm(f, w2)
        scaled = apply_symmetry(f, SymmetryParams(h=h))
        n1 = spacetime_norm(scaled, TimeWindow(w2.t_max * h ** 4, w2.n_t))
        assert abs(n1 - n0) / n0 <= 0.01


class TestCriterion05ModulationDecay:
    def test_compensated_norms_cauchy_and_reference(self):
        g = make_grid(512, 32.0)
        phi = make_gaussian(g, width=0.8)
        scan = modulation_scan(phi, [8.0, 16.0, 32.0], (1.0, 0.0),
                               TimeWindow(6.0, 641))
        assert scan.cauchy_gap <= 0.02
        assert (abs(scan.compensated[-1] - scan.limit_reference)
                / scan.limit_reference <= 0.05)


class TestCriterion06BilinearDecay:
    def test_slope_at_full_scale(self):
        start = time.monotonic()
        g = make_grid(512, 32.0)
        fit = decay_scan(g, 0.5, [4.0, 8.0, 16.0, 32.0], [0, 1, 2],
                         TimeWindow(0.5, 49), envelope_width=2.0)
        elapsed = time.monotonic() - start
        assert fit.slope <= REFERENCE_SLOPE_WEAK + 0.05
        assert fit.reference_slopes[0] == -5.0 / 6.0
        assert elapsed < 20 * 60


class TestCriterion07WeightInequality:
    @pytest.mark.parametrize("eps", [0.0, 0.1, 10.0])
    def test_kernel_bound_holds(self, eps):
        tuples = sample_constraint_tuples(100000, 4.0, 7)
        report = weight_kernel_check(tuples, WeightParams(mu=1.0, eps=eps))
        assert report.n_checked == 100000
        assert report.max_kernel <= 1 + 1e-12


class TestCriterion08DecayFit:
    @pytest.mark.parametrize("mu0", [0.5, 1.0, 2.0])
    def test_planted_spectra_recovered(self, mu0):
        g = make_grid(64, 16.0)
        F = SpectralField(g, np.exp(-mu0 * g.xi_abs ** 4).astype(complex))
        report = decay_fit(F, 0.0)
        assert abs(report.mu_hat - mu0) / mu0 <= 0.05
        assert report.quartic_profile


class TestCriterion09ProfileOrthogonality:
    def test_two_profile_sequence_and_recovery(self):
        g = make_grid(128, 48.0)
        phi = make_gaussian(g, width=0.8)
        w = TimeWindow(2.0, 33)
        # divergence index 6: separation 2^6 lattice steps = 24 length units,
        # centers at +-12 on the extent-48 torus
        shift = 2 ** 6 * g.spacing / 2
        p1, p2 = SymmetryParams(x0=(-shift, 0.0)), SymmetryParams(x0=(shift, 0.0))
        u = synthesize_sequence([phi, phi], [[p1], [p2]], 0)
        result = extract_profiles(u, [phi], 2, w, h_grid=[1.0], t0_grid=[0.0])
        l2_defect, strichartz_defect = orthogonality_defect(u, result, w)
        assert l2_defect <= 1e-3
        assert strichartz_defect <= 1e-2
        assert len(result.profiles) == 2
        for prof in result.profiles:
            assert abs(prof.l2_norm() - 1.0) < 0.05


class TestCriterion10OscillatoryBounds:
    @staticmethod
    def _amplitude():
        g = make_grid(4096, 3200.0)
        coeffs = np.exp(-g.xi_sq / 2.0)
        coeffs[g.xi_sq > 16.0] = 0.0
        return SpectralField(g, coeffs.astype(complex))

    def test_decay_slopes(self):
        amp = self._amplitude()
        xi_n = (1000.0, 0.0)
        t_vals = [1.0, 4.0, 16.0, 64.0]
        mags_t = np.abs(oscillatory_integral(t_vals, np.zeros((4, 2)), amp, xi_n))
        slope_t = np.polyfit(np.log(t_vals), np.log(mags_t), 1)[0]
        assert slope_t <= -0.5 + 0.1

        # |X| >> |T| regime along the ray X = 60 T, within the resolved range
        T = np.array([1.0, 2.0, 4.0, 8.0])
        X = np.outer(60.0 * T, (1.0, 0.0))
        mags_x = np.abs(oscillatory_integral(T, X, amp, xi_n))
        slope_x = np.polyfit(np.log(X[:, 0]), np.log(mags_x), 1)[0]
        assert slope_x <= -1.0 + 0.1

    @pytest.mark.xfail(
        strict=True,
        reason="the shipped envelope exponent -1/4 inside the cone makes the "
               "dyadic sixth-power increments grow; measured ratios exceed one "
               "on every shell pair, so this clause cannot pass as stated",
    )
    def test_dominating_increments_decreasing(self):
        report = dominating_function_check([], 1.0, 1.0, k_min=4, k_max=8)
        assert report.strictly_decreasing


class TestCriterion11Determinism:
    def test_rerun_reproduces_serialized_artifacts(self, tmp_path):
        out = tmp_path / "weights.json"
        argv = ["weight-check", "--count", "20000", "--seed", "5",
                "--eps", "0.1", "--out", str(out)]
        assert parse_and_run(argv) == 0
        first = out.read_text()
        assert parse_and_run(argv) == 0
        assert out.read_text() == first

        g = make_grid(64, 16.0)
        F = SpectralField(g, np.exp(-g.xi_abs ** 4).astype(complex))
        spec_path = tmp_path / "spec.qs4f"
        write_field(F, spec_path)
        fit_out = tmp_path / "fit.json"
        argv = ["decay-fit", "--input", str(spec_path), "--out", str(fit_out)]
        assert parse_and_run(argv) == 0
        first = fit_out.read_text()
        assert parse_and_run(argv) == 0
        assert fit_out.read_text() == first

        osc_out = tmp_path / "osc.csv"
        argv = ["oscillatory-check", "--grid-n", "512", "--extent", "400",
                "--t-values", "1,4", "--out", str(osc_out)]
        assert parse_and_run(argv) == 0
        first = osc_out.read_text()
        assert parse_and_run(argv) == 0
        assert osc_out.read_text() == first
