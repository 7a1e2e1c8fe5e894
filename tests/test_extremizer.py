"""Fixed-point ascent, recentering, and independent diagnostics."""

import numpy as np
import pytest

from qs4.errors import DivergenceError, TailTestError, ValidationError
from qs4.extremizer import (
    DiagnosticsSummary,
    ExtremizerReport,
    IterationConfig,
    diagnostics,
    recenter,
    run_iteration,
)
from qs4.functional import TimeWindow, strichartz_quotient
from qs4.grid import Field, Grid2D, make_gaussian, make_grid
from qs4.profiles import SymmetryParams, apply_symmetry


@pytest.fixture(scope="module")
def grid():
    return make_grid(128, 128.0)


@pytest.fixture(scope="module")
def window():
    return TimeWindow(2.0, 257)


@pytest.fixture(scope="module")
def converged(extremal_run):
    # the shared session ascent runs this module's grid, window and seed width
    return extremal_run[0]


class TestIterationConfig:
    def test_validation(self, grid, window):
        with pytest.raises(ValidationError):
            IterationConfig(grid=grid, window=window, max_iters=0)
        with pytest.raises(ValidationError):
            IterationConfig(grid=grid, window=window, tol_residual=0.0)
        for tol in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="tol_residual"):
                IterationConfig(grid=grid, window=window, tol_residual=tol)

    def test_seed_is_unit_norm(self, grid, window):
        cfg = IterationConfig(grid=grid, window=window, seed_width=1.5)
        assert abs(cfg.make_seed().l2_norm() - 1.0) < 1e-12


class TestRunIteration:
    def test_converges(self, converged):
        assert converged.converged
        assert converged.residual < 1e-3
        assert converged.n_iters <= 500

    def test_history_nondecreasing(self, converged):
        h = converged.quotient_history
        assert all(b >= a - 1e-8 for a, b in zip(h, h[1:]))

    def test_no_step_rejected(self, converged):
        # Q is convex with gradient el_map on the band, so the plain step
        # never lowers the quotient (one that did would have raised): every
        # evaluation is an accepted step or a discarded mixed one
        assert len(converged.quotient_history) + converged.n_fallbacks == converged.n_iters

    def test_omega_positive_and_consistent(self, converged):
        assert converged.omega > 0
        # at a unit-norm fixed point omega = quotient^6
        assert np.isclose(converged.omega ** (1 / 6.0),
                          converged.quotient_history[-1], rtol=1e-10)

    def test_final_field_unit_norm(self, converged):
        assert abs(converged.final_field.l2_norm() - 1.0) < 1e-10

    def test_restart_from_converged_state(self, converged, grid, window):
        cfg = IterationConfig(grid=grid, window=window, max_iters=500,
                              seed_width=1.05)
        again = run_iteration(cfg, initial=converged.final_field)
        assert again.converged
        assert again.n_iters == 1

    def test_modulated_seed_sheds_modulation(self, converged, grid, window):
        # an admissible carrier costs quotient; the ascent must shed it and
        # the history stays nondecreasing throughout
        cfg = IterationConfig(grid=grid, window=window, max_iters=60)
        report = run_iteration(cfg, initial=make_gaussian(grid, width=1.05, modulation=(2.0, 0.0)))
        h = report.quotient_history
        assert all(b >= a - 1e-8 for a, b in zip(h, h[1:]))
        assert len(h) + report.n_fallbacks == report.n_iters
        # the converged fixture starts from the same seed without the carrier,
        # so its first history entry is the unmodulated baseline quotient
        assert h[-1] >= converged.quotient_history[0] - 1e-8

    def test_seed_width_independence(self, converged, grid, window):
        cfg = IterationConfig(grid=grid, window=window, max_iters=200,
                              seed_width=1.4)
        other = run_iteration(cfg)
        q_ref = converged.quotient_history[-1]
        assert abs(other.quotient_history[-1] - q_ref) / q_ref < 1e-6

    def test_mixed_step_falls_back(self):
        # on the benchmark's extremal lattice some mixed candidates lower the
        # quotient; each is discarded for a plain step, so the accepted
        # history stays nondecreasing, and the run still needs under 50 of
        # the plain ascent's 69-71 el_map calls
        cfg = IterationConfig(grid=make_grid(64, 64.0), window=TimeWindow(2.0, 65),
                              seed_width=1.05)
        report = run_iteration(cfg)
        h = report.quotient_history
        assert report.n_fallbacks >= 1
        assert all(b >= a - 1e-8 for a, b in zip(h, h[1:]))
        assert report.converged
        assert report.n_iters <= 50

    def test_one_fixed_point(self):
        # run to a residual of 1e-8, seeds of different widths reach the same
        # extremizer; the plain ascent's 1e-3 stop leaves the dilation drift
        grid = make_grid(64, 64.0)
        window = TimeWindow(2.0, 129)
        quotients = []
        for width in (1.05, 1.4):
            cfg = IterationConfig(grid=grid, window=window, tol_residual=1e-8,
                                  seed_width=width)
            report = run_iteration(cfg)
            assert report.converged
            quotients.append(report.quotient_history[-1])
        assert abs(quotients[1] - quotients[0]) / quotients[0] < 1e-9

    def test_failed_plain_step_raises(self, shrinking_el_map):
        # the run stops on the evaluation of the first plain step
        cfg = IterationConfig(grid=make_grid(64, 64.0), window=TimeWindow(2.0, 65),
                              seed_width=1.05)
        with pytest.raises(DivergenceError, match="plain step lowered the quotient"):
            run_iteration(cfg)
        assert len(shrinking_el_map) == 2

    def test_final_field_passes_tail_gate(self):
        # the ascent converges in a few steps, but the endpoint slices of the
        # short window hold about 4e-3 of the norm's integral
        cfg = IterationConfig(grid=make_grid(64, 64.0), window=TimeWindow(0.05, 65),
                              seed_width=1.05)
        with pytest.raises(TailTestError, match="endpoint slices"):
            run_iteration(cfg)

    def test_grid_mismatch_rejected(self, grid, window):
        cfg = IterationConfig(grid=grid, window=window)
        other = make_gaussian(make_grid(64, 16.0), width=0.8)
        with pytest.raises(ValidationError):
            run_iteration(cfg, initial=other)


class TestRecenter:
    def test_identity_on_centered(self, converged):
        out, p = recenter(converged.final_field)
        assert np.allclose(p.x0, (0.0, 0.0), atol=1e-6)

    def test_translated_recovery(self, grid):
        f = make_gaussian(grid, width=1.5)
        shifted = apply_symmetry(f, SymmetryParams(x0=(5.0, -3.0)))
        out, p = recenter(shifted)
        assert np.allclose(p.x0, (5.0, -3.0), atol=grid.spacing)

    def test_bump_across_the_seam(self, grid):
        # centred at x = 63 on the lattice [-64, 63], the bump wraps round
        # the torus; its barycenter is taken there, not on the line
        f = apply_symmetry(make_gaussian(grid, width=1.5), SymmetryParams(x0=(63.0, 0.0)))
        out, p = recenter(f)
        assert np.allclose(p.x0, (63.0, 0.0), atol=1e-9)
        assert abs(p.h - 1.5) < 1e-6

    def test_output_on_relabelled_lattice(self, grid):
        # the dilation relabels the lattice: out(y) = h f_c(h y) is sampled at
        # y = x / h, on the same n points, so no value is interpolated
        f = make_gaussian(grid, width=1.5, center=(4.0, -2.0))
        out, p = recenter(f)
        assert out.grid == Grid2D(grid.n, grid.extent / p.h)
        assert abs(out.l2_norm() - 1.0) < 1e-12

    def test_idempotent(self, grid):
        f = make_gaussian(grid, width=1.5, center=(4.0, 0.0))
        once, p1 = recenter(f)
        twice, p2 = recenter(once)
        assert np.allclose(p2.x0, (0.0, 0.0), atol=1e-6)
        assert abs(p2.h - 1.0) < 1e-12

    def test_zero_rejected(self, grid):
        with pytest.raises(ValidationError):
            recenter(Field(grid, np.zeros((grid.n, grid.n))))

    def test_quotient_preserved(self, window):
        # recentering is a symmetry operation: out = h f(h .) evolves as
        # u_out(t, x) = h u_f(h^4 t, h x), so out's quotient on [-T/h^4, T/h^4]
        # equals f's on [-T, T] (on the same window they differ by 3%).  On
        # the relabelled lattice the discrete evolution is the same array with
        # t scaled by h^4, so the two agree to rounding.
        grid = make_grid(128, 64.0)
        f = make_gaussian(grid, width=1.5, center=(3.0, 1.0))
        out, p = recenter(f)
        q0 = strichartz_quotient(f, window)
        q1 = strichartz_quotient(out, TimeWindow(window.t_max / p.h ** 4, window.n_t))
        assert abs(q1 - q0) / q0 < 1e-12


class TestDiagnostics:
    def test_converged_report_clean(self, converged, window):
        summary = diagnostics(converged, window)
        assert not summary.discrepancy_flagged
        assert summary.quotient_discrepancy < 0.01
        assert summary.residual_refined < 1e-2

    def test_zero_iteration_report_flagged(self, converged, window):
        fake = ExtremizerReport(quotient_history=(), final_field=converged.final_field,
                                residual=1.0, omega=1.0, converged=False,
                                n_iters=0, n_fallbacks=0)
        summary = diagnostics(fake, window)
        assert summary.discrepancy_flagged
