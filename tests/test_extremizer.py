"""Fixed-point ascent, recentering, and independent diagnostics."""

import numpy as np
import pytest

from qs4.errors import TailTestError, ValidationError
from qs4.extremizer import (
    DiagnosticsSummary,
    ExtremizerReport,
    IterationConfig,
    diagnostics,
    recenter,
    run_iteration,
)
from qs4.functional import TimeWindow, strichartz_quotient
from qs4.grid import Field, make_gaussian, make_grid
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
        # Q is convex with gradient el_map on the band, so the undamped step
        # never lowers the quotient: every evaluation is an accepted step
        assert len(converged.quotient_history) == converged.n_iters
        assert converged.beta_final == 1.0

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
        assert len(h) == report.n_iters
        assert report.beta_final == 1.0
        # the converged fixture starts from the same seed without the carrier,
        # so its first history entry is the unmodulated baseline quotient
        assert h[-1] >= converged.quotient_history[0] - 1e-8

    def test_seed_width_independence(self, converged, grid, window):
        cfg = IterationConfig(grid=grid, window=window, max_iters=200,
                              seed_width=1.4)
        other = run_iteration(cfg)
        q_ref = converged.quotient_history[-1]
        assert abs(other.quotient_history[-1] - q_ref) / q_ref < 0.01

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

    def test_idempotent(self, grid):
        f = make_gaussian(grid, width=1.5, center=(4.0, 0.0))
        once, p1 = recenter(f)
        twice, p2 = recenter(once)
        assert np.allclose(p2.x0, (0.0, 0.0), atol=1e-6)
        assert abs(p2.h - 1.0) < 1e-2

    def test_zero_rejected(self, grid):
        with pytest.raises(ValidationError):
            recenter(Field(grid, np.zeros((grid.n, grid.n))))

    def test_quotient_preserved(self, window):
        # recentering is a symmetry operation: out = h f(h .) evolves as
        # u_out(t, x) = h u_f(h^4 t, h x), so out's quotient on [-T/h^4, T/h^4]
        # equals f's on [-T, T] (on the same window they differ by 3%).
        # Spacing 0.5 keeps out, of unit rms radius, inside the guarded band;
        # on the module's spacing-1 grid a unit-width Gaussian has 4e-4 of
        # its mass above 0.9 Nyquist.
        grid = make_grid(128, 64.0)
        f = make_gaussian(grid, width=1.5, center=(3.0, 1.0))
        out, p = recenter(f)
        q0 = strichartz_quotient(f, window)
        q1 = strichartz_quotient(out, TimeWindow(window.t_max / p.h ** 4, window.n_t))
        assert abs(q1 - q0) / q0 < 1e-2


class TestDiagnostics:
    def test_converged_report_clean(self, converged, window):
        summary = diagnostics(converged, window)
        assert not summary.discrepancy_flagged
        assert summary.quotient_discrepancy < 0.01
        assert summary.residual_refined < 1e-2

    def test_zero_iteration_report_flagged(self, converged, window):
        fake = ExtremizerReport(quotient_history=(), final_field=converged.final_field,
                                residual=1.0, omega=1.0, converged=False,
                                n_iters=0, beta_final=1.0)
        summary = diagnostics(fake, window)
        assert summary.discrepancy_flagged
