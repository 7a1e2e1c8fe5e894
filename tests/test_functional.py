"""Space-time norms, the quotient, the six-linear form, and the E-L map."""

import numpy as np
import pytest

from qs4.errors import TailTestError, ValidationError
from qs4.functional import (
    _CHUNK_BYTES,
    _TIME_CHUNK,
    PAD_FACTOR,
    TimeWindow,
    _padded_inverse,
    el_map,
    evolve_padded,
    q_form,
    spacetime_norm,
    strichartz_quotient,
)
from qs4.grid import (
    BAND_GUARD_FRACTION,
    Field,
    SpectralField,
    dft_forward,
    dft_inverse,
    inner_product,
    make_gaussian,
    make_grid,
    make_random_field,
)
from qs4.propagator import evolve_quartic


def _window():
    return TimeWindow(2.0, 33)


def _bump(g, seed):
    return make_random_field(g, seed, band_radius=0.4 * g.nyquist,
                             envelope_width=g.extent / 10)


class TestTimeWindow:
    def test_nodes_and_weights(self):
        w = TimeWindow(2.0, 5)
        assert np.allclose(w.nodes, [-2, -1, 0, 1, 2])
        assert np.allclose(w.weights, [0.5, 1, 1, 1, 0.5])
        assert np.isclose(w.weights.sum(), 4.0)

    def test_refined_keeps_endpoints(self):
        w = TimeWindow(2.0, 9).refined()
        assert w.n_t == 17
        assert w.t_max == 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            TimeWindow(-1.0, 9)
        with pytest.raises(ValidationError):
            TimeWindow(1.0, 8)
        with pytest.raises(ValidationError):
            TimeWindow(1.0, 1)


class TestSpacetimeNorm:
    def test_matches_direct_quadrature(self):
        # unpadded per-node sums agree because the product of band-limited
        # factors is exactly represented once the band is narrow enough
        g = make_grid(128, 32.0)
        f = make_gaussian(g, width=0.8)
        w = _window()
        direct = 0.0
        for t, wt in zip(w.nodes, w.weights):
            u = evolve_quartic(f, t)
            direct += wt * np.sum(np.abs(u.values) ** 6) * g.spacing ** 2
        assert np.isclose(spacetime_norm(f, w) ** 6, direct, rtol=1e-12)

    def test_tail_gate_trips_on_small_torus(self):
        # on a small torus the dispersed wave wraps around and the endpoint
        # slices never become negligible
        g = make_grid(64, 16.0)
        f = make_gaussian(g, width=0.8)
        with pytest.raises(TailTestError):
            spacetime_norm(f, TimeWindow(3.0, 49))

    def test_time_reversal_symmetry(self):
        # real data evolve conjugate-symmetrically, so the norm over [-T, T]
        # equals twice the half-window sum minus the t = 0 slice
        g = make_grid(128, 32.0)
        f = make_gaussian(g, width=0.8)
        w = _window()
        total = 0.0
        for t, wt in zip(w.nodes, w.weights):
            u = evolve_quartic(f, t)
            total += wt * np.sum(np.abs(u.values) ** 6) * g.spacing ** 2
        mirrored = 0.0
        for t, wt in zip(-w.nodes[::-1], w.weights[::-1]):
            u = evolve_quartic(f, t)
            mirrored += wt * np.sum(np.abs(u.values) ** 6) * g.spacing ** 2
        assert np.isclose(total, mirrored, rtol=1e-12)


class TestQuotient:
    def test_scale_free_in_amplitude(self):
        g = make_grid(128, 32.0)
        f = make_gaussian(g, width=0.8)
        w = _window()
        q1 = strichartz_quotient(f, w)
        q2 = strichartz_quotient(3.7 * f, w)
        assert np.isclose(q1, q2, rtol=1e-12)

    def test_phase_invariance(self):
        g = make_grid(128, 32.0)
        f = make_gaussian(g, width=0.8)
        w = _window()
        q1 = strichartz_quotient(f, w)
        q2 = strichartz_quotient(np.exp(1j * 0.7) * f, w)
        assert np.isclose(q1, q2, rtol=1e-12)

    def test_zero_field_rejected(self):
        g = make_grid(32, 8.0)
        with pytest.raises(ValidationError):
            strichartz_quotient(Field(g, np.zeros((32, 32))), _window())


class TestQForm:
    def test_diagonal_equals_sixth_power(self):
        g = make_grid(128, 32.0)
        f = make_gaussian(g, width=0.8)
        w = _window()
        q6 = q_form(f, f, f, f, f, f, w)
        n6 = spacetime_norm(f, w) ** 6
        assert abs(q6 - n6) / n6 < 1e-12

    def test_linearity_first_slot(self):
        g = make_grid(32, 8.0)
        w = _window()
        f = _bump(g, 0)
        a = _bump(g, 1)
        b = _bump(g, 2)
        lhs = q_form(a + b, f, f, f, f, f, w)
        rhs = q_form(a, f, f, f, f, f, w) + q_form(b, f, f, f, f, f, w)
        assert abs(lhs - np.conj(rhs)) / abs(lhs) < 1e-10 or abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_grid_mismatch_rejected(self):
        f = make_gaussian(make_grid(32, 8.0), width=0.5)
        h = make_gaussian(make_grid(64, 8.0), width=0.5)
        with pytest.raises(ValidationError):
            q_form(f, h, f, f, f, f, _window())

    @pytest.mark.parametrize("slots", [(0, 1, 2, 3, 4, 5), (0, 1, 0, 2, 0, 1)])
    def test_matches_direct_quadrature(self, slots):
        # operands band-limited below a third of Nyquist: a six-fold product
        # cannot wrap, so the unpadded node-by-node sum is exact
        g = make_grid(64, 16.0)
        w = _window()
        pool = [make_random_field(g, 20 + k, band_radius=0.3 * g.nyquist,
                                  envelope_width=g.extent / 10) for k in range(6)]
        fields = [pool[k] for k in slots]
        direct = 0.0
        for t, wt in zip(w.nodes, w.weights):
            u = [evolve_quartic(f, t).values for f in fields]
            prod = np.conj(u[0] * u[1] * u[2]) * (u[3] * u[4] * u[5])
            direct += wt * prod.sum() * g.spacing ** 2
        assert np.isclose(q_form(*fields, w), direct, rtol=1e-12, atol=0)


class TestElMap:
    def test_pairing_identity(self):
        # <g, Lambda(f)> = Q(g, f, f, f, f, f) for random g
        g = make_grid(128, 32.0)
        w = _window()
        f = make_gaussian(g, width=0.8)
        lam = el_map(f, w)
        for seed in range(3):
            probe = _bump(g, 10 + seed)
            lhs = inner_product(probe, lam)
            rhs = q_form(probe, f, f, f, f, f, w)
            assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_omega_equals_sixth_power(self):
        # random speckle fields equilibrate on the torus instead of decaying,
        # so the time step must be fine enough for the endpoint slices to
        # stay below the tail gate
        g = make_grid(128, 32.0)
        w = TimeWindow(2.0, 257)
        for seed in range(3):
            f = make_random_field(g, seed, band_radius=1.5, envelope_width=4.0)
            lam = el_map(f, w)
            omega = inner_product(f, lam).real
            n6 = spacetime_norm(f, w) ** 6
            assert abs(omega - n6) / n6 < 1e-8

    def test_real_fast_path_matches_complex_path(self):
        g = make_grid(128, 32.0)
        w = _window()
        f = make_gaussian(g, width=0.8)
        real_path = el_map(f, w)
        # nudge into the complex branch with a negligible imaginary part
        f_c = Field(g, f.values + 1e-10j * f.values)
        complex_path = el_map(f_c, w)
        assert np.max(np.abs(real_path.values - complex_path.values)) < 1e-8

    def test_real_path_matches_complex_path_on_nyquist_mass(self):
        # a real field whose quintic has mass on the Nyquist row and column:
        # both paths drop it with the rest of the guarded band's complement
        g = make_grid(32, 16.0)
        f = Field(g, _bump(g, 5).values.real)
        w = TimeWindow(1.0, 9)
        real_path = el_map(f, w).values
        complex_path = el_map(Field(g, f.values + 1e-13j * f.values), w).values
        assert np.max(np.abs(real_path - complex_path)) <= 1e-11 * np.max(np.abs(real_path))

    @pytest.mark.parametrize("real", [True, False])
    def test_output_in_guarded_band(self, real):
        g = make_grid(32, 16.0)
        f = _bump(g, 5)
        if real:
            f = Field(g, f.values.real)
        coeffs = dft_forward(el_map(f, TimeWindow(1.0, 9))).coeffs
        outside = g.xi_abs >= BAND_GUARD_FRACTION * g.nyquist
        # zero before el_map's inverse transform; the round trip back leaves
        # rounding only
        assert np.max(np.abs(coeffs[outside])) <= 1e-14 * np.max(np.abs(coeffs))

    def test_zero_field_rejected(self):
        g = make_grid(32, 8.0)
        with pytest.raises(ValidationError):
            el_map(Field(g, np.zeros((32, 32))), _window())


class TestPadding:
    def test_pad_factor_covers_quintic(self):
        assert PAD_FACTOR >= 3

    @pytest.mark.parametrize("n, operands, pad", [(128, 6, 3), (256, 2, 2), (64, 1, 3)])
    def test_chunk_bytes_bounded(self, n, operands, pad):
        # a chunk takes as many nodes as fit the byte budget, up to the node
        # cap; (256, 2, 2) is the bilinear scan's full 16-node chunk
        g = make_grid(n, 16.0)
        seen = []

        def record(chunk, phases, us):
            assert all(u.shape == (len(phases), pad * n, pad * n) for u in us)
            seen.append((len(phases), sum(u.nbytes for u in us)))

        times = np.linspace(-1.0, 1.0, 2 * _TIME_CHUNK + 1)
        evolve_padded(g, [np.zeros((n, n), complex)] * operands, g.xi_sq ** 2, times,
                      record, pad=pad)
        assert sum(k for k, _ in seen) == len(times)
        assert max(b for _, b in seen) <= _CHUNK_BYTES
        nodes = max(k for k, _ in seen)
        per_node = operands * 16 * (pad * n) ** 2
        assert nodes == _TIME_CHUNK or (nodes + 1) * per_node > _CHUNK_BYTES

    @pytest.mark.parametrize("pad", [2, 3])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_padded_inverse_is_centered_embedding(self, pad, batch):
        n, extent = 16, 8.0
        rng = np.random.default_rng(pad)
        coeffs = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
        nn = pad * n
        lo = (nn - n) // 2
        big = np.zeros(batch + (nn, nn), complex)
        big[..., lo:lo + n, lo:lo + n] = coeffs
        ref = np.fft.ifft2(big) * (nn / extent) ** 2
        got = _padded_inverse(coeffs, pad, extent)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("real", [True, False])
    def test_el_map_matches_full_transform_and_crop(self, real):
        # sum_t w_t e^{-it Delta^2}[|u|^4 u] over the whole window, with u
        # sampled by a full transform of the centered embedding and the
        # quintic's full spectrum cropped to the working band, then projected
        # onto the guarded band.  For real input el_map sums the t >= 0 half
        # and takes 2 Re; the reference does not.
        g = make_grid(32, 16.0)
        f = _bump(g, 5)
        if real:
            f = Field(g, f.values.real)
        w = TimeWindow(1.0, 9)
        n, nn = g.n, PAD_FACTOR * g.n
        lo = (nn - n) // 2
        k = np.arange(-nn // 2, nn // 2)
        sign = (-1.0) ** (k[:, None] + k[None, :])  # dft_forward's alt_sign on the fine lattice
        F = dft_forward(f).coeffs
        acc = np.zeros_like(F)
        for t, wt in zip(w.nodes, w.weights):
            phase = np.exp(1j * t * g.xi_sq ** 2)
            embedded = np.zeros((nn, nn), complex)
            embedded[lo:lo + n, lo:lo + n] = F * phase
            u = np.fft.ifft2(np.fft.ifftshift(sign * embedded)) * (nn / g.extent) ** 2
            quintic = (g.extent / nn) ** 2 * sign * np.fft.fftshift(np.fft.fft2(np.abs(u) ** 4 * u))
            acc += wt * np.conj(phase) * quintic[lo:lo + n, lo:lo + n]
        ref = dft_inverse(SpectralField(g, acc * (g.xi_abs < BAND_GUARD_FRACTION * g.nyquist))).values
        got = el_map(f, w).values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_spectra_left_unmodified(self):
        # op may overwrite the padded samples; the spectra it was given stay
        g = make_grid(16, 8.0)
        rng = np.random.default_rng(0)
        spectra = [rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
                   for _ in range(2)]
        kept = [c.copy() for c in spectra]

        def clobber(chunk, phases, us):
            for u in us:
                u *= 0.0

        evolve_padded(g, spectra, g.xi_sq ** 2, np.linspace(-1.0, 1.0, 2 * _TIME_CHUNK + 1),
                      clobber)
        assert all(np.array_equal(c, k) for c, k in zip(spectra, kept))
