"""Space-time norms, the quotient, the six-linear form, and the E-L map."""

import numpy as np
import pytest

from qs4.bilinear import make_separated_pair, product_norm_l3
from qs4.errors import NyquistGuardError, TailTestError, ValidationError
from qs4.functional import (
    _CHUNK_BYTES,
    _TIME_CHUNK,
    PAD_FACTOR,
    TimeWindow,
    _padded_forward,
    _padded_inverse,
    classify,
    el_map,
    evolve_padded,
    q_form,
    spacetime_norm,
    spacetime_slices,
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
from qs4.propagator import demodulated_phase, evolve_quartic


def _window():
    return TimeWindow(2.0, 33)


def _bump(g, seed):
    return make_random_field(g, seed, band_radius=0.4 * g.nyquist,
                             envelope_width=g.extent / 10)


def _inverse(coeffs, pad, even=False):
    # _padded_inverse through buffers allocated for the one call; the NaN
    # it must overwrite stands for a previous chunk's samples
    n = coeffs.shape[-1]
    side = pad * n + 1 if even else pad * n
    cols = np.full(coeffs.shape[:-2] + (side, n), np.nan, complex)
    cols[..., :n, :] = coeffs
    return _padded_inverse(cols, np.full(coeffs.shape[:-2] + (side, side), np.nan, complex), even)


def _even_bump(g, seed):
    # the real part of _bump summed over the reflections x_i -> -x_i of each
    # axis, lattice index j -> n - j mod n
    r = _bump(g, seed).values.real
    r = r + np.roll(r[::-1, :], 1, axis=0)
    return Field(g, r + np.roll(r[:, ::-1], 1, axis=1))


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


def _check_pairing(symmetry):
    g = make_grid(128, 32.0)
    w = _window()
    f = make_gaussian(g, width=0.8)
    lam = el_map(f, w, symmetry)
    for seed in range(3):
        probe = _bump(g, 10 + seed)
        lhs = inner_product(probe, lam)
        rhs = q_form(probe, f, f, f, f, f, w)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10


class TestElMap:
    def test_pairing_identity(self):
        # <g, Lambda(f)> = Q(g, f, f, f, f, f) for random g
        _check_pairing("real")

    def test_pairing_identity_on_even_path(self):
        # the probes are neither real nor even
        _check_pairing("even")

    def test_omega_equals_sixth_power(self):
        # random speckle fields equilibrate on the torus instead of decaying,
        # so the time step must be fine enough for the endpoint slices to
        # stay below the tail gate
        g = make_grid(128, 32.0)
        w = TimeWindow(2.0, 257)
        for seed in range(3):
            f = make_random_field(g, seed, band_radius=1.5, envelope_width=4.0)
            lam = el_map(f, w, "general")
            omega = inner_product(f, lam).real
            n6 = spacetime_norm(f, w) ** 6
            assert abs(omega - n6) / n6 < 1e-8

    def test_real_fast_path_matches_complex_path(self):
        g = make_grid(128, 32.0)
        w = _window()
        f = make_gaussian(g, width=0.8)
        real_path = el_map(f, w, "real")
        # a negligible imaginary part, through the general class
        f_c = Field(g, f.values + 1e-10j * f.values)
        complex_path = el_map(f_c, w, "general")
        assert np.max(np.abs(real_path.values - complex_path.values)) < 1e-8

    def test_real_path_matches_complex_path_on_nyquist_mass(self):
        # a real field whose quintic has mass on the Nyquist row and column:
        # both paths drop it with the rest of the guarded band's complement
        g = make_grid(32, 16.0)
        f = Field(g, _bump(g, 5).values.real)
        w = TimeWindow(1.0, 9)
        real_path = el_map(f, w, "real").values
        complex_path = el_map(Field(g, f.values + 1e-13j * f.values), w, "general").values
        assert np.max(np.abs(real_path - complex_path)) <= 1e-11 * np.max(np.abs(real_path))

    @pytest.mark.parametrize("n, extent", [(32, 16.0), (64, 32.0)])
    def test_even_path_matches_general_path(self, n, extent):
        g = make_grid(n, extent)
        f = _even_bump(g, 3)
        w = TimeWindow(1.0, 17)
        even = el_map(f, w, "even").values
        general = el_map(f, w, "general").values
        assert np.max(np.abs(even - general)) <= 1e-13 * np.max(np.abs(general))

    @pytest.mark.parametrize("real", [True, False])
    def test_output_in_guarded_band(self, real):
        g = make_grid(32, 16.0)
        f = _bump(g, 5)
        if real:
            f = Field(g, f.values.real)
        coeffs = dft_forward(el_map(f, TimeWindow(1.0, 9), "real" if real else "general")).coeffs
        outside = g.xi_abs >= BAND_GUARD_FRACTION * g.nyquist
        # zero before el_map's inverse transform; the round trip back leaves
        # rounding only
        assert np.max(np.abs(coeffs[outside])) <= 1e-14 * np.max(np.abs(coeffs))

    def test_zero_field_rejected(self):
        g = make_grid(32, 8.0)
        with pytest.raises(ValidationError):
            el_map(Field(g, np.zeros((32, 32))), _window(), "real")

    def test_unknown_symmetry_rejected(self):
        g = make_grid(32, 8.0)
        with pytest.raises(ValidationError, match="symmetry"):
            el_map(_bump(g, 1), _window(), "odd")


class TestClassify:
    def test_centred_gaussian_is_even_exactly(self):
        g = make_grid(64, 32.0)
        symmetry, f = classify(make_gaussian(g, width=1.3))
        assert symmetry == "even"
        assert np.all(f.values.imag == 0)
        # the projection is exact, not within a tolerance
        assert np.array_equal(f.values, np.roll(f.values[::-1, :], 1, axis=0))
        assert np.array_equal(f.values, np.roll(f.values[:, ::-1], 1, axis=1))

    @pytest.mark.parametrize("center", [(1.5, 0.0), (0.0, 1.5)])
    def test_even_in_one_axis_only_is_real(self, center):
        g = make_grid(64, 32.0)
        f = make_gaussian(g, center=center, width=1.3)
        symmetry, projected = classify(f)
        assert symmetry == "real"
        assert np.array_equal(projected.values, f.values.real)

    def test_complex_field_is_general_and_untouched(self):
        g = make_grid(64, 32.0)
        f = make_gaussian(g, width=1.3, modulation=(1.0, 0.0))
        symmetry, projected = classify(f)
        assert symmetry == "general"
        assert projected is f

    def test_rounding_level_defects_are_projected_away(self):
        g = make_grid(32, 16.0)
        f = _even_bump(g, 2)
        peak = np.max(np.abs(f.values))
        noise = np.random.default_rng(0).standard_normal((32, 32))
        symmetry, projected = classify(Field(g, f.values * (1 + 1e-16 * noise) + 1e-16j * peak))
        assert symmetry == "even"
        assert np.max(np.abs(projected.values - f.values)) <= 1e-15 * peak


def _full_transform_and_crop(f, w):
    """sum_t w_t e^{-it Delta^2}[|u|^4 u] over the whole window, with u
    sampled by a full transform of the centered embedding and the quintic's
    full spectrum cropped to the working band, then projected onto the
    guarded band."""
    g = f.grid
    n, nn = g.n, PAD_FACTOR * g.n
    lo = (nn - n) // 2
    k = np.arange(-nn // 2, nn // 2)
    sign = (-1.0) ** (k[:, None] + k[None, :])  # the centred transform's phase on the fine lattice
    F = dft_forward(f).coeffs
    acc = np.zeros_like(F)
    for t, wt in zip(w.nodes, w.weights):
        phase = np.exp(1j * t * g.xi_sq ** 2)
        embedded = np.zeros((nn, nn), complex)
        embedded[lo:lo + n, lo:lo + n] = F * phase
        u = np.fft.ifft2(np.fft.ifftshift(sign * embedded)) * (nn / g.extent) ** 2
        quintic = (g.extent / nn) ** 2 * sign * np.fft.fftshift(np.fft.fft2(np.abs(u) ** 4 * u))
        acc += wt * np.conj(phase) * quintic[lo:lo + n, lo:lo + n]
    return dft_inverse(SpectralField(g, acc * (g.xi_abs < BAND_GUARD_FRACTION * g.nyquist))).values


class TestPadding:
    def test_pad_factor_covers_quintic(self):
        assert PAD_FACTOR >= 3

    @pytest.mark.parametrize("n, operands, pad", [(128, 6, 3), (256, 2, 2), (64, 1, 3)])
    def test_chunk_bytes_bounded(self, n, operands, pad):
        # a chunk takes as many nodes as fit the byte budget, up to the node
        # cap; (256, 2, 2) is the bilinear scan's two-node chunk
        g = make_grid(n, 16.0)
        seen = []

        def record(chunk, phases, us):
            assert all(u.shape == (len(phases), pad * n, pad * n) for u in us)
            seen.append((len(phases), sum(u.nbytes for u in us)))
            return 0.0

        times = np.linspace(-1.0, 1.0, 2 * _TIME_CHUNK + 1)
        evolve_padded([SpectralField(g, np.zeros((n, n)))] * operands, g.xi_sq ** 2, times,
                      record, pad=pad)
        assert sum(k for k, _ in seen) == len(times)
        assert max(b for _, b in seen) <= _CHUNK_BYTES
        nodes = max(k for k, _ in seen)
        per_node = operands * 16 * (pad * n) ** 2
        assert nodes == _TIME_CHUNK or (nodes + 1) * per_node > _CHUNK_BYTES

    @pytest.mark.parametrize("pad", [2, 3])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_padded_inverse_layout(self, pad, batch):
        # the physical samples of the centred embedding, rolled by half the
        # torus on each axis and modulated by e^{i pi (j1 + j2) / pad}
        n, extent = 16, 8.0
        rng = np.random.default_rng(pad)
        coeffs = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
        nn = pad * n
        lo = (nn - n) // 2
        big = np.zeros(batch + (nn, nn), complex)
        big[..., lo:lo + n, lo:lo + n] = coeffs
        axes = (-2, -1)
        samples = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(big, axes=axes)), axes=axes)
        rolled = np.roll(samples, (nn // 2, nn // 2), axis=axes) * (nn / extent) ** 2
        # the caller applies the scale
        got = _inverse(coeffs * (nn / extent) ** 2, pad)
        assert got.shape == rolled.shape
        scale = np.max(np.abs(rolled))
        assert np.max(np.abs(np.abs(got) - np.abs(rolled))) <= 1e-14 * scale
        j = np.arange(nn)
        modulation = np.exp(1j * np.pi * ((j[:, None] + j[None, :]) % (2 * pad)) / pad)
        assert np.max(np.abs(got - modulation * rolled)) <= 1e-14 * scale

    @pytest.mark.parametrize("pad", [2, 3])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_quarter_inverse_layout(self, pad, batch):
        # for a spectrum even in each axis, the physical samples of the
        # centred embedding at x = m L/M, m = 0..M/2 per axis (M = pad n),
        # from the (n/2)^2 quarter k >= 0
        n, extent = 16, 8.0
        rng = np.random.default_rng(pad)
        h, nn = n // 2, pad * n
        quarter = rng.standard_normal(batch + (h, h)) + 1j * rng.standard_normal(batch + (h, h))
        k = np.abs(np.arange(1 - h, h))
        coeffs = np.zeros(batch + (n, n), complex)
        coeffs[..., 1:, 1:] = quarter[..., k[:, None], k[None, :]]
        lo = (nn - n) // 2
        big = np.zeros(batch + (nn, nn), complex)
        big[..., lo:lo + n, lo:lo + n] = coeffs
        axes = (-2, -1)
        samples = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(big, axes=axes)), axes=axes)
        m = (nn // 2 + np.arange(nn // 2 + 1)) % nn
        want = samples[..., m[:, None], m[None, :]] * (nn / extent) ** 2
        got = _inverse(quarter * (nn / extent) ** 2, pad, even=True)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_quarter_lattice_sums_weight_the_lines(self):
        # a lattice sum on the quarter lattice weights the lines m = 0 and
        # m = M/2 once and every other line twice: so weighted it equals the
        # sum over the whole refined lattice
        g = make_grid(32, 16.0)
        F = dft_forward(_even_bump(g, 4))
        w = TimeWindow(1.0, 9)
        c = np.full(PAD_FACTOR * g.n // 2 + 1, 2.0)
        c[0] = c[-1] = 1.0

        def powers(chunk, phases, us):
            u, = us
            return np.einsum("a,b,tab->t", c, c, np.abs(u) ** 6)

        quarter = np.concatenate(evolve_padded([F], g.xi_sq ** 2, w.nodes, powers, even=True))
        full = spacetime_slices(F, g.xi_sq ** 2, w)
        assert np.max(np.abs(quarter - full)) <= 1e-13 * np.max(full)

    @pytest.mark.parametrize("pad", [2, 3])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_padded_round_trip(self, pad, batch):
        # _padded_forward reads back what _padded_inverse wrote, up to the
        # refined lattice's cell area
        n, extent = 16, 8.0
        rng = np.random.default_rng(pad)
        coeffs = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
        cell = (extent / (pad * n)) ** 2
        back = cell * _padded_forward(_inverse(coeffs * (pad * n / extent) ** 2, pad), n)
        assert back.shape == coeffs.shape
        assert np.max(np.abs(back - coeffs)) <= 1e-14 * np.max(np.abs(coeffs))

    def test_unguarded_spectrum_rejected(self):
        # the kernel guards its own entry: a flat spectrum fills the corners
        # of the frequency square that padded products would wrap into
        g = make_grid(16, 8.0)
        with pytest.raises(NyquistGuardError):
            spacetime_slices(SpectralField(g, np.ones((16, 16))), g.xi_sq ** 2, TimeWindow(1.0, 5))

    def test_mixed_grids_rejected(self):
        a, b = make_grid(16, 8.0), make_grid(16, 16.0)
        spectra = [SpectralField(g, np.zeros((16, 16))) for g in (a, b)]
        with pytest.raises(ValidationError, match="different grids"):
            evolve_padded(spectra, a.xi_sq ** 2, np.zeros(1), lambda chunk, phases, us: 0.0)

    @pytest.mark.parametrize("real", [True, False])
    def test_el_map_matches_full_transform_and_crop(self, real):
        # for real input el_map sums the t >= 0 half and takes 2 Re; the
        # reference does not
        g = make_grid(32, 16.0)
        f = _bump(g, 5)
        if real:
            f = Field(g, f.values.real)
        w = TimeWindow(1.0, 9)
        ref = _full_transform_and_crop(f, w)
        got = el_map(f, w, "real" if real else "general").values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_even_path_matches_full_transform_and_crop(self):
        # the even path sums the t >= 0 half on the quarter lattice
        g = make_grid(32, 16.0)
        f = _even_bump(g, 5)
        w = TimeWindow(1.0, 9)
        ref = _full_transform_and_crop(f, w)
        got = el_map(f, w, "even").values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_spectra_left_unmodified(self):
        # op may overwrite the padded samples; the spectra it was given stay
        g = make_grid(16, 8.0)
        spectra = [dft_forward(_bump(g, seed)) for seed in range(2)]
        kept = [F.coeffs.copy() for F in spectra]

        def clobber(chunk, phases, us):
            for u in us:
                u *= 0.0
            return 0.0

        evolve_padded(spectra, g.xi_sq ** 2, np.linspace(-1.0, 1.0, 2 * _TIME_CHUNK + 1),
                      clobber)
        assert all(np.array_equal(F.coeffs, k) for F, k in zip(spectra, kept))

    @pytest.mark.parametrize("even", [False, True])
    def test_reused_buffers_do_not_leak(self, even):
        # the buffers are refilled for every chunk: an op that fills them
        # with NaN after reducing sees what an op that leaves them alone sees
        g = make_grid(16, 8.0)
        spectra = [dft_forward(_even_bump(g, seed)) for seed in range(2)]
        times = np.linspace(-1.0, 1.0, 3 * _TIME_CHUNK + 1)

        def sums(chunk, phases, us):
            return np.array([np.sum(np.abs(u) ** 2, axis=(-2, -1)) for u in us])

        def spoil(chunk, phases, us):
            got = sums(chunk, phases, us)
            for u in us:
                u.fill(np.nan)
            return got

        spoiled = evolve_padded(spectra, g.xi_sq ** 2, times, spoil, even=even)
        kept = evolve_padded(spectra, g.xi_sq ** 2, times, sums, even=even)
        assert len(spoiled) >= 3
        assert np.array_equal(np.concatenate(spoiled, axis=-1), np.concatenate(kept, axis=-1))

    def test_chunk_size_invariance(self, monkeypatch):
        # one node per chunk: per-node sums stay bit for bit; el_map and
        # q_form regroup their t-sums, so they agree to rounding
        g = make_grid(32, 16.0)
        f = _bump(g, 3)
        real = Field(g, f.values.real)
        w = TimeWindow(1.0, 33)
        pair = make_separated_pair(make_grid(128, 32.0), 0.5, 4.0, seed=0, envelope_width=2.0)

        def outputs():
            return (spacetime_slices(dft_forward(f), g.xi_sq ** 2, w),
                    product_norm_l3(pair, TimeWindow(0.5, 33)),
                    el_map(f, w, "general").values, el_map(real, w, "real").values,
                    q_form(f, real, f, f, real, f, w))

        default = outputs()
        monkeypatch.setattr("qs4.functional._CHUNK_BYTES", 1)
        single = outputs()
        assert np.array_equal(single[0], default[0])
        assert single[1] == default[1]
        for got, want in zip(single[2:], default[2:]):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["quartic", "demodulated", "even"])
    def test_phase_table_exact(self, kind):
        # the phases gathered from the symbol's distinct values are the
        # exp of the whole symbol, bit for bit
        g = make_grid(32, 16.0)
        times = np.linspace(-1.0, 1.0, 2 * _TIME_CHUNK + 1)
        if kind == "demodulated":
            points = np.stack(np.meshgrid(g.xi, g.xi, indexing="ij"), axis=-1)
            symbol = demodulated_phase(points, (4.8, 6.4))
        else:
            symbol = g.xi_sq ** 2
        even = kind == "even"
        want = symbol[g.n // 2:, g.n // 2:] if even else symbol
        seen = []

        def record(chunk, phases, us):
            seen.append(np.array_equal(phases, np.exp(1j * times[chunk, None, None] * want)))
            return 0.0

        evolve_padded([dft_forward(_even_bump(g, 0))], symbol, times, record, even=even)
        assert len(seen) == 3 and all(seen)
