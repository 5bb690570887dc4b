import cmath
import math

import numpy as np
import pytest

from htaspec import core, waves
from htaspec.core import QuantumState, Variant
from htaspec.errors import DegenerateOrderError, DomainError
from htaspec.special import gamma_complex


@pytest.fixture(scope="module")
def params_1s(ccbar_real):
    st = QuantumState.from_label("1S")
    return waves.wave_params(ccbar_real, st, core.energy_real(ccbar_real, st))


@pytest.fixture(scope="module")
def params_2s(ccbar_real):
    st = QuantumState.from_label("2S")
    return waves.wave_params(ccbar_real, st, core.energy_real(ccbar_real, st))


SAMPLE_POINTS = [(0.4, -0.8), (0.4, 0.3), (1.0, 0.0), (1.4, 0.7), (2.3, -0.2),
                 (0.8, 1.0), (1.8, -1.0), (3.0, 0.5), (0.6, 0.05), (2.6, 0.9)]


class TestWaveParams:
    def test_bound_state_required(self):
        with pytest.raises(DomainError):
            waves.WaveParams(alpha=0.5, beta=10.0, gamma=-1.0)

    def test_positive_b_required(self):
        with pytest.raises(DomainError):
            waves.WaveParams(alpha=-1.0, beta=10.0, gamma=-1.0, B=0.0)

    def test_derived_quantities(self, params_1s):
        assert params_1s.u == math.sqrt(-params_1s.alpha)
        assert params_1s.c_order == params_1s.beta / (2 * params_1s.u)


class TestClosedVsNumeric:
    @pytest.mark.parametrize("n", [0, 1])
    def test_transform_oracle(self, params_1s, n):
        for r, p in SAMPLE_POINTS:
            closed = waves.psi_n(params_1s, n, r, p)
            numeric = waves.psi_n_numeric(params_1s, n, r, p)
            assert abs(closed - numeric) <= 1e-5 * abs(closed)

    def test_n1_rodrigues_bracket(self, params_2s):
        # the n = 1 Rodrigues polynomial is tau(x) = 2u + (2 - beta/u) x
        u, beta = params_2s.u, params_2s.beta
        c0, c1 = waves._rodrigues_coeffs(params_2s, 1)
        assert c0 == pytest.approx(2.0 * u, rel=1e-13)
        assert c1 == pytest.approx(2.0 - beta / u, rel=1e-13)

    def test_independent_quadrature_oracle(self, params_1s):
        # fully external route: scipy adaptive quadrature of the defining
        # t-integral, bypassing both the incomplete gamma kernels and the
        # package's oscillatory integrator
        from scipy.integrate import quad

        u, c = params_1s.u, params_1s.c_order
        for r, p in ((0.8, 0.4), (1.7, -0.6)):
            w = complex(u, -2 * p)

            def f(t, part):
                val = cmath.exp((c - 3) * cmath.log(t) - w * t)
                return val.real if part == 0 else val.imag

            re, _ = quad(lambda t: f(t, 0), r, r + 60 / u, limit=400, epsabs=1e-14)
            im, _ = quad(lambda t: f(t, 1), r, r + 60 / u, limit=400, epsabs=1e-14)
            want = params_1s.B / math.pi * cmath.exp(-4j * p * r) * complex(re, im)
            assert waves.psi_n(params_1s, 0, r, p) == pytest.approx(want, rel=1e-8)

    def test_large_r_decay(self, params_1s):
        assert abs(waves.psi_n(params_1s, 0, 30.0 / params_1s.u, 0.3)) < 1e-9 * abs(waves.psi_n(params_1s, 0, 0.5, 0.3))

    def test_psi_n2_finite_and_decaying(self, ccbar_real):
        st = QuantumState.from_label("3S")
        p3 = waves.wave_params(ccbar_real, st, core.energy_real(ccbar_real, st))
        vals = [abs(waves.psi_n(p3, 2, r, 0.2)) for r in (1.0, 4.0, 8.0)]
        assert all(math.isfinite(v) for v in vals)
        assert vals[2] < vals[0]

    def test_r_must_be_positive(self, params_1s):
        with pytest.raises(DomainError):
            waves.psi_n(params_1s, 0, 0.0, 0.1)

    def test_n_range_guard(self, params_1s):
        with pytest.raises(DomainError):
            waves.psi_n(params_1s, 7, 1.0, 0.0)


class TestDegenerateOrderGuard:
    def test_integer_order_detected(self):
        # beta = 2 sqrt(-alpha) k makes the gamma order integer-degenerate
        for k in (0, 1, 2):
            params = waves.WaveParams(alpha=-1.0, beta=2.0 * k, gamma=-5.0)
            with pytest.raises(DegenerateOrderError):
                waves.psi_n(params, 0, 1.0, 0.1)
        params = waves.WaveParams(alpha=-1.0, beta=6.0, gamma=-5.0)  # k = 3
        with pytest.raises(DegenerateOrderError):
            waves.psi_n(params, 1, 1.0, 0.1)

    def test_non_integer_order_passes(self):
        params = waves.WaveParams(alpha=-1.0, beta=4.4, gamma=-5.0)
        assert math.isfinite(abs(waves.psi_n(params, 0, 1.0, 0.1)))


class TestNormalization:
    def test_total_probability(self, params_1s):
        b_norm = waves.normalize_B(params_1s, 0)
        normed = waves.WaveParams(params_1s.alpha, params_1s.beta, params_1s.gamma, b_norm)
        assert waves.total_probability(normed, 0) == pytest.approx(1.0, abs=1e-3)

    def test_truncation_stability(self, params_1s):
        b1 = waves.normalize_B(params_1s, 0)
        b2 = waves.normalize_B(params_1s, 0, r_pad=2.0)
        assert abs(b2 - b1) / b1 < 1e-4

    def test_excited_state_normalization(self, params_2s):
        b_norm = waves.normalize_B(params_2s, 1)
        normed = waves.WaveParams(params_2s.alpha, params_2s.beta, params_2s.gamma, b_norm)
        assert waves.total_probability(normed, 1) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "label,n,frozen",
        [("1S", 0, 13.3509), ("1P", 0, 4.9003), ("3S", 2, 0.100795)],
    )
    def test_reported_constants(self, ccbar_real, label, n, frozen):
        # convention-bound diagnostics, frozen for regression only (the
        # published values use an unstated grid convention and differ)
        st = QuantumState.from_label(label)
        params = waves.wave_params(ccbar_real, st, core.energy_real(ccbar_real, st))
        assert waves.normalize_B(params, n) == pytest.approx(frozen, rel=2e-4)


class TestDensityGrid:
    def test_grid_matches_pointwise(self, params_1s):
        grid = waves.density_grid(params_1s, 0, (0.5, 2.0, 4), (-0.5, 0.5, 3))
        for i, r in enumerate(grid.r_values):
            for j, p in enumerate(grid.p_values):
                want = waves.psi_n(params_1s, 0, r, p)
                assert grid.amplitudes[i, j] == pytest.approx(want, rel=1e-13)
                assert grid.densities[i, j] == pytest.approx(abs(want) ** 2, rel=1e-12)

    def test_densities_nonnegative(self, params_1s):
        grid = waves.density_grid(params_1s, 0, (0.2, 3.0, 12), (-1.0, 1.0, 7))
        assert (grid.densities >= 0).all()

    def test_single_cell_axes(self, params_1s):
        grid = waves.density_grid(params_1s, 0, (1.0, 2.0, 1), (0.3, 0.4, 1))
        assert grid.amplitudes.shape == (1, 1)
        assert grid.r_values == (1.0,)

    def test_explicit_axis_values(self, params_1s):
        grid = waves.density_grid(params_1s, 0, [0.5, 1.0, 2.5], [0.0, 0.4])
        assert grid.r_values == (0.5, 1.0, 2.5)
        assert grid.p_values == (0.0, 0.4)

    def test_bad_axes_rejected(self, params_1s):
        with pytest.raises(DomainError):
            waves.density_grid(params_1s, 0, (2.0, 1.0, 5), (0.0, 1.0, 3))
        with pytest.raises(DomainError):
            waves.density_grid(params_1s, 0, [1.0, 0.5], [0.0, 1.0])

    def test_cell_errors_recorded_not_raised(self, params_1s):
        # r = 0 cells fail individually and are recorded as NaN
        grid = waves.density_grid(params_1s, 0, [0.0, 1.0], [0.0])
        assert len(grid.cell_errors) == 1
        assert math.isnan(grid.amplitudes[0, 0].real)
        assert math.isfinite(grid.amplitudes[1, 0].real)

    def test_failing_row_inside_a_block(self, params_1s):
        # the block holding the bad rows falls back to single cells; the
        # good rows of the same block keep their array values
        grid = waves.density_grid(params_1s, 0, [-0.5, 0.0, 0.7, 1.9], [-0.3, 0.0, 0.6])
        assert [(i, j) for i, j, _ in grid.cell_errors] == [(i, j) for i in (0, 1) for j in range(3)]
        assert all(msg.startswith("DomainError: psi_n: r must be > 0") for _, _, msg in grid.cell_errors)
        assert np.isnan(grid.amplitudes[:2]).all()
        for i in (2, 3):
            for j, p in enumerate(grid.p_values):
                want = waves.psi_n(params_1s, 0, grid.r_values[i], p)
                assert grid.amplitudes[i, j] == pytest.approx(want, rel=1e-13)

    def test_peak_radius_trend(self, params_1s):
        grid = waves.density_grid(params_1s, 0, (0.02, 6.0, 500), (0.0, 1.0, 5))
        peaks = [waves.peak_radius(grid, j) for j in range(5)]
        assert all(b >= a for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] > peaks[0]


    def test_peak_radius_on_axis_edge_rejected(self, bcbar_real):
        # bcbar's c = beta/(2u) is about -27: r^2 |psi|^2 grows toward r -> 0
        # across the whole axis, so no peak is resolved
        st = QuantumState.from_label("1S")
        params = waves.wave_params(bcbar_real, st, core.energy_real(bcbar_real, st))
        grid = waves.density_grid(params, 0, (0.02, 6.0, 500), (0.0, 1.0, 5))
        for j in range(5):
            with pytest.raises(DomainError, match="r-axis edge"):
                waves.peak_radius(grid, j)

class TestAnsatzConsistency:
    def test_kernel_satisfies_transformed_equation(self):
        # Omega'' + 6 Omega'/A + (alpha + beta/A + gamma/A^2) Omega = 0 at
        # the strict n = 0 eigenvalue (lambda = 0 fixes alpha given beta,
        # gamma); differences taken in r at fixed transformed momentum
        beta, gamma = 31.5973, -26.2183
        roots = np.roots([4 * (gamma - 6), -2 * beta, beta**2])
        u = next(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
        params = waves.WaveParams(alpha=-(u**2), beta=beta, gamma=gamma)
        kernel = waves.half_transformed_kernel(params, 0)
        for pbar in (0.0, 0.6):
            for r in (0.6, 1.1, 2.0):
                a0 = complex(r, pbar / 2)
                h = 1e-4
                om = lambda rr: kernel(complex(rr, pbar / 2))
                d1 = (om(r + h) - om(r - h)) / (2 * h)
                d2 = (om(r + h) - 2 * om(r) + om(r - h)) / h**2
                resid = d2 + 6 * d1 / a0 + (params.alpha + beta / a0 + gamma / a0**2) * om(r)
                scale = max(abs(d2), abs((params.alpha + beta / a0 + gamma / a0**2) * om(r)))
                assert abs(resid) / scale < 1e-4

    def test_density_invariant_under_ansatz_phase(self, params_1s):
        for r, p in SAMPLE_POINTS[:4]:
            psi = waves.psi_n(params_1s, 0, r, p)
            omega_val = psi * cmath.exp(2j * p * r)
            assert abs(omega_val) ** 2 == pytest.approx(abs(psi) ** 2, rel=1e-14)


class TestMomentumCoupledVariant:
    def make_params(self, ccbar_complex):
        st = QuantumState.from_label("1S")
        e = core.energy_complex(ccbar_complex, st, 0.0).real
        alpha, beta, gamma = core.real_constants(ccbar_complex, st, e)
        return waves.WaveParams(alpha, beta, gamma, variant=Variant.COMPLEX)

    def test_against_numeric_transform(self, ccbar_complex):
        params = self.make_params(ccbar_complex)
        for r, p in ((0.6, 0.0), (1.2, 0.4), (2.0, -0.7)):
            closed = waves.psi_n(params, 0, r, p)
            numeric = waves.psi_n_numeric(params, 0, r, p)
            assert abs(closed - numeric) <= 1e-5 * abs(closed)

    def test_csch_reflection_identity(self):
        # the complete-gamma part of the momentum-coupled ground state in
        # its csch form equals the plain reflection value
        for g in (2.7 + 0.4j, 3.3 - 1.1j, 0.4 + 2.0j):
            assert waves.csch_reflection_gamma(g) == pytest.approx(gamma_complex(2.0 - g), rel=1e-11)

    def test_normalization_rejected(self, ccbar_complex):
        params = self.make_params(ccbar_complex)
        with pytest.raises(DomainError, match="real variant only"):
            waves.normalize_B(params, 0)
        with pytest.raises(DomainError, match="real variant only"):
            waves.total_probability(params, 0)

    def test_excited_momentum_coupled_rejected(self, ccbar_complex):
        params = self.make_params(ccbar_complex)
        with pytest.raises(DomainError):
            waves.psi_n(params, 1, 1.0, 0.0)
