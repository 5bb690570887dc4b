import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htaspec import core, special, waves
from htaspec.core import QuantumState, Variant
from htaspec.errors import DomainError, NumericError

from conftest import upper_gamma_quadrature

# classic values, fixed by Ai(0) = 3^(-2/3)/Gamma(2/3) etc.
AI_AT_0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
BI_AT_0 = 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 / 3.0)
Z1 = -2.3381074104597670
Z2 = -4.0879494441309706


class TestAiry:
    def test_ai_at_zero(self):
        assert special.airy_ai(0.0) == pytest.approx(AI_AT_0, rel=1e-12)
        assert special.airy_ai(0.0) == pytest.approx(0.3550280538, abs=1e-10)

    def test_ai_vanishes_at_first_zero(self):
        assert abs(special.airy_ai(Z1)) < 1e-10

    def test_ai_decay_tail(self):
        assert 0 < special.airy_ai(20.0) < 1e-12

    def test_bi_at_zero(self):
        assert special.airy_bi(0.0) == pytest.approx(BI_AT_0, rel=1e-12)
        assert special.airy_bi(0.0) == pytest.approx(0.6149266274, abs=1e-10)

    def test_bi_growth_tail(self):
        assert special.airy_bi(10.0) > 1e6

    @pytest.mark.parametrize("x", [-2.0, 0.0, 3.0])
    def test_wronskian(self, x):
        w = special.airy_ai(x) * special.airy_bi_prime(x) - special.airy_ai_prime(x) * special.airy_bi(x)
        assert w == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_ode_residual_finite_differences(self):
        # 5-point central stencil: the 3-point one cannot reach 1e-8 at
        # x = -10 in doubles (truncation ~ h^2 x^2 Ai)
        rng = np.random.RandomState(11)
        h = 5e-3
        for x in rng.uniform(-10.0, 5.0, size=100):
            f = [special.airy_ai(x + k * h) for k in (-2, -1, 0, 1, 2)]
            second = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h**2)
            assert abs(second - x * special.airy_ai(x)) < 1e-8

    def test_against_mpmath_envelope(self):
        # independent oracle; tolerance is envelope-relative because the
        # oscillatory region has zeros where pure relative error is moot
        mp = pytest.importorskip("mpmath")

        for x in np.linspace(-30.0, 30.0, 1501):
            ai, aip = float(mp.airyai(x)), float(mp.airyai(x, derivative=1))
            bi, bip = float(mp.airybi(x)), float(mp.airybi(x, derivative=1))
            env = max((abs(x) + 1.0) ** (-0.25), abs(ai))
            assert abs(special.airy_ai(x) - ai) <= 1e-10 * env
            env_p = max((abs(x) + 1.0) ** 0.25, abs(aip))
            assert abs(special.airy_ai_prime(x) - aip) <= 1e-10 * env_p
            env_b = max((abs(x) + 1.0) ** (-0.25), abs(bi))
            assert abs(special.airy_bi(x) - bi) <= 1e-10 * env_b
            env_bp = max((abs(x) + 1.0) ** 0.25, abs(bip))
            assert abs(special.airy_bi_prime(x) - bip) <= 1e-10 * env_bp

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            special.airy_ai(math.nan)
        with pytest.raises(DomainError):
            special.airy_bi(math.inf)

    def test_overflow_maps_to_range_error(self):
        with pytest.raises(OverflowError):
            special.airy_bi(4000.0)

    def test_beyond_scipy_range_names_both_causes(self):
        # scipy returns nan for |x| beyond about 1.05e6 although Ai is small there
        with pytest.raises(OverflowError, match=r"overflow, or \|x\| beyond scipy's range"):
            special.airy_ai(-1.06e6)


class TestAiryZeros:
    def test_first_two_zeros(self):
        assert special.airy_ai_zero(1) == pytest.approx(-2.3381074105, abs=1e-9)
        assert special.airy_ai_zero(2) == pytest.approx(-4.0879494441, abs=1e-9)

    def test_ordering(self):
        z = [special.airy_ai_zero(k) for k in (1, 2, 3)]
        assert z[2] < z[1] < z[0] < 0

    def test_index_zero_rejected(self):
        with pytest.raises(DomainError):
            special.airy_ai_zero(0)

    def test_against_bisection_oracle(self):
        # independent root method: plain sign-change bisection on airy_ai
        # between midpoints of neighbouring asymptotic estimates
        def estimate(k):
            t = 3.0 * math.pi * (4 * k - 1) / 8.0
            return -(t ** (2.0 / 3.0))

        for k in range(1, 21):
            lo = 0.5 * (estimate(k) + estimate(k + 1))
            hi = 0.5 * (estimate(k) + (estimate(k - 1) if k > 1 else 0.0))
            flo = special.airy_ai(lo)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = special.airy_ai(mid)
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            assert special.airy_ai_zero(k) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for k in range(1, 21):
            assert special.airy_ai_zero(k) == pytest.approx(float(mp.airyaizero(k)), abs=1e-13)


class TestGamma:
    def test_half(self):
        assert special.gamma_complex(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_one_third(self):
        assert special.gamma_complex(1.0 / 3.0).real == pytest.approx(2.6789385347, abs=1e-9)

    def test_one(self):
        assert special.gamma_complex(1.0 + 0.0j) == pytest.approx(1.0, rel=1e-13)

    def test_pole_rejected(self):
        for z in (0.0, -1.0, -5.0):
            with pytest.raises(DomainError):
                special.gamma_complex(z)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.RandomState(5)
        for _ in range(200):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z) > 50 or (abs(z.imag) < 1e-2 and z.real <= 0):
                continue
            ref = complex(mp.gamma(mp.mpc(z)))
            if abs(ref) > 1e280 or abs(ref) < 1e-280:
                continue
            assert special.gamma_complex(z) == pytest.approx(ref, rel=1e-10)


class TestUpperIncompleteGamma:
    def test_order_one(self):
        assert special.upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_complex_case_vs_quadrature_oracle(self):
        s, z = complex(-1.3, 0.4), complex(3.0, -2.0)
        ref = upper_gamma_quadrature(s, z)
        assert special.upper_incomplete_gamma(s, z) == pytest.approx(ref, rel=1e-8)

    def test_grid_vs_quadrature_oracle(self):
        rng = np.random.RandomState(7)
        for _ in range(25):
            s = complex(rng.uniform(-6, 8), rng.uniform(-4, 4))
            z = complex(rng.uniform(0.1, 60), rng.uniform(-60, 60))
            ref = upper_gamma_quadrature(s, z)
            assert special.upper_incomplete_gamma(s, z) == pytest.approx(ref, rel=1e-8)

    def test_against_mpmath_wide(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.RandomState(9)
        for _ in range(250):
            s = complex(rng.uniform(-15, 18), rng.uniform(-8, 8))
            z = complex(rng.uniform(0.02, 100), rng.uniform(-100, 100))
            ref = complex(mp.gammainc(mp.mpc(s), mp.mpc(z), mp.inf))
            if ref == 0:
                continue
            assert special.upper_incomplete_gamma(s, z) == pytest.approx(ref, rel=1e-8)

    @settings(max_examples=80, deadline=None)
    @example(sr=1.1754943508222875e-38, si=3.3675292237127714e-199, zr=1.0, zi=0.0)
    @given(
        sr=st.floats(-6, 8),
        si=st.floats(-5, 5),
        zr=st.floats(0.05, 80),
        zi=st.floats(-80, 80),
    )
    def test_recurrence_property(self, sr, si, zr, zi):
        # Gamma(s+1, z) = s Gamma(s, z) + z^s e^-z
        s, z = complex(sr, si), complex(zr, zi)
        lhs = special.upper_incomplete_gamma(s + 1, z)
        rhs = s * special.upper_incomplete_gamma(s, z) + cmath.exp(s * cmath.log(z) - z)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-30)

    @pytest.mark.parametrize(
        "s, z",
        [
            pytest.param(complex(2.5, 0.5), 0j, id="z-zero-re-s-positive"),
            pytest.param(-0.5, 0.0, id="z-zero-re-s-negative"),
            pytest.param(complex(1.7, -0.3), complex(-4.0, 0.0), id="negative-real-axis"),
            # stalled the continued fraction after 1649 steps when this
            # half-plane was still served
            pytest.param(
                complex(-4.743966243951673, -6.825135641962547),
                complex(-2.1268597427767997, -1.045472841560505),
                id="fraction-stall-point",
            ),
            pytest.param(np.array([1.5, 2.5]), np.array([complex(1.0, 1.0), complex(0.0, -3.0)]), id="one-bad-element"),
        ],
    )
    def test_left_half_plane_rejected(self, s, z):
        with pytest.raises(DomainError, match="Re z must be > 0"):
            special.upper_incomplete_gamma(s, z)

    def test_near_pole_orders_vs_mpmath(self):
        # s = -n + eps e^(i theta): the order recurrence alone would divide
        # by ~eps here
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        with mp.workdps(30):
            for n in range(5):
                for eps in (1e-300, 1e-120, 1e-40, 1e-12, 1e-6, 1e-3):
                    for theta, z in ((1.1, 0.05), (3.9, complex(0.4, -0.9)), (math.pi, 1.3)):
                        s = -n + eps * cmath.exp(1j * theta)
                        ref = complex(mp.gammainc(mp.mpc(s), mp.mpc(z), mp.inf))
                        got = special.upper_incomplete_gamma(s, z)
                        worst = max(worst, abs(got - ref) / abs(ref))
        assert worst <= 1e-12

    def test_mixed_route_array(self):
        # one call whose elements take every route, against mpmath
        mp = pytest.importorskip("mpmath")
        cases = [
            (complex(2.5, 1.0), complex(5.0, 3.0)),  # continued fraction
            (complex(4.2, 0.0), complex(1.0, 0.5)),  # Kummer series
            (complex(-2.3, 1.4), complex(0.8, 0.2)),  # series + recurrence
            (complex(-2.0, 0.0), complex(0.7, 0.0)),  # exponential-integral ladder
            (complex(-1.0, 1e-9), complex(0.3, -0.2)),  # near-pole orders
            (complex(1.1754943508222875e-38, 3.3675292237127714e-199), complex(1.0, 0.0)),
        ]
        s = np.array([c[0] for c in cases])
        z = np.array([c[1] for c in cases])
        got = special.upper_incomplete_gamma(s, z)
        assert got.shape == s.shape
        for i, (si, zi) in enumerate(cases):
            with mp.workdps(30):
                ref = complex(mp.gammainc(mp.mpc(si), mp.mpc(zi), mp.inf))
            assert got[i] == pytest.approx(ref, rel=1e-12)
            one = special.upper_incomplete_gamma(si, zi)
            assert type(one) is complex
            assert one == pytest.approx(got[i], rel=1e-15, abs=0)

    def test_array_broadcast_and_errors(self):
        z = np.array([[0.5, 2.0, 7.0], [1.0, 3.0, 40.0]])
        got = special.upper_incomplete_gamma(1.0, z)
        assert got.shape == z.shape
        assert np.allclose(got, np.exp(-z), rtol=1e-13, atol=0)
        with pytest.raises(DomainError):
            special.upper_incomplete_gamma(np.array([1.0, -0.5]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            special.upper_incomplete_gamma(1.0, np.array([1.0, math.nan]))


def _reachable_points(record, variant, label, count, rng):
    # the (s, z) that psi_n evaluates: orders c - 2 - j (real7) or 2 - g
    # (complex5) at z = r (u - 2i p_r) or r (u - 4i p_r), r log-uniform on
    # [1e-9, 1.5 r_max], half the p_r uniform on +-3 and half tangent-mapped
    # out to about 6e5, as the normalization quadrature maps them
    variant = Variant.parse(variant)
    sys_v = record.system(variant)
    state = QuantumState.from_label(label)
    energy, _ = core.level(sys_v, state, variant)
    params = waves.wave_params(sys_v, state, energy, variant=variant)
    u, c = params.u, params.c_order
    r = np.exp(rng.uniform(math.log(1e-9), math.log(1.5 * waves._default_r_max(params)), count))
    half = count // 2
    p = np.concatenate([rng.uniform(-3, 3, half), np.tan(rng.uniform(-1, 1, count - half) * math.pi / 2 * 0.999999)])
    if variant is Variant.REAL:
        return c - 2.0 - rng.randint(0, state.n + 1, count), r * (u - 2j * p)
    g = (-params.beta - 4j * p) / (2.0 * u)
    return 2.0 - g, r * (u - 4j * p)


_REACHABLE_CASES = [
    (meson, variant, label)
    for meson in ("ccbar", "bbbar", "bcbar")
    for variant, label in (("real7", "1S"), ("real7", "2S"), ("real7", "3S"), ("complex5", "1S"))
]


class TestReachableDomain:
    """Gamma(s, z) over the arguments the wave functions of the bundled
    mesons reach, against mpmath at 30 digits."""

    @pytest.mark.parametrize("case", range(len(_REACHABLE_CASES)), ids=["-".join(c) for c in _REACHABLE_CASES])
    def test_against_mpmath(self, dataset, case):
        mp = pytest.importorskip("mpmath")
        meson, variant, label = _REACHABLE_CASES[case]
        s, z = _reachable_points(dataset[meson], variant, label, 84, np.random.RandomState(case))
        got = special.upper_incomplete_gamma(s, z)
        with mp.workdps(30):
            ref = np.array([complex(mp.gammainc(mp.mpc(si), mp.mpc(zi), mp.inf)) for si, zi in zip(s.tolist(), z.tolist())])
        assert np.max(abs(got - ref) / abs(ref)) <= 1e-12

    # a 3,000-point run of the sweep above failed once, at
    # s = 10.976149149604478+654.2058960576899i,
    # z = 6.18194180664375e-05-0.08088525557983738i (bbbar complex5): the
    # series route's z^s e^-z overflows, and so does Gamma(s, z) itself
    # (-6.9e430-1.7e431i), while psi_0 = (B/pi) e^(-2i p_r r) W^(g-2)
    # Gamma(2-g, rW) at that cell is 2.5e-59
    @pytest.mark.xfail(raises=NumericError, strict=True, reason="needs Gamma(s, z) in log space")
    def test_momentum_coupled_overflow_point(self, dataset):
        mp = pytest.importorskip("mpmath")
        sys_v = dataset["bbbar"].system(Variant.COMPLEX)
        state = QuantumState.from_label("1S")
        params = waves.wave_params(sys_v, state, core.energy_complex(sys_v, state, 0.0).real, variant=Variant.COMPLEX)
        r, p = 9.18640727623406e-06, 2201.221139767386
        with mp.workdps(30):
            big_w = mp.mpc(params.u, -4 * p)
            g = (-params.beta - mp.mpc(0, 4 * p)) / (2 * params.u)
            ref = complex(mp.exp(mp.mpc(0, -2 * p * r)) * big_w ** (g - 2) * mp.gammainc(2 - g, r * big_w, mp.inf) / mp.pi)
        assert waves.psi_n(params, 0, r, p) == pytest.approx(ref, rel=1e-12)
