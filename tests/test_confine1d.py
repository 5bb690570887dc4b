import cmath
import math

import numpy as np
import pytest

from htaspec import cli
from htaspec import confine1d as c1
from htaspec import special
from htaspec.core import Variant
from htaspec.errors import DomainError


@pytest.fixture(scope="module")
def sys_cc():
    return c1.Confinement1DSystem(m=0.615, b=0.4069)


class TestSystem:
    def test_omega_definition(self, sys_cc):
        assert sys_cc.omega == sys_cc.b**2 / (8 * sys_cc.m)

    def test_positivity_required(self):
        with pytest.raises(DomainError):
            c1.Confinement1DSystem(0.0, 1.0)
        with pytest.raises(DomainError):
            c1.Confinement1DSystem(1.0, -0.1)


class TestEnergy1D:
    def test_ground_state_from_airy_zero(self, sys_cc):
        # oracle: scipy's tabulated Airy zero
        from scipy.special import ai_zeros

        z1 = ai_zeros(1)[0][0]
        want = -z1 * sys_cc.omega ** (1.0 / 3.0)
        assert c1.energy_1d(sys_cc, 0, 0.0) == pytest.approx(want, rel=1e-10)

    def test_kinetic_term_is_additive(self, sys_cc):
        for n in (0, 1, 3):
            for p in (0.3, 1.1):
                shift = c1.energy_1d(sys_cc, n, p) - c1.energy_1d(sys_cc, n, 0.0)
                assert shift == pytest.approx(p * p / (2 * sys_cc.m), rel=1e-12)

    def test_ladder_ordering(self, sys_cc):
        es = [c1.energy_1d(sys_cc, n, 0.0) for n in range(3)]
        assert es[0] < es[1] < es[2]

    def test_negative_n_rejected(self, sys_cc):
        with pytest.raises(DomainError):
            c1.energy_1d(sys_cc, -1, 0.0)

    def test_energy_matches_bisection_root_of_boundary_condition(self, sys_cc):
        # ground state = smallest E > p^2/2m with psi(0, p, E) = 0
        p = 0.4
        kin = p * p / (2 * sys_cc.m)
        e_lo, e_hi = kin + 1e-6, kin + 3.0
        f = lambda e: c1.psi_1d(sys_cc, 0.0, p, e, c1=1.0)
        flo = f(e_lo)
        # walk to the first sign change
        grid = np.linspace(e_lo, e_hi, 400)
        vals = [f(e) for e in grid]
        idx = next(i for i in range(1, len(vals)) if (vals[i] < 0) != (vals[0] < 0))
        lo, hi = grid[idx - 1], grid[idx]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (f(mid) < 0) == (f(lo) < 0):
                lo = mid
            else:
                hi = mid
        assert c1.energy_1d(sys_cc, 0, p) == pytest.approx(0.5 * (lo + hi), abs=1e-8)


class TestPsi1D:
    def test_boundary_condition(self, sys_cc):
        e0 = c1.energy_1d(sys_cc, 0, 0.7)
        assert abs(c1.psi_1d(sys_cc, 0.0, 0.7, e0, c1=1.0)) < 1e-9

    def test_decay_at_large_argument(self, sys_cc):
        e0 = c1.energy_1d(sys_cc, 0, 0.0)
        w = sys_cc.omega ** (-1.0 / 3.0)
        r_far = (21.0 / w + e0) / sys_cc.b
        assert abs(c1.psi_1d(sys_cc, r_far, 0.0, e0)) < 1e-10

    def test_recomposition(self, sys_cc):
        e0 = c1.energy_1d(sys_cc, 0, 0.0)
        w = sys_cc.omega ** (-1.0 / 3.0)
        r, p = 1.3, 0.2
        direct = special.airy_ai((p * p / (2 * sys_cc.m) + sys_cc.b * r - e0) * w)
        assert c1.psi_1d(sys_cc, r, p, e0, c1=1.0) == pytest.approx(direct, rel=1e-14)

    def test_negative_r_rejected(self, sys_cc):
        with pytest.raises(DomainError):
            c1.psi_1d(sys_cc, -0.1, 0.0, 1.0)

    def test_schrodinger_residual_in_collective_variable(self, sys_cc):
        # omega * d2 psi/dA2 = (A - E) psi, A = p^2/2m + b r; finite
        # differences in r at fixed p give d2/dA2 = d2/dr2 / b^2
        e0 = c1.energy_1d(sys_cc, 0, 0.0)
        rng = np.random.RandomState(3)
        for _ in range(20):
            r = rng.uniform(0.3, 4.0)
            p = rng.uniform(-1.0, 1.0)
            # Richardson pair with a generous step: the deep Airy tail makes
            # psi'' noise-limited, and noise scales like 1/h^2
            h = 1e-2
            psi = lambda rr: c1.psi_1d(sys_cc, rr, p, e0, c1=1.0)
            stencil = lambda hh: (psi(r + hh) - 2 * psi(r) + psi(r - hh)) / hh**2
            d2 = (4 * stencil(h / 2) - stencil(h)) / 3 / sys_cc.b**2
            a_val = p * p / (2 * sys_cc.m) + sys_cc.b * r
            lhs = sys_cc.omega * d2
            rhs = (a_val - e0) * psi(r)
            scale = max(abs(lhs), abs(rhs), 1e-12)
            assert abs(lhs - rhs) / scale < 1e-6


def _mp_half_moment(mp, x0):
    """I(x0) = int_0^inf 2 s^6 Ai(x0 + s^2)^2 ds by mpmath quadrature."""
    return mp.quad(lambda s: 2 * s**6 * mp.airyai(x0 + s * s) ** 2, [0, 2, 4, 8, mp.inf])


class TestNormalization:
    def test_positive_and_normalized(self, sys_cc):
        e0 = c1.energy_1d(sys_cc, 0, 0.0)
        c = c1.normalize_1d(sys_cc, e0)
        assert c > 0
        total = c * c * 4.0 * math.pi * c1._norm_integral(sys_cc, e0, 15.0)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_truncation_refinement_stable(self, sys_cc):
        e0 = c1.energy_1d(sys_cc, 0, 0.0)
        base = c1._norm_integral(sys_cc, e0, 15.0)
        wide = c1._norm_integral(sys_cc, e0, 19.0)
        assert abs(wide - base) / base < 1e-5

    def test_half_moment_against_mpmath(self):
        # I(x0) at the ground state at rest, x0 the first zero of Ai
        mp = pytest.importorskip("mpmath")
        x0 = float(special.airy_ai_zero(1))
        with mp.workdps(30):
            want = _mp_half_moment(mp, x0)
        assert c1._airy_half_moment(x0) == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("n, p_r", [(0, 0.0), (1, 0.3)], ids=["ground", "excited"])
    def test_normalize_against_mpmath(self, sys_cc, n, p_r):
        mp = pytest.importorskip("mpmath")
        e0 = c1.energy_1d(sys_cc, n, p_r)
        x0 = -e0 * sys_cc.omega ** (-1.0 / 3.0)
        with mp.workdps(20):
            want = mp.sqrt(15 / (8 * mp.pi * _mp_half_moment(mp, x0))) * mp.cbrt(mp.mpf(sys_cc.m) * sys_cc.b)
        assert c1.normalize_1d(sys_cc, e0) == pytest.approx(float(want), rel=1e-12)


def _nested_norm_integral(sys, e0, arg_cut):
    """Reference for _norm_integral: adaptive quadrature over r inside one
    over p_r, both truncated where the Airy argument reaches arg_cut.  Ai is
    scipy's, one scalar at a time, not the lane under test."""
    from scipy.integrate import quad
    from scipy.special import airy

    m, b = sys.m, sys.b
    w = sys.omega ** (-1.0 / 3.0)
    p_max = math.sqrt(max(2.0 * m * (arg_cut / w + e0), 0.0)) + 1e-12

    def inner(p):
        hi = (arg_cut / w + e0 - p * p / (2.0 * m)) / b
        if hi <= 0:
            return 0.0
        f = lambda r: airy((p * p / (2.0 * m) + b * r - e0) * w)[0] ** 2 * r * r
        return quad(f, 0.0, hi, limit=200, epsabs=1e-13, epsrel=1e-11)[0]

    return 2.0 * quad(inner, 0.0, p_max, limit=200, epsabs=1e-12, epsrel=1e-9)[0]


class TestClosedFormR:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("meson", ["ccbar", "bbbar", "bcbar"])
    def test_matches_nested_quadrature(self, dataset, meson, variant):
        sys_v = dataset[meson].system(variant)
        one = c1.Confinement1DSystem(sys_v.reduced_mass, sys_v.params.b)
        e0 = c1.energy_1d(one, 0, 0.0)
        ref = {cut: _nested_norm_integral(one, e0, cut) for cut in (15.0, 19.0)}
        for cut, want in ref.items():
            assert c1._norm_integral(one, e0, cut) == pytest.approx(want, rel=1e-12)
        assert c1.normalize_1d(one, e0) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi * ref[19.0]), rel=1e-12)

    def test_r_moment_against_mpmath(self):
        # oracle: the defining integral by mpmath quadrature (Ai(x + 25)^2 is
        # below 1e-50 here, so the cut at s = 25 is invisible)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(20):
            for x in np.linspace(-6.0, 5.0, 12):
                want = mp.quad(lambda s: mp.airyai(x + s) ** 2 * s**2, [0, 6, 25])
                assert c1._airy_r2_moment(float(x)) == pytest.approx(float(want), rel=1e-11)

    def test_airy_calls_bounded(self, sys_cc, monkeypatch):
        e0 = c1.energy_1d(sys_cc, 0, 0.0)
        calls = []
        orig = special._airy_lane
        monkeypatch.setattr(special, "_airy_lane", lambda x: calls.append(np.size(x)) or orig(x))
        c1.normalize_1d(sys_cc, e0)
        # 24,024 scalar calls with the nested r quadrature, 420 with r in
        # closed form, then one lane pass per truncation cut; the closed form
        # in (r, p_r) leaves one pass for I(x0)
        assert calls == [c1._GL_PANELS * c1._GL_NODES]


def test_check_takes_ai_and_aip_from_one_lane_pass(monkeypatch):
    # check --suite all made 33 lane passes over 7,173 elements while the r^2
    # moment and the moment identity's d2 integrand called Ai and Ai' apart
    special.airy_ai_zero.cache_clear()  # counted as in a fresh process
    calls = []
    orig = special._airy_lane
    monkeypatch.setattr(special, "_airy_lane", lambda x: calls.append(np.size(x)) or orig(x))
    assert cli.main(["check", "--suite", "all"]) == 0
    # 25 while each moment identity took J_n, J_{n-1} and the d2 integral
    # from three passes over one node set
    assert len(calls) <= 13


def test_moment_suite_makes_one_lane_pass_per_identity(monkeypatch):
    # 18 passes (three per identity) before J_n, J_{n-1} and the d2 integral
    # shared one evaluation of the nodes
    calls = []
    orig = special._airy_lane
    monkeypatch.setattr(special, "_airy_lane", lambda x: calls.append(np.size(x)) or orig(x))
    assert cli.main(["check", "--suite", "moment"]) == 0
    assert len(calls) == 6


class TestMomentIdentity:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
    def test_moment_against_mpmath(self, n, x):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            want = mp.quad(lambda t: t**n * mp.airyai(t + x) ** 2, [0, 2, 5, 10, 20, 40])
        assert c1._airy_moment(n, x)[0] == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0])
    def test_residual_small(self, n, x):
        assert c1.moment_identity_check(x, n) < 1e-6

    def test_against_finite_difference_oracle(self):
        # independent route: J_{n-1}'' by finite differences in x
        from scipy.integrate import quad

        def moment(n, x):
            val, _ = quad(lambda t: t**n * special.airy_ai(t + x) ** 2, 0, 30, limit=200)
            return val

        for x in (0.0, 2.0):
            h = 1e-3
            d2 = (moment(0, x + h) - 2 * moment(0, x) + moment(0, x - h)) / h**2
            rhs = (1.0 / 3.0) * (0.5 * d2 - 2 * x * moment(0, x))
            assert moment(1, x) == pytest.approx(rhs, rel=1e-5)

    def test_equals_three_quadratures(self):
        # the residual from J_n, J_{n-1} and the d2 integral each taken by its
        # own 8-panel 32-point Gauss-Legendre sum, bit for bit
        gx, gw = np.polynomial.legendre.leggauss(32)

        def quad(f, b):
            h = b / 8
            t = (h * (np.arange(8)[:, None] + (gx + 1.0) / 2.0)).ravel()
            return float(f(t) @ np.tile(gw * (h / 2.0), 8))

        def residual(x, n):
            b = max(15.0 - x, 1.0) + 25.0
            lhs = quad(lambda t: t**n * special.airy_ai(t + x) ** 2, b)
            j_prev = quad(lambda t: t ** (n - 1) * special.airy_ai(t + x) ** 2, b)

            def d2_integrand(t):
                ai, aip = special.airy_ai_pair(t + x)
                return t ** (n - 1) * 2.0 * (aip**2 + (t + x) * ai**2)

            rhs = n / (2.0 * n + 1.0) * (0.5 * quad(d2_integrand, b) - 2.0 * x * j_prev)
            return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)

        rng = np.random.default_rng(36)
        for x in [0.0, 1.0, 2.0, *rng.uniform(-10.0, 14.0, 30)]:
            for n in (1, 2, 3):
                assert c1.moment_identity_check(float(x), n) == residual(float(x), n), (x, n)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            c1.moment_identity_check(0.0, 0)


class TestTimeFactor:
    def test_modulus_time_independent(self, sys_cc):
        rng = np.random.RandomState(8)
        for _ in range(100):
            r, p = rng.uniform(0, 3), rng.uniform(-2, 2)
            t1, t2 = rng.uniform(-20, 20, size=2)
            m1 = abs(c1.time_factor(sys_cc, r, p, t1))
            m2 = abs(c1.time_factor(sys_cc, r, p, t2))
            assert abs(m1 - m2) <= 1e-14 * m1

    def test_t_zero_is_bare_prefactor(self, sys_cc):
        val = c1.time_factor(sys_cc, 1.0, 1.0, 0.0)
        pref = -1.0 / (2 * math.pi) * (sys_cc.m / sys_cc.b**2) ** (1.0 / 9.0)
        assert val == pytest.approx(complex(pref, 0.0), rel=1e-14)

    def test_phase_matches_direct_exponent(self, sys_cc):
        m, b = sys_cc.m, sys_cc.b
        r = p = t = 1.0
        want = (
            -p * p * t / (4 * math.pi * m)
            - b * r * t / (2 * math.pi)
            - t**3 * (m / b**2) ** (1.0 / 3.0) / (24 * math.pi**3)
        )
        pref = -1.0 / (2 * math.pi) * (m / b**2) ** (1.0 / 9.0)
        assert c1.time_factor(sys_cc, r, p, t) == pytest.approx(pref * cmath.exp(1j * want), rel=1e-13)
