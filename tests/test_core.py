import cmath
import math
import random

import numpy as np
import pytest

from htaspec import cli, core, nu
from htaspec.core import CornellParams, MesonSystem, QuantumState, Variant
from htaspec.errors import DomainError, HtaspecError, NonPhysicalParameters

STATES = ("1S", "2S", "1P", "2P", "3S", "4S", "1D")

# published spectra the stored parameters must reproduce (GeV)
TABLE_REAL = {
    "ccbar": {"1S": 3.097, "2S": 3.686, "1P": 3.511, "2P": 3.912, "3S": 4.022, "4S": 4.231, "1D": 3.939},
    "bbbar": {"1S": 9.460, "2S": 10.042, "1P": 9.899, "2P": 10.268, "3S": 10.355, "4S": 10.542, "1D": 10.307},
    "bcbar": {"1S": 6.275, "2S": 6.842, "1P": 6.360, "2P": 6.919, "3S": 7.356, "4S": 7.822, "1D": 6.524},
}
# The bcbar complex-variant table is identical to its real-variant one in
# the source data and is NOT reproducible from the stated complex-variant
# parameters by any branch of the level formula (checked numerically); it is
# carried as comparison data only, so bcbar is absent here.
TABLE_COMPLEX = {
    "ccbar": {"1S": 3.097, "2S": 3.657, "1P": 3.511, "2P": 3.938, "3S": 4.039, "4S": 4.311, "1D": 4.005},
    "bbbar": {"1S": 9.460, "2S": 9.975, "1P": 9.746, "2P": 10.185, "3S": 10.355, "4S": 10.644, "1D": 10.164},
}


def random_system(rng):
    a = rng.uniform(-3, 3)
    b = rng.uniform(0.1, 1.5)
    delta = rng.uniform(0.2, 1.5)
    m = rng.uniform(0.5, 2.5)
    return MesonSystem(2 * m, 2 * m, CornellParams(a, b, delta))


class TestTypes:
    def test_label_round_trip(self):
        assert QuantumState.from_label("1S") == QuantumState(0, 0)
        assert QuantumState.from_label("2P") == QuantumState(1, 1)
        assert QuantumState.from_label("1D") == QuantumState(0, 2)
        assert QuantumState(2, 0).label == "3S"

    def test_bad_labels(self):
        for label in ("0S", "S1", "2X", "", "P"):
            with pytest.raises(DomainError):
                QuantumState.from_label(label)

    def test_state_bounds(self):
        with pytest.raises(DomainError):
            QuantumState(11, 0)
        with pytest.raises(DomainError):
            QuantumState(0, 6)
        with pytest.raises(DomainError):
            QuantumState(-1, 0)

    def test_reduced_mass_definition(self):
        sys_v = MesonSystem(4.19, 1.23, CornellParams(1.0, 0.5, 0.2))
        assert sys_v.reduced_mass == 4.19 * 1.23 / (4.19 + 1.23)
        assert abs(sys_v.reduced_mass - 4.19 * 1.23 / 5.42) < 1e-12

    def test_params_validation(self):
        with pytest.raises(DomainError):
            CornellParams(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            MesonSystem(-1.0, 1.0, CornellParams(1, 1, 1))

    def test_variant_parse(self):
        assert Variant.parse("real7") is Variant.REAL
        assert Variant.parse("complex5") is Variant.COMPLEX
        with pytest.raises(DomainError):
            Variant.parse("other")


class TestReciprocalSeries:
    """cornell_quadratic is a x + b/x (x = 1/r) with b/x expanded to second
    order about x = delta: value, slope and curvature agree there."""

    CASES = ((-1.7, 0.4, 0.5), (2.3, 1.1, 1.3), (0.8, 0.6, 2.0))

    def test_unit_point(self):
        assert core.cornell_quadratic(CornellParams(2.0, 1.0, 1.0)) == (3.0, -1.0, 1.0)

    def test_exact_at_expansion_point(self):
        for a, b, d in self.CASES:
            c0, c1, c2 = core.cornell_quadratic(CornellParams(a, b, d))
            assert c0 + c1 * d + c2 * d * d == pytest.approx(a * d + b / d, rel=1e-14)

    def test_tangency(self):
        for a, b, d in self.CASES:
            _, c1, c2 = core.cornell_quadratic(CornellParams(a, b, d))
            assert c1 + 2 * c2 * d == pytest.approx(a - b / d**2, rel=1e-14)

    def test_curvature(self):
        for a, b, d in self.CASES:
            _, _, c2 = core.cornell_quadratic(CornellParams(a, b, d))
            assert 2 * c2 == pytest.approx(2 * b / d**3, rel=1e-14)

    def test_zero_rejected(self):
        # x = delta must lie where x = 1/r lives: delta <= 0 is rejected
        # (delta = 0 already by CornellParams)
        with pytest.raises(DomainError):
            CornellParams(1.0, 0.5, 0.0)
        for d in (-0.4, -1.0):
            with pytest.raises(DomainError, match="must be positive"):
                core.cornell_quadratic(CornellParams(-1.0, 0.5, d))


class TestConstants:
    def test_cancellation_at_flat_potential(self):
        # C1 == 0 exactly when a = 3b/delta^2, and beta with it
        b, d = 0.7, 0.9
        params = CornellParams(3 * b / d**2, b, d)
        assert core.cornell_quadratic(params)[1] == 0.0
        assert core.real_constants(MesonSystem(1.0, 1.0, params), QuantumState(0, 0), 0.5)[1] == 0.0
        for a in (params.a * (1 + 1e-15), params.a * (1 - 1e-15), 0.0, -1.0):
            assert core.cornell_quadratic(CornellParams(a, b, d))[1] != 0.0

    def test_gamma_vanishes_without_confinement_or_l(self):
        sys_v = MesonSystem(1.0, 1.0, CornellParams(-1.0, 1e-300, 0.8))
        _, _, gamma = core.real_constants(sys_v, QuantumState(0, 0), 0.5)
        assert abs(gamma) < 1e-290

    def test_ccbar_values(self, ccbar_real):
        alpha, beta, gamma = core.real_constants(ccbar_real, QuantumState(0, 0), 0.6369525)
        # beta = -8am + 24bm/d^2, gamma = -8bm/d^3 at l = 0
        m = ccbar_real.reduced_mass
        assert beta == pytest.approx(31.5973, abs=2e-4)
        assert gamma == pytest.approx(-8 * 0.4069 * m / 0.5074**3, rel=1e-12)
        assert alpha == pytest.approx(8 * m * 0.6369525 - 24 * 0.4069 * m / 0.5074, rel=1e-12)

    def test_complex_constants_mirror_real_at_rest(self, ccbar_real):
        # the complex variant's constants at p_r = 0 are the real ones
        # mirrored (alpha_c = -alpha, beta_c = -beta, gamma_c = -gamma): with
        # them the complex level condition holds at the rest energy
        for label in ("1S", "2P", "1D"):
            st = QuantumState.from_label(label)
            e = core.rest_energy_bracket(ccbar_real, st)
            alpha, beta, gamma = core.real_constants(ccbar_real, st, e)
            g, v, gam_c = -beta, math.sqrt(-alpha), -gamma
            terms = (g * g, 2 * g * v * (2 * st.nu + 1), 4 * v * v * (st.nu * (st.nu + 1) - 2 - gam_c))
            assert abs(sum(terms)) <= 1e-12 * max(map(abs, terms)), label


class TestEnergyReal:
    def test_ccbar_table(self, ccbar_real):
        for label, want in TABLE_REAL["ccbar"].items():
            mass = core.mass_spectrum(ccbar_real, QuantumState.from_label(label), Variant.REAL)
            assert mass == pytest.approx(want, abs=15e-3), label

    def test_bbbar_3s_example(self, bbbar_real):
        mass = core.mass_spectrum(bbbar_real, QuantumState(2, 0), Variant.REAL)
        assert mass == pytest.approx(10.355, abs=1e-3)

    def test_bcbar_1s(self, bcbar_real):
        mass = core.mass_spectrum(bcbar_real, QuantumState.from_label("1S"), Variant.REAL)
        assert mass == pytest.approx(6.275, abs=15e-3)

    def test_flat_potential_degeneracy(self):
        b, d = 0.6, 0.8
        sys_v = MesonSystem(1.5, 1.5, CornellParams(3 * b / d**2, b, d))
        for label in STATES:
            st = QuantumState.from_label(label)
            for e in (core.energy_real(sys_v, st), core.energy_real_via_nu(sys_v, st)):
                assert abs(e - 3 * b / d) <= 1e-15 * abs(3 * b / d)

    def test_negative_delta_rejected(self):
        sys_v = MesonSystem(1.0, 1.0, CornellParams(-1.0, 0.5, -0.4))
        with pytest.raises(DomainError):
            core.energy_real(sys_v, QuantumState(0, 0))
        with pytest.raises(DomainError):
            core.energy_real_via_nu(sys_v, QuantumState(0, 0))

    def test_additive_mass_structure(self, ccbar_real):
        st = QuantumState(0, 0)
        e = core.energy_real(ccbar_real, st)
        assert core.mass_spectrum(ccbar_real, st, Variant.REAL) == ccbar_real.mass_sum + e


class TestEnergyComplex:
    def test_ccbar_table_at_rest(self, ccbar_complex):
        for label, want in TABLE_COMPLEX["ccbar"].items():
            mass = core.mass_spectrum(ccbar_complex, QuantumState.from_label(label), Variant.COMPLEX)
            assert mass == pytest.approx(want, abs=15e-3), label

    def test_imag_vanishes_at_rest(self, ccbar_complex):
        for label in STATES:
            e = core.energy_complex(ccbar_complex, QuantumState.from_label(label), 0.0)
            assert e.imag == 0.0

    def test_nonzero_momentum_is_complex(self, ccbar_complex):
        e = core.energy_complex(ccbar_complex, QuantumState(0, 0), 0.5)
        assert abs(e.imag) > 1e-3

    def test_momentum_root_agrees_with_nu_condition(self, ccbar_complex):
        # cross-check against a Newton root of the strict lambda = lambda_n
        # condition built from the generic NU machinery
        st = QuantumState(0, 0)
        p = 0.5
        e0 = core.energy_complex(ccbar_complex, st, p)

        def residual(energy):
            # complex-variant constants mirrored from the real ones
            alpha, beta, gamma = core.real_constants(ccbar_complex, st, energy)
            alpha_c, beta_c = 4 * p * p - alpha, -beta - 8j * p
            prob = nu.NUProblem((0, 0, 1), (-alpha_c, -beta_c, gamma), (4j * p, 4))
            v = cmath.sqrt(alpha_c - 4 * p * p)
            g = 4j * p + beta_c
            sol = nu.solve(prob, branch=+1)
            if abs(sol.pi[1] - (-1 + g / (2 * v))) > 1e-8 * max(1.0, abs(g / (2 * v))):
                sol = nu.solve(prob, branch=-1)
            lam_n = nu.lambda_n(prob, sol.tau, st.nu)
            return sol.lam - lam_n

        e = e0 * 1.05 + 0.02j
        for _ in range(80):
            f0 = residual(e)
            h = 1e-7 * (abs(e) + 1)
            fp = (residual(e + h) - f0) / h
            step = f0 / fp
            e -= step
            if abs(step) < 1e-13 * abs(e):
                break
        assert e == pytest.approx(e0, rel=1e-9)

    def test_flat_potential_degeneracy(self):
        b, d = 0.6, 0.8
        sys_v = MesonSystem(1.5, 1.5, CornellParams(3 * b / d**2, b, d))
        for label in STATES:
            st = QuantumState.from_label(label)
            for e in (core.energy_complex(sys_v, st, 0.0), core.rest_energy_bracket(sys_v, st)):
                assert abs(e - 3 * b / d) <= 1e-15 * abs(3 * b / d)

    def test_negative_delta_rejected(self):
        # x = delta must lie where x = 1/r lives, in this variant too
        sys_v = MesonSystem(1.0, 1.0, CornellParams(-1.0, 0.5, -1.0))
        with pytest.raises(DomainError):
            core.energy_complex(sys_v, QuantumState(0, 0), 0.0)
        with pytest.raises(DomainError):
            core.rest_energy_bracket(sys_v, QuantumState(0, 0))
        with pytest.raises(DomainError):
            core.mass_spectrum(sys_v, QuantumState(0, 0), Variant.COMPLEX)


class TestLevel:
    def test_readers_share_the_level(self, ccbar_real, ccbar_complex):
        for label in STATES:
            st = QuantumState.from_label(label)
            e, branch = core.level(ccbar_real, st, Variant.REAL)
            assert core.energy_real(ccbar_real, st) == e
            assert core.mass_spectrum_detailed(ccbar_real, st, Variant.REAL) == (ccbar_real.mass_sum + e, branch)
            e, branch = core.level(ccbar_complex, st, Variant.COMPLEX)
            assert core.energy_complex(ccbar_complex, st, 0.0) == e
            assert core.mass_spectrum_detailed(ccbar_complex, st, Variant.COMPLEX) == (ccbar_complex.mass_sum + e, branch)

    def test_complex_level_is_real_or_raises(self):
        # b < 0 reaches a negative radicand, where both complex5 roots at
        # rest are complex: the level raises exactly where the independent
        # rest-energy route does
        rng = np.random.RandomState(2468)
        raised = 0
        for _ in range(200):
            a, b, delta, m = rng.uniform(-3, 3), rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5), rng.uniform(0.5, 2.5)
            sys_v = MesonSystem(2 * m, 2 * m, CornellParams(a, b, delta))
            st = QuantumState(rng.randint(0, 4), rng.randint(0, 3))
            try:
                e_br = core.rest_energy_bracket(sys_v, st)
            except NonPhysicalParameters:
                assert core.energy_complex(sys_v, st, 0.0).imag != 0.0
                with pytest.raises(NonPhysicalParameters, match="no real-valued branch"):
                    core.level(sys_v, st, Variant.COMPLEX)
                raised += 1
                continue
            e, _ = core.level(sys_v, st, Variant.COMPLEX)
            assert abs(e - e_br) <= 1e-9 * max(abs(e_br), 1e-12)
        assert 20 <= raised <= 180


class TestRestBracketConsistency:
    def test_bracket_equals_complex_at_rest(self):
        rng = np.random.RandomState(1234)
        for _ in range(100):
            sys_v = random_system(rng)
            st = QuantumState(rng.randint(0, 4), rng.randint(0, 3))
            e_cx = core.energy_complex(sys_v, st, 0.0)
            e_br = core.rest_energy_bracket(sys_v, st)
            assert abs(e_cx.real - e_br) <= 1e-9 * max(abs(e_br), 1e-12)
            assert e_cx.imag == 0.0


class TestNuEquivalence:
    def test_closed_form_vs_nu_route(self):
        # wider than the acceptance box on purpose: n <= 4, l <= 3 reaches
        # the two-physical-root regime (positive condition constant)
        rng = np.random.RandomState(4321)
        for _ in range(150):
            sys_v = random_system(rng)
            st = QuantumState(rng.randint(0, 5), rng.randint(0, 4))
            e_closed = core.energy_real(sys_v, st)
            e_nu = core.energy_real_via_nu(sys_v, st)
            assert abs(e_closed - e_nu) <= 1e-9 * max(abs(e_closed), 1e-12)


def nu_residual(sys_v, st, energy):
    """energy_real_via_nu's residual: lambda on branch +1 minus the index rule."""
    sol = nu.solve(core._real_nu_problem(*core.real_constants(sys_v, st, energy)), branch=+1)
    return (sol.lam - (-st.nu * (st.nu - 1) + st.nu * sol.tau[1])).real


def fine_grid_residuals(sys_v, st):
    """(u, residual) at each of energy_real_via_nu's 401 u points, from small
    u, evaluated lazily: a point that raises ends the walk there."""
    e_flat = core.cornell_quadratic(sys_v.params)[0]
    _, beta, gam = core.real_constants(sys_v, st, e_flat)
    nu_idx, m = st.nu, sys_v.reduced_mass
    cden = abs(gam - 6 + nu_idx * (nu_idx - 3))
    u_hi = 4.0 * (abs(beta) * (2 * nu_idx + 2) / max(4.0 * cden, 1e-9) + abs(beta) + 1.0)
    for i in range(401):
        u = u_hi * (1e-6) ** (1 - i / 400.0)
        yield u, nu_residual(sys_v, st, e_flat - u * u / (8 * m))


def fine_scan_root(sys_v, st):
    """energy_real_via_nu with the one-point-at-a-time bracket walk: the
    first sign change on the full 401-point grid, then the same brentq call."""
    from scipy.optimize import brentq

    e_flat, c1, _ = core.cornell_quadratic(sys_v.params)
    if c1 == 0:
        return e_flat
    m = sys_v.reduced_mass
    prev_u, prev_r = None, None
    for u, r in fine_grid_residuals(sys_v, st):
        if prev_r is not None and (r < 0) != (prev_r < 0):
            e_lo = e_flat - prev_u ** 2 / (8 * m)
            e_hi = e_flat - u ** 2 / (8 * m)
            return brentq(lambda e: nu_residual(sys_v, st, e), min(e_lo, e_hi), max(e_lo, e_hi), xtol=1e-14, rtol=1e-15)
        prev_u, prev_r = u, r
    raise NonPhysicalParameters(f"no root of the NU quantization condition for {st.label}", value=None)


def fine_sign_changes(sys_v, st):
    """Sign changes of the residual over the full grid (up to a point that raises)."""
    count, prev = 0, None
    try:
        for _, r in fine_grid_residuals(sys_v, st):
            count += prev is not None and (r < 0) != (prev < 0)
            prev = r
    except HtaspecError:
        pass
    return count


def outcome(fn, *args):
    """The float a call returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


class TestNuScanIdentity:
    """energy_real_via_nu's coarse-then-fine bracket scan returns the fine
    walk's root bit for bit, or raises the same exception type."""

    @staticmethod
    def assert_identical(sys_v, st):
        want = outcome(fine_scan_root, sys_v, st)
        got = outcome(core.energy_real_via_nu, sys_v, st)
        assert got == want, (sys_v, st)

    def test_check_suite_systems(self):
        # drawn in the order of the check command's nu suite
        rng = random.Random(20240817)
        for _ in range(100):
            a = rng.uniform(-3, 3)
            b = rng.uniform(0.1, 1.5)
            delta = rng.uniform(0.2, 1.5)
            m = rng.uniform(0.5, 2.5)
            st = QuantumState(rng.randint(0, 3), rng.randint(0, 2))
            self.assert_identical(MesonSystem(2 * m, 2 * m, CornellParams(a, b, delta)), st)

    def test_bundled_mesons_figure_states(self, dataset):
        states = sorted(set(cli._FIG1_STATES + cli._FIG2_STATES))
        for rec in dataset.values():
            for n, l in states:
                self.assert_identical(rec.system(Variant.REAL), QuantumState(n, l))

    def test_wide_box_with_two_sign_changes(self):
        # n <= 4, l <= 3 as in TestNuEquivalence; this seed's sample holds
        # systems whose residual changes sign twice on the grid, the case a
        # coarse scan could get wrong
        rng = np.random.RandomState(24)
        seen_two = False
        for _ in range(100):
            sys_v = random_system(rng)
            st = QuantumState(rng.randint(0, 5), rng.randint(0, 4))
            self.assert_identical(sys_v, st)
            seen_two = seen_two or fine_sign_changes(sys_v, st) >= 2
        assert seen_two


class TestMonotonicity:
    @pytest.mark.parametrize("meson", ["ccbar", "bbbar", "bcbar"])
    def test_mass_grows_with_quantum_numbers(self, dataset, meson):
        sys_v = dataset[meson].system(Variant.REAL)
        for l in (0, 1, 2):
            masses = [core.mass_spectrum(sys_v, QuantumState(n, l), Variant.REAL) for n in range(4)]
            assert all(b >= a for a, b in zip(masses, masses[1:]))
        for n in (0, 1, 2, 3):
            masses = [core.mass_spectrum(sys_v, QuantumState(n, l), Variant.REAL) for l in range(3)]
            assert all(b >= a for a, b in zip(masses, masses[1:]))


class TestParameterScan:
    def test_two_a_values_per_mass(self, bcbar_real):
        st = QuantumState(0, 0)
        pts = core.parameter_scan(bcbar_real, st, "a", -10.0, 10.0, 401)
        good = [p for p in pts if p.physical]
        # the spectrum is symmetric about a* = 3b/delta^2, so each attained
        # mass away from the vertex appears at two a values
        b, d = bcbar_real.params.b, bcbar_real.params.delta
        a_star = 3 * b / d**2
        for pt in good[: len(good) // 3]:
            mirror = 2 * a_star - pt.value
            m2 = core.mass_spectrum(
                MesonSystem(bcbar_real.m_q, bcbar_real.m_qbar, CornellParams(mirror, b, d)), st, Variant.REAL
            )
            assert m2 == pytest.approx(pt.mass, rel=1e-12)

    def test_two_steps_returns_endpoints(self, ccbar_real):
        pts = core.parameter_scan(ccbar_real, QuantumState(0, 0), "b", 0.3, 0.5, 2)
        assert [p.value for p in pts] == [0.3, 0.5]

    def test_empty_interval_rejected(self, ccbar_real):
        with pytest.raises(DomainError):
            core.parameter_scan(ccbar_real, QuantumState(0, 0), "a", 2.0, 2.0, 5)
        with pytest.raises(DomainError):
            core.parameter_scan(ccbar_real, QuantumState(0, 0), "a", 0.0, 1.0, 1)

    def test_nonphysical_marked_not_dropped(self, ccbar_real):
        pts = core.parameter_scan(ccbar_real, QuantumState(0, 0), "delta", -0.5, 0.5, 11)
        assert len(pts) == 11
        assert any(not p.physical for p in pts)
        assert all(math.isnan(p.mass) for p in pts if not p.physical)

    def test_smooth_scan_around_fit(self, bcbar_real):
        a0 = bcbar_real.params.a
        pts = core.parameter_scan(bcbar_real, QuantumState(0, 0), "a", a0 - 1, a0 + 1, 41)
        assert all(p.physical and math.isfinite(p.mass) for p in pts)
        masses = [p.mass for p in pts]
        diffs = [abs(b - a) for a, b in zip(masses, masses[1:])]
        assert max(diffs) < 0.05
