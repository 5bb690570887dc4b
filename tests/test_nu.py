import cmath
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rodrigues_oracle
from htaspec import nu
from htaspec.errors import DomainError, NumericError

# The two problem families the package actually solves (hbar = 1):
# rotated-real:    sigma = x^2, tau_t = -4x,          sigma_t = alpha + beta x + gamma x^2
# momentum-coupled sigma = x^2, tau_t = 4x + 4 i p_r, sigma_t = -(alpha + beta x + gamma x^2)


def rotated_problem(alpha, beta, gamma):
    return nu.NUProblem(sigma_tilde=(alpha, beta, gamma), tau_tilde=(0, -4))


def momentum_problem(alpha, beta, gamma, p):
    return nu.NUProblem(sigma_tilde=(-alpha, -beta, -gamma), tau_tilde=(4j * p, 4))


ALPHA, BETA, GAMMA = -8.7027, 31.5973, -26.2183  # a ccbar-like parameter point


class TestSolveK:
    def test_rotated_k_formula(self):
        k = nu.solve(rotated_problem(ALPHA, BETA, GAMMA)).k
        expected = (-36 * ALPHA - BETA**2 + 4 * ALPHA * GAMMA) / (4 * ALPHA)
        assert k == pytest.approx(expected, rel=1e-12)

    def test_momentum_k_formula(self):
        alpha, beta, gamma, p = 11.6, -46.9, 26.7, 0.4
        beta_c = beta - 8j * p
        # with sigma_t = -(alpha + beta_c x + gamma x^2), tau_t = 4(x + i p):
        k = nu.solve(momentum_problem(alpha, beta_c, gamma, p)).k
        expected = (-16 * p**2 * gamma - 8j * p * beta_c + 4 * alpha - beta_c**2 + 4 * alpha * gamma) / (
            4 * (4 * p**2 - alpha)
        )
        assert k == pytest.approx(expected, rel=1e-12)

    def test_perfect_square_at_k_zero(self):
        # sigma_t = sigma and tau_t = sigma' make the radicand K sigma:
        # K = 0 is admissible (sigma = x^2 is already a perfect square)
        assert abs(nu.solve(nu.NUProblem((0, 0, 1), (0, 2))).k) < 1e-12

    # R0 = h0^2 - st0 = 0 with R1 = -st1 != 0: the radicand -st1 s + (...) s^2
    # has a simple root at s = 0, so no K makes it a square
    def test_zero_r0_with_linear_term_has_no_k(self):
        prob = nu.NUProblem((0, 1, 0), (0, 0))
        for branch in (+1, -1):
            with pytest.raises(NumericError, match="no K makes"):
                nu.solve(prob, branch=branch)

    # R0 = R1 = 0: R = (h1^2 - st2 + K) s^2 is a square for every K; the
    # canonical K = 0 leaves l1 = sqrt(9 + 5)
    def test_zero_r0_and_r1_gives_k_zero(self):
        prob = nu.NUProblem((0, 0, -5), (0, -4))
        sol = nu.solve(prob, branch=-1)
        assert sol.k == 0
        assert sol.pi == (0, 3 - math.sqrt(14))

    # R0 = 5e-324 makes l1 = R1/(2 sqrt(R0)) about 2e161 and K = l1^2 - r2
    # inf: no finite K, so no solution
    def test_underflowing_r0_raises(self):
        prob = nu.NUProblem((-5e-324, 1, 0), (0, -4))
        for branch in (+1, -1):
            with pytest.raises(NumericError, match="R0 = "):
                nu.solve(prob, branch=branch)


class TestPiPoly:
    def test_rotated_plus_branch(self):
        # pi = 3x +- (beta x/(2u) - u), u = sqrt(-alpha); the principal
        # square root of the leading radicand coefficient fixes branch=+1 to
        # +(beta/(2u)) for beta > 0
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        u = math.sqrt(-ALPHA)
        pi_plus = nu.solve(prob, +1).pi
        assert pi_plus[1] == pytest.approx(3 + BETA / (2 * u), rel=1e-12)
        assert pi_plus[0] == pytest.approx(-u, rel=1e-12)

    def test_branch_sum_cancels_radical(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        p_plus = nu.solve(prob, +1).pi
        p_minus = nu.solve(prob, -1).pi
        # pi+ + pi- = sigma' - tau_t = 6x
        assert p_plus[0] + p_minus[0] == pytest.approx(0, abs=1e-10)
        assert p_plus[1] + p_minus[1] == pytest.approx(6, rel=1e-12)

    def test_momentum_pi_structure(self):
        alpha, beta, gamma, p = 11.6, complex(-46.9, -3.2), 26.7, 0.4
        prob = nu.NUProblem((-alpha, -beta, -gamma), (4j * p, 4))
        v = cmath.sqrt(alpha - 4 * p * p)
        g = 4j * p + beta
        for branch in (+1, -1):
            pi = nu.solve(prob, branch).pi
            # pi = -x - 2ip +- (g x/(2v) + v): check against both signs
            cand_plus = (-2j * p + v, -1 + g / (2 * v))
            cand_minus = (-2j * p - v, -1 - g / (2 * v))
            match = any(
                abs(pi[0] - c0) < 1e-9 and abs(pi[1] - c1) < 1e-9 for c0, c1 in (cand_plus, cand_minus)
            )
            assert match

    def test_bad_branch_rejected(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        with pytest.raises(DomainError):
            nu.solve(prob, 2)

    # a rotated-real problem with small |beta| (a 2P level's residual on the
    # energy_real_via_nu grid, past its first sign change): the s^2
    # coefficient of the square, 2.7e-7, cancels from terms near 11
    def test_small_beta_radicand_is_a_square(self):
        prob = rotated_problem(-7.529761396044542, -0.00284706153079739, -11.280918571323735)
        sol = nu.solve(prob)
        assert sol.lam == sol.k + sol.pi[1]

    # the radicand (1e6, -10, 2.5e-5) is (1000 - 0.005 s)^2: a leading
    # coefficient small against the constant term is no "linear in s"
    def test_small_leading_coefficient_is_a_square(self):
        sol = nu.solve(nu.NUProblem((-1e6, 10, -5), (0, -4)))
        assert sol.k == pytest.approx(-13.999975, rel=1e-14)
        assert sol.pi[0] == pytest.approx(-1000, rel=1e-9)
        assert sol.pi[1] == pytest.approx(3.005, rel=1e-12)

    # near the vertex C1 = 0: the radicand (1 - 5e-10 s)^2 has an s^2
    # coefficient of 2.5e-19, far inside the rounding of 9 + 5 + K; l1 is
    # still the principal root
    def test_near_vertex_radicand_is_a_square(self):
        prob = nu.NUProblem((-1.0, 1e-9, -5.0), (0, -4))
        pi_plus, pi_minus = nu.solve(prob, +1).pi, nu.solve(prob, -1).pi
        assert pi_plus[0] == pytest.approx(-1, rel=1e-15)
        assert pi_plus[1] == pytest.approx(3 + 5e-10, rel=1e-15)
        assert pi_minus[0] == pytest.approx(1, rel=1e-15)
        assert pi_minus[1] == pytest.approx(3 - 5e-10, rel=1e-15)


class TestTauLambda:
    def test_rotated_minus_branch_tau(self):
        # tau_minus = 2 sqrt(-alpha) + x (2 + alpha beta / (-alpha)^{3/2})
        k, pi, tau, lam = nu.solve(rotated_problem(ALPHA, BETA, GAMMA), -1)
        u = math.sqrt(-ALPHA)
        assert tau[0] == pytest.approx(2 * u, rel=1e-12)
        assert tau[1] == pytest.approx(2 + ALPHA * BETA / (-ALPHA) ** 1.5, rel=1e-12)
        assert lam == pytest.approx(k + pi[1], rel=1e-14)

    def test_tau_is_exact_coefficient_arithmetic(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        _, pi, tau, _ = nu.solve(prob, +1)
        assert tau[0] == prob.tau_tilde[0] + 2 * pi[0]
        assert tau[1] == prob.tau_tilde[1] + 2 * pi[1]


class TestLambdaN:
    def test_n_zero(self):
        assert nu.lambda_n((1.0, 2.0), 0) == 0

    def test_momentum_printed_form(self):
        # the momentum-coupled plus branch reproduces
        # lambda_n = -n (4ip + beta + (n+1) v)/v with v = sqrt(-4p^2+alpha)
        alpha, beta, gamma, p = 11.6, complex(-46.9, -3.2), 26.7, 0.4
        prob = nu.NUProblem((-alpha, -beta, -gamma), (4j * p, 4))
        v = cmath.sqrt(alpha - 4 * p * p)
        g = 4j * p + beta
        # select the branch with pi' = -1 + g/(2v)
        sol = nu.solve(prob, +1)
        if abs(sol.pi[1] - (-1 + g / (2 * v))) > 1e-9:
            sol = nu.solve(prob, -1)
        tau = sol.tau
        for n in (1, 2, 3):
            expected = -n * (4j * p + beta + (n + 1) * v) / v
            assert nu.lambda_n(tau, n) == pytest.approx(expected, rel=1e-10)

    def test_rotated_strict_rule(self):
        # strict -n tau' - n(n-1): on the minus branch tau' = 2 - beta/u.
        # (The spectrum tables use the sign-flipped pairing instead; that
        # convention lives in core, not here.)
        tau = nu.solve(rotated_problem(ALPHA, BETA, GAMMA), -1).tau
        u = math.sqrt(-ALPHA)
        for n in (1, 2, 4):
            expected = -n * (2 - BETA / u) - n * (n - 1)
            assert nu.lambda_n(tau, n) == pytest.approx(expected, rel=1e-10)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            nu.lambda_n((0.0, 2.0), -1)


def strict_eigen_alpha(beta, gamma, n, branch):
    """alpha solving the strict pairing lambda = lambda_n on one branch.

    lambda - lambda_n = beta^2/(4u^2) + s beta (2n+1)/(2u) + (gamma - 6
    + n(n+1)) = 0 with s the branch sign; solve the quadratic in u.
    """
    c = gamma - 6 + n * (n + 1)
    s = 1.0 if branch > 0 else -1.0
    # quadratic 4c u^2 + 2 s beta (2n+1) u + beta^2 = 0 in u = sqrt(-alpha)
    roots = np.roots([4 * c, 2 * s * beta * (2 * n + 1), beta**2])
    for u in roots:
        if abs(u.imag) < 1e-12 and u.real > 0:
            return -(u.real**2)
    raise AssertionError("no physical strict eigen-alpha")


class TestDescriptorsAndRodrigues:
    def setup_method(self):
        self.prob = rotated_problem(ALPHA, BETA, GAMMA)
        self.k, self.pi, self.tau, self.lam = nu.solve(self.prob, -1)
        # phi'/phi = pi/s^2 and (s^2 rho)' = tau rho, as exp(rate/s) s^power
        self.phi = nu.ExpPowerForm(rate=-self.pi[0], power=self.pi[1])
        self.rho = nu.ExpPowerForm(rate=-self.tau[0], power=self.tau[1] - 2)
        self.u = math.sqrt(-ALPHA)

    def test_phi_closed_form(self):
        # phi = exp(-u/x) x^(3 - beta/(2u)) on the minus branch
        assert -self.pi[0] == pytest.approx(-self.u, rel=1e-12)
        assert self.pi[1] == pytest.approx(3 - BETA / (2 * self.u), rel=1e-12)

    def test_rho_closed_form(self):
        # rho = exp(-2u/x) x^(-beta/u)
        assert -self.tau[0] == pytest.approx(-2 * self.u, rel=1e-12)
        assert self.tau[1] - 2 == pytest.approx(-BETA / self.u, rel=1e-12)

    def test_phi_logderivative_property(self):
        for x in (0.3, 0.9, 2.1):
            h = 1e-6
            num = (self.phi(x + h) - self.phi(x - h)) / (2 * h)
            assert num / self.phi(x) == pytest.approx(nu.polyval(self.pi, x) / x**2, rel=1e-7)

    def test_weight_equation_property(self):
        # (sigma rho)' = tau rho at sample points
        for x in (0.4, 1.1, 1.9):
            h = 1e-6
            f = lambda t: t**2 * self.rho(t)
            num = (f(x + h) - f(x - h)) / (2 * h)
            assert num == pytest.approx(nu.polyval(self.tau, x) * self.rho(x), rel=1e-7)

    def test_rodrigues_n0(self):
        y0 = nu.rodrigues_y(self.rho, 0)
        assert y0 == (1 + 0j,)
        assert nu.polyval(y0, 0.7) == 1

    def test_rodrigues_n1_matches_tau(self):
        # y1 = (1/rho) d/dx (sigma rho) = tau for this normalization
        y1 = nu.rodrigues_y(self.rho, 1)
        assert len(y1) == 2
        assert y1[0] == pytest.approx(self.tau[0], rel=1e-12)
        assert y1[1] == pytest.approx(self.tau[1], rel=1e-12)

    def test_rodrigues_coefficients_against_mpmath(self):
        # the weights waves builds, exp(-2u/s) s^(-2c): every coefficient a
        # rounded product, within 2e-15 of n-fold differentiation in mpmath
        mpmath = pytest.importorskip("mpmath")
        rng, worst = random.Random(1), 0.0
        with mpmath.workdps(40):
            for _ in range(2000):
                u, c, n = rng.uniform(0.1, 10.0), rng.uniform(-30.0, 30.0), rng.randint(0, 6)
                got = nu.rodrigues_y(nu.ExpPowerForm(rate=-2.0 * u, power=-2.0 * c), n)
                want = rodrigues_oracle(-2.0 * u, -2.0 * c, n)
                worst = max(worst, *(float(abs(g - w) / abs(w)) for g, w in zip(got, want)))
        assert worst <= 2e-15

    def test_rodrigues_n2_vs_finite_differences(self):
        # d^2/dx^2 (sigma^2 rho) / rho against Richardson-extrapolated
        # central differences at 20 points (rho has steep exp(-2u/x) scale
        # variation, so a single-step stencil cannot reach 1e-6)
        y2 = nu.rodrigues_y(self.rho, 2)
        f = lambda x: x**4 * self.rho(x)

        def second(x, h):
            return (f(x + h) - 2 * f(x) + f(x - h)) / h**2

        for x in np.linspace(0.5, 2.4, 20):
            h = 2e-4 * x
            rich = (4 * second(x, h / 2) - second(x, h)) / 3
            assert nu.polyval(y2, x) == pytest.approx(rich / self.rho(x), rel=1e-6)

    def test_reconstructed_ode_solution(self):
        # psi = phi y_n solves the original equation when alpha sits on the
        # strict eigencondition root for that n (lambda = lambda_n)
        n = 2
        alpha = strict_eigen_alpha(BETA, GAMMA, n, -1)
        prob = rotated_problem(alpha, BETA, GAMMA)
        sol = nu.solve(prob, branch=-1)
        phi = nu.ExpPowerForm(rate=-sol.pi[0], power=sol.pi[1])
        y = nu.rodrigues_y(nu.ExpPowerForm(rate=-sol.tau[0], power=sol.tau[1] - 2), n)
        psi = lambda x: phi(x) * nu.polyval(y, x)

        def deriv(x, h):
            d1 = (psi(x + h) - psi(x - h)) / (2 * h)
            d2 = (psi(x + h) - 2 * psi(x) + psi(x - h)) / h**2
            return d1, d2

        for x in np.linspace(0.6, 2.0, 7):
            h = 2e-4 * x
            d1a, d2a = deriv(x, h)
            d1b, d2b = deriv(x, h / 2)
            d1 = (4 * d1b - d1a) / 3
            d2 = (4 * d2b - d2a) / 3
            sig = x**2
            resid = d2 + nu.polyval(prob.tau_tilde, x) / sig * d1 + nu.polyval(prob.sigma_tilde, x) / sig**2 * psi(x)
            scale = max(abs(d2), abs(nu.polyval(prob.sigma_tilde, x) / sig**2 * psi(x)), 1e-30)
            assert abs(resid) / scale < 1e-6


class TestNUProblemValidation:
    def test_degree_limits(self):
        with pytest.raises(DomainError):
            nu.NUProblem((0, 0, 1), (0, 1, 2))

    def test_solution_invariants(self):
        sol = nu.solve(rotated_problem(ALPHA, BETA, GAMMA), branch=-1)
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        assert sol.tau[0] == prob.tau_tilde[0] + 2 * sol.pi[0]
        assert sol.tau[1] == prob.tau_tilde[1] + 2 * sol.pi[1]
        assert sol.lam == sol.k + sol.pi[1]


finite_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=30.0, allow_nan=False, allow_infinity=False)


class TestPipelineProperties:
    @settings(max_examples=60, deadline=None)
    @example(st0=5e-324j, st1=0j, st2=0j, t0=0j, t1=0j)  # l0 * l0 rounds onto the subnormal grid
    @given(st0=finite_c, st1=finite_c, st2=finite_c, t0=finite_c, t1=finite_c)
    def test_tau_and_lambda_exact_over_random_problems(self, st0, st1, st2, t0, t1):
        prob = nu.NUProblem((st0, st1, st2), (t0, t1))
        (t0, t1), eps = prob.tau_tilde, sys.float_info.epsilon
        h0, h1 = (0 - t0) / 2, (2 - t1) / 2  # h = (sigma' - tau_t)/2
        r0, r1, r2 = h0 * h0 - st0, 2 * h0 * h1 - st1, h1 * h1 - st2
        # the two R0 = 0 cases are pinned in TestSolveK
        assume(r0 != 0)
        # sqrt(R) = l0 + l1 s with l1 the principal root, and the K that
        # makes R = h^2 - sigma_t + K s^2 that square
        l0 = cmath.sqrt(r0)
        l1 = r1 / (2 * l0)
        if l1.real < 0 or (l1.real == 0 and l1.imag < 0):
            l0, l1 = -l0, -l1
        k = l1 * l1 - r2
        for branch in (+1, -1):
            if not (cmath.isfinite(k) and cmath.isfinite(k + (h1 + branch * l1))):
                # K = l1^2 - r2 with l1 = R1/(2 sqrt(R0)) overflows only
                # for |R0| near the underflow threshold: solve raises there
                assert abs(r0) < 1e-290
                with pytest.raises(NumericError, match="R0"):
                    nu.solve(prob, branch=branch)
                continue
            # R0 != 0 with a finite K: no NumericError on either branch
            sol = nu.solve(prob, branch=branch)
            # coefficient-exact identities of the pipeline
            assert sol.k == k
            assert sol.pi == (h0 + branch * l0, h1 + branch * l1)
            assert sol.tau[0] == prob.tau_tilde[0] + 2 * sol.pi[0]
            assert sol.tau[1] == prob.tau_tilde[1] + 2 * sol.pi[1]
            assert sol.lam == sol.k + sol.pi[1]
        # (l0 + l1 s)^2 is the radicand r + K s^2 by construction, each
        # coefficient within the rounding of the operations that formed it:
        # relative, plus a few subnormal ulps where a product or l1 lands
        # below the normal range (l1's, carried by the factor 2 l0)
        sub = 4 * math.ulp(0.0)
        assert abs(l0 * l0 - r0) <= 8 * eps * abs(r0) + sub
        assert abs(2 * l0 * l1 - r1) <= 8 * eps * abs(r1) + sub * (1 + abs(l0))
        if cmath.isfinite(k):
            assert abs(l1 * l1 - (r2 + k)) <= 8 * eps * (abs(r2) + abs(k)) + sub
