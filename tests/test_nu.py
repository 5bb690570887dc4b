import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htaspec import nu
from htaspec.errors import ConsistencyError, DomainError, UnsupportedWeightError

# The two problem families the package actually solves (hbar = 1):
# rotated-real:    sigma = x^2, tau_t = -4x,          sigma_t = alpha + beta x + gamma x^2
# momentum-coupled sigma = x^2, tau_t = 4x + 4 i p_r, sigma_t = -(alpha + beta x + gamma x^2)


def rotated_problem(alpha, beta, gamma):
    return nu.NUProblem(sigma=(0, 0, 1), sigma_tilde=(alpha, beta, gamma), tau_tilde=(0, -4))


def momentum_problem(alpha, beta, gamma, p):
    return nu.NUProblem(
        sigma=(0, 0, 1),
        sigma_tilde=(-alpha, -beta, -gamma),
        tau_tilde=(4j * p, 4),
    )


ALPHA, BETA, GAMMA = -8.7027, 31.5973, -26.2183  # a ccbar-like parameter point


class TestSolveK:
    def test_rotated_k_formula(self):
        ks = nu.solve_k(rotated_problem(ALPHA, BETA, GAMMA))
        expected = (-36 * ALPHA - BETA**2 + 4 * ALPHA * GAMMA) / (4 * ALPHA)
        assert len(ks) == 1
        assert ks[0] == pytest.approx(expected, rel=1e-12)

    def test_momentum_k_formula(self):
        alpha, beta, gamma, p = 11.6, -46.9, 26.7, 0.4
        beta_c = beta - 8j * p
        ks = nu.solve_k(momentum_problem(alpha, beta_c + 8j * p - 8j * p, gamma, p))
        # with sigma_t = -(alpha + beta_c x + gamma x^2), tau_t = 4(x + i p):
        prob = nu.NUProblem((0, 0, 1), (-alpha, -beta_c, -gamma), (4j * p, 4))
        ks = nu.solve_k(prob)
        expected = (-16 * p**2 * gamma - 8j * p * beta_c + 4 * alpha - beta_c**2 + 4 * alpha * gamma) / (
            4 * (4 * p**2 - alpha)
        )
        assert len(ks) == 1
        assert ks[0] == pytest.approx(expected, rel=1e-12)

    def test_perfect_square_at_k_zero(self):
        # sigma_t = sigma and tau_t = sigma' make the radicand K sigma:
        # K = 0 is admissible (sigma = x^2 is already a perfect square)
        prob = nu.NUProblem((0, 0, 1), (0, 0, 1), (0, 2))
        ks = nu.solve_k(prob)
        assert any(abs(k) < 1e-12 for k in ks)

    def test_degenerate_radicand_empty(self):
        # constant sigma and sigma_t, vanishing h: the radicand is a bare
        # constant in s, leaving nothing to factor into a square
        prob = nu.NUProblem((1, 0, 0), (2, 0, 0), (0, 0))
        assert nu.solve_k(prob) == []


class TestPiPoly:
    def test_rotated_plus_branch(self):
        # pi = 3x +- (beta x/(2u) - u), u = sqrt(-alpha); the principal
        # square root of the leading radicand coefficient fixes branch=+1 to
        # +(beta/(2u)) for beta > 0
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        k = nu.solve_k(prob)[0]
        u = math.sqrt(-ALPHA)
        pi_plus = nu.pi_poly(prob, k, +1)
        assert pi_plus[1] == pytest.approx(3 + BETA / (2 * u), rel=1e-12)
        assert pi_plus[0] == pytest.approx(-u, rel=1e-12)

    def test_branch_sum_cancels_radical(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        k = nu.solve_k(prob)[0]
        p_plus = nu.pi_poly(prob, k, +1)
        p_minus = nu.pi_poly(prob, k, -1)
        # pi+ + pi- = sigma' - tau_t = 6x
        assert p_plus[0] + p_minus[0] == pytest.approx(0, abs=1e-10)
        assert p_plus[1] + p_minus[1] == pytest.approx(6, rel=1e-12)

    def test_momentum_pi_structure(self):
        alpha, beta, gamma, p = 11.6, complex(-46.9, -3.2), 26.7, 0.4
        prob = nu.NUProblem((0, 0, 1), (-alpha, -beta, -gamma), (4j * p, 4))
        k = nu.solve_k(prob)[0]
        v = cmath.sqrt(alpha - 4 * p * p)
        g = 4j * p + beta
        for branch in (+1, -1):
            pi = nu.pi_poly(prob, k, branch)
            # pi = -x - 2ip +- (g x/(2v) + v): check against both signs
            cand_plus = (-2j * p + v, -1 + g / (2 * v))
            cand_minus = (-2j * p - v, -1 - g / (2 * v))
            match = any(
                abs(pi[0] - c0) < 1e-9 and abs(pi[1] - c1) < 1e-9 for c0, c1 in (cand_plus, cand_minus)
            )
            assert match

    def test_bad_branch_rejected(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        k = nu.solve_k(prob)[0]
        with pytest.raises(DomainError):
            nu.pi_poly(prob, k, 2)

    def test_wrong_k_fails_consistency(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        k = nu.solve_k(prob)[0]
        with pytest.raises(ConsistencyError):
            nu.pi_poly(prob, k + 1.0, +1)

    # a rotated-real problem with small |beta| (a 2P level's residual on the
    # energy_real_via_nu grid, past its first sign change): r2 = 2.7e-7 is
    # formed by cancellation from terms near 11, so solve_k's K leaves a
    # constant-term residual of 1.1e-7, above the relative 1e-8 bound alone
    def test_small_beta_radicand_is_a_square(self):
        prob = rotated_problem(-7.529761396044542, -0.00284706153079739, -11.280918571323735)
        sol = nu.solve(prob)
        assert sol.lam == sol.k + sol.pi[1]


class TestTauLambda:
    def test_rotated_minus_branch_tau(self):
        # tau_minus = 2 sqrt(-alpha) + x (2 + alpha beta / (-alpha)^{3/2})
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        k = nu.solve_k(prob)[0]
        pi = nu.pi_poly(prob, k, -1)
        tau, lam = nu.tau_lambda(prob, pi, k)
        u = math.sqrt(-ALPHA)
        assert tau[0] == pytest.approx(2 * u, rel=1e-12)
        assert tau[1] == pytest.approx(2 + ALPHA * BETA / (-ALPHA) ** 1.5, rel=1e-12)
        assert lam == pytest.approx(k + pi[1], rel=1e-14)

    def test_tau_is_exact_coefficient_arithmetic(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        k = nu.solve_k(prob)[0]
        pi = nu.pi_poly(prob, k, +1)
        tau, _ = nu.tau_lambda(prob, pi, k)
        assert tau[0] == prob.tau_tilde[0] + 2 * pi[0]
        assert tau[1] == prob.tau_tilde[1] + 2 * pi[1]

    def test_zero_pi_case(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        tau, lam = nu.tau_lambda(prob, (0j, 0j), 1.25)
        assert tau == prob.tau_tilde
        assert lam == pytest.approx(1.25)


class TestLambdaN:
    def test_n_zero(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        assert nu.lambda_n(prob, (1.0, 2.0), 0) == 0

    def test_momentum_printed_form(self):
        # the momentum-coupled plus branch reproduces
        # lambda_n = -n (4ip + beta + (n+1) v)/v with v = sqrt(-4p^2+alpha)
        alpha, beta, gamma, p = 11.6, complex(-46.9, -3.2), 26.7, 0.4
        prob = nu.NUProblem((0, 0, 1), (-alpha, -beta, -gamma), (4j * p, 4))
        k = nu.solve_k(prob)[0]
        v = cmath.sqrt(alpha - 4 * p * p)
        g = 4j * p + beta
        # select the branch with pi' = -1 + g/(2v)
        pi = nu.pi_poly(prob, k, +1)
        if abs(pi[1] - (-1 + g / (2 * v))) > 1e-9:
            pi = nu.pi_poly(prob, k, -1)
        tau, _ = nu.tau_lambda(prob, pi, k)
        for n in (1, 2, 3):
            expected = -n * (4j * p + beta + (n + 1) * v) / v
            assert nu.lambda_n(prob, tau, n) == pytest.approx(expected, rel=1e-10)

    def test_rotated_strict_rule(self):
        # strict -n tau' - n(n-1): on the minus branch tau' = 2 - beta/u.
        # (The spectrum tables use the sign-flipped pairing instead; that
        # convention lives in core, not here.)
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        k = nu.solve_k(prob)[0]
        pi = nu.pi_poly(prob, k, -1)
        tau, _ = nu.tau_lambda(prob, pi, k)
        u = math.sqrt(-ALPHA)
        for n in (1, 2, 4):
            expected = -n * (2 - BETA / u) - n * (n - 1)
            assert nu.lambda_n(prob, tau, n) == pytest.approx(expected, rel=1e-10)

    def test_negative_n_rejected(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        with pytest.raises(DomainError):
            nu.lambda_n(prob, (0.0, 2.0), -1)


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


class TestEigenconditionResidual:
    def embedding(self, beta, gamma):
        return lambda alpha: (alpha, beta, gamma)

    def test_residual_vanishes_at_strict_root(self):
        beta, gamma, n = 31.5973, -26.2183, 2
        prob = rotated_problem(-1.0, beta, gamma)
        alpha = strict_eigen_alpha(beta, gamma, n, -1)
        res = nu.eigencondition_residual(prob, n, alpha, self.embedding(beta, gamma), branch=-1)
        assert abs(res) < 1e-9

    def test_residual_nonzero_off_root(self):
        beta, gamma, n = 31.5973, -26.2183, 2
        prob = rotated_problem(-1.0, beta, gamma)
        alpha = strict_eigen_alpha(beta, gamma, n, -1)
        res = nu.eigencondition_residual(prob, n, alpha * 1.1, self.embedding(beta, gamma), branch=-1)
        assert abs(res) > 1e-4

    def test_n_zero_is_lambda_zero(self):
        # at n = 0, the condition is lambda = 0: construct the root directly
        beta, gamma = 10.0, -9.0
        prob = rotated_problem(-1.0, beta, gamma)
        alpha = strict_eigen_alpha(beta, gamma, 0, -1)
        res = nu.eigencondition_residual(prob, 0, alpha, self.embedding(beta, gamma), branch=-1)
        assert abs(res) < 1e-10

    def test_degenerate_embedding_rejected(self):
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        with pytest.raises(DomainError):
            nu.eigencondition_residual(prob, 1, 0.0, lambda _: (0, 0, 0))


class TestDescriptorsAndRodrigues:
    def setup_method(self):
        self.prob = rotated_problem(ALPHA, BETA, GAMMA)
        self.k = nu.solve_k(self.prob)[0]
        self.pi = nu.pi_poly(self.prob, self.k, -1)
        self.tau, self.lam = nu.tau_lambda(self.prob, self.pi, self.k)
        self.phi = nu.phi_descriptor(self.prob, self.pi)
        self.rho = nu.rho_descriptor(self.prob, self.tau)
        self.u = math.sqrt(-ALPHA)

    def test_phi_closed_form(self):
        # phi = exp(-u/x) x^(3 - beta/(2u)) on the minus branch
        assert self.phi.rate == pytest.approx(-self.u, rel=1e-12)
        assert self.phi.power == pytest.approx(3 - BETA / (2 * self.u), rel=1e-12)

    def test_rho_closed_form(self):
        # rho = exp(-2u/x) x^(-beta/u)
        assert self.rho.rate == pytest.approx(-2 * self.u, rel=1e-12)
        assert self.rho.power == pytest.approx(-BETA / self.u, rel=1e-12)

    def test_phi_logderivative_property(self):
        for x in (0.3, 0.9, 2.1):
            h = 1e-6
            num = (self.phi(x + h) - self.phi(x - h)) / (2 * h)
            assert num / self.phi(x) == pytest.approx(
                nu.polyval(self.pi, x) / nu.polyval(self.prob.sigma, x), rel=1e-7
            )

    def test_weight_equation_property(self):
        # (sigma rho)' = tau rho at sample points
        for x in (0.4, 1.1, 1.9):
            h = 1e-6
            f = lambda t: nu.polyval(self.prob.sigma, t) * self.rho(t)
            num = (f(x + h) - f(x - h)) / (2 * h)
            assert num == pytest.approx(nu.polyval(self.tau, x) * self.rho(x), rel=1e-7)

    def test_rodrigues_n0(self):
        y0 = nu.rodrigues_y(self.prob, self.rho, 0)
        assert y0.coeffs == (1 + 0j,)
        assert y0(0.7) == 1

    def test_rodrigues_n1_matches_tau(self):
        # y1 = (1/rho) d/dx (sigma rho) = tau for this normalization
        y1 = nu.rodrigues_y(self.prob, self.rho, 1)
        assert y1.degree == 1
        assert y1.coeffs[0] == pytest.approx(self.tau[0], rel=1e-12)
        assert y1.coeffs[1] == pytest.approx(self.tau[1], rel=1e-12)

    def test_rodrigues_n2_vs_finite_differences(self):
        # d^2/dx^2 (sigma^2 rho) / rho against Richardson-extrapolated
        # central differences at 20 points (rho has steep exp(-2u/x) scale
        # variation, so a single-step stencil cannot reach 1e-6)
        y2 = nu.rodrigues_y(self.prob, self.rho, 2)
        f = lambda x: nu.polyval(self.prob.sigma, x) ** 2 * self.rho(x)

        def second(x, h):
            return (f(x + h) - 2 * f(x) + f(x - h)) / h**2

        for x in np.linspace(0.5, 2.4, 20):
            h = 2e-4 * x
            rich = (4 * second(x, h / 2) - second(x, h)) / 3
            assert y2(x) == pytest.approx(rich / self.rho(x), rel=1e-6)

    def test_reconstructed_ode_solution(self):
        # psi = phi y_n solves the original equation when alpha sits on the
        # strict eigencondition root for that n (lambda = lambda_n)
        n = 2
        alpha = strict_eigen_alpha(BETA, GAMMA, n, -1)
        prob = rotated_problem(alpha, BETA, GAMMA)
        sol = nu.solve(prob, branch=-1)
        y = nu.rodrigues_y(prob, sol.rho, n)
        psi = lambda x: sol.phi(x) * y(x)

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
            sig = nu.polyval(prob.sigma, x)
            resid = d2 + nu.polyval(prob.tau_tilde, x) / sig * d1 + nu.polyval(prob.sigma_tilde, x) / sig**2 * psi(x)
            scale = max(abs(d2), abs(nu.polyval(prob.sigma_tilde, x) / sig**2 * psi(x)), 1e-30)
            assert abs(resid) / scale < 1e-6

    def test_non_monomial_sigma_rejected(self):
        prob = nu.NUProblem((1, 0, 1), (0, 1, 0), (0, 1))
        with pytest.raises(UnsupportedWeightError):
            nu.phi_descriptor(prob, (0.5, 1.0))
        with pytest.raises(UnsupportedWeightError):
            nu.rodrigues_y(prob, nu.ExpPowerForm(-1.0, 2.0), 1)


class TestNUProblemValidation:
    def test_degree_limits(self):
        with pytest.raises(DomainError):
            nu.NUProblem((0, 0, 1, 1), (0, 0, 1), (0, 1))
        with pytest.raises(DomainError):
            nu.NUProblem((0, 0, 1), (0, 0, 1), (0, 1, 2))

    def test_zero_sigma_rejected(self):
        with pytest.raises(DomainError):
            nu.NUProblem((0, 0, 0), (0, 0, 1), (0, 1))

    def test_solution_invariants(self):
        sol = nu.solve(rotated_problem(ALPHA, BETA, GAMMA), branch=-1)
        prob = rotated_problem(ALPHA, BETA, GAMMA)
        assert sol.tau[0] == prob.tau_tilde[0] + 2 * sol.pi[0]
        assert sol.tau[1] == prob.tau_tilde[1] + 2 * sol.pi[1]
        assert sol.lam == sol.k + sol.pi[1]


finite_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=30.0, allow_nan=False, allow_infinity=False)


class TestPipelineProperties:
    @settings(max_examples=60, deadline=None)
    @given(st0=finite_c, st1=finite_c, st2=finite_c, t0=finite_c, t1=finite_c)
    def test_tau_and_lambda_exact_over_random_problems(self, st0, st1, st2, t0, t1):
        prob = nu.NUProblem((0, 0, 1), (st0, st1, st2), (t0, t1))
        ks = nu.solve_k(prob)
        if not ks:
            return
        for branch in (+1, -1):
            try:
                sol = nu.solve(prob, branch=branch)
            except ConsistencyError:
                continue
            # coefficient-exact identities of the pipeline
            assert sol.tau[0] == prob.tau_tilde[0] + 2 * sol.pi[0]
            assert sol.tau[1] == prob.tau_tilde[1] + 2 * sol.pi[1]
            assert sol.lam == sol.k + sol.pi[1]
