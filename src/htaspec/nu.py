"""Generic Nikiforov-Uvarov engine.

Solves hypergeometric-type equations

    psi''(s) + (tau_t(s)/sigma(s)) psi'(s) + (sigma_t(s)/sigma(s)^2) psi(s) = 0

with sigma, sigma_t at most quadratic and tau_t at most linear (complex
coefficients allowed).  The pipeline is the textbook one: choose K so that
the radicand of

    pi(s) = (sigma' - tau_t)/2 +- sqrt(((sigma'-tau_t)/2)^2 - sigma_t + K sigma)

is a perfect square, then tau = tau_t + 2 pi, lambda = K + pi', and the
polynomial index rule lambda_n = -n tau' - n(n-1)/2 sigma''.  Polynomial
solutions come from the Rodrigues relation y_n = (B_n/rho) d^n/ds^n
(sigma^n rho).

phi and rho are kept as closed-form descriptors exp(rate/s) * s^power, the
only family the monomial sigma = c2 s^2 produces; Rodrigues differentiation
is then exact (the family exp(q/s) * Laurent polynomial is closed under
d/ds).  Quadratics with a genuine linear/constant part would leave this
family and are rejected.

Polynomials are ascending coefficient tuples: (c0, c1, c2) is c0 + c1 s
+ c2 s^2.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, replace

from .errors import ConsistencyError, DomainError, UnsupportedWeightError

__all__ = [
    "NUProblem",
    "NUSolution",
    "ExpPowerForm",
    "RodriguesPolynomial",
    "solve_k",
    "pi_poly",
    "tau_lambda",
    "lambda_n",
    "phi_descriptor",
    "rho_descriptor",
    "rodrigues_y",
    "eigencondition_residual",
    "solve",
]


def _as3(coeffs) -> tuple[complex, complex, complex]:
    c = tuple(complex(v) for v in coeffs)
    if len(c) > 3:
        raise DomainError(f"polynomial degree > 2: {coeffs}")
    return c + (0j,) * (3 - len(c))


def _as2(coeffs) -> tuple[complex, complex]:
    c = tuple(complex(v) for v in coeffs)
    if len(c) > 2:
        raise DomainError(f"polynomial degree > 1: {coeffs}")
    return c + (0j,) * (2 - len(c))


def polyval(coeffs, s: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


@dataclass(frozen=True)
class NUProblem:
    """Coefficient data of one hypergeometric-type equation."""

    sigma: tuple[complex, complex, complex]
    sigma_tilde: tuple[complex, complex, complex]
    tau_tilde: tuple[complex, complex]

    def __post_init__(self):
        object.__setattr__(self, "sigma", _as3(self.sigma))
        object.__setattr__(self, "sigma_tilde", _as3(self.sigma_tilde))
        object.__setattr__(self, "tau_tilde", _as2(self.tau_tilde))
        if all(v == 0 for v in self.sigma):
            raise DomainError("sigma is identically zero")

    @property
    def coeff_scale(self) -> float:
        return max(abs(v) for v in (*self.sigma, *self.sigma_tilde, *self.tau_tilde, 1.0))


@dataclass(frozen=True)
class ExpPowerForm:
    """The function s -> exp(rate/s) * s**power (principal branch)."""

    rate: complex
    power: complex

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        return cmath.exp(self.rate / s + self.power * cmath.log(s))


@dataclass(frozen=True)
class RodriguesPolynomial:
    """Polynomial part y_n of the NU solution, ascending coefficients."""

    coeffs: tuple[complex, ...]
    n: int

    def __call__(self, s: complex) -> complex:
        return polyval(self.coeffs, s)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class NUSolution:
    """Everything the pipeline derives for one (problem, K, branch)."""

    k: complex
    pi: tuple[complex, complex]
    tau: tuple[complex, complex]
    lam: complex
    phi: ExpPowerForm
    rho: ExpPowerForm


def _half_diff(problem: NUProblem) -> tuple[complex, complex]:
    # (sigma' - tau_t)/2 as a linear polynomial
    s0, s1, s2 = problem.sigma
    t0, t1 = problem.tau_tilde
    return ((s1 - t0) / 2, (2 * s2 - t1) / 2)


def _radicand(problem: NUProblem, k: complex) -> tuple[complex, complex, complex]:
    # ((sigma'-tau_t)/2)^2 - sigma_t + K sigma, quadratic in s
    h0, h1 = _half_diff(problem)
    st0, st1, st2 = problem.sigma_tilde
    g0, g1, g2 = problem.sigma
    return (
        h0 * h0 - st0 + k * g0,
        2 * h0 * h1 - st1 + k * g1,
        h1 * h1 - st2 + k * g2,
    )


def solve_k(problem: NUProblem) -> list[complex]:
    """All K making the pi radicand a perfect square (<= 2 values).

    K is branch-independent (the branch only picks the sign of the square
    root).  A radicand that degenerates to a K-independent constant gives no
    constraint.  When no K qualifies the list is empty, and solve raises
    ConsistencyError.
    """
    h0, h1 = _half_diff(problem)
    st0, st1, st2 = problem.sigma_tilde
    g0, g1, g2 = problem.sigma
    # radicand coefficients are affine in K: R_i = A_i + B_i K
    a2, b2 = h1 * h1 - st2, g2
    a1, b1 = 2 * h0 * h1 - st1, g1
    a0, b0 = h0 * h0 - st0, g0
    # discriminant R1^2 - 4 R2 R0 as a quadratic in K; each coefficient is
    # judged degenerate against the scale of the products that formed it,
    # not a global scale (coefficients span many orders)
    q2 = b1 * b1 - 4 * b2 * b0
    q1 = 2 * a1 * b1 - 4 * (a2 * b0 + a0 * b2)
    q0 = a1 * a1 - 4 * a2 * a0
    s2 = max(abs(b1 * b1), 4 * abs(b2 * b0), 1e-300)
    s1 = max(2 * abs(a1 * b1), 4 * abs(a2 * b0), 4 * abs(a0 * b2), 1e-300)
    s0 = max(abs(a1 * a1), 4 * abs(a2 * a0), 1e-300)
    if abs(q2) > 1e-12 * s2:
        disc = q1 * q1 - 4 * q2 * q0
        root = cmath.sqrt(disc)
        cands = [(-q1 + root) / (2 * q2), (-q1 - root) / (2 * q2)]
    elif abs(q1) > 1e-12 * s1:
        cands = [-q0 / q1]
    elif abs(q0) <= 1e-12 * s0:
        # discriminant vanishes identically: every K gives a perfect square.
        # A radicand with genuine s-dependence admits the canonical K = 0;
        # one degenerated to a constant leaves nothing to factor.
        if max(abs(a2), abs(b2), abs(a1), abs(b1)) <= 1e-14 * problem.coeff_scale:
            return []
        cands = [0j]
    else:
        # disc is a nonzero constant in K: no K can zero it
        return []
    out = []
    for k in cands:
        resid = q2 * k * k + q1 * k + q0
        if abs(resid) <= 1e-8 * max(abs(q2 * k * k), abs(q1 * k), abs(q0), 1.0):
            if not any(abs(k - other) <= 1e-12 * (abs(k) + 1) for other in out):
                out.append(k)
    return out


def _sqrt_radicand(problem: NUProblem, k: complex) -> tuple[tuple[complex, complex], float]:
    """Coefficient-wise square root (lin0, lin1) of the (perfect-square)
    radicand, and the rounding its square may carry in the constant term:
    r2 = h1^2 - st2 + K g2 is formed by cancellation, and lin0^2 =
    r1^2 / (4 r2) inherits its relative error."""
    r0, r1, r2 = _radicand(problem, k)
    scale = max(abs(r0), abs(r1), abs(r2), problem.coeff_scale)
    tol = 1e-10 * scale
    if abs(r2) > tol:
        lead = cmath.sqrt(r2)
        lin = (r1 / (2 * lead), lead)
        h1, st2, g2 = _half_diff(problem)[1], problem.sigma_tilde[2], problem.sigma[2]
        slack = 4 * sys.float_info.epsilon * (abs(h1) ** 2 + abs(st2) + abs(k * g2)) / abs(r2) * abs(lin[0]) ** 2
        # perfect-square consistency: constant term must match
        resid = abs(lin[0] * lin[0] - r0)
        if resid > 1e-8 * max(abs(r0), abs(lin[0]) ** 2, 1.0) + slack:
            raise ConsistencyError(f"radicand is not a perfect square for K={k} (constant-term residual {resid:.3e})")
        return lin, slack
    if abs(r1) > tol:
        raise ConsistencyError(f"radicand for K={k} is linear in s, not a square")
    return (cmath.sqrt(r0), 0j), 0.0


def pi_poly(problem: NUProblem, k: complex, branch: int = +1) -> tuple[complex, complex]:
    """pi(s) for a K from solve_k; branch (+1/-1) signs the radical term.

    The radical's leading coefficient takes the principal square root, so
    branch semantics follow that canonical choice.
    """
    if branch not in (+1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    h0, h1 = _half_diff(problem)
    (l0, l1), slack = _sqrt_radicand(problem, k)
    pi = (h0 + branch * l0, h1 + branch * l1)
    # verify (pi - h)^2 reproduces the radicand at sample points
    for i in range(10):
        s = complex(0.37 + 0.61 * i, 0.11 * i - 0.4)
        lhs = (polyval(pi, s) - polyval((h0, h1), s)) ** 2
        rhs = polyval(_radicand(problem, k), s)
        if abs(lhs - rhs) > 1e-8 * max(abs(lhs), abs(rhs), 1.0) + slack:
            raise ConsistencyError(f"pi verification failed at s={s}: {lhs} vs {rhs}")
    return pi


def tau_lambda(problem: NUProblem, pi: tuple[complex, complex], k: complex):
    """tau = tau_t + 2 pi (exact coefficient arithmetic) and lambda = K + pi'."""
    t0, t1 = problem.tau_tilde
    tau = (t0 + 2 * pi[0], t1 + 2 * pi[1])
    lam = k + pi[1]
    return tau, lam


def lambda_n(problem: NUProblem, tau: tuple[complex, complex], n: int) -> complex:
    """Polynomial eigenvalue lambda_n = -n tau' - n(n-1)/2 sigma''."""
    n = int(n)
    if n < 0:
        raise DomainError(f"lambda_n: n must be >= 0, got {n}")
    sigma_pp = 2 * problem.sigma[2]
    return -n * tau[1] - n * (n - 1) / 2 * sigma_pp


def _require_monomial_sigma(problem: NUProblem) -> complex:
    g0, g1, g2 = problem.sigma
    if abs(g2) == 0 or max(abs(g0), abs(g1)) > 1e-12 * abs(g2):
        raise UnsupportedWeightError(
            "phi/rho descriptors require sigma = c2 * s^2; general quadratics leave "
            "the exp(c/s) * s^k weight family"
        )
    return g2


def phi_descriptor(problem: NUProblem, pi: tuple[complex, complex]) -> ExpPowerForm:
    """phi with phi'/phi = pi/sigma, as exp(rate/s) * s^power."""
    c2 = _require_monomial_sigma(problem)
    return ExpPowerForm(rate=-pi[0] / c2, power=pi[1] / c2)


def rho_descriptor(problem: NUProblem, tau: tuple[complex, complex]) -> ExpPowerForm:
    """Weight rho solving (sigma rho)' = tau rho, as exp(rate/s) * s^power."""
    c2 = _require_monomial_sigma(problem)
    return ExpPowerForm(rate=-tau[0] / c2, power=tau[1] / c2 - 2)


def rodrigues_y(problem: NUProblem, rho: ExpPowerForm, n: int) -> RodriguesPolynomial:
    """y_n = (1/rho) d^n/ds^n [sigma^n rho], B_n = 1.

    sigma^n rho = c2^n exp(q/s) s^(p+2n) with p = rho.power; the derivative
    of exp(q/s) s^e is exp(q/s) (e s^(e-1) - q s^(e-2)), so n-fold
    differentiation stays inside exp(q/s) times a generalized Laurent
    polynomial and dividing by rho leaves an ordinary degree-n polynomial.
    """
    n = int(n)
    if n < 0:
        raise DomainError(f"rodrigues_y: n must be >= 0, got {n}")
    c2 = _require_monomial_sigma(problem)
    q = rho.rate
    p = rho.power
    # terms[j] = coefficient of s^(p + j)
    terms: dict[int, complex] = {2 * n: c2 ** n}
    for _ in range(n):
        new: dict[int, complex] = {}
        for j, coeff in terms.items():
            e = p + j
            new[j - 1] = new.get(j - 1, 0j) + coeff * e
            new[j - 2] = new.get(j - 2, 0j) - coeff * q
        terms = new
    # divide by rho: s^(p+j)/s^p = s^j; exponents j now span 0..n
    lo = min(terms)
    if lo < 0:
        raise ConsistencyError(f"Rodrigues expansion left a negative power s^{lo}")
    coeffs = [0j] * (max(terms) + 1)
    for j, coeff in terms.items():
        coeffs[j] = coeff
    return RodriguesPolynomial(coeffs=tuple(coeffs), n=n)


def solve(problem: NUProblem, branch: int = +1) -> NUSolution:
    """Run the full pipeline for the first K root and one branch."""
    ks = solve_k(problem)
    if not ks:
        raise ConsistencyError("no K makes the radicand a perfect square (degenerate radicand)")
    k = ks[0]
    pi = pi_poly(problem, k, branch)
    tau, lam = tau_lambda(problem, pi, k)
    return NUSolution(
        k=k,
        pi=pi,
        tau=tau,
        lam=lam,
        phi=phi_descriptor(problem, pi),
        rho=rho_descriptor(problem, tau),
    )


def eigencondition_residual(problem: NUProblem, n: int, embedded_param: complex, embedding, branch: int = +1) -> complex:
    """lambda(embedded) - lambda_n(embedded); its roots are NU eigenvalues.

    ``embedding`` maps the scalar parameter (typically an energy) to the
    sigma_tilde coefficients of the problem.
    """
    st = _as3(embedding(embedded_param))
    if any(not (abs(v) < float("inf")) for v in st):
        raise DomainError(f"embedding produced non-finite sigma_tilde: {st}")
    if all(v == 0 for v in st):
        raise DomainError("embedding produced a degenerate (zero) sigma_tilde")
    prob = replace(problem, sigma_tilde=st)
    sol = solve(prob, branch=branch)
    return sol.lam - lambda_n(prob, sol.tau, n)
