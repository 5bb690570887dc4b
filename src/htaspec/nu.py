"""Nikiforov-Uvarov engine for sigma(s) = s^2.

Solves hypergeometric-type equations

    psi''(s) + (tau_t(s)/s^2) psi'(s) + (sigma_t(s)/s^4) psi(s) = 0

with sigma_t at most quadratic and tau_t at most linear (complex
coefficients allowed).  sigma = s^2 in every equation the package poses
after the half transform: the phase-stripped real problem, the
momentum-coupled one, and potentials with more powers of x = 1/r, which
change only sigma_t.

With h = (sigma' - tau_t)/2 = h0 + h1 s, the textbook pipeline chooses K so
that the radicand R(s) = h^2 - sigma_t + K s^2 is a perfect square.  Its
coefficients R0 = h0^2 - st0 and R1 = 2 h0 h1 - st1 do not depend on K, so
sqrt(R) = l0 + l1 s with l0 = sqrt(R0) and l1 = R1/(2 l0), both signs
flipped if need be so that l1 is the principal root (Re > 0, or Re = 0 and
Im >= 0), and

    K = l1^2 - (h1^2 - st2)

makes R a perfect square by construction: nothing is left to verify.  R0 = 0
admits no K when R1 != 0, and leaves K free when R1 = 0 (K = 0 then, with l1
the principal root of h1^2 - st2).  Then pi = h +- (l0 + l1 s),
tau = tau_t + 2 pi, lambda = K + pi', and the polynomial index rule is
lambda_n = -n tau' - n(n-1).

solve returns K, pi, tau and lambda only.  phi and rho are built on request
(phi_descriptor, rho_descriptor) as closed-form descriptors exp(rate/s) *
s^power, the family sigma = s^2 produces; Rodrigues differentiation
y_n = (1/rho) d^n/ds^n (s^2n rho) is then exact (exp(q/s) times a Laurent
polynomial stays in that family under d/ds).

Polynomials are ascending coefficient tuples: (c0, c1, c2) is c0 + c1 s
+ c2 s^2.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

from .errors import ConsistencyError, DomainError

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
    "solve",
]


def _coeffs(coeffs, degree: int) -> tuple[complex, ...]:
    c = tuple(complex(v) for v in coeffs)
    if len(c) > degree + 1:
        raise DomainError(f"polynomial degree > {degree}: {coeffs}")
    return c + (0j,) * (degree + 1 - len(c))


def polyval(coeffs, s: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


class NUProblem(namedtuple("NUProblem", "sigma_tilde tau_tilde")):
    """Coefficient data of one hypergeometric-type equation (sigma = s^2)."""

    __slots__ = ()

    def __new__(cls, sigma_tilde, tau_tilde):
        return super().__new__(cls, _coeffs(sigma_tilde, 2), _coeffs(tau_tilde, 1))

    # namedtuple's _make, behind _replace, skips __new__
    _make = classmethod(lambda cls, values: cls(*values))


class ExpPowerForm(namedtuple("ExpPowerForm", "rate power")):
    """The function s -> exp(rate/s) * s**power (principal branch)."""

    __slots__ = ()

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        return cmath.exp(self.rate / s + self.power * cmath.log(s))


class RodriguesPolynomial(namedtuple("RodriguesPolynomial", "coeffs n")):
    """Polynomial part y_n of the NU solution, ascending coefficients."""

    __slots__ = ()

    def __call__(self, s: complex) -> complex:
        return polyval(self.coeffs, s)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


# K, pi, tau and lambda for one (problem, branch)
NUSolution = namedtuple("NUSolution", "k pi tau lam")


def _half_diff(problem: NUProblem) -> tuple[complex, complex]:
    # (sigma' - tau_t)/2 as a linear polynomial, sigma' = 2s
    t0, t1 = problem.tau_tilde
    return ((0 - t0) / 2, (2 - t1) / 2)


def _square_root(problem: NUProblem):
    """(K, l0, l1) with h^2 - sigma_t + K s^2 = (l0 + l1 s)^2 and l1 the
    principal root, or None when no K makes the radicand a square."""
    h0, h1 = _half_diff(problem)
    st0, st1, st2 = problem.sigma_tilde
    r0 = h0 * h0 - st0
    r1 = 2 * h0 * h1 - st1
    r2 = h1 * h1 - st2  # the K-free part of the s^2 coefficient
    if r0 == 0:
        # R = r2 s^2 at the canonical K = 0 when R1 = 0 too; no K otherwise
        return (0j, 0j, cmath.sqrt(r2)) if r1 == 0 else None
    l0 = cmath.sqrt(r0)
    l1 = r1 / (2 * l0)
    if l1.real < 0 or (l1.real == 0 and l1.imag < 0):
        l0, l1 = -l0, -l1
    return l1 * l1 - r2, l0, l1


def solve_k(problem: NUProblem) -> list[complex]:
    """[K] making the pi radicand a perfect square; [] when there is none
    (R0 = 0 != R1), and then solve raises ConsistencyError.

    K is branch-independent (the branch only picks the sign of the square
    root).
    """
    root = _square_root(problem)
    return [] if root is None else [root[0]]


def pi_poly(problem: NUProblem, branch: int = +1) -> tuple[complex, complex]:
    """pi(s) at the K of solve_k; branch (+1/-1) signs the radical term.

    The radical's leading coefficient takes the principal square root, so
    branch semantics follow that canonical choice.
    """
    return solve(problem, branch).pi


def tau_lambda(problem: NUProblem, pi: tuple[complex, complex], k: complex):
    """tau = tau_t + 2 pi (exact coefficient arithmetic) and lambda = K + pi'."""
    t0, t1 = problem.tau_tilde
    tau = (t0 + 2 * pi[0], t1 + 2 * pi[1])
    lam = k + pi[1]
    return tau, lam


def lambda_n(tau: tuple[complex, complex], n: int) -> complex:
    """Polynomial eigenvalue lambda_n = -n tau' - n(n-1)/2 sigma'', sigma'' = 2."""
    n = int(n)
    if n < 0:
        raise DomainError(f"lambda_n: n must be >= 0, got {n}")
    return -n * tau[1] - n * (n - 1)


def phi_descriptor(pi: tuple[complex, complex]) -> ExpPowerForm:
    """phi with phi'/phi = pi/s^2, as exp(rate/s) * s^power."""
    return ExpPowerForm(rate=-pi[0], power=pi[1])


def rho_descriptor(tau: tuple[complex, complex]) -> ExpPowerForm:
    """Weight rho solving (s^2 rho)' = tau rho, as exp(rate/s) * s^power."""
    return ExpPowerForm(rate=-tau[0], power=tau[1] - 2)


def rodrigues_y(rho: ExpPowerForm, n: int) -> RodriguesPolynomial:
    """y_n = (1/rho) d^n/ds^n [s^2n rho], B_n = 1.

    s^2n rho = exp(q/s) s^(p+2n) with p = rho.power; the derivative of
    exp(q/s) s^e is exp(q/s) (e s^(e-1) - q s^(e-2)), so n-fold
    differentiation stays inside exp(q/s) times a generalized Laurent
    polynomial, each step lowering the exponent offset by 1 or 2 from 2n, and
    dividing by rho leaves an ordinary degree-n polynomial.
    """
    n = int(n)
    if n < 0:
        raise DomainError(f"rodrigues_y: n must be >= 0, got {n}")
    q = rho.rate
    p = rho.power
    # terms[j] = coefficient of s^(p + j)
    terms: dict[int, complex] = {2 * n: 1 + 0j}
    for _ in range(n):
        new: dict[int, complex] = {}
        for j, coeff in terms.items():
            e = p + j
            new[j - 1] = new.get(j - 1, 0j) + coeff * e
            new[j - 2] = new.get(j - 2, 0j) - coeff * q
        terms = new
    # divide by rho: s^(p+j)/s^p = s^j; exponents j now span 0..n
    coeffs = [0j] * (max(terms) + 1)
    for j, coeff in terms.items():
        coeffs[j] = coeff
    return RodriguesPolynomial(coeffs=tuple(coeffs), n=n)


def solve(problem: NUProblem, branch: int = +1) -> NUSolution:
    """Run the full pipeline for one branch."""
    if branch not in (+1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    root = _square_root(problem)
    if root is None:
        raise ConsistencyError("no K makes the radicand a perfect square (R0 = 0 != R1)")
    k, l0, l1 = root
    h0, h1 = _half_diff(problem)
    pi = (h0 + branch * l0, h1 + branch * l1)
    tau, lam = tau_lambda(problem, pi, k)
    return NUSolution(k=k, pi=pi, tau=tau, lam=lam)
