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

solve, the one entry point, returns K, pi, tau and lambda.  phi (phi'/phi
= pi/s^2) and the weight rho ((s^2 rho)' = tau rho) are exp(rate/s) *
s^power in the family sigma = s^2 produces (ExpPowerForm): phi has rate
-pi0 and power pi1, rho rate -tau0 and power tau1 - 2.  The Rodrigues
polynomials y_n = (1/rho) d^n/ds^n (s^2n rho) of such a rho are generalized
Bessel polynomials, whose coefficients rodrigues_y writes in closed form.

Polynomials are ascending coefficient tuples: (c0, c1, c2) is c0 + c1 s
+ c2 s^2.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple

from .core import Checked
from .errors import DomainError, NumericError

__all__ = [
    "NUProblem",
    "NUSolution",
    "ExpPowerForm",
    "lambda_n",
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


class NUProblem(Checked, namedtuple("NUProblem", "sigma_tilde tau_tilde")):
    """Coefficient data of one hypergeometric-type equation (sigma = s^2)."""

    __slots__ = ()

    def __new__(cls, sigma_tilde, tau_tilde):
        return super().__new__(cls, _coeffs(sigma_tilde, 2), _coeffs(tau_tilde, 1))


class ExpPowerForm(namedtuple("ExpPowerForm", "rate power")):
    """The function s -> exp(rate/s) * s**power (principal branch)."""

    __slots__ = ()

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        return cmath.exp(self.rate / s + self.power * cmath.log(s))


# K, pi, tau and lambda for one (problem, branch)
NUSolution = namedtuple("NUSolution", "k pi tau lam")


def lambda_n(tau: tuple[complex, complex], n: int) -> complex:
    """Polynomial eigenvalue lambda_n = -n tau' - n(n-1)/2 sigma'', sigma'' = 2,
    at an integer n >= 0: 1.5 raises TypeError, -1 DomainError."""
    n = operator.index(n)
    if n < 0:
        raise DomainError(f"lambda_n: n must be >= 0, got {n}")
    return -n * tau[1] - n * (n - 1)


def rodrigues_y(rho: ExpPowerForm, n: int) -> tuple[complex, ...]:
    """The n + 1 ascending coefficients of y_n = (1/rho) d^n/ds^n [s^2n rho],
    B_n = 1, for rho = exp(q/s) s^p.

    These are generalized Bessel polynomials (Krall & Frink, Trans. AMS 65
    (1949) 100), with the closed-form coefficients

        y_n(s) = sum_k C(n, k) (n + p + 1)_k (-q)^(n-k) s^k,

    (x)_k the rising factorial: each coefficient is a product, with no sum
    to cancel.  n is an integer >= 0: 1.5 raises TypeError, -1 DomainError.
    """
    if n < 0:
        raise DomainError(f"rodrigues_y: n must be >= 0, got {n}")
    q, p = rho.rate, rho.power
    coeffs, rising = [], 1
    for k in range(n + 1):
        coeffs.append(complex(math.comb(n, k) * rising * (-q) ** (n - k)))
        rising *= p + (n + 1 + k)
    return tuple(coeffs)


def solve(problem: NUProblem, branch: int = +1) -> NUSolution:
    """K, pi = h +- (l0 + l1 s), tau = tau_t + 2 pi and lambda = K + pi' on
    one branch: +1/-1 signs the radical, whose l1 is the principal root.

    Raises NumericError where no K exists (R0 = 0 != R1), and where K or
    lambda is not finite (|R0| near the underflow threshold).
    """
    if branch not in (+1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    (t0, t1), (st0, st1, st2) = problem.tau_tilde, problem.sigma_tilde
    h0, h1 = (0 - t0) / 2, (2 - t1) / 2  # h = (sigma' - tau_t)/2, sigma' = 2s
    r0, r1 = h0 * h0 - st0, 2 * h0 * h1 - st1
    r2 = h1 * h1 - st2  # the K-free part of the s^2 coefficient
    if r0 != 0:
        l0 = cmath.sqrt(r0)
        l1 = r1 / (2 * l0)
        if l1.real < 0 or (l1.real == 0 and l1.imag < 0):
            l0, l1 = -l0, -l1
        k = l1 * l1 - r2
    elif r1 == 0:  # R = r2 s^2 is a square at every K; the canonical one is 0
        k, l0, l1 = 0j, 0j, cmath.sqrt(r2)
    else:
        raise NumericError("no K makes the radicand a perfect square (R0 = 0 != R1)")
    pi = (h0 + branch * l0, h1 + branch * l1)
    lam = k + pi[1]
    if not (cmath.isfinite(k) and cmath.isfinite(lam)):
        raise NumericError(f"K = {k} and lambda = {lam} are not finite: R0 = {r0} is too small")
    return NUSolution(k=k, pi=pi, tau=(t0 + 2 * pi[0], t1 + 2 * pi[1]), lam=lam)
