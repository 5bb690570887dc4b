import cmath

import pytest

from htaspec import dataio
from htaspec.core import Variant


@pytest.fixture(scope="session")
def dataset():
    return {rec.label: rec for rec in dataio.load_dataset()}


@pytest.fixture(scope="session")
def ccbar_real(dataset):
    return dataset["ccbar"].system(Variant.REAL)


@pytest.fixture(scope="session")
def ccbar_complex(dataset):
    return dataset["ccbar"].system(Variant.COMPLEX)


@pytest.fixture(scope="session")
def bbbar_real(dataset):
    return dataset["bbbar"].system(Variant.REAL)


@pytest.fixture(scope="session")
def bcbar_real(dataset):
    return dataset["bcbar"].system(Variant.REAL)


def upper_gamma_quadrature(s: complex, z: complex, length: float = 400.0) -> complex:
    """Contour-quadrature oracle for Gamma(s, z): integrate t^(s-1) e^-t
    along the ray z + x, x in [0, length], with scipy's adaptive rule.

    Independent of the series/continued-fraction evaluation under test.
    """
    from scipy.integrate import quad

    s = complex(s)
    z = complex(z)

    def f(x, part):
        t = z + x
        val = cmath.exp((s - 1.0) * cmath.log(t) - t)
        return val.real if part == 0 else val.imag

    re, _ = quad(f, 0.0, length, args=(0,), limit=400, epsabs=1e-14, epsrel=1e-12)
    im, _ = quad(f, 0.0, length, args=(1,), limit=400, epsabs=1e-14, epsrel=1e-12)
    return complex(re, im)


def rodrigues_oracle(q, p, n: int) -> list:
    """Ascending coefficients of y_n = s^(-p) e^(-q/s) d^n/ds^n [s^(2n)
    e^(q/s) s^p] in mpmath, at the working precision in force, by n-fold
    differentiation: d/ds of e^(q/s) s^e is e^(q/s) (e s^(e-1) - q s^(e-2)).
    Independent of the package's closed form."""
    import mpmath

    q, p = mpmath.mpf(q), mpmath.mpf(p)
    terms = {2 * n: mpmath.mpf(1)}  # terms[j] = coefficient of s^(p + j)
    for _ in range(n):
        new = {}
        for j, coeff in terms.items():
            new[j - 1] = new.get(j - 1, 0) + coeff * (p + j)
            new[j - 2] = new.get(j - 2, 0) - coeff * q
        terms = new
    return [terms.get(j, 0) for j in range(n + 1)]


def parseval_b_oracle(alpha: float, beta: float, n: int, dps: int = 40) -> float:
    """B with 4 pi int |psi_n|^2 r^2 dr dp_r = 1 (real variant), by a 1-D
    mpmath quadrature of the Parseval form (4/3) B^2 int_0^inf t^3 Omega_n(t)^2 dt.

    The Rodrigues coefficients of y_n (rodrigues_oracle at q = -2u, p = -2c)
    are expanded in mpmath, so neither the NU pipeline nor any gamma function
    of the package is used.
    """
    import mpmath

    with mpmath.workdps(dps):
        u = mpmath.sqrt(-mpmath.mpf(alpha))
        c = mpmath.mpf(beta) / (2 * u)
        coeffs = rodrigues_oracle(-2 * u, -2 * c, n)

        def integrand(t):
            y = sum(coeff * t ** (-j) for j, coeff in enumerate(coeffs))
            return t ** 3 * (mpmath.exp(-u * t) * t ** (c - 3) * y) ** 2

        peak = max((c - 1) / u, 1 / u)
        total = mpmath.quad(integrand, [0, peak, 4 * peak, mpmath.inf])
        return float(1 / mpmath.sqrt(4 * total / 3))
