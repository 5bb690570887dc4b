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
