"""1D linear-confinement solution in phase space.

With only the linear potential term b*r, the phase-space equation collapses
onto the collective variable A = p_r^2/(2m) + b r and becomes the Airy
equation: psi(r, p_r) = c1 * Ai((A - E) / omega^(1/3)) with
omega = b^2/(8m), and the boundary condition psi(r=0) = 0 quantizes

    E_n = p_r^2/(2m) - z_{n+1} * omega^(1/3),

z_k the k-th negative zero of Ai.

Normalization.  c1 sets the integral of 4*pi * |c1 Ai|^2 r^2 over r >= 0
and real p_r to 1.  With w = omega^(-1/3), x0 = -E w and c = w/(2m), the
r-integral is exact after t = (p_r^2/2m + b r - E) w, and the p_r-integral
of (t - x0 - c p_r^2)_+^2 is (16/15) (t - x0)^(5/2) / sqrt(c), so

    c1 = sqrt(15 / (8 pi I(x0))) * (m b)^(1/3),
    I(x0) = int_{x0}^inf (t - x0)^(5/2) Ai(t)^2 dt,

with I from one smooth quadrature after t = x0 + s^2 (I = 2.07009... at the
ground state at rest).  The paper's printed constant,
sqrt(6 (b w)^3 Gamma^2(1/3) / (5 * 3^(1/3))), scales as sqrt(m b): this c1
is 0.0776877628 * (m b)^(-1/6) times it on every system, the trace of a
dropped p_r Jacobian 1/sqrt(c) and a wrong numeric constant, so it is not
kept.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple

import numpy as np

from . import special
from .core import Checked
from .errors import DomainError, NumericError

__all__ = [
    "Confinement1DSystem",
    "energy_1d",
    "psi_1d",
    "normalize_1d",
    "moment_identity_check",
    "time_factor",
]

# Ai(x)^2 < 1e-20 beyond this argument; tails are negligible at any
# tolerance used here.
_ARG_CUT = 15.0

# The integrands are smooth on finite intervals: 8 equal panels of 32-point Gauss-Legendre
# match mpmath to 4e-15 on the moments J_0..J_2 at x = 0, 1, 2.
_GL_PANELS, _GL_NODES = 8, 32
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)


def _gauss_legendre(a: float, b: float):
    """(t, w): the nodes on [a, b] and their weights, so int_a^b f(t) dt is f(t) @ w."""
    h = (b - a) / _GL_PANELS
    t = (a + h * (np.arange(_GL_PANELS)[:, None] + (_GL_X + 1.0) / 2.0)).ravel()
    return t, np.tile(_GL_W * (h / 2.0), _GL_PANELS)


class Confinement1DSystem(Checked, namedtuple("Confinement1DSystem", "m b")):
    """Reduced mass m (GeV) and linear coefficient b (GeV^2)."""

    __slots__ = ()

    def __new__(cls, m: float, b: float):
        if not (m > 0 and b > 0):
            raise DomainError(f"Confinement1DSystem needs m, b > 0, got m={m}, b={b}")
        return super().__new__(cls, m, b)

    @property
    def omega(self) -> float:
        return self.b ** 2 / (8.0 * self.m)


def energy_1d(sys: Confinement1DSystem, n: int, p_r: float = 0.0) -> float:
    """E_n = p_r^2/(2m) - z_{n+1} omega^(1/3); n = 0 is the ground state, and n
    is an integer >= 0: 1.5 raises TypeError, -1 DomainError."""
    if n < 0:
        raise DomainError(f"energy_1d: n must be >= 0, got {n}")
    z = special.airy_ai_zero(n + 1)
    return p_r ** 2 / (2.0 * sys.m) - z * sys.omega ** (1.0 / 3.0)


def psi_1d(sys: Confinement1DSystem, r: float, p_r: float, energy: float, c1: float | None = None) -> float:
    """c1 * Ai((p_r^2/2m + b r - E) * omega^(-1/3)) for r >= 0.

    c1 defaults to the closed-form ground-state constant of this system
    (normalize_1d).
    """
    if r < 0:
        raise DomainError(f"psi_1d: r must be >= 0, got {r}")
    if c1 is None:
        c1 = normalize_1d(sys, energy_1d(sys, 0, 0.0))
    w = sys.omega ** (-1.0 / 3.0)
    return c1 * special.airy_ai((p_r ** 2 / (2.0 * sys.m) + sys.b * r - energy) * w)


def _airy_r2_moment(x):
    """int_0^inf Ai(x + s)^2 s^2 ds, elementwise, from the primitives of t^k Ai(t)^2, k <= 2.

    Past x ~ 10 the terms cancel (5e-10 relative at x = 15 against mpmath,
    where the value is 2e-38); the absolute error stays below 1e-40.
    """
    ai, aip = special.airy_ai_pair(x)
    return (8.0 * x * x * aip * aip - 8.0 * x ** 3 * ai * ai + 4.0 * x * ai * aip + 3.0 * ai * ai) / 15.0


def _norm_integral(sys: Confinement1DSystem, e0: float, arg_cut: float) -> float:
    """integral over r >= 0, p_r real of Ai(...)^2 r^2: r exactly, p_r up to Airy argument arg_cut at r = 0.

    The independent oracle for normalize_1d's closed form (check and tests).
    """
    m, w = sys.m, sys.omega ** (-1.0 / 3.0)
    p_max = math.sqrt(max(2.0 * m * (arg_cut / w + e0), 0.0)) + 1e-12
    p, wts = _gauss_legendre(0.0, p_max)
    val = float(_airy_r2_moment((p * p / (2.0 * m) - e0) * w) / (sys.b * w) ** 3 @ wts)
    if not math.isfinite(val) or val <= 0:
        raise NumericError(f"normalization quadrature failed (value {val})")
    return 2.0 * val  # even in p_r


def _airy_half_moment(x0: float) -> float:
    """I(x0) = int_{x0}^inf (t - x0)^(5/2) Ai(t)^2 dt = int_0^inf 2 s^6 Ai(x0 + s^2)^2 ds,
    cut where the Airy argument passes max(15, x0 + 1) + 25, as in _airy_moment."""
    s, w = _gauss_legendre(0.0, math.sqrt(max(_ARG_CUT - x0, 1.0) + 25.0))
    return float(2.0 * s ** 6 * special.airy_ai(x0 + s * s) ** 2 @ w)


def normalize_1d(sys: Confinement1DSystem, e0: float) -> float:
    """c1 at energy e0 from 4*pi * c1^2 * int Ai^2 r^2 dr dp_r = 1, in closed form.

    The angular variables are already separated, so they contribute the
    bare 4*pi; the module docstring derives the rest.
    """
    x0 = -e0 * sys.omega ** (-1.0 / 3.0)
    i_x0 = _airy_half_moment(x0)
    if not math.isfinite(i_x0) or i_x0 <= 0:
        raise NumericError(f"normalization quadrature failed (I(x0) = {i_x0} at x0 = {x0})")
    return math.sqrt(15.0 / (8.0 * math.pi * i_x0)) * (sys.m * sys.b) ** (1.0 / 3.0)


def _airy_moment(n: int, x: float) -> tuple[float, float, float]:
    """(J_n(x), J_{n-1}(x), J''_{n-1}(x)) from one Airy pass, J_n(x) = int_0^inf t^n Ai^2(t + x) dt
    cut at t = max(15 - x, 1) + 25, where Ai^2(t + x) is below 1e-140; J'' is exact
    under the integral by (Ai^2)'' = 2 Ai'^2 + 2 (t+x) Ai^2 (the Airy equation)."""
    t, w = _gauss_legendre(0.0, max(_ARG_CUT - x, 1.0) + 25.0)
    ai, aip = special.airy_ai_pair(t + x)
    ai2, t_prev = ai ** 2, t ** (n - 1)
    return float(t ** n * ai2 @ w), float(t_prev * ai2 @ w), float(t_prev * 2.0 * (aip ** 2 + (t + x) * ai2) @ w)


def moment_identity_check(x: float, n: int) -> float:
    """Relative residual of the Airy moment recursion

        J_n(x) = n/(2n+1) * [ (1/2) d^2/dx^2 - 2x ] J_{n-1}(x)

    (_airy_moment); the exact J'' keeps it at quadrature accuracy, and the
    tests cross-check it against finite differences in x.  n is an integer
    >= 1: 1.5 raises TypeError, 0 DomainError.
    """
    n = operator.index(n)
    if n < 1:
        raise DomainError(f"moment_identity_check: n must be >= 1, got {n}")
    lhs, j_prev, d2 = _airy_moment(n, x)
    rhs = n / (2.0 * n + 1.0) * (0.5 * d2 - 2.0 * x * j_prev)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def time_factor(sys: Confinement1DSystem, r: float, p: float, t: float, c1: float = 1.0) -> complex:
    """Time-domain factor of the 1D confinement wave function.

    The exponent is purely imaginary for real inputs, so the modulus is
    independent of t.  c1 scales the overall constant (default 1).
    """
    m, b = sys.m, sys.b
    pref = -c1 / (2.0 * math.pi) * (m / b ** 2) ** (1.0 / 9.0)
    phase = (
        -p * p * t / (4.0 * math.pi * m)
        - b * r * t / (2.0 * math.pi)
        - t ** 3 * (m / b ** 2) ** (1.0 / 3.0) / (24.0 * math.pi ** 3)
    )
    return pref * cmath.exp(1j * phase)
