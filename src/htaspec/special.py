"""Special-function surface, in numpy: real Airy functions and their zeros,
complex gamma, complex upper incomplete gamma, and generalized
Gauss-Laguerre rules (gauss_laguerre, which normalize_B also uses).

Ai (airy_ai) and the pair (Ai, Ai') (airy_ai_pair) map a scalar to a float
and an array to an array, in one pass of the Airy lane that raises if any
element would; against mpmath their error is at most 1.2 times
scipy.special.airy's on seeded samples.  The lane's Gauss-Laguerre nodes
are built on the first Airy call, so ``grid`` never pays for them.  Complex gamma and Gamma(s, z) on Re z > 0 share one log-Gamma;
Gamma(s, z) works over broadcast arrays, and a scalar call is a one-element array.
Gamma(s, z) raises only for its arguments (DomainError); an element with no
finite value is returned inf or NaN, and its callers decide what that means.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import cache

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "airy_ai",
    "airy_ai_pair",
    "airy_ai_zero",
    "gauss_laguerre",
    "gamma_complex",
    "upper_incomplete_gamma",
]

# Ai and Ai' on one lane (Gil, Segura & Temme, ACM TOMS 28, 2002, Algorithm 819):
#   * -2.5 <= x <= 1.5: the Maclaurin series (down to -4 its alternating terms reach
#     20 times the envelope, and their cancellation cost 7x scipy's error);
#   * x > 1.5: K_nu's Laplace integral (DLMF 10.32.8) at zeta = (2/3) x^(3/2) gives
#     Ai = e^-zeta S_{-1/6} / (2 sqrt(pi) x^(1/4)), Ai' = -x^(1/4) e^-zeta S_{1/6} / (2 sqrt(pi)),
#     S_a = int_0^inf (1 + t/(2 zeta))^a t^a e^-t dt / Gamma(1 + a) by 48-node Gauss-Laguerre;
#   * x < -2.5: the same sums at zeta e^(-i pi/2), by Ai(-z) = 2 Re[e^(-i pi/3) Ai(z e^(-i pi/3))]
#     (DLMF 9.2.11).
# Past |x| = 1e6 the phase zeta of Ai(-|x|) has about 1e-7 rad of rounding: the lane raises.
_AIRY_XMAX = 1e6
_AI_0, _AIP_0 = 0.35502805388781723926, -0.25881940379280679840
_SERIES_TERMS = 13
_LAGUERRE_NODES = 48
_INV_2_SQRT_PI = 0.5 / math.sqrt(math.pi)


def gauss_laguerre(a, nodes):
    """Nodes and unit-sum weights of the generalized Gauss-Laguerre rule for
    t^a e^-t, a > -1, by Golub-Welsch; exact on polynomials of degree below
    2 nodes."""
    i = np.arange(1.0, nodes)
    jacobi = np.diag(2.0 * np.arange(nodes) + a + 1.0) + np.diag(np.sqrt(i * (i + a)), -1)
    t, v = np.linalg.eigh(jacobi)
    return t, v[0] ** 2 / (v[0] ** 2).sum()


@cache
def _laguerre(a):
    return gauss_laguerre(a, _LAGUERRE_NODES)


def _maclaurin(x):
    # rows f, g, f', g' of Ai = Ai(0) f + Ai'(0) g, term by term from
    # f_0 = 1, g_0 = x, f'_1 = x^2/2, g'_0 = 1; term k over term k-1 is x^3 / d_k
    x3, term = x**3, np.array([np.ones_like(x), x, 0.5 * x * x, np.ones_like(x)])
    total = term.copy()
    for k in range(3, 3 * _SERIES_TERMS + 1, 3):
        term = term * x3 / np.array([[(k - 1) * k], [k * (k + 1)], [k * (k + 2)], [k * (k - 2)]])
        total += term
    return _AI_0 * total[0] + _AIP_0 * total[1], _AI_0 * total[2] + _AIP_0 * total[3]


def _laguerre_sum(a, y, osc):
    """Row sums (each row rounded alike, whatever the rows beside it) of w_i (1 + t_i y)^a over
    the t^a e^-t rule; where osc, of (1 + i t_i y)^a, as |.|^a e^(i a arg): only real powers."""
    t, w = _laguerre(a)
    v, osc = y[:, None] * t, osc[:, None]
    m = np.where(osc, np.sqrt(1.0 + v * v), 1.0 + v) ** a * w
    phase = np.where(osc, a * np.arctan(v), 0.0)
    return (m * np.cos(phase)).sum(axis=1) + 1j * (m * np.sin(phase)).sum(axis=1)


def _airy_lane(x):
    """(Ai(x), Ai'(x)) of a 1-D float array with every |x| <= _AIRY_XMAX."""
    ai, aip = np.empty_like(x), np.empty_like(x)
    near = (x >= -2.5) & (x <= 1.5)
    ai[near], aip[near] = _maclaurin(x[near])
    far = ~near
    if far.any():
        z, neg = abs(x[far]), x[far] < 0
        zeta, q = z * np.sqrt(z) / 1.5, np.sqrt(np.sqrt(z))
        s1, s2 = _laguerre_sum(-1.0 / 6.0, 0.5 / zeta, neg), _laguerre_sum(1.0 / 6.0, 0.5 / zeta, neg)
        # for x < 0, DLMF 9.2.11's 2 e^(-i pi/3) e^(i zeta) times the e^(i pi/12)
        # of (z e^(-i pi/3))^(-1/4) is sqrt(2) (1 - i) e^(i zeta)
        wave = np.where(neg, math.sqrt(2.0) * np.exp(1j * zeta), np.exp(-zeta))
        ai[far] = (wave * np.where(neg, 1.0 - 1j, 1.0) * s1).real * _INV_2_SQRT_PI / q
        aip[far] = -(wave * np.where(neg, 1.0 + 1j, 1.0) * s2).real * _INV_2_SQRT_PI * q
    return ai, aip


def _airy(x, name):
    # (Ai(x), Ai'(x)) from one lane pass: floats for a scalar, arrays for an array
    x = np.asarray(x, float)
    if not np.isfinite(x).all():
        raise DomainError(f"{name}: argument must be finite, got {float(x[~np.isfinite(x)][0])}")
    far = abs(x) > _AIRY_XMAX
    if far.any():
        raise OverflowError(f"{name}: |x| must be <= {_AIRY_XMAX:g}, where the phase (2/3)|x|^(3/2) keeps 7 digits; got x={float(x[far][0])}")
    ai, aip = (v.reshape(x.shape) for v in _airy_lane(x.ravel()))
    return (float(ai), float(aip)) if x.ndim == 0 else (ai, aip)


def airy_ai(x):
    """Airy function Ai(x), real argument."""
    return _airy(x, "airy_ai")[0]


def airy_ai_pair(x):
    """(Ai(x), Ai'(x)), real argument, from one pass of the Airy lane."""
    return _airy(x, "airy_ai_pair")


@cache
def airy_ai_zero(k: int) -> float:
    """k-th negative zero z_k of Ai, k = 1, 2, ... (z_1 = -2.33810741...);
    k is an integer: 1.5 raises TypeError, 0 DomainError.

    Zeros are strictly decreasing in k.  The asymptotic expansion (DLMF
    9.9.6) through t^-8, polished by four Newton steps on Ai/Ai'.
    """
    k = operator.index(k)
    if k < 1:
        raise DomainError(f"airy_ai_zero: index must be >= 1, got {k}")
    t = 3.0 * math.pi * (4 * k - 1) / 8.0
    z = -(t ** (2.0 / 3.0)) * np.polyval([-108056875 / 6967296, 77125 / 82944, -5 / 36, 5 / 48, 1.0], t**-2.0)
    for _ in range(4):
        ai, aip = _airy_lane(np.array([z]))
        z = float(z - ai[0] / aip[0])
    residual = airy_ai(z)
    if abs(residual) > 1e-9:
        raise NumericError(f"airy_ai_zero: refinement failed for k={k} (residual {residual:.3e})")
    return z


def gamma_complex(z: complex) -> complex:
    """Gamma(z) for complex z; non-positive integers are poles (DomainError)."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"gamma_complex: argument must be finite, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real.is_integer():
        raise DomainError(f"gamma_complex: pole at z={z}")
    with np.errstate(all="ignore"):
        if z.real >= 0.5:
            v = np.exp(_loggamma(np.asarray(z)))
        else:
            # reflection, Gamma(z) = pi / (sin(pi z) Gamma(1 - z)), in logs so that
            # neither factor overflows at large |Im z|: sin(pi z) = (-1)^n sin(w),
            # w = pi (z - n) with z - n exact near the poles, and
            # sin(w) = (-i t / 2) e^(-i t w) expm1(2i t w), t = sign Im z
            n = round(z.real)
            t, w = math.copysign(1.0, z.imag), math.pi * (z - n)
            log_sin = cmath.log(-0.5j * t) - 1j * t * w + np.log(np.expm1(2j * t * w))
            v = (-1) ** n * np.exp(math.log(math.pi) - log_sin - _loggamma(np.asarray(1.0 - z)))
    if z.imag == 0.0:
        v = v.real  # real on the real axis, without the rounding of the phases above
    if not np.isfinite(v):
        raise OverflowError("gamma_complex: result overflowed double range")
    return complex(v)


# Gamma(s, z) on Re z > 0, per element, by route:
#   * Legendre's continued fraction, by the modified Lentz scheme (Thompson &
#     Barnett, J. Comput. Phys. 64, 1986), once |z| clears 1.5 and Re s + 1,
#     unless Im s shares Im z's sign and |Im s| >= 1.1 |z|: a seeded mpmath
#     sweep (|z| up to 1e3) found the fraction wrong there from about
#     |Im s| = 1.2 |z| on, and the series right from |Im s| = |z| on;
#   * otherwise the Kummer series for the lower function at an order
#     lifted to Re s >= 1, then the downward order recurrence
#     Gamma(s, z) = (Gamma(s+1, z) - z^s e^-z) / s;
#   * orders within _POLE_RADIUS of a non-positive integer -n, where that
#     recurrence would divide by ~0: Gautschi's small-order form (ACM TOMS 5,
#     1979) of Gamma(e, z), e = s + n, then n recurrence steps with divisors
#     e - 1, ..., e - n (the exponential-integral ladder when e = 0).
# Each iterative route runs only on its unconverged elements and stops each
# element by the scalar rule.  No route raises: an element whose prefactor
# z^s e^-z or Gamma(s) leaves double range comes back inf or NaN, and one
# still iterating at the step cap NaN, beside its neighbours' values.

_TINY = 1e-300
_POLE_RADIUS = 0.5
_EULER_GAMMA = 0.57721566490153286061
# (e^x - 1)/x = sum_k x^k / (k+1)!, highest power first; 18 terms hold
# double precision for |x| < 0.5
_EXPREL_TAYLOR = [1.0 / math.factorial(k + 1) for k in range(17, -1, -1)]
# B_2, B_4, ..., B_16, and Stirling's coefficients B_2k / (2k (2k-1)) for
# powers of 1/s^2, highest first
_BERNOULLI = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510]
_STIRLING = [b / ((2 * k) * (2 * k - 1)) for k, b in reversed(list(enumerate(_BERNOULLI, 1)))]
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _loggamma(s):
    # log Gamma(s) up to a multiple of 2 pi i, off the poles: Stirling's series
    # through B_16 at t = s + m, m the least shift with Re t >= 10 (the first
    # term left out is below 2e-18 there), less log s (s+1) ... (s+m-1)
    m = np.maximum(np.ceil(10.0 - s.real), 0.0)
    shift = np.ones_like(s)
    for k in range(int(m.max(initial=0))):
        shift = np.where(k < m, shift * (s + k), shift)
    t = s + m
    return (t - 0.5) * np.log(t) - t + _LOG_SQRT_2PI + np.polyval(_STIRLING, t**-2) / t - np.log(shift)


def _gamma(s):
    return np.exp(_loggamma(s))


@cache
def _lngamma1p_poly():
    # ln Gamma(1 + e) = e P(e), P(e) = -gamma_E + sum_{k>=2} (-1)^k zeta(k)
    # e^(k-1) / k; 60 terms hold double precision for |e| <= _POLE_RADIUS.
    # Highest power first.  zeta(k) by Euler-Maclaurin: the Bernoulli tail at
    # N = 10, then the terms j^-k, j = 9 .. 1, smallest first (within 1 ulp)
    k = np.arange(61.0, 1.0, -1.0)
    zeta = 10.0 ** (1.0 - k) / (k - 1.0) + 0.5 * 10.0**-k
    rising = k.copy()  # k (k+1) ... (k+2i-2)
    for i, b in enumerate(_BERNOULLI, 1):
        zeta += b / math.factorial(2 * i) * rising * 10.0 ** (1.0 - k - 2 * i)
        rising *= (k + 2 * i - 1) * (k + 2 * i)
    for j in range(9, 0, -1):
        zeta += float(j) ** -k
    return np.append((-1.0) ** k * zeta / k, -_EULER_GAMMA)


def _exprel(x):
    return np.where(abs(x) < 0.5, np.polyval(_EXPREL_TAYLOR, x), (np.exp(x) - 1.0) / x)


def _iterate(step, state, limit):
    """Advance ``(done, value, state) = step(k, state)`` for k = 1, 2, ...
    on the elements not yet done, dropping each from the state once done.

    An element's result is its value at the step that marks it done;
    elements still running after ``limit - 1`` steps are left NaN.
    """
    out = np.full(len(state[0]), complex(math.nan, math.nan))
    live = np.arange(len(out))
    for k in range(1, limit):
        done, value, state = step(k, state)
        if done.any():
            out[live[done]] = value[done]
            keep = ~done
            live, value, state = live[keep], value[keep], tuple(a[keep] for a in state)
            if not live.size:
                break
    return out


def _continued_fraction(s, z):
    def step(i, st):
        s, b, c, d, h = st
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d[abs(d) < _TINY] = _TINY
        c = b + an / c
        c[abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h = h * delta
        return abs(delta - 1.0) < 1e-16, h, (s, b, c, d, h)

    b = z + 1.0 - s
    d = np.where(b != 0, 1.0 / b, 1.0 / _TINY)
    h = _iterate(step, (s, b, np.full_like(b, 1.0 / _TINY), d, d), 700)
    return np.exp(-z + s * np.log(z)) * h


def _lower_series(s, z):
    # Kummer series for the lower function, Re s >= 1
    def step(n, st):
        s, z, term, total = st
        term = term * (z / (s + n))
        total = total + term
        return abs(term) < 1e-17 * abs(total), total, (s, z, term, total)

    total = _iterate(step, (s, z, 1.0 / s, 1.0 / s), 700)
    return np.exp(-z + s * np.log(z)) * total


def _recur_down(a, z, val, steps):
    # Gamma(a - 1, z) = (Gamma(a, z) - z^(a-1) e^-z) / (a - 1), `steps` times
    lz = np.log(z)
    for j in range(int(steps.max(initial=0))):
        m = steps > j
        a = np.where(m, a - 1.0, a)
        val = np.where(m, (val - np.exp(-z + a * lz)) / a, val)
    return val


def _series(s, z):
    # lift the order until the Kummer series is pole-free
    s0 = s
    lifts = np.zeros(s.shape, int)
    while (low := s0.real < 1.0).any():
        s0 = np.where(low, s0 + 1.0, s0)
        lifts += low
    return _recur_down(s0, z, _gamma(s0) - _lower_series(s0, z), lifts)


def _near_pole(s, z):
    n = -np.round(s.real)
    e = s + n
    lz = np.log(z)

    # Gamma(e, z) = [Gamma(1+e) - 1]/e - (z^e - 1)/e - z^e sum_{k>=1} (-z)^k / (k! (e+k)),
    # each bracket free of cancellation as e -> 0
    def step(k, st):
        e, z, t, total = st
        t = t * (-z / k)
        term = t / (e + k)
        total = total + term
        return abs(term) < 1e-17 * abs(total), total, (e, z, t, total)

    tail = _iterate(step, (e, z, np.ones_like(e), np.zeros_like(e)), 700)
    p = np.polyval(_lngamma1p_poly(), e)
    val = p * _exprel(e * p) - lz * _exprel(e * lz) - np.exp(e * lz) * tail
    return _recur_down(e, z, val, n.astype(int))


def _upper_gamma(s, z):
    az = abs(z)
    fraction = (az >= np.maximum(1.5, s.real + 1.0)) & ((s.imag * z.imag <= 0) | (abs(s.imag) < 1.1 * az))
    pole = ~fraction & (s.real <= 0.5) & (abs(s - np.round(s.real)) <= _POLE_RADIUS)
    out = np.empty(s.shape, complex)
    for mask, route in (
        (fraction, _continued_fraction),
        (~(fraction | pole), _series),
        (pole, _near_pole),
    ):
        if mask.any():
            out[mask] = route(s[mask], z[mask])
    return out


def upper_incomplete_gamma(s, z):
    """Upper incomplete gamma Gamma(s, z) on the right half-plane Re z > 0.

    This is the domain the wave functions reach: their arguments are
    r (u - 2i p_r) and r (u - 4i p_r) with r > 0 and u > 0.  s and z
    broadcast against each other: scalars give a Python complex, arrays a
    complex array of the broadcast shape.  Only the arguments raise: a
    non-finite s or z, or Re z <= 0 (z = 0 included), is a DomainError.  An
    element with no finite value (an intermediate or the result past double
    range, or an iteration that stalls) comes back inf or NaN, and the
    other elements of the call keep their values.

    Against mpmath at 30 digits, over orders c - 2 - j and 2 - g of the
    bundled mesons with r in [1e-9, 1.5 r_max] and |p_r| up to about 1e6,
    the worst relative errors measured are 1.7e-13 on the continued
    fraction, 1.4e-13 on the near-pole route and 6.4e-14 on the series.
    Orders near the poles, s = -n + eps e^(i theta) with n = 0..4 and
    eps in [1e-300, 1e-3] at |z| <= 1.4, stay within 6e-15.  On 4,500
    seeded points with Re s in [-8, 12], |Im s| <= 60, |z| in [1.5, 100]
    and |arg z| < 1.55, Im s and Im z of either sign, the worst is 6.5e-14.
    """
    scalar = np.ndim(s) == 0 and np.ndim(z) == 0
    s, z = np.broadcast_arrays(np.asarray(s, complex), np.asarray(z, complex))
    shape = s.shape
    s, z = s.ravel(), z.ravel()
    for name, v in (("s", s), ("z", z)):
        bad = ~np.isfinite(v)
        if bad.any():
            raise DomainError(f"upper_incomplete_gamma: {name} must be finite, got {complex(v[bad][0])}")
    left = z.real <= 0
    if left.any():
        raise DomainError(f"upper_incomplete_gamma: Re z must be > 0, got z={complex(z[left][0])}")
    with np.errstate(all="ignore"):
        out = _upper_gamma(s, z)
    return complex(out[0]) if scalar else out.reshape(shape)
