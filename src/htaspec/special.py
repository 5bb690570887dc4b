"""Special-function surface: real Airy functions and their zeros, complex
gamma, complex upper incomplete gamma.

Airy functions and the Airy zeros are thin wrappers over ``scipy.special``
(imported on first use; only ``check`` reaches them); this module adds
argument validation, the no-NaN/overflow guarantee of the public API (scipy's
nan for an overflowing Bi, or for |x| beyond about 1.05e6, raises
OverflowError) and a Newton polish of the Airy zeros.  The Airy functions
take a scalar (giving a float) or an array (giving an array, from one scipy
call, raising if any element would).  Complex gamma and the upper incomplete
gamma Gamma(s, z) on Re z > 0 are implemented here in numpy on one
log-Gamma, so ``grid`` imports numpy only.  Gamma(s, z) works over broadcast
arrays, and a scalar call is a one-element array.
"""

from __future__ import annotations

import cmath
import math
from functools import cache

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "airy_ai",
    "airy_ai_prime",
    "airy_bi",
    "airy_bi_prime",
    "airy_ai_zero",
    "gamma_complex",
    "upper_incomplete_gamma",
]


def _airy(x, name, i):
    from scipy.special import airy

    x = np.asarray(x, float)
    if not np.isfinite(x).all():
        raise DomainError(f"{name}: argument must be finite, got {float(x[~np.isfinite(x)][0])}")
    v = airy(x)[i]
    if not np.isfinite(v).all():
        # scipy's nan stands for both causes; it cannot tell them apart
        bad = float(x[~np.isfinite(v)][0])
        raise OverflowError(f"{name}: no finite result: overflow, or |x| beyond scipy's range (about 1.05e6), at x={bad}")
    return float(v) if x.ndim == 0 else v


def airy_ai(x):
    """Airy function Ai(x), real argument."""
    return _airy(x, "airy_ai", 0)


def airy_ai_prime(x):
    """Derivative Ai'(x), real argument."""
    return _airy(x, "airy_ai_prime", 1)


def airy_bi(x):
    """Airy function Bi(x), real argument.  Grows like exp((2/3)x^{3/2})."""
    return _airy(x, "airy_bi", 2)


def airy_bi_prime(x):
    """Derivative Bi'(x), real argument."""
    return _airy(x, "airy_bi_prime", 3)


@cache
def airy_ai_zero(k: int) -> float:
    """k-th negative zero z_k of Ai, k = 1, 2, ... (z_1 = -2.33810741...).

    Zeros are strictly decreasing in k.  scipy's ``ai_zeros`` value, polished
    by two Newton steps on Ai/Ai': against mpmath the error is <= 4e-15 for
    k = 1..20 (the unpolished value is 8.1e-12 off at k = 5).
    """
    from scipy.special import ai_zeros, airy

    k = int(k)
    if k < 1:
        raise DomainError(f"airy_ai_zero: index must be >= 1, got {k}")
    z = float(ai_zeros(k)[0][-1])
    for _ in range(2):
        ai, aip, _, _ = airy(z)
        z -= float(ai / aip)
    residual = float(airy(z)[0])
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
#     Barnett, J. Comput. Phys. 64, 1986), once |z| clears 1.5 and Re s + 1;
#   * below that, the Kummer series for the lower function at an order
#     lifted to Re s >= 1, then the downward order recurrence
#     Gamma(s, z) = (Gamma(s+1, z) - z^s e^-z) / s;
#   * orders within _POLE_RADIUS of a non-positive integer -n, where that
#     recurrence would divide by ~0: Gautschi's small-order form (ACM TOMS 5,
#     1979) of Gamma(e, z), e = s + n, then n recurrence steps with divisors
#     e - 1, ..., e - n (the exponential-integral ladder when e = 0).
# Each iterative route runs only on its unconverged elements and stops each
# element by the scalar rule.

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


def _exp(x):
    e = np.exp(x)
    if not np.isfinite(e).all():
        raise NumericError("upper_incomplete_gamma: exponential overflowed")
    return e


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
    g = np.exp(_loggamma(s))
    if not np.isfinite(g).all():
        raise NumericError("upper_incomplete_gamma: Gamma(s) overflowed")
    return g


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


def _iterate(step, state, limit, what):
    """Advance ``(done, value, state) = step(k, state)`` for k = 1, 2, ...
    on the elements not yet done, dropping each from the state once done.

    ``state[0]``, ``state[1]`` are the elements' s and z.  An element's result
    is its value at the step that marks it done.  Elements still running
    after ``limit - 1`` steps raise NumericError.
    """
    out = np.empty(len(state[0]), complex)
    live = np.arange(len(out))
    for k in range(1, limit):
        done, value, state = step(k, state)
        if done.any():
            out[live[done]] = value[done]
            keep = ~done
            live, value, state = live[keep], value[keep], tuple(a[keep] for a in state)
            if not live.size:
                return out
    s, z = complex(state[0][0]), complex(state[1][0])
    raise NumericError(f"upper_incomplete_gamma: {what} stalled at s={s}, z={z}")


def _continued_fraction(s, z):
    def step(i, st):
        s, z, b, c, d, h = st
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d[abs(d) < _TINY] = _TINY
        c = b + an / c
        c[abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h = h * delta
        return abs(delta - 1.0) < 1e-16, h, (s, z, b, c, d, h)

    b = z + 1.0 - s
    d = np.where(b != 0, 1.0 / b, 1.0 / _TINY)
    h = _iterate(step, (s, z, b, np.full_like(b, 1.0 / _TINY), d, d), 700, "continued fraction")
    return _exp(-z + s * np.log(z)) * h


def _lower_series(s, z):
    # Kummer series for the lower function, Re s >= 1
    def step(n, st):
        s, z, term, total = st
        term = term * (z / (s + n))
        total = total + term
        return abs(term) < 1e-17 * abs(total), total, (s, z, term, total)

    total = _iterate(step, (s, z, 1.0 / s, 1.0 / s), 700, "series")
    return _exp(-z + s * np.log(z)) * total


def _recur_down(a, z, val, steps):
    # Gamma(a - 1, z) = (Gamma(a, z) - z^(a-1) e^-z) / (a - 1), `steps` times
    lz = np.log(z)
    for j in range(int(steps.max(initial=0))):
        m = steps > j
        a = np.where(m, a - 1.0, a)
        val = np.where(m, (val - _exp(-z + a * lz)) / a, val)
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

    tail = _iterate(step, (e, z, np.ones_like(e), np.zeros_like(e)), 700, "exponential-integral series")
    p = np.polyval(_lngamma1p_poly(), e)
    val = p * _exprel(e * p) - lz * _exprel(e * lz) - _exp(e * lz) * tail
    return _recur_down(e, z, val, n.astype(int))


def _upper_gamma(s, z):
    fraction = abs(z) >= np.maximum(1.5, s.real + 1.0)
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
    complex array of the broadcast shape.  A non-finite argument or
    Re z <= 0 (z = 0 included) raises DomainError, a stalled iteration or an
    overflowing intermediate NumericError, and a non-finite result
    OverflowError; an array call raises if any element would.

    Against mpmath at 30 digits, over orders c - 2 - j and 2 - g of the
    bundled mesons with r in [1e-9, 1.5 r_max] and |p_r| up to about 1e6,
    the worst relative errors measured are 1.7e-13 on the continued
    fraction, 1.4e-13 on the near-pole route and 6.4e-14 on the series.
    Orders near the poles, s = -n + eps e^(i theta) with n = 0..4 and
    eps in [1e-300, 1e-3] at |z| <= 1.4, stay within 6e-15.
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
    if not np.isfinite(out).all():
        raise OverflowError("upper_incomplete_gamma: result overflowed double range")
    return complex(out[0]) if scalar else out.reshape(shape)
