"""Half-transform-ansatz core: Cornell-potential phase-space constants,
closed-form energy levels, mass spectra, parameter scans, and Checked, the
base that makes _replace and _make check a value type as its __new__ does.

Conventions (natural units, hbar = 1, energies in GeV):

* The Cornell potential V(r) = a/r + b r reads a x + b/x in x = 1/r.  Its
  reciprocal term is expanded to second order about the characteristic
  point x = delta = 1/A0, positive as x = 1/r is (CornellParams' rule),
  giving the quadratic of cornell_quadratic:

      V ~ C0 + C1 x + C2 x^2,  (C0, C1, C2) = (3b/delta, a - 3b/delta^2, b/delta^3).

  Every constant below is read from this one map.  Its vertex C1 = 0
  (a = 3b/delta^2) is the flat potential: every level of both variants
  collapses onto E = C0.

* Two variants of the spectrum exist.  The *real* variant ("real7") first
  strips the phase factor exp(-2 i p_r r) from the wave function, which
  removes every momentum and imaginary term and yields real eigenvalues.
  The *complex* variant ("complex5") keeps the momentum coupling; its
  eigenvalues are complex for p_r != 0 and real at p_r = 0.

* Spectroscopic labels map to the polynomial index as kS/kP/kD ->
  (n = k - 1, l = 0/1/2): n = 0 is the ground state.  The closed-form level
  formulas are written in the 1-based radial number nu = n + 1; that is the
  indexing under which they reproduce the published spectra.

* Real-variant constants at a level energy E (real_constants):

      alpha = 8m(E - C0),  beta = -8m C1,  gamma = -4l(l+1) - 8m C2.

  With u = sqrt(-alpha) (alpha < 0 for bound states), so E = C0 - u^2/(8m),
  the level condition is

      beta^2 + 2 |beta| u (1 - 2 nu) + 4 u^2 (gamma - 6 + nu(nu - 3)) = 0.

  The magnitude |beta| is not a typo: the published spectra follow the
  principal-square-root pi branch, whose radical term is +|beta| x/(2u) - u
  regardless of beta's sign, paired with the index rule
  -nu(nu - 1) + nu tau' (the tau' term enters with the opposite sign to the
  textbook rule of nu.lambda_n).  This makes the spectrum an even function
  of beta, i.e. of C1: symmetric in a about the vertex (each level is
  reached from a and from a - 2 C1).  The pairing is kept exactly because it
  is the quantization convention behind the fitted spectra;
  energy_real_via_nu reproduces it through the NU machinery, root-solving
  nu.solve's lambda in u at alpha = -u^2, down to the vertex.  The
  wave functions (waves module) use the minus branch instead, whose phi
  decays at large separation; only that branch is normalizable.  For
  beta >= 0 the condition is the textbook NU one at gamma_n = gamma - 2 nu,
  so a level and its wave function solve the kernel equation at gamma_n
  (waves.half_transformed_kernel), which moves with n.

* Complex-variant constants are the real ones mirrored, at momentum p_r:

      alpha_c = 4 p_r^2 - alpha,  beta_c = -beta - 8 i p_r,  gamma_c = -gamma.

  Its quantization is the textbook pairing: with g = 4 i p_r + beta_c and
  v = sqrt(alpha_c - 4 p_r^2) = sqrt(-alpha),

      g^2 + 2 g v (2 nu + 1) + 4 v^2 (nu(nu + 1) - 2 - gamma_c) = 0,

  and again E = C0 - v^2/(8m).

* level_rule is the one place that picks which root of a level condition is
  a state's level (at p_r = 0); every mass, scan, fit and grid energy reads
  it, through level for one state.  A level is finite, and a complex5 level
  exactly real; any other root raises NonPhysicalParameters.
  rest_energy_bracket and energy_real_via_nu re-derive it, as checks.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from collections import namedtuple

from .errors import DomainError, NonPhysicalParameters, NumericError

__all__ = [
    "Variant",
    "CornellParams",
    "MesonSystem",
    "QuantumState",
    "cornell_quadratic",
    "real_constants",
    "level_rule",
    "level",
    "energy_real",
    "energy_real_via_nu",
    "energy_complex",
    "rest_energy_bracket",
    "mass_spectrum",
    "mass_spectrum_detailed",
    "parameter_scan",
    "ScanPoint",
]


class Variant(enum.Enum):
    """Spectrum variant; values are the external interface tokens."""

    REAL = "real7"
    COMPLEX = "complex5"

    @classmethod
    def parse(cls, token) -> "Variant":
        if isinstance(token, cls):
            return token
        for v in cls:
            if v.value == token:
                return v
        raise DomainError(f"unknown variant {token!r}; expected 'real7' or 'complex5'")


class Checked:
    """First base of each value type whose __new__ checks its fields:
    namedtuple's _make, which _replace calls, skips __new__; this one does not."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))


class CornellParams(Checked, namedtuple("CornellParams", "a b delta")):
    """Cornell potential strengths and the expansion point delta = 1/A0: all
    finite, and delta > 0 as x = 1/r is, the one place that rule is checked."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, delta: float):
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(delta)):
            name, v = next((k, v) for k, v in zip(cls._fields, (a, b, delta)) if not math.isfinite(v))
            raise DomainError(f"CornellParams.{name} must be finite, got {v}")
        if not delta > 0:
            raise DomainError(f"CornellParams.delta must be positive, got {delta}")
        return tuple.__new__(cls, (a, b, delta))


class MesonSystem(Checked, namedtuple("MesonSystem", "m_q m_qbar params label")):
    """Constituent quark masses plus potential parameters.

    The reduced mass is always derived from the constituents, never stored,
    so it cannot drift out of sync with the mass formula.
    """

    __slots__ = ()

    def __new__(cls, m_q: float, m_qbar: float, params: CornellParams, label: str = ""):
        if not (m_q > 0 and m_qbar > 0):
            raise DomainError(f"quark masses must be positive, got {m_q}, {m_qbar}")
        return tuple.__new__(cls, (m_q, m_qbar, params, label))

    @property
    def reduced_mass(self) -> float:
        return self.m_q * self.m_qbar / (self.m_q + self.m_qbar)

    @property
    def mass_sum(self) -> float:
        return self.m_q + self.m_qbar


_L_OF_LETTER = {"S": 0, "P": 1, "D": 2}
_LETTER_OF_L = {v: k for k, v in _L_OF_LETTER.items()}


class QuantumState(Checked, namedtuple("QuantumState", "n l")):
    """Integer polynomial index n (n = 0 is the ground state) and orbital number l."""

    __slots__ = ()

    def __new__(cls, n: int, l: int = 0):
        n, l = operator.index(n), operator.index(l)
        if not (0 <= n <= 10):
            raise DomainError(f"QuantumState.n out of supported range [0, 10]: {n}")
        if not (0 <= l <= 5):
            raise DomainError(f"QuantumState.l out of supported range [0, 5]: {l}")
        return super().__new__(cls, n, l)

    @classmethod
    def from_label(cls, label: str) -> "QuantumState":
        """Spectroscopic label: '1S' -> (n=0, l=0), '2P' -> (n=1, l=1), ..."""
        label = label.strip().upper()
        if len(label) < 2 or not label[:-1].isdigit() or label[-1] not in _L_OF_LETTER:
            raise DomainError(f"bad spectroscopic label {label!r}")
        k = int(label[:-1])
        if k < 1:
            raise DomainError(f"radial number in {label!r} must be >= 1")
        return cls(n=k - 1, l=_L_OF_LETTER[label[-1]])

    @property
    def label(self) -> str:
        letter = _LETTER_OF_L.get(self.l, f"(l={self.l})")
        return f"{self.n + 1}{letter}"

    @property
    def nu(self) -> int:
        """1-based radial number used by the closed-form level formulas."""
        return self.n + 1


def cornell_quadratic(params: CornellParams) -> tuple[float, float, float]:
    """(C0, C1, C2) of V ~ C0 + C1 x + C2 x^2: the Cornell potential a x + b/x
    in x = 1/r, with b/x expanded to second order about x = delta > 0."""
    a, b, d = params.a, params.b, params.delta
    return 3 * b / d, a - 3 * b / d ** 2, b / d ** 3


def real_constants(sys: MesonSystem, state: QuantumState, energy: float) -> tuple[float, float, float]:
    """Real-variant (alpha, beta, gamma) at a level energy:
    (8m(E - C0), -8m C1, -4l(l+1) - 8m C2)."""
    c0, c1, c2 = cornell_quadratic(sys.params)
    m = sys.reduced_mass
    l = state.l
    return 8 * m * (energy - c0), -8 * m * c1, -4 * l * (l + 1) - 8 * m * c2


# each QuantumState's terms of the real7 condition, exact floats: -4l(l+1), nu(nu-3), 2nu-1, (2nu-1)^2
_REAL_TERMS = {(n, l): (-4.0 * l * (l + 1), (n + 1.0) * (n - 2), 2.0 * n + 1, (2.0 * n + 1) ** 2) for n in range(11) for l in range(6)}


def level_rule(sys: MesonSystem, variant: Variant | str = Variant.REAL):
    """The level rule: a function state -> (energy, branch) at p_r = 0, the
    only place that picks which root of the level condition is "the level".
    The system's part -- (C0, C1, C2), the reduced mass, |beta| = |8m C1| and
    8m C2 -- is formed once, here; each call only picks one state's root.

    real7: the physical (u > 0) root of smaller |u|, i.e. the higher energy,
    tagged '+'; when that root is not physical, the other one, tagged '-'.
    complex5: the preferred root of energy_complex at p_r = 0; its energy
    must be exactly real, else NonPhysicalParameters: at p_r = 0 its
    imaginary part is exactly zero when the radicand 9 + 4 gamma_c is >= 0,
    and non-zero when it is negative.  The two roots share Re E and |Im E|,
    so no other root can be real instead.  A level past double range, of
    either variant, raises NonPhysicalParameters too.
    """
    if Variant.parse(variant) is Variant.COMPLEX:
        root = _complex_rule(sys, 0.0)

        def complex_rule(state):
            e, branch = root(state)
            if e.imag:
                raise NonPhysicalParameters(f"no real-valued branch at {state.label}")
            return _finite(e.real, state), branch
        return complex_rule
    e_flat, c1, c2 = cornell_quadratic(sys.params)
    if c1 == 0:  # the vertex: every level collapses onto C0
        return lambda state: (e_flat, "+")
    m = sys.reduced_mass
    w, m8, m8c2 = abs(-8 * m * c1), 8 * m, 8 * m * c2  # as real_constants forms them

    def rule(state):
        k_l, k_nu, t, tt = _REAL_TERMS[state]
        cden = k_l - m8c2 - 6.0 + k_nu
        if cden == 0:
            raise NonPhysicalParameters(f"level condition degenerates at state {state.label}")
        q = 4.0 * cden
        disc = tt - q
        if disc < 0:
            raise NonPhysicalParameters(f"negative radicand {disc:.6g} in the level condition for {state.label}")
        # the roots in |beta| (see the module docstring) are u = |beta|
        # ((2 nu - 1) -+ sqrt(disc)) / (4 cden); '-' gives the smaller |u|
        sq = math.sqrt(disc)
        u, branch = w * (t - sq) / q, "+"
        if not u > 0:
            u, branch = w * (t + sq) / q, "-"
        if not u > 0:
            raise NonPhysicalParameters(
                f"no bound-state root (u > 0) for {state.label} with a={sys.params.a}, b={sys.params.b}, delta={sys.params.delta}"
            )
        return _finite(e_flat - u * u / m8, state), branch
    return rule


def _finite(energy: float, state: QuantumState) -> float:
    """energy, if it is finite; a level past double range is no level."""
    if not math.isfinite(energy):
        raise NonPhysicalParameters(f"the level of {state.label} is past double range ({energy})")
    return energy


def level(sys: MesonSystem, state: QuantumState, variant: Variant | str = Variant.REAL) -> tuple[float, str]:
    """(energy, branch) of one state: one call of level_rule(sys, variant)."""
    return level_rule(sys, variant)(state)


def energy_real(sys: MesonSystem, state: QuantumState) -> float:
    """Real-variant level energy E_nl (GeV) under the level rule."""
    return level(sys, state, Variant.REAL)[0]


def _complex_rule(sys: MesonSystem, p_r: float):
    """state -> (energy, branch) of the preferred complex-variant root at p_r:
    Re v > 0 (the branch continuously connected to the p_r = 0 bound state),
    then the larger real energy."""
    e_flat, c1, c2 = cornell_quadratic(sys.params)
    m = sys.reduced_mass
    g, m8c2 = 8 * m * c1 - 4j * p_r, 8 * m * c2  # g = 4 i p_r + beta_c = 8m C1 - 4 i p_r

    def root(state):
        n, l = state  # nu = n + 1: nu (nu + 1) = (n + 1)(n + 2), 2 nu + 1 = 2n + 3
        gam = -(-4 * l * (l + 1) - m8c2)
        cden = (n + 1) * (n + 2) - 2 - gam
        if cden == 0:
            raise NonPhysicalParameters(f"level condition degenerates at state {state.label}")
        sq = cmath.sqrt(9 + 4 * gam)
        cands = []
        for sgn, tag in ((+1.0, "+"), (-1.0, "-")):
            v = g * (-(2 * n + 3) + sgn * sq) / (4 * cden)
            cands.append((v, e_flat - v * v / (8 * m), tag))
        _, e, branch = min(cands, key=lambda t: (not t[0].real > 0, -t[1].real))
        return e, branch

    return root


def energy_complex(sys: MesonSystem, state: QuantumState, p_r: float = 0.0) -> complex:
    """Complex-variant level energy on the preferred root; imaginary part
    vanishes at p_r = 0 unless the level's radicand is negative."""
    return _complex_rule(sys, p_r)(state)[0]


def rest_energy_bracket(sys: MesonSystem, state: QuantumState) -> float:
    """Complex-variant energy at p_r = 0 in pure real arithmetic.

    This is the energy bracket of the mass-spectrum formula; it must agree
    with energy_complex(..., p_r=0) to roundoff (cross-checked in the test
    suite).  Written independently of energy_complex on purpose.
    """
    e_flat, c1, _ = cornell_quadratic(sys.params)
    m = sys.reduced_mass
    nu_idx = state.nu
    _, beta_r, gamma_r = real_constants(sys, state, e_flat)
    beta, gam = -beta_r, -gamma_r  # beta_c and gamma_c at p_r = 0
    cden = nu_idx * nu_idx + nu_idx - 2 - gam
    if cden == 0:
        raise NonPhysicalParameters(f"level condition degenerates at state {state.label}")
    if c1 == 0:
        return e_flat
    radic = 9 + 4 * gam
    if radic < 0:
        raise NonPhysicalParameters(f"negative radicand {radic:.6g} at {state.label}")
    root = math.sqrt(radic)
    cands = []
    for sgn in (+1.0, -1.0):
        v = beta * (-(2 * nu_idx + 1) + sgn * root) / (4 * cden)
        cands.append((v, e_flat - v * v / (8 * m)))
    # same policy as energy_complex at rest: bound-state root (v > 0) first,
    # then the higher energy
    cands.sort(key=lambda t: (-(t[0] > 0), -t[1]))
    return cands[0][1]


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), ported line for line from
    scipy's brentq.c, so that it returns the float scipy's brentq returns."""

    def value(x):
        if math.isnan(v := f(x)):
            raise NumericError(f"brentq: f is nan at x={x}")
        return v

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericError(f"brentq: f has one sign at both ends of [{xa}, {xb}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):  # scipy's default iteration cap
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericError(f"brentq: no convergence in 100 iterations on [{xa}, {xb}]")


# Coarse stride of energy_real_via_nu's bracket scan
_SCAN_STRIDE = 10


def _first_sign_change(f, x, lo: int, hi: int):
    """(x(i), x(j)) around the first sign change of f(x(k)) for k = lo..hi, or None.
    f is evaluated at every _SCAN_STRIDE-th index from lo and at hi, and the
    indices between are walked only inside the first coarse cell whose ends
    differ in sign; x is called only at the indices visited."""
    f_lo = f(x(lo))
    for j in [*range(lo + _SCAN_STRIDE, hi, _SCAN_STRIDE), hi]:
        f_j = f(x(j))
        if (f_j < 0) != (f_lo < 0):
            for i in range(lo + 1, j):
                f_i = f(x(i))
                if (f_i < 0) != (f_lo < 0):
                    return x(lo), x(i)
                lo, f_lo = i, f_i
            return x(lo), x(j)
        lo, f_lo = j, f_j
    return None


def energy_real_via_nu(sys: MesonSystem, state: QuantumState) -> float:
    """Real-variant level by root-solving the quantization condition through
    the NU machinery (K, pi, tau, lambda; no closed-form level).

    lambda comes from nu.solve on branch +1, whose radical term carries the
    principal square root (+|beta| x/(2u) - u); it is paired with the
    spectrum index rule -nu(nu-1) + nu tau' (see the module docstring).  The
    residual is a function of u = sqrt(-alpha), posed with alpha = -u^2
    directly, so that a small u near the vertex is not lost in
    E = C0 - u^2/(8m); it is root-solved for u by Brent's method (_brentq, a
    bit-exact port of scipy's brentq) on an independently scanned bracket,
    and E = C0 - u^2/(8m) is returned.

    The bracket is the first sign change of the residual along 401 geometric
    u points from 1e-6 u_hi to u_hi, found coarse then fine
    (_first_sign_change).  That gives the same bracket as walking every
    point, unless two sign changes fall inside one coarse cell; where two
    changes occur at all (the two-root regime), they were measured at least
    61 points apart over 16,560 sampled systems.  Without a sign change
    there, the scan continues below at the same ratio, from 1e-6 of the
    root scale |beta| (2 nu + 2) / (4 |cden|) upward, so that the root found
    is still the one of smallest u.
    """
    from . import nu

    e_flat, c1, _ = cornell_quadratic(sys.params)
    if c1 == 0:
        return e_flat
    m = sys.reduced_mass
    nu_idx = state.nu
    _, beta, gam = real_constants(sys, state, e_flat)

    def residual(u: float) -> float:
        sol = nu.solve(nu.NUProblem((-u * u, beta, gam), (0, -4)), branch=+1)
        return (sol.lam - (-nu_idx * (nu_idx - 1) + nu_idx * sol.tau[1])).real

    cden = abs(gam - 6 + nu_idx * (nu_idx - 3))
    scale = abs(beta) * (2 * nu_idx + 2) / max(4.0 * cden, 1e-9)
    u_hi = 4.0 * (scale + abs(beta) + 1.0)

    def point(i: int) -> float:
        # geometric u points, ascending: i = 0 is 1e-6 u_hi and i = 400 is u_hi
        return u_hi * (1e-6) ** (1 - i / 400.0)

    bracket = _first_sign_change(residual, point, 0, 400)
    if bracket is None and scale > 0:
        bracket = _first_sign_change(residual, point, -int(400.0 * math.log(u_hi / scale) / math.log(1e6)), 0)
    if bracket is None:
        raise NonPhysicalParameters(f"no root of the NU quantization condition for {state.label}")
    u = _brentq(residual, *bracket, xtol=1e-18 * bracket[0], rtol=1e-15)
    return e_flat - u * u / (8 * m)


def mass_spectrum_detailed(sys: MesonSystem, state: QuantumState, variant: Variant | str = Variant.REAL) -> tuple[float, str]:
    """(mass, branch) with M = m_q + m_qbar + E_nl at p_r = 0."""
    e, branch = level(sys, state, variant)
    return sys.mass_sum + e, branch


def mass_spectrum(sys: MesonSystem, state: QuantumState, variant: Variant | str = Variant.REAL) -> float:
    """Meson mass M = m_q + m_qbar + E_nl (GeV), p_r = 0."""
    return mass_spectrum_detailed(sys, state, variant)[0]


def _axis_interval(lo: float, hi: float, count: int, name: str) -> list[float]:
    """count values evenly spaced from lo to hi (lo alone for count 1), under
    _axis_values' rule: (hi - lo) i can overflow for finite ends, and a
    narrow interval can repeat a float."""
    return _axis_values([float(lo)] if count == 1 else [lo + (hi - lo) * i / (count - 1) for i in range(count)], name)


def _axis_values(values, name: str) -> list[float]:
    """The values as floats: at least one, strictly ascending and finite."""
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError(f"{name} axis needs at least 1 point")
    if not all(a < b for a, b in zip(vals, vals[1:])):  # NaN is not ascending either
        raise DomainError(f"{name} axis must be strictly ascending")
    if not (math.isfinite(vals[0]) and math.isfinite(vals[-1])):  # ascending: the ends bound the rest
        raise DomainError(f"{name} axis must be finite")
    return vals


# mass is NaN at a non-physical point
ScanPoint = namedtuple("ScanPoint", "value mass physical branch", defaults=("",))


def parameter_scan(
    sys: MesonSystem,
    state: QuantumState,
    param: str,
    lo: float,
    hi: float,
    steps: int,
    variant: Variant | str = Variant.REAL,
) -> list[ScanPoint]:
    """Masses over steps >= 2 values of one Cornell parameter from lo to hi,
    built and checked by _axis_interval (the grid axes' rule): values that
    are not strictly ascending raise DomainError.

    Non-physical points are kept in the output, flagged, with mass = NaN.
    """
    if param not in ("a", "b", "delta"):
        raise DomainError(f"scan parameter must be one of a/b/delta, got {param!r}")
    steps = operator.index(steps)
    if steps < 2:
        raise DomainError(f"scan needs at least 2 steps, got {steps}")
    out = []
    for v in _axis_interval(lo, hi, steps, param):
        kw = {"a": sys.params.a, "b": sys.params.b, "delta": sys.params.delta}
        kw[param] = v
        try:
            sys_i = MesonSystem(sys.m_q, sys.m_qbar, CornellParams(**kw), sys.label)
            mass, br = mass_spectrum_detailed(sys_i, state, variant)
            out.append(ScanPoint(value=v, mass=mass, physical=True, branch=br))
        except (NonPhysicalParameters, DomainError):
            out.append(ScanPoint(value=v, mass=math.nan, physical=False))
    return out
