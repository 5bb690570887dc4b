"""Half-transform-ansatz core: Cornell-potential phase-space constants,
closed-form energy levels, mass spectra, and parameter scans.

Conventions (natural units, hbar = 1, energies in GeV):

* The Cornell potential V(r) = a/r + b r reads a x + b/x in x = 1/r.  Its
  reciprocal term is expanded to second order about the characteristic
  point x = delta = 1/A0, which must be positive (x = 1/r is), giving the
  quadratic of cornell_quadratic:

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
  energy_real_via_nu reproduces it through the generic NU machinery.  The
  wave functions (waves module) use the minus branch instead, whose phi
  decays at large separation; only that branch is normalizable.

* Complex-variant constants are the real ones mirrored, at momentum p_r:

      alpha_c = 4 p_r^2 - alpha,  beta_c = -beta - 8 i p_r,  gamma_c = -gamma.

  Its quantization is the textbook pairing: with g = 4 i p_r + beta_c and
  v = sqrt(alpha_c - 4 p_r^2) = sqrt(-alpha),

      g^2 + 2 g v (2 nu + 1) + 4 v^2 (nu(nu + 1) - 2 - gamma_c) = 0,

  and again E = C0 - v^2/(8m).

* level is the one place that picks which root of a level condition is a
  state's level (at p_r = 0); every mass, scan, fit and grid energy reads it.
  rest_energy_bracket and energy_real_via_nu re-derive it, as checks.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from . import nu
from .errors import (
    DegenerateStateError,
    DomainError,
    NonPhysicalParameters,
)

__all__ = [
    "Variant",
    "CornellParams",
    "MesonSystem",
    "QuantumState",
    "cornell_quadratic",
    "real_constants",
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


@dataclass(frozen=True)
class CornellParams:
    """Cornell potential strengths and the expansion point delta = 1/A0."""

    a: float
    b: float
    delta: float

    def __post_init__(self):
        for name in ("a", "b", "delta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"CornellParams.{name} must be finite, got {v}")
        if self.delta == 0:
            raise DomainError("CornellParams.delta must be nonzero")


@dataclass(frozen=True)
class MesonSystem:
    """Constituent quark masses plus potential parameters.

    The reduced mass is always derived from the constituents, never stored,
    so it cannot drift out of sync with the mass formula.
    """

    m_q: float
    m_qbar: float
    params: CornellParams
    label: str = ""

    def __post_init__(self):
        if not (self.m_q > 0 and self.m_qbar > 0):
            raise DomainError(f"quark masses must be positive, got {self.m_q}, {self.m_qbar}")

    @property
    def reduced_mass(self) -> float:
        return self.m_q * self.m_qbar / (self.m_q + self.m_qbar)

    @property
    def mass_sum(self) -> float:
        return self.m_q + self.m_qbar


_L_OF_LETTER = {"S": 0, "P": 1, "D": 2}
_LETTER_OF_L = {v: k for k, v in _L_OF_LETTER.items()}


@dataclass(frozen=True)
class QuantumState:
    """Polynomial index n (n = 0 is the ground state) and orbital number l."""

    n: int
    l: int = 0

    def __post_init__(self):
        if not (0 <= self.n <= 10):
            raise DomainError(f"QuantumState.n out of supported range [0, 10]: {self.n}")
        if not (0 <= self.l <= 5):
            raise DomainError(f"QuantumState.l out of supported range [0, 5]: {self.l}")

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
    if d <= 0:
        raise DomainError(f"the expansion point x = delta must be positive (x = 1/r), got {d}")
    return 3 * b / d, a - 3 * b / d ** 2, b / d ** 3


def real_constants(sys: MesonSystem, state: QuantumState, energy: float) -> tuple[float, float, float]:
    """Real-variant (alpha, beta, gamma) at a level energy:
    (8m(E - C0), -8m C1, -4l(l+1) - 8m C2)."""
    c0, c1, c2 = cornell_quadratic(sys.params)
    m = sys.reduced_mass
    l = state.l
    return 8 * m * (energy - c0), -8 * m * c1, -4 * l * (l + 1) - 8 * m * c2


def level(sys: MesonSystem, state: QuantumState, variant: Variant | str = Variant.REAL) -> tuple[float, str]:
    """The level rule: (energy, branch) of a state at p_r = 0, the only place
    that picks which root of the level condition is "the level".

    real7: the physical (u > 0) root of smaller |u|, i.e. the higher energy,
    tagged '+'; when that root is not physical, the other one, tagged '-'.
    complex5: the preferred root of energy_complex at p_r = 0; its energy
    must be real, else NonPhysicalParameters.  At p_r = 0 the two complex5
    roots share Re E and |Im E|, so no other root can be real instead.
    """
    if Variant.parse(variant) is Variant.COMPLEX:
        e, branch = _complex_root(sys, state, 0.0)
        if not abs(e.imag) <= 1e-12 * max(abs(e), 1.0):
            raise NonPhysicalParameters(f"no real-valued branch at {state.label}", value=e)
        return e.real, branch
    e_flat, c1, _ = cornell_quadratic(sys.params)
    if c1 == 0:
        # the vertex: every level collapses onto C0
        return e_flat, "+"
    nu_idx = state.nu
    _, beta, gam = real_constants(sys, state, e_flat)
    cden = gam - 6 + nu_idx * (nu_idx - 3)
    if cden == 0:
        raise DegenerateStateError(f"level condition degenerates at state {state.label}")
    disc = (2 * nu_idx - 1) ** 2 - 4 * cden
    if disc < 0:
        raise NonPhysicalParameters(
            f"negative radicand {disc:.6g} in the level condition for {state.label}",
            value=disc,
        )
    # the roots of the condition in |beta| (see the module docstring) are
    # u = |beta| ((2 nu - 1) -+ sqrt(disc)) / (4 cden); the '-' sign gives
    # the smaller |u|
    w, sq = abs(beta), math.sqrt(disc)
    for sgn, branch in ((-1.0, "+"), (+1.0, "-")):
        u = w * ((2 * nu_idx - 1) + sgn * sq) / (4 * cden)
        if u > 0:
            return e_flat - u * u / (8 * sys.reduced_mass), branch
    raise NonPhysicalParameters(
        f"no bound-state root (u > 0) for {state.label} with a={sys.params.a}, b={sys.params.b}, delta={sys.params.delta}",
        value=None,
    )


def energy_real(sys: MesonSystem, state: QuantumState) -> float:
    """Real-variant level energy E_nl (GeV) under the level rule."""
    return level(sys, state, Variant.REAL)[0]


def _complex_root(sys: MesonSystem, state: QuantumState, p_r: float) -> tuple[complex, str]:
    """Preferred complex-variant root at momentum p_r as (energy, branch):
    Re v > 0 (the branch continuously connected to the p_r = 0 bound state),
    then the larger real energy."""
    e_flat, c1, _ = cornell_quadratic(sys.params)
    nu_idx = state.nu
    _, beta, gamma = real_constants(sys, state, e_flat)
    g = -beta - 4j * p_r  # 4 i p_r + beta_c
    gam = -gamma
    cden = nu_idx * nu_idx + nu_idx - 2 - gam
    if cden == 0:
        raise DegenerateStateError(f"level condition degenerates at state {state.label}")
    if c1 == 0 and p_r == 0:  # g = 0
        return complex(e_flat), "+"
    m = sys.reduced_mass
    root = cmath.sqrt(9 + 4 * gam)
    cands = []
    for sgn, tag in ((+1.0, "+"), (-1.0, "-")):
        v = g * (-(2 * nu_idx + 1) + sgn * root) / (4 * cden)
        cands.append((v, e_flat - v * v / (8 * m), tag))
    _, e, branch = min(cands, key=lambda t: (not t[0].real > 0, -t[1].real))
    return e, branch


def energy_complex(sys: MesonSystem, state: QuantumState, p_r: float = 0.0) -> complex:
    """Complex-variant level energy on the preferred root; imaginary part
    vanishes at p_r = 0 unless the level's radicand is negative."""
    return _complex_root(sys, state, p_r)[0]


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
        raise DegenerateStateError(f"level condition degenerates at state {state.label}")
    if c1 == 0:
        return e_flat
    radic = 9 + 4 * gam
    if radic < 0:
        raise NonPhysicalParameters(f"negative radicand {radic:.6g} at {state.label}", value=radic)
    root = math.sqrt(radic)
    cands = []
    for sgn in (+1.0, -1.0):
        v = beta * (-(2 * nu_idx + 1) + sgn * root) / (4 * cden)
        cands.append((v, e_flat - v * v / (8 * m)))
    # same policy as energy_complex at rest: bound-state root (v > 0) first,
    # then the higher energy
    cands.sort(key=lambda t: (-(t[0] > 0), -t[1]))
    return cands[0][1]


def _real_nu_problem(alpha, beta, gamma) -> nu.NUProblem:
    return nu.NUProblem(
        sigma=(0, 0, 1),
        sigma_tilde=(alpha, beta, gamma),
        tau_tilde=(0, -4),
    )


# Coarse stride of energy_real_via_nu's bracket scan; 400 must stay a
# multiple of it, so that the coarse scan ends on the grid's last point.
_SCAN_STRIDE = 10


def energy_real_via_nu(sys: MesonSystem, state: QuantumState) -> float:
    """Real-variant level by root-solving the quantization condition through
    the generic NU machinery (no closed form).

    lambda comes from nu.solve on branch +1, whose radical term carries the
    principal square root (+|beta| x/(2u) - u); it is paired with the
    spectrum index rule -nu(nu-1) + nu tau' (see the module docstring) and
    the residual is root-solved for E with brentq on an independently
    scanned bracket.

    The bracket is the first sign change of the residual along 401 geometric
    u points, E = C0 - u^2/(8m), found coarse then fine: the residual
    is evaluated at every _SCAN_STRIDE-th point, and the fine points are
    walked only inside the first coarse cell whose ends differ in sign.  That
    gives the same bracket, hence the same root, as walking every point,
    unless two sign changes fall inside one coarse cell.  Where two changes
    occur at all (the two-root regime), they were measured at least 61
    points apart over 16,560 sampled systems.
    """
    from scipy.optimize import brentq

    e_flat, c1, _ = cornell_quadratic(sys.params)
    if c1 == 0:
        return e_flat
    m = sys.reduced_mass
    nu_idx = state.nu
    _, beta, gam = real_constants(sys, state, e_flat)

    def residual(energy: float) -> float:
        sol = nu.solve(_real_nu_problem(*real_constants(sys, state, energy)), branch=+1)
        lam_star = -nu_idx * (nu_idx - 1) + nu_idx * sol.tau[1]
        return (sol.lam - lam_star).real

    # bracket by geometric scan in u = sqrt(-alpha); E = e_flat - u^2/(8m)
    cden = abs(gam - 6 + nu_idx * (nu_idx - 3))
    u_hi = 4.0 * (abs(beta) * (2 * nu_idx + 2) / max(4.0 * cden, 1e-9) + abs(beta) + 1.0)
    us = [u_hi * (1e-6) ** (1 - i / 400.0) for i in range(401)]

    def residual_at(i: int) -> float:
        return residual(e_flat - us[i] * us[i] / (8 * m))

    lo, r_lo = 0, residual_at(0)
    for hi in range(_SCAN_STRIDE, len(us), _SCAN_STRIDE):
        r_hi = residual_at(hi)
        if (r_hi < 0) != (r_lo < 0):
            for i in range(lo + 1, hi):
                r = residual_at(i)
                if (r < 0) != (r_lo < 0):
                    hi = i
                    break
                lo, r_lo = i, r
            e_lo = e_flat - us[lo] ** 2 / (8 * m)
            e_hi = e_flat - us[hi] ** 2 / (8 * m)
            return brentq(residual, min(e_lo, e_hi), max(e_lo, e_hi), xtol=1e-14, rtol=1e-15)
        lo, r_lo = hi, r_hi
    raise NonPhysicalParameters(
        f"no root of the NU quantization condition for {state.label}", value=None
    )


def mass_spectrum_detailed(sys: MesonSystem, state: QuantumState, variant: Variant | str = Variant.REAL) -> tuple[float, str]:
    """(mass, branch) with M = m_q + m_qbar + E_nl at p_r = 0."""
    e, branch = level(sys, state, variant)
    return sys.mass_sum + e, branch


def mass_spectrum(sys: MesonSystem, state: QuantumState, variant: Variant | str = Variant.REAL) -> float:
    """Meson mass M = m_q + m_qbar + E_nl (GeV), p_r = 0."""
    return mass_spectrum_detailed(sys, state, variant)[0]


@dataclass(frozen=True)
class ScanPoint:
    value: float
    mass: float  # NaN when non-physical
    physical: bool
    branch: str = ""


def parameter_scan(
    sys: MesonSystem,
    state: QuantumState,
    param: str,
    lo: float,
    hi: float,
    steps: int,
    variant: Variant | str = Variant.REAL,
) -> list[ScanPoint]:
    """Masses over a monotone grid of one Cornell parameter.

    Non-physical points are kept in the output, flagged, with mass = NaN.
    """
    if param not in ("a", "b", "delta"):
        raise DomainError(f"scan parameter must be one of a/b/delta, got {param!r}")
    steps = int(steps)
    if steps < 2:
        raise DomainError(f"scan needs at least 2 steps, got {steps}")
    if not (lo < hi):
        raise DomainError(f"empty scan interval [{lo}, {hi}]")
    out = []
    for i in range(steps):
        v = lo + (hi - lo) * i / (steps - 1)
        kw = {"a": sys.params.a, "b": sys.params.b, "delta": sys.params.delta}
        kw[param] = v
        try:
            sys_i = MesonSystem(sys.m_q, sys.m_qbar, CornellParams(**kw), sys.label)
            mass, br = mass_spectrum_detailed(sys_i, state, variant)
            out.append(ScanPoint(value=v, mass=mass, physical=True, branch=br))
        except (NonPhysicalParameters, DegenerateStateError, DomainError):
            out.append(ScanPoint(value=v, mass=math.nan, physical=False))
    return out
