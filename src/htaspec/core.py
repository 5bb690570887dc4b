"""Half-transform-ansatz core: Cornell-potential phase-space constants,
closed-form energy levels, mass spectra, and parameter scans.

Conventions (natural units, hbar = 1, energies in GeV):

* The Cornell potential is V(r) = a/r + b r; the reciprocal term is expanded
  to second order about the characteristic point delta = 1/A0, giving
  1/x ~ 3/delta - 3 x/delta^2 + x^2/delta^3.

* Two variants of the spectrum exist.  The *real* variant ("real7") first
  strips the phase factor exp(-2 i p_r r) from the wave function, which
  removes every momentum and imaginary term and yields real eigenvalues.
  The *complex* variant ("complex5") keeps the momentum coupling; its
  eigenvalues are complex for p_r != 0 and real at p_r = 0.

* Spectroscopic labels map to the polynomial index as kS/kP/kD ->
  (n = k - 1, l = 0/1/2): n = 0 is the ground state.  The closed-form level
  formulas are written in the 1-based radial number nu = n + 1; that is the
  indexing under which they reproduce the published spectra.

* Real-variant quantization: with beta = -8am + 24bm/delta^2,
  gamma = -4l(l+1) - 8bm/delta^3, and u = sqrt(-alpha) (alpha = 8mE -
  24bm/delta, negative for bound states), the level condition is

      beta^2 + 2 |beta| u (1 - 2 nu) + 4 u^2 (gamma - 6 + nu(nu - 3)) = 0.

  The magnitude |beta| is not a typo: the published spectra follow the
  principal-square-root pi branch, whose radical term is +|beta| x/(2u) - u
  regardless of beta's sign, paired with the index rule
  -nu(nu - 1) + nu tau' (the tau' term enters with the opposite sign to the
  textbook rule of nu.lambda_n).  This makes the spectrum an even function
  of beta, i.e. symmetric in a about the vertex a = 3b/delta^2 (each level
  is reached from two a values).  The pairing is kept exactly because it is
  the quantization convention behind the fitted spectra; energy_real_via_nu
  reproduces it through the generic NU machinery.  The wave functions
  (waves module) use the minus branch instead, whose phi decays at large
  separation; only that branch is normalizable.

* Complex-variant quantization is the textbook pairing: with
  g = 4 i p_r + beta_c, v = sqrt(alpha_c - 4 p_r^2),

      g^2 + 2 g v (2 nu + 1) + 4 v^2 (nu(nu + 1) - 2 - gamma_c) = 0,

  where beta_c = 8am - 24bm/delta^2 - 8 i p_r and gamma_c = 4l(l+1)
  + 8bm/delta^3.  E = 3b/delta - v^2/(8m) in both variants.
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
    "HTAConstants",
    "reciprocal_series",
    "constants_real",
    "constants_complex",
    "energy_real",
    "energy_real_candidates",
    "energy_real_via_nu",
    "energy_complex",
    "energy_complex_candidates",
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


@dataclass(frozen=True)
class HTAConstants:
    """The alpha/beta/gamma constants of one variant.

    beta and gamma are fully determined by the system; alpha depends on the
    (unknown) level energy, so it is kept as the linear map
    alpha(E) = alpha_slope * E + alpha_intercept.
    """

    beta: complex
    gamma: complex
    alpha_slope: float
    alpha_intercept: float

    def alpha(self, energy: float) -> complex:
        return self.alpha_slope * energy + self.alpha_intercept


def reciprocal_series(delta: float) -> tuple[float, float, float]:
    """Second-order expansion of 1/x about x = delta: (3/d, -3/d^2, 1/d^3)."""
    delta = float(delta)
    if delta == 0 or not math.isfinite(delta):
        raise DomainError(f"reciprocal_series: delta must be finite and nonzero, got {delta}")
    return (3.0 / delta, -3.0 / delta ** 2, 1.0 / delta ** 3)


def constants_real(sys: MesonSystem, state: QuantumState) -> HTAConstants:
    """Real-variant constants: beta = -8am + 24bm/d^2, gamma = -4l(l+1) - 8bm/d^3."""
    a, b, d = sys.params.a, sys.params.b, sys.params.delta
    m = sys.reduced_mass
    l = state.l
    return HTAConstants(
        beta=complex(-8 * a * m + 24 * b * m / d ** 2),
        gamma=complex(-4 * l * (l + 1) - 8 * b * m / d ** 3),
        alpha_slope=8 * m,
        alpha_intercept=-24 * b * m / d,
    )


def constants_complex(sys: MesonSystem, state: QuantumState, p_r: float = 0.0) -> HTAConstants:
    """Complex-variant constants; alpha(E) = -8mE + 4 p_r^2 + 24bm/d."""
    a, b, d = sys.params.a, sys.params.b, sys.params.delta
    m = sys.reduced_mass
    l = state.l
    return HTAConstants(
        beta=8 * a * m - 24 * b * m / d ** 2 - 8j * p_r,
        gamma=complex(4 * l * (l + 1) + 8 * b * m / d ** 3),
        alpha_slope=-8 * m,
        alpha_intercept=4 * p_r ** 2 + 24 * b * m / d,
    )


def energy_real_candidates(sys: MesonSystem, state: QuantumState) -> list[tuple[float, str]]:
    """All physical (u > 0) real-variant levels as (energy, branch) pairs.

    branch is '+' for the higher-energy root of the level condition and '-'
    for the lower one.  In the fitted parameter domains exactly one root is
    physical; both are returned when they exist.
    """
    a, b, d = sys.params.a, sys.params.b, sys.params.delta
    if d <= 0:
        raise DomainError(f"real-variant spectrum requires delta > 0, got {d}")
    m = sys.reduced_mass
    nu_idx = state.nu
    c = constants_real(sys, state)
    beta = c.beta.real
    gam = c.gamma.real
    cden = gam - 6 + nu_idx * (nu_idx - 3)
    e_flat = 3 * b / d
    if beta == 0.0:
        # a = 3b/delta^2 degeneracy: every level collapses onto 3b/delta
        return [(e_flat, "+")]
    if cden == 0:
        raise DegenerateStateError(f"level condition degenerates at state {state.label}")
    disc = (2 * nu_idx - 1) ** 2 - 4 * cden
    if disc < 0:
        raise NonPhysicalParameters(
            f"negative radicand {disc:.6g} in the level condition for {state.label}",
            value=disc,
        )
    sq = math.sqrt(disc)
    # both algebraic roots (condition in |beta|, see the module docstring);
    # the higher-energy one is the closed form's '+' branch
    w = abs(beta)
    roots = [w * ((2 * nu_idx - 1) + sgn * sq) / (4 * cden) for sgn in (+1.0, -1.0)]
    roots.sort(key=abs)  # smaller |u| <=> higher energy
    out = [
        (e_flat - u * u / (8 * m), tag)
        for u, tag in zip(roots, ("+", "-"))
        if u > 0
    ]
    if not out:
        raise NonPhysicalParameters(
            f"no bound-state root (u > 0) for {state.label} with a={a}, b={b}, delta={d}",
            value=None,
        )
    return out


def energy_real(sys: MesonSystem, state: QuantumState) -> float:
    """Real-variant level energy E_nl (GeV): the higher-energy physical root,
    the convention behind the published spectra."""
    return energy_real_candidates(sys, state)[0][0]


def energy_complex_candidates(sys: MesonSystem, state: QuantumState, p_r: float = 0.0) -> list[tuple[complex, str]]:
    """Complex-variant levels as (energy, branch) pairs, preferred first.

    Root preference: Re v > 0 (the branch continuously connected to the
    p_r = 0 bound state), then larger real energy.
    """
    b, d = sys.params.b, sys.params.delta
    m = sys.reduced_mass
    nu_idx = state.nu
    c = constants_complex(sys, state, p_r)
    g = 4j * p_r + c.beta
    gam = c.gamma
    cden = nu_idx * nu_idx + nu_idx - 2 - gam
    if cden == 0:
        raise DegenerateStateError(f"level condition degenerates at state {state.label}")
    if g == 0:
        return [(complex(3 * b / d), "+")]
    root = cmath.sqrt(9 + 4 * gam)
    out = []
    for sgn, tag in ((+1.0, "+"), (-1.0, "-")):
        v = g * (-(2 * nu_idx + 1) + sgn * root) / (4 * cden)
        e = 3 * b / d - v * v / (8 * m)
        out.append((v, e, tag))
    out.sort(key=lambda t: (-(t[0].real > 0), -t[1].real))
    return [(e, tag) for _, e, tag in out]


def energy_complex(sys: MesonSystem, state: QuantumState, p_r: float = 0.0) -> complex:
    """Complex-variant level energy on the preferred root; imaginary part
    vanishes at p_r = 0."""
    return energy_complex_candidates(sys, state, p_r)[0][0]


def rest_energy_bracket(sys: MesonSystem, state: QuantumState) -> float:
    """Complex-variant energy at p_r = 0 in pure real arithmetic.

    This is the energy bracket of the mass-spectrum formula; it must agree
    with energy_complex(..., p_r=0) to roundoff (cross-checked in the test
    suite).  Written independently of energy_complex on purpose.
    """
    b, d = sys.params.b, sys.params.delta
    m = sys.reduced_mass
    nu_idx = state.nu
    c = constants_complex(sys, state, 0.0)
    beta = c.beta.real
    gam = c.gamma.real
    cden = nu_idx * nu_idx + nu_idx - 2 - gam
    if cden == 0:
        raise DegenerateStateError(f"level condition degenerates at state {state.label}")
    if beta == 0.0:
        return 3 * b / d
    radic = 9 + 4 * gam
    if radic < 0:
        raise NonPhysicalParameters(f"negative radicand {radic:.6g} at {state.label}", value=radic)
    root = math.sqrt(radic)
    cands = []
    for sgn in (+1.0, -1.0):
        v = beta * (-(2 * nu_idx + 1) + sgn * root) / (4 * cden)
        cands.append((v, 3 * b / d - v * v / (8 * m)))
    # same policy as energy_complex at rest: bound-state root (v > 0) first,
    # then the higher energy
    cands.sort(key=lambda t: (-(t[0] > 0), -t[1]))
    return cands[0][1]


def _real_nu_problem(c: HTAConstants, energy: float) -> nu.NUProblem:
    return nu.NUProblem(
        sigma=(0, 0, 1),
        sigma_tilde=(c.alpha(energy), c.beta, c.gamma),
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
    u points, E = 3b/delta - u^2/(8m), found coarse then fine: the residual
    is evaluated at every _SCAN_STRIDE-th point, and the fine points are
    walked only inside the first coarse cell whose ends differ in sign.  That
    gives the same bracket, hence the same root, as walking every point,
    unless two sign changes fall inside one coarse cell.  Where two changes
    occur at all (the two-root regime), they were measured at least 61
    points apart over 16,560 sampled systems.
    """
    from scipy.optimize import brentq

    b, d = sys.params.b, sys.params.delta
    m = sys.reduced_mass
    nu_idx = state.nu
    c = constants_real(sys, state)
    beta = c.beta.real
    e_flat = 3 * b / d
    if beta == 0.0:
        return e_flat

    def residual(energy: float) -> float:
        prob = _real_nu_problem(c, energy)
        sol = nu.solve(prob, branch=+1)
        lam_star = -nu_idx * (nu_idx - 1) + nu_idx * sol.tau[1]
        return (sol.lam - lam_star).real

    # bracket by geometric scan in u = sqrt(-alpha); E = e_flat - u^2/(8m)
    gam = c.gamma.real
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
    variant = Variant.parse(variant)
    if variant is Variant.REAL:
        cands = energy_real_candidates(sys, state)
        e, br = cands[0]
    else:
        cands = energy_complex_candidates(sys, state, p_r=0.0)
        for e_c, br in cands:
            if abs(e_c.imag) <= 1e-12 * max(abs(e_c), 1.0):
                e = e_c.real
                break
        else:
            raise NonPhysicalParameters(f"no real-valued branch at {state.label}", value=cands[0][0])
    return sys.mass_sum + e, br


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
