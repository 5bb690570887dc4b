"""Phase-space wave functions of the Cornell system.

The half-transformed bound state is, in the collective variable
A = r + i p_bar/2 and with u = sqrt(-alpha), c = beta/(2u),

    Omega_n(A) = exp(-u A) * A^(c-3) * y_n(1/A),

y_n the Rodrigues polynomial of the weight exp(-2u/x) x^(-2c) (minus
pi-branch: the plus branch grows like exp(+uA) and is not normalizable).
The physical wave function is the inverse transform back to p_r along the
Fourier line s = i*omega, taken over the convergent half-line (the
exp(-u A) factor diverges on the other side):

    psi_n(r, p_r) = e^{-2 i p_r r} (1/2 pi) *
                    int_{-inf}^{0} Omega_n(r - w/2) e^{-i w p_r} dw.

Substituting t = r - w/2 turns each polynomial term into an upper
incomplete gamma function,

    psi_n(r, p_r) = (B/pi) e^{-4 i p_r r} *
                    sum_j y_nj (u - 2 i p_r)^(2 + j - c)
                          Gamma(c - 2 - j, r (u - 2 i p_r)),

which is the closed form used everywhere, for every n.  psi_n_numeric
evaluates the same transform by adaptive oscillatory quadrature and is the
independent cross-check path.

All branch powers are exp(power * principal log); correctness of the branch
bookkeeping is adjudicated by the quadrature equivalence, not by matching
any particular printed rearrangement of the formulas.

The momentum-coupled variant (no phase strip) has A-kernel
exp((2 i p_r - u) A) A^(1 - g), g = (4 i p_r + beta_c)/(2u); the same
half-line transform gives

    psi_0(r, p_r) = (B/pi) e^{-2 i p_r r} W^(g-2) Gamma(2 - g, r W),

W = u - 4 i p_r.  Its complete-gamma part can equivalently be written with
the reflection formula through a csch (see csch_reflection_gamma, which the
tests check against Gamma; psi_0 itself does not use it).  This variant is
quarantined behind WaveParams.variant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import nu
from .core import MesonSystem, QuantumState, Variant, _real_nu_problem, real_constants
from .errors import DegenerateOrderError, DomainError, NumericError
from .special import gamma_complex, upper_incomplete_gamma

__all__ = [
    "WaveParams",
    "PhaseSpaceGrid",
    "psi_n",
    "psi_n_numeric",
    "normalize_B",
    "total_probability",
    "density_grid",
    "peak_radius",
    "half_transformed_kernel",
    "csch_reflection_gamma",
    "wave_params",
]

_MAX_N = 6
_BLOCK_CELLS = 1 << 12  # cells per psi_n call in grids and quadratures; bounds temporaries


@dataclass(frozen=True)
class WaveParams:
    """alpha/beta/gamma at a fixed level energy, plus the normalization B.

    alpha must be negative (bound state, E < C0 of core.cornell_quadratic);
    alpha, beta and gamma are the real-variant constants (the
    momentum-coupled variant derives its momentum-dependent constants from
    them at each p_r).
    """

    alpha: float
    beta: float
    gamma: float
    B: float = 1.0
    variant: Variant = Variant.REAL

    def __post_init__(self):
        if not (self.alpha < 0):
            raise DomainError(f"WaveParams.alpha must be negative (bound state), got {self.alpha}")
        if not (math.isfinite(self.B) and self.B > 0):
            raise DomainError(f"WaveParams.B must be positive and finite, got {self.B}")

    @property
    def u(self) -> float:
        return math.sqrt(-self.alpha)

    @property
    def c_order(self) -> float:
        """beta / (2 sqrt(-alpha)), the gamma-order parameter."""
        return self.beta / (2.0 * self.u)


def wave_params(sys: MesonSystem, state: QuantumState, level_energy: float, variant: Variant | str = Variant.REAL) -> WaveParams:
    """Build WaveParams (B = 1) from a system and a level energy."""
    alpha, beta, gamma = real_constants(sys, state, level_energy)
    return WaveParams(alpha, beta, gamma, variant=Variant.parse(variant))


def _check_index(params: WaveParams, n: int):
    # the checks of psi_n that hold for every cell alike
    if not 0 <= n <= _MAX_N:
        raise DomainError(f"psi_n: n must be in [0, {_MAX_N}], got {n}")
    if params.variant is not Variant.REAL:
        if n != 0:
            raise DomainError("momentum-coupled variant is implemented for n = 0 only")
        return
    # Gamma orders are c - 2 - j, j = 0..n; integer c in [0, n + 2] makes a
    # printed-form prefactor degenerate.  Guarded for all n (the closed sum
    # itself is entire in the order, but the degeneracy is part of the
    # contract and flags physically non-generic parameter hits).
    c = params.c_order
    k = round(c)
    if abs(c - k) < 1e-9 and 0 <= k <= n + 2:
        raise DegenerateOrderError(
            f"gamma order beta/(2 sqrt(-alpha)) = {c!r} is integer-degenerate for n={n}"
        )


@lru_cache(maxsize=512)
def _rodrigues_coeffs_cached(alpha: float, beta: float, gamma: float, n: int) -> tuple[complex, ...]:
    u = math.sqrt(-alpha)
    c = beta / (2.0 * u)
    problem = _real_nu_problem(alpha, beta, gamma)
    rho = nu.ExpPowerForm(rate=-2.0 * u, power=-2.0 * c)
    return nu.rodrigues_y(problem, rho, n).coeffs


def _rodrigues_coeffs(params: WaveParams, n: int) -> tuple[complex, ...]:
    """Coefficients of y_n for the minus-branch weight exp(-2u/x) x^(-2c)."""
    return _rodrigues_coeffs_cached(params.alpha, params.beta, params.gamma, n)


def psi_n(params: WaveParams, n: int, r, p_r):
    """Closed-form psi_n: the incomplete-gamma sum for the real variant, and
    the momentum-coupled ground state for complex5 (n = 0 only; another n
    raises DomainError).

    r and p_r broadcast against each other: scalars give a complex, arrays a
    complex array, with one Gamma(s, z) call per Rodrigues term.
    """
    n = int(n)
    _check_index(params, n)
    r, p_r = np.asarray(r, float), np.asarray(p_r, float)
    if (r <= 0).any():
        raise DomainError(f"psi_n: r must be > 0, got {r[r <= 0][0]}")
    if params.variant is not Variant.REAL:
        return _psi0_momentum_coupled(params, r, p_r)
    u, c = params.u, params.c_order
    w = u - 2j * p_r
    acc = 0j
    for j, coeff in enumerate(_rodrigues_coeffs(params, n)):
        if coeff == 0:
            continue
        acc = acc + coeff * w ** (2.0 + j - c) * upper_incomplete_gamma(c - 2.0 - j, r * w)
    return _value(params.B / math.pi * np.exp(-4j * p_r * r) * acc)


def _value(a):
    # a scalar result as a Python complex, an array one as it is
    return complex(a) if np.ndim(a) == 0 else a


def csch_reflection_gamma(g: complex) -> complex:
    """Gamma(2 - g) evaluated through the reflection formula with a csch:

        Gamma(2 - g) = -i pi csch(i pi g) / Gamma(g - 1).

    This is the csch structure of the momentum-coupled ground state's
    complete-gamma part.
    """
    g = complex(g)
    return -1j * math.pi / (cmath.sinh(1j * math.pi * g) * gamma_complex(g - 1.0))


def _psi0_momentum_coupled(params: WaveParams, r, p_r):
    # A-kernel exp((2 i p_r - u) A) A^(1 - g), g = (4 i p_r + beta_c)/(2u);
    # beta_c = -beta - 8 i p_r in terms of the stored real-variant beta.
    # r and p_r broadcast as in psi_n.
    u = params.u
    p_r = np.asarray(p_r, float)
    beta_c = -params.beta - 8j * p_r
    g = (4j * p_r + beta_c) / (2.0 * u)
    gr = np.round(g.real)
    pole = (p_r == 0.0) & (abs(g - gr) < 1e-9) & (gr >= 2)
    if pole.any():
        raise DegenerateOrderError(f"momentum-coupled order 2-g = {complex(2 - g[pole][0])!r} is a gamma pole")
    big_w = u - 4j * p_r
    return _value(params.B / math.pi * np.exp(-2j * p_r * r) * big_w ** (g - 2.0) * upper_incomplete_gamma(2.0 - g, r * big_w))


def half_transformed_kernel(params: WaveParams, n: int):
    """Omega_n as a callable of the complex collective variable A.

    Omega_n(A) = exp(-uA) A^(c-3) y_n(1/A); with the level energy solving
    the strict NU quantization condition it satisfies

        Omega'' + 6 Omega'/A + (alpha + beta/A + gamma/A^2) Omega = 0.
    """
    if params.variant is not Variant.REAL:
        raise DomainError("half_transformed_kernel covers the real variant only")
    u, c = params.u, params.c_order
    coeffs = _rodrigues_coeffs(params, int(n))

    def kernel(a: complex) -> complex:
        a = complex(a)
        y = 0j
        for j in range(len(coeffs) - 1, -1, -1):
            y = y / a + coeffs[j]
        # y = y_n(1/A) via Horner in 1/A
        return cmath.exp(-u * a + (c - 3.0) * cmath.log(a)) * y

    return kernel


def psi_n_numeric(params: WaveParams, n: int, r: float, p_r: float) -> complex:
    """psi_n by direct oscillatory quadrature of the half-line transform.

    Integrates (1/2 pi) Omega_n(r - w/2) e^{-i w p_r} over w in (-inf, 0]
    with Gauss-Legendre panels sized to the oscillation period, stopping
    when three panels in a row each add less than 1e-9 of the running sum;
    the exp(u w / 2) decay guarantees convergence.  Cross-checks psi_n to
    ~1e-9.
    """
    n = int(n)
    _check_index(params, n)
    if r <= 0:
        raise DomainError(f"psi_n_numeric: r must be > 0, got {r}")
    if params.variant is Variant.REAL:
        kernel = half_transformed_kernel(params, n)
        u = params.u
        phase = cmath.exp(-2j * p_r * r)
    else:
        u = params.u
        beta_c = -params.beta - 8j * p_r
        g = (4j * p_r + beta_c) / (2.0 * u)

        def kernel(a: complex) -> complex:
            return cmath.exp((2j * p_r - u) * a + (1.0 - g) * cmath.log(a))

        phase = 1.0

    nodes, weights = np.polynomial.legendre.leggauss(16)
    period = 2.0 * math.pi / max(abs(p_r), 1e-6)
    h = min(max(period / 4.0, 0.05 / u), 4.0 / u)
    acc = 0j
    w_hi = 0.0
    idle = 0
    for _ in range(100000):
        w_lo = w_hi - h
        mid = 0.5 * (w_lo + w_hi)
        half = 0.5 * (w_hi - w_lo)
        panel = 0j
        for x, wt in zip(nodes, weights):
            w = mid + half * x
            panel += wt * kernel(r - 0.5 * w) * cmath.exp(-1j * w * p_r)
        panel *= half
        acc += panel
        w_hi = w_lo
        if abs(panel) < 1e-9 * max(abs(acc), 1e-300):
            idle += 1
            if idle >= 3:
                break
        else:
            idle = 0
        if u * abs(w_hi) / 2.0 > 60.0 + u * r:
            break
    else:
        raise NumericError(f"oscillatory quadrature did not converge at (r={r}, p_r={p_r})")
    return params.B * phase * acc / (2.0 * math.pi)


def _density_integrand(params: WaveParams, n: int):
    def f(r, p):
        val = psi_n(params, n, r, p)
        with np.errstate(over="ignore"):  # inf reaches normalize_B's NumericError
            return (val.real ** 2 + val.imag ** 2) * r * r

    return f


def _p_integral(f, r, n_nodes: int = 96):
    # map p = tan(theta): the |psi|^2 ~ 1/p^2 tail becomes a bounded
    # integrand on (-pi/2, pi/2); no momentum truncation at all.  One
    # integral per radius in the array r, a block of radii per call of f.
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = math.pi / 2.0 * 0.999999
    th = half * nodes
    p, wp = np.tan(th), weights / np.cos(th) ** 2
    rows = max(1, _BLOCK_CELLS // n_nodes)
    return np.concatenate([f(r[i : i + rows, None], p) @ wp for i in range(0, len(r), rows)]) * half


def _r_norm_integral(params: WaveParams, n: int, r_max: float, n_r: int = 160, n_p: int = 96) -> float:
    # the momentum-coupled density needs W^(g-2) Gamma(2-g, rW) at the large
    # |p_r| of the tangent map, where Gamma overflows though the product is small
    if params.variant is not Variant.REAL:
        raise DomainError("normalization integrals cover the real variant only")
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    # two panels biased toward the origin where the density peaks
    split = min(4.0 / params.u, 0.5 * r_max)
    panels = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in ((1e-9, split), (split, r_max))]
    r = np.concatenate([mid + half * nodes for mid, half in panels])
    wr = np.concatenate([half * weights for _, half in panels])
    return float(wr @ _p_integral(_density_integrand(params, n), r, n_p))


def _default_r_max(params: WaveParams) -> float:
    # |psi|^2 r^2 ~ r^(2c-4) exp(-2ur): walk out until the envelope is
    # 1e-12 of its peak
    u, c = params.u, params.c_order
    peak_r = max((c - 2.0) / u, 0.5 / u)

    def env(r):
        return (2.0 * c - 4.0) * math.log(max(r, 1e-12)) - 2.0 * u * r

    top = env(peak_r)
    r = peak_r
    while env(r) > top + math.log(1e-12):
        r *= 1.25
    return r


def normalize_B(params: WaveParams, n: int, r_pad: float = 1.0) -> float:
    """B such that 4 pi int |psi_n|^2 r^2 dr dp_r = 1.

    The angular part is the bare 4 pi (angular variables were separated).
    The r integration stops where the integrand envelope falls below 1e-12
    of its peak, scaled by r_pad; momentum is integrated exactly through a
    tangent compactification (its 1/p^2 tail cannot be truncated at any
    reasonable cutoff, so substitution replaces truncation there).  Real
    variant only: the momentum-coupled one raises DomainError.
    """
    base = replace(params, B=1.0)
    r_max = _default_r_max(base) * r_pad
    total = 4.0 * math.pi * _r_norm_integral(base, n, r_max)
    if not (total > 0 and math.isfinite(total)):
        raise NumericError(f"normalization integral failed: {total}")
    return 1.0 / math.sqrt(total)


def total_probability(params: WaveParams, n: int) -> float:
    """4 pi int |psi_n|^2 r^2 dr dp_r with the stored B, on an independent
    (finer and 1.5x wider) grid than normalize_B uses."""
    r_max = _default_r_max(params) * 1.5
    return 4.0 * math.pi * _r_norm_integral(params, n, r_max, 220, 140)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular (r, p_r) grid of amplitudes and densities."""

    r_values: tuple[float, ...]
    p_values: tuple[float, ...]
    amplitudes: np.ndarray  # complex, shape (len(r), len(p))
    densities: np.ndarray  # real, |amplitude|^2
    cell_errors: tuple[tuple[int, int, str], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.amplitudes.shape != (len(self.r_values), len(self.p_values)):
            raise DomainError("amplitude matrix shape does not match the axes")
        if self.densities.shape != self.amplitudes.shape:
            raise DomainError("density matrix shape does not match amplitudes")


def density_grid(params: WaveParams, n: int, r_axis, p_axis) -> PhaseSpaceGrid:
    """Evaluate psi_n on the tensor grid r_axis x p_axis.

    Axes are (lo, hi, count) tuples or explicit ascending sequences.  An n
    that no cell can take (out of range, n > 0 on the momentum-coupled
    variant, a degenerate gamma order) raises before any cell is evaluated;
    other cell evaluation failures are recorded per cell (amplitude NaN),
    not raised.  Rows are evaluated a block at a time, whole blocks per
    psi_n call.
    """
    _check_index(params, int(n))
    rs = _axis_values(r_axis, "r")
    ps = _axis_values(p_axis, "p")
    amp = np.empty((len(rs), len(ps)), dtype=complex)
    errors: list[tuple[int, int, str]] = []
    r_col, p_row = np.array(rs)[:, None], np.array(ps)
    rows = max(1, _BLOCK_CELLS // len(ps))
    for lo in range(0, len(rs), rows):
        _fill_rows(params, n, r_col, p_row, lo, min(lo + rows, len(rs)), amp, errors)
    return PhaseSpaceGrid(
        r_values=tuple(rs),
        p_values=tuple(ps),
        amplitudes=amp,
        densities=np.abs(amp) ** 2,
        cell_errors=tuple(errors),
    )


def _fill_rows(params, n, r_col, p_row, lo, hi, amp, errors):
    # Rows lo:hi in one call; if it raises, halve the block down to single
    # rows, then evaluate that row cell by cell so each failing cell records
    # its own error, in row-major order.
    try:
        amp[lo:hi] = psi_n(params, n, r_col[lo:hi], p_row)
        return
    except Exception:  # recorded per cell below, never abort the grid
        pass
    if hi - lo > 1:
        mid = (lo + hi) // 2
        _fill_rows(params, n, r_col, p_row, lo, mid, amp, errors)
        _fill_rows(params, n, r_col, p_row, mid, hi, amp, errors)
        return
    r = float(r_col[lo, 0])
    for j, p in enumerate(p_row.tolist()):
        try:
            amp[lo, j] = psi_n(params, n, r, p)
        except Exception as exc:
            amp[lo, j] = complex(math.nan, math.nan)
            errors.append((lo, j, f"{type(exc).__name__}: {exc}"))


def _axis_values(axis, name: str) -> list[float]:
    if isinstance(axis, tuple) and len(axis) == 3 and isinstance(axis[2], int):
        lo, hi, count = axis
        if count < 1:
            raise DomainError(f"{name} axis needs at least 1 point")
        if count == 1:
            return [float(lo)]
        if not lo < hi:
            raise DomainError(f"{name} axis interval is empty: [{lo}, {hi}]")
        return [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    vals = [float(v) for v in axis]
    if not vals:
        raise DomainError(f"{name} axis is empty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise DomainError(f"{name} axis must be strictly ascending")
    return vals


def peak_radius(grid: PhaseSpaceGrid, p_index: int) -> float:
    """Radius maximizing the radial probability weight r^2 * density at one
    momentum column.

    The bare |psi|^2 is maximal at the r -> 0 edge (the incomplete gamma is
    largest there), so the physically meaningful peak location is that of
    the radial distribution r^2 |psi|^2, the same weight the normalization
    integral carries.  A maximum on the first or last radius is no resolved
    peak and raises DomainError.
    """
    col = grid.densities[:, p_index] * np.asarray(grid.r_values) ** 2
    i = int(np.argmax(col))
    if i in (0, len(col) - 1):
        raise DomainError(
            f"peak_radius: the maximum of r^2 |psi|^2 at p_r={grid.p_values[p_index]} lies on the r-axis edge r={grid.r_values[i]}"
        )
    return grid.r_values[i]
