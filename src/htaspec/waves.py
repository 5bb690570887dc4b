"""Phase-space wave functions of the Cornell system.

The half-transformed bound state is, in the collective variable
A = r + i p_bar/2 and with u = sqrt(-alpha), c = beta/(2u),

    Omega_n(A) = exp(-u A) * A^(c-3) * y_n(1/A),

y_n the Rodrigues polynomial of the weight exp(-2u/x) x^(-2c) (minus
pi-branch: the plus branch grows like exp(+uA) and is not normalizable),
y_n(x) = sum_j C(n, j) (n + 1 - 2c)_j (2u)^(n-j) x^j by nu.rodrigues_y.
The physical wave function is the inverse transform back to p_r along the
Fourier line s = i*omega, taken over the convergent half-line (the
exp(-u A) factor diverges on the other side):

    psi_n(r, p_r) = e^{-2 i p_r r} (1/2 pi) *
                    int_{-inf}^{0} Omega_n(r - w/2) e^{-i w p_r} dw.

Substituting t = r - w/2 turns each polynomial term into an upper
incomplete gamma function,

    psi_n(r, p_r) = (B/pi) e^{-4 i p_r r} *
                    sum_j y_nj (u - 2 i p_r)^(2 + j - c)
                          Gamma(c - 2 - j, r (u - 2 i p_r)).

The momentum-coupled variant (complex5, n = 0 only) has no phase strip and
the A-kernel exp((2 i p_r - u) A) A^(1 - g), g = (4 i p_r + beta_c)/(2u):
the same transform gives the one term (B/pi) e^{-2 i p_r r} W^(g-2)
Gamma(2 - g, r W), W = u - 4 i p_r.  So psi_n is one lane, where a variant
picks a phase rate, a W and its (coefficient, power, order) terms, and an
integer order is an ordinary point (Gamma(s, z) is entire in s).
psi_n_numeric, with its own A-kernels, is the independent cross-check.

At the level rule's energy, for beta >= 0, psi_n's Omega_n solves the kernel
equation of half_transformed_kernel at gamma_n = gamma - 2(n + 1), not gamma:
an n-dependent C2 -> C2 + (n + 1)/(4m), so states of one l solve different
equations.

By Parseval in p_r, 4 pi int |psi_n|^2 r^2 dr dp_r = (4/3) B^2 int_0^inf
t^3 Omega_n(t)^2 dt, which an (n + 1)-node Gauss-Laguerre rule integrates
exactly (normalize_B); total_probability takes the left side by 2-D
quadrature as its check.  So grid's B normalizes the phase-space L^2 norm,
measure r^2 dr dp_r, under which states of one l are not orthogonal: the
cross integral (4/3) B_n B_m int t^3 Omega_n Omega_m dt reads -0.7996 for
ccbar <1S|2S> (-0.92 to +0.81 over bundled ccbar and bbbar 1S-3S, 1P-2P).
The half-line ends at w = 0, where Omega_n(r) != 0, so |psi_n(r, p_r)|^2 ->
B^2 Omega_n(r)^2 / (4 pi^2 p_r^2) as |p_r| grows: <p_r^2> diverges, <|p_r|>
like a logarithm, and a momentum extent must be a quantile, not a moment.

All branch powers are exp(power * principal log); correctness of the branch
bookkeeping is adjudicated by the quadrature equivalence, not by matching
any particular printed rearrangement of the formulas.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import nu
from .core import Checked, MesonSystem, QuantumState, Variant, _axis_values, real_constants
from .errors import DomainError, NonPhysicalParameters, NumericError
from .special import gauss_laguerre, upper_incomplete_gamma

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
    "wave_params",
]

_MAX_N = 6
_BLOCK_CELLS = 1 << 12  # cells per psi_n call in density_grid; bounds temporaries
# total_probability's rule: the smallest that tests/test_waves.py's
# convergence table shows converged to 1e-12
_PROB_R_NODES, _PROB_P_NODES = 50, 40
_R_DOMAIN = "psi_n: r must be > 0, got {}"


class WaveParams(Checked, namedtuple("WaveParams", "alpha beta B variant")):
    """alpha and beta at a fixed level energy, plus the normalization B and
    the variant (a Variant or its token, parsed by Variant.parse).

    alpha must be negative (bound state, E < C0 of core.cornell_quadratic),
    and alpha and beta finite; they are the real-variant constants of
    core.real_constants, whose gamma the wave function sees only through the
    level energy (the momentum-coupled variant derives its momentum-dependent
    constants from them at each p_r).
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, B: float = 1.0, variant: Variant | str = Variant.REAL):
        if not (alpha < 0):
            raise DomainError(f"WaveParams.alpha must be negative (bound state), got {alpha}")
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise DomainError(f"WaveParams.alpha and beta must be finite, got {alpha}, {beta}")
        if not (math.isfinite(B) and B > 0):
            raise DomainError(f"WaveParams.B must be positive and finite, got {B}")
        return super().__new__(cls, alpha, beta, B, Variant.parse(variant))

    @property
    def u(self) -> float:
        return math.sqrt(-self.alpha)

    @property
    def c_order(self) -> float:
        """beta / (2 sqrt(-alpha)), the gamma-order parameter."""
        return self.beta / (2.0 * self.u)


def wave_params(sys: MesonSystem, state: QuantumState, level_energy: float, variant: Variant | str = Variant.REAL) -> WaveParams:
    """Build WaveParams (B = 1) from a system and a level energy."""
    alpha, beta, _ = real_constants(sys, state, level_energy)
    return WaveParams(alpha, beta, variant=variant)


def _check_index(params: WaveParams, n: int) -> int:
    """The checks of psi_n that hold for every cell alike; returns n, an
    integer: 1.5 raises TypeError, an n no cell can take DomainError."""
    n = operator.index(n)
    if not 0 <= n <= _MAX_N:
        raise DomainError(f"psi_n: n must be in [0, {_MAX_N}], got {n}")
    if params.variant is not Variant.REAL and n != 0:
        raise DomainError("momentum-coupled variant is implemented for n = 0 only")
    return n


@lru_cache(maxsize=512)
def _rodrigues_coeffs_cached(alpha: float, beta: float, n: int) -> tuple[complex, ...]:
    # coefficients of y_n for the minus-branch weight exp(-2u/x) x^(-2c)
    u = math.sqrt(-alpha)
    c = beta / (2.0 * u)
    return nu.rodrigues_y(nu.ExpPowerForm(rate=-2.0 * u, power=-2.0 * c), n)


def psi_n(params: WaveParams, n: int, r, p_r):
    """Closed-form psi_n of either variant (complex5: n = 0 only), the
    incomplete-gamma sum of the module docstring.

    r and p_r broadcast against each other: scalars give a complex, arrays a
    complex array, with one Gamma(s, z) call per term.  Only an n that no
    cell can take (see _check_index) and r <= 0 raise (DomainError); a cell
    with no finite value (a term past double range, a stalled Gamma
    iteration, a non-finite r or p_r) comes back inf or NaN, and the caller
    decides what that means.

    For n >= 4 the terms cancel: the error, ~1e-15 of their summed magnitudes,
    reaches ~1e-10 of |psi_n|, and 2.4e-9 near a node of bbbar 6S (vs mpmath).
    """
    n = _check_index(params, n)
    r, p_r = np.asarray(r, float), np.asarray(p_r, float)
    if (r <= 0).any():
        raise DomainError(_R_DOMAIN.format(r[r <= 0][0]))
    u, c = params.u, params.c_order
    with np.errstate(all="ignore"):
        if params.variant is Variant.REAL:
            rate, w = 4j, u - 2j * p_r
            terms = [(y, 2.0 + j - c, c - 2.0 - j) for j, y in enumerate(_rodrigues_coeffs_cached(params.alpha, params.beta, n)) if y != 0]
        else:
            beta_c = -params.beta - 8j * p_r  # in terms of the stored real-variant beta
            g = (4j * p_r + beta_c) / (2.0 * u)
            rate, w = 2j, u - 4j * p_r
            terms = [(1.0, g - 2.0, 2.0 - g)]
        acc = 0j
        for coeff, power, order in terms:
            acc = acc + coeff * w ** power * _gamma_or_nan(order, r * w)
        value = params.B / math.pi * np.exp(-rate * p_r * r) * acc
    return complex(value) if np.ndim(value) == 0 else value


def _gamma_or_nan(s, z):
    # Gamma(s, z), and NaN where (s, z) leaves its domain: a non-finite r or
    # p_r, or r |p_r| past double range
    ok = np.isfinite(s) & np.isfinite(z) & (z.real > 0)
    return np.where(ok, upper_incomplete_gamma(np.where(ok, s, 1.0), np.where(ok, z, 1.0)), math.nan)


def half_transformed_kernel(params: WaveParams, n: int):
    """Omega_n as a callable of the complex collective variable A.

    Omega_n(A) = exp(-uA) A^(c-3) y_n(1/A) = exp(-uA) sum_j y_j A^(c-3-j) solves

        Omega'' + 6 Omega'/A + (alpha + beta/A + g/A^2) Omega = 0

    iff 2u j y_j = -((c-2-j)(c+3-j) + g) y_(j-1), j = 1..n+1, y_(n+1) = 0.
    At the level rule's energy (core) and beta >= 0 that holds at
    g = gamma_n = gamma - 2(n+1), gamma of core.real_constants; the strict
    NU condition (nu.lambda_n), which no command uses, would give g = gamma.
    """
    if params.variant is not Variant.REAL:
        raise DomainError("half_transformed_kernel covers the real variant only")
    u, c = params.u, params.c_order
    coeffs = _rodrigues_coeffs_cached(params.alpha, params.beta, n)

    def kernel(a: complex) -> complex:
        a = complex(a)
        return cmath.exp(-u * a + (c - 3.0) * cmath.log(a)) * nu.polyval(coeffs, 1.0 / a)

    return kernel


def psi_n_numeric(params: WaveParams, n: int, r: float, p_r: float) -> complex:
    """psi_n by direct oscillatory quadrature of the half-line transform.

    Integrates (1/2 pi) Omega_n(r - w/2) e^{-i w p_r} over w in (-inf, 0]
    with Gauss-Legendre panels sized to the oscillation period, stopping
    when three panels in a row each add less than 1e-9 of the running sum;
    the exp(u w / 2) decay guarantees convergence.  Cross-checks psi_n to
    ~1e-9.
    """
    n = _check_index(params, n)
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


def normalize_B(params: WaveParams, n: int) -> float:
    """B such that 4 pi int |psi_n|^2 r^2 dr dp_r = 1 (the angular part is the
    bare 4 pi), from the Parseval form of the module docstring.  With
    Omega_n(t) = exp(-u t) t^(c-3) y_n(1/t) and x = 2ut it is

        (4/3) B^2 Gamma(a + 1) (2u)^-(a+1) sum_i w_i P(x_i)^2,  a = 2c - 3 - 2n,

    P(x) = sum_j C(n, j) (n + 1 - 2c)_j x^(n-j), and (x_i, w_i) the
    (n + 1)-node generalized Gauss-Laguerre rule for x^a e^-x with unit-sum
    weights: exact for the degree-2n P^2, every term positive.  a <= -1
    diverges at r -> 0 and raises NonPhysicalParameters; the
    momentum-coupled variant raises DomainError."""
    if params.variant is not Variant.REAL:
        raise DomainError("normalization integrals cover the real variant only")
    n = _check_index(params, n)
    u, c = params.u, params.c_order
    s = 2.0 * c - 2.0 - 2 * n  # a + 1
    if s <= 0:
        raise NonPhysicalParameters(f"not normalizable: the integral of |psi_{n}|^2 r^2 diverges at r -> 0 (c = {c:.6g})")
    # P(x) = x^n y_n(1/x) for the weight exp(-1/x) x^(-2c): its Rodrigues
    # coefficients, ascending in 1/x, are P's in descending powers of x
    p_coeffs = [y.real for y in nu.rodrigues_y(nu.ExpPowerForm(rate=-1.0, power=-2.0 * c), n)]
    x, w = gauss_laguerre(s - 1.0, n + 1)
    total = 4.0 / 3.0 * math.fsum(w * np.polyval(p_coeffs, x) ** 2)
    return math.exp(-0.5 * (math.lgamma(s) - s * math.log(2.0 * u))) / math.sqrt(total)


def total_probability(params: WaveParams, n: int) -> float:
    """4 pi int |psi_n|^2 r^2 dr dp_r with the stored B by 2-D quadrature of
    psi_n, normalize_B's independent check: two Gauss-Legendre r panels of
    _PROB_R_NODES nodes out to 1.5x the radius where the envelope falls to
    1e-12 of its peak, and _PROB_P_NODES nodes in p_r = (u/2) tan(theta) over
    the whole of (-pi/2, pi/2), which truncates no momentum.  u/2 is the
    momentum scale of psi_n, whose p_r enters through r (u - 2 i p_r).  The
    rule is evaluated as one density_grid.  Real variant only; a density that
    does not integrate at r -> 0 raises NonPhysicalParameters, and a failed
    cell of that grid (|psi_n|^2 not finite at a rule node) NumericError."""
    # the momentum-coupled density needs W^(g-2) Gamma(2-g, rW) at the large
    # |p_r| of the tangent map, where Gamma overflows though the product is small
    if params.variant is not Variant.REAL:
        raise DomainError("normalization integrals cover the real variant only")
    r_max = _default_r_max(params) * 1.5
    nodes, weights = np.polynomial.legendre.leggauss(_PROB_R_NODES)
    # two r panels biased toward the origin where the density peaks
    split = min(4.0 / params.u, 0.5 * r_max)
    panels = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in ((1e-9, split), (split, r_max))]
    r = np.concatenate([mid + half * nodes for mid, half in panels])
    wr = np.concatenate([half * weights for _, half in panels])
    nodes, weights = np.polynomial.legendre.leggauss(_PROB_P_NODES)
    half, scale = math.pi / 2.0, params.u / 2.0
    th = half * nodes
    p, wp = scale * np.tan(th), scale * weights / np.cos(th) ** 2
    # near r = 0, psi_n(r, q/r) ~ r^k g(q): r^2 int |psi_n|^2 dp_r ~ r^(2k+1), which the first r
    # node cannot see; it integrates only if r times it, probed below that node, falls toward 0
    # where the density diverges, psi_n overflows at the probe: the test reads the inf or nan
    probe = np.array([[1e-10], [1e-9]])
    with np.errstate(over="ignore", invalid="ignore"):
        val = psi_n(params, n, probe, p / probe)
        edge = (val.real ** 2 + val.imag ** 2) * probe * probe @ wp
    if not (edge[0] < edge[1] or edge[1] == 0):  # a non-finite probe fails too
        raise NonPhysicalParameters(f"not normalizable: r^2 int |psi_{n}|^2 dp_r grows like 1/r or faster at r -> 0")
    grid = density_grid(params, n, r, p)
    if grid.cell_errors:
        raise NumericError(f"total_probability: psi_{n} is not finite at a rule node")
    amp, rc = grid.amplitudes, r[:, None]
    inner = (amp.real ** 2 + amp.imag ** 2) * rc * rc @ wp  # the p_r integral of |psi_n|^2 r^2 at each radius
    return 4.0 * math.pi * float(wr @ (inner * half))


class PhaseSpaceGrid:
    """Rectangular (r, p_r) grid of amplitudes and densities.

    A plain class, not a value type: it holds arrays, and tuple equality
    on arrays means nothing.
    """

    __slots__ = ("r_values", "p_values", "amplitudes", "densities", "cell_errors")

    def __init__(self, r_values, p_values, amplitudes, densities, cell_errors=()):
        # amplitudes complex and densities |amplitude|^2, both of shape (len(r), len(p));
        # cell_errors holds (i, j, message) of each failed cell
        if amplitudes.shape != (len(r_values), len(p_values)):
            raise DomainError("amplitude matrix shape does not match the axes")
        if densities.shape != amplitudes.shape:
            raise DomainError("density matrix shape does not match amplitudes")
        self.r_values, self.p_values = r_values, p_values
        self.amplitudes, self.densities, self.cell_errors = amplitudes, densities, cell_errors


def density_grid(params: WaveParams, n: int, r_axis, p_axis) -> PhaseSpaceGrid:
    """Evaluate psi_n on the tensor grid r_axis x p_axis.

    Axes are explicit sequences of values, never (lo, hi, count): each
    must hold at least one value, strictly ascending and finite, or raise
    DomainError.  An n that no cell can take (out of range, or n > 0 on the
    momentum-coupled variant) raises DomainError before any cell is
    evaluated.
    Past that, a cell fails by its value, never by raising: the rows with
    r <= 0, a prefix of the ascending axis, fail with psi_n's DomainError
    text; the other rows take one psi_n call per block of rows, and each of
    their cells whose density is not finite (|psi_n| past ~1e154, or psi_n
    inf or NaN) fails with one NumericError text.  A failed cell's amplitude
    and density are NaN, and cell_errors lists its (i, j, message) in
    row-major order.
    """
    n = _check_index(params, n)
    rs = _axis_values(r_axis, "r")
    ps = _axis_values(p_axis, "p")
    r_col, p_row = np.array(rs)[:, None], np.array(ps)
    first = int(np.count_nonzero(r_col <= 0))  # the rows before it have r <= 0
    amp = np.full((len(rs), len(ps)), complex(math.nan, math.nan))
    rows = max(1, _BLOCK_CELLS // len(ps))
    for lo in range(first, len(rs), rows):
        amp[lo : lo + rows] = psi_n(params, n, r_col[lo : lo + rows], p_row)
    with np.errstate(over="ignore"):
        dens = np.abs(amp) ** 2
    bad = ~np.isfinite(dens)
    amp[bad], dens[bad] = complex(math.nan, math.nan), math.nan
    errors = [(i, j, f"DomainError: {_R_DOMAIN.format(rs[i])}") for i in range(first) for j in range(len(ps))]
    errors += [(first + i, j, "NumericError: |psi_n|^2 is not finite") for i, j in np.argwhere(bad[first:]).tolist()]
    return PhaseSpaceGrid(r_values=tuple(rs), p_values=tuple(ps), amplitudes=amp, densities=dens, cell_errors=tuple(errors))


def peak_radius(grid: PhaseSpaceGrid, p_index: int) -> float:
    """Radius maximizing the radial probability weight r^2 * density at one
    momentum column.

    The bare |psi|^2 is maximal at the r -> 0 edge (the incomplete gamma is
    largest there), so the physically meaningful peak location is that of
    the radial distribution r^2 |psi|^2, the same weight the normalization
    integral carries.  A maximum on the first or last radius is no resolved
    peak and raises DomainError, and a failed (NaN) cell in the column
    NumericError.
    """
    col = grid.densities[:, p_index] * np.asarray(grid.r_values) ** 2
    i = int(np.argmax(col))  # the first NaN, if the column holds one
    if math.isnan(col[i]):
        raise NumericError(f"peak_radius: cell ({i},{p_index}) at r={grid.r_values[i]} failed; the column has no known peak")
    if i in (0, len(col) - 1):
        raise DomainError(
            f"peak_radius: the maximum of r^2 |psi|^2 at p_r={grid.p_values[p_index]} lies on the r-axis edge r={grid.r_values[i]}"
        )
    return grid.r_values[i]
