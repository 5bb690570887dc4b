"""Cornell-parameter fitting against experimental level masses.

fit solves the least-squares problem of the (model - experimental) masses of
the levels flagged for fitting in (a, b, delta) by a hand-rolled, pure-Python
Levenberg-Marquardt iteration (so fit imports no numpy), from several seeds:
the masses are bimodal in a, hence seeds in both a-sign basins.  It steps
only to points where every fit level has a bound state; residual, the
unweighted RMS, gives a level without one a flat 10 GeV instead.  Both read
one scoring loop, which builds the system's level rule (core.level_rule)
once per evaluation; fit builds no rule outside it, and returns the best
seed's RMS as scored there.  delta > 0 is CornellParams' rule, so a trial
point that breaks it is inadmissible.  The bundled complex5 fit takes 618
evaluations, where the Nelder-Mead simplex it replaced took 12,414.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from operator import add, mul

from .core import CornellParams, MesonSystem, Variant, cornell_quadratic, level_rule
from .dataio import ExperimentalLevel
from .errors import DomainError, FitFailedError, NonPhysicalParameters

__all__ = [
    "ExperimentalLevel",
    "FitResult",
    "residual",
    "fit",
    "default_seeds",
]

_PENALTY_GEV = 10.0
_MAX_STEPS = 200  # trial steps per seed
_XTOL = 1e-10  # the step test, relative to each parameter
_H = 6e-6  # central-difference step, relative: about eps^(1/3)


class FitResult(namedtuple("FitResult", "params residual_rms converged n_eval")):
    """Fitted parameters, their RMS residual (residual() there, to the bit), whether
    the best seed passed the step test, and the residual evaluations of all seeds."""

    __slots__ = ()


def _usable(levels) -> list[ExperimentalLevel]:
    used = list(filter(ExperimentalLevel.usable.fget, levels))
    if len(used) < 3:
        raise FitFailedError(f"{len(used)} usable levels for 3 free parameters; need at least 3")
    return used


def _level_errors(sys: MesonSystem, used, variant: Variant) -> list[float]:
    """(model - measured) mass per level, NaN where the model has no bound state:
    the one scoring loop of residual and fit (CornellParams holds delta > 0)."""
    level = level_rule(sys, variant)
    mass_sum, out = sys.mass_sum, []
    for lv in used:
        try:
            out.append(mass_sum + level(lv.state)[0] - lv.mass)
        except NonPhysicalParameters:
            out.append(math.nan)
    return out


def _rms(errors) -> float:
    # a plain left-to-right sum from 0: builtin sum() of floats is compensated
    # from Python 3.12 on, and would make the digits depend on the interpreter
    return math.sqrt(reduce(add, (e ** 2 for e in errors), 0.0) / len(errors))


def residual(sys: MesonSystem, levels, variant: Variant | str = Variant.REAL) -> float:
    """Unweighted RMS mass residual over the fit levels (GeV)."""
    variant = Variant.parse(variant)
    errors = _level_errors(sys, _usable(levels), variant)
    return _rms([_PENALTY_GEV if math.isnan(e) else e for e in errors])


def _solve(m, v):
    # Gaussian elimination, stable without pivoting on the symmetric positive
    # definite damped normal matrix; None when m is singular
    rows = [[*row, b] for row, b in zip(m, v)]
    k = len(rows)
    for i in range(k):
        if rows[i][i] == 0:
            return None
        for row in rows[i + 1:]:
            f = row[i] / rows[i][i]
            row[i:] = [x - f * y for x, y in zip(row[i:], rows[i][i:])]
    x = [0.0] * k
    for i in reversed(range(k)):
        x[i] = (rows[i][k] - math.fsum(rows[i][j] * x[j] for j in range(i + 1, k))) / rows[i][i]
    return x


def _levenberg_marquardt(residuals, seed):
    """Least squares of residuals(x), a list of floats or None where x is
    inadmissible, from seed (Marquardt, SIAM J. Appl. Math. 11, 1963;
    Numerical Recipes 3rd ed. 15.5.2).

    Each trial step solves (J^T J + lam diag J^T J) dx = -J^T r, J by central
    differences.  A trial point that is inadmissible or does not lower the
    sum of squares multiplies lam by 10, an accepted one divides it by 10.
    Returns (x, r, converged, n_eval): converged when a trial step passes
    |dx_i| <= _XTOL (|x_i| + _XTOL) within _MAX_STEPS trial steps, r None for
    an inadmissible seed, n_eval the residual evaluations.
    """
    x = [float(v) for v in seed]
    r, n_eval, lam, jtj = residuals(x), 1, 1e-3, None
    if r is None:
        return x, r, False, n_eval
    cost = math.fsum(e * e for e in r)
    for _ in range(_MAX_STEPS):
        if jtj is None:
            jac = []  # J^T, one row per parameter
            for i, xi in enumerate(x):
                h = _H * (abs(xi) or 1.0)
                up, down = residuals([*x[:i], xi + h, *x[i + 1:]]), residuals([*x[:i], xi - h, *x[i + 1:]])
                n_eval += 2
                if up is None or down is None:  # no difference quotient at the boundary
                    return x, r, False, n_eval
                jac.append([(p - q) / ((xi + h) - (xi - h)) for p, q in zip(up, down)])
            jtj = [[math.fsum(map(mul, ci, cj)) for cj in jac] for ci in jac]
            grad = [math.fsum(map(mul, ci, r)) for ci in jac]
        damped = [[v * (1.0 + lam) if i == j else v for j, v in enumerate(row)] for i, row in enumerate(jtj)]
        dx = _solve(damped, [-g for g in grad])
        if dx is None:
            return x, r, False, n_eval
        small = all(abs(d) <= _XTOL * (abs(v) + _XTOL) for d, v in zip(dx, x))
        trial = [v + d for v, d in zip(x, dx)]
        rt = residuals(trial)
        n_eval += 1
        cost_t = math.inf if rt is None else math.fsum(e * e for e in rt)
        if cost_t < cost:
            x, r, cost, lam, jtj = trial, rt, cost_t, lam / 10.0, None
        else:
            lam *= 10.0
        if small:
            return x, r, True, n_eval
    return x, r, False, n_eval


def default_seeds(params: CornellParams) -> list[CornellParams]:
    """Multi-start seeds about a parameter point, including the mirrored-a
    basin: the mass curve is symmetric about the vertex C1 = 0 of
    core.cornell_quadratic (a = 3b/delta^2), so each level is reached from
    a and from its mirror a - 2 C1."""
    a, b, d = params.a, params.b, params.delta
    _, c1, _ = cornell_quadratic(params)
    return [
        CornellParams(a, b, d),
        CornellParams(a * 1.1, b * 0.9, d * 1.1),
        CornellParams(a * 0.9, b * 1.1, d * 0.9),
        CornellParams(a - 2.0 * c1, b, d),
    ]


def fit(
    sys_initial: MesonSystem,
    levels,
    variant: Variant | str = Variant.REAL,
    seeds: list[CornellParams] | None = None,
) -> FitResult:
    """Best-of-multi-start Levenberg-Marquardt fit of (a, b, delta).

    A trial point is admissible when b > 0, delta > 0 (CornellParams' rule)
    and every fit level has a bound state.  Ties between seeds break on the
    lowest seed index; with no seeds the defaults around the stored
    parameters are used.
    """
    variant = Variant.parse(variant)
    if seeds is None:
        seeds = default_seeds(sys_initial.params)
    if not seeds:
        raise FitFailedError("no seeds given")
    used = _usable(levels)
    m_q, m_qbar, _, label = sys_initial

    def residuals(x):
        if x[1] <= 0:
            return None
        try:
            errors = _level_errors(MesonSystem(m_q, m_qbar, CornellParams(*x), label), used, variant)
        except DomainError:  # a trial point CornellParams rejects: non-finite, or delta not > 0
            return None
        return None if any(map(math.isnan, errors)) else errors

    best, total_eval = None, 0
    for seed in seeds:
        x, r, converged, n_eval = _levenberg_marquardt(residuals, seed)
        total_eval += n_eval
        if r is None:
            continue
        # residuals within the numeric noise floor count as ties, and ties
        # resolve to the lowest seed index (the mirror-a basin is an exact
        # twin of the primary one, so this keeps selection deterministic)
        rms = _rms(r)
        if best is None or rms < best[1] - 1e-9:
            best = (x, rms, converged)
    if best is None:
        raise FitFailedError("every seed ended non-physical; no fit result")
    x, rms, converged = best
    return FitResult(CornellParams(*x), rms, converged, total_eval)
