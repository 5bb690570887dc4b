"""Cornell-parameter fitting against experimental level masses.

The objective is the unweighted RMS of (model - experimental) mass over the
levels flagged for fitting; levels where the model has no bound state
contribute a flat 10 GeV penalty instead of aborting the optimizer.  The
minimizer is a hand-rolled Nelder-Mead simplex (derivative-free; the
landscape is cheap, smooth away from the physicality boundary, and bimodal
in a, hence multi-start seeding with both a-sign basins).  Convergence means
the simplex diameter in (a, b, delta) fell below 1e-8 (GeV^2, GeV^2, GeV).

Each evaluation builds the system's level rule (core.level_rule) once and
scores every level through it: 13-20 us per evaluation, against 35-46 us
while each level re-formed the system's quadratic.  The default fit of a
seeded three-meson, six-level dataset (5,029 evaluations) takes 0.06-0.10 s
against 0.15-0.25 s (2-vCPU host, in process, medians of 7 interleaved runs).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import combinations
from operator import add, itemgetter

from .core import CornellParams, MesonSystem, Variant, cornell_quadratic, level_rule, mass_spectrum_detailed
from .dataio import ExperimentalLevel
from .errors import (
    DegenerateStateError,
    DomainError,
    FitFailedError,
    NonPhysicalParameters,
    UnderdeterminedFitError,
)

__all__ = [
    "ExperimentalLevel",
    "LevelResult",
    "FitResult",
    "residual",
    "per_level_results",
    "fit",
    "nelder_mead",
    "default_seeds",
]

_PENALTY_GEV = 10.0


# one row of a fit: model_mass is NaN where the model has no bound state,
# error (model - exp) is None unless both masses exist
LevelResult = namedtuple("LevelResult", "label model_mass exp_mass error branch included", defaults=(True,))


class FitResult(namedtuple("FitResult", "params residual_rms per_level converged n_eval", defaults=(0,))):
    """Fitted parameters, their RMS residual, one LevelResult per level,
    and whether the simplex converged after n_eval objective calls."""

    __slots__ = ()

    def recomputed_rms(self) -> float:
        """Independent recomputation of residual_rms from per_level rows."""
        rows = [lr for lr in self.per_level if lr.included]
        errs = [lr.error for lr in rows if lr.error is not None and math.isfinite(lr.model_mass)]
        penal = [lr for lr in rows if lr.exp_mass is not None and not math.isfinite(lr.model_mass)]
        total = math.fsum(e * e for e in errs) + _PENALTY_GEV ** 2 * len(penal)
        count = len(errs) + len(penal)
        return math.sqrt(total / count) if count else math.nan


def _usable(levels) -> list[ExperimentalLevel]:
    return list(filter(ExperimentalLevel.usable.fget, levels))


def residual(sys: MesonSystem, levels, variant: Variant | str = Variant.REAL) -> float:
    """Unweighted RMS mass residual over the fit levels (GeV)."""
    variant = Variant.parse(variant)
    used = _usable(levels)
    if len(used) < 3:
        raise UnderdeterminedFitError(
            f"{len(used)} usable levels for 3 free parameters; need at least 3"
        )
    try:
        level = level_rule(sys, variant)
    except DomainError:  # delta <= 0: every level takes the penalty
        return _PENALTY_GEV
    mass_sum, total = sys.mass_sum, 0.0
    for lv in used:
        try:
            total += (mass_sum + level(lv.state)[0] - lv.mass) ** 2
        except (NonPhysicalParameters, DegenerateStateError, DomainError):
            total += _PENALTY_GEV ** 2
    return math.sqrt(total / len(used))


def per_level_results(sys: MesonSystem, levels, variant: Variant | str = Variant.REAL) -> tuple[LevelResult, ...]:
    variant = Variant.parse(variant)
    out = []
    for lv in levels:
        try:
            model, branch = mass_spectrum_detailed(sys, lv.state, variant)
        except (NonPhysicalParameters, DegenerateStateError, DomainError):
            model, branch = math.nan, ""
        err = model - lv.mass if (lv.mass is not None and math.isfinite(model)) else None
        out.append(LevelResult(lv.label, model, lv.mass, err, branch, included=lv.usable))
    return tuple(out)


def nelder_mead(func, seed, max_iter=6000):
    """Minimize func over R^k: plain Nelder-Mead in unscaled coordinates.

    Returns (x_best, f_best, converged, n_eval).  Convergence requires the
    simplex diameter (max pairwise distance) < 1e-8 within max_iter
    iterations; hitting the cap returns the best vertex, unconverged.  Kept
    hand-rolled: scipy's optimizers would make fit import scipy, against the
    numpy/scipy-free start-up of the fit command.
    """
    k = len(seed)
    x0 = [float(v) for v in seed]
    simplex = [list(x0)]
    for i in range(k):
        p = list(x0)
        p[i] += 0.05 * max(abs(p[i]), 0.1)
        simplex.append(p)
    # (f, x) pairs, sorted in place by f: stably, as the index sort of the values was
    verts = [(func(p), p) for p in simplex]
    n_eval = k + 1

    alpha, gamma_e, rho, sigma = 1.0, 2.0, 0.5, 0.5
    converged = False
    for _ in range(max_iter):
        verts.sort(key=itemgetter(0))
        simplex = [x for _, x in verts]
        # the diameter (max pairwise distance; max() skips a NaN) below 1e-8
        if not any(math.dist(p, q) >= 1e-8 for p, q in combinations(simplex, 2)):
            converged = True
            break
        # a plain left-to-right sum from 0: builtin sum() of floats is
        # compensated from Python 3.12 on, and would make the digits of every
        # fit depend on the interpreter
        centroid = [reduce(add, c, 0.0) / k for c in zip(*simplex[:-1])]
        (f_best, _), (f_next, _), (f_worst, worst) = verts[0], verts[-2], verts[-1]
        refl = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        f_r = func(refl)
        n_eval += 1
        if f_best <= f_r < f_next:
            verts[-1] = f_r, refl
        elif f_r < f_best:
            exp_p = [c + gamma_e * (r - c) for c, r in zip(centroid, refl)]
            f_e = func(exp_p)
            n_eval += 1
            verts[-1] = (f_e, exp_p) if f_e < f_r else (f_r, refl)
        else:
            contr = [c + rho * (w - c) for c, w in zip(centroid, worst)]
            f_c = func(contr)
            n_eval += 1
            if f_c < f_worst:
                verts[-1] = f_c, contr
            else:
                best = simplex[0]
                for i in range(1, k + 1):
                    shrunk = [b + sigma * (p - b) for b, p in zip(best, simplex[i])]
                    verts[i] = func(shrunk), shrunk
                n_eval += k
    f_best, x_best = sorted(verts, key=itemgetter(0))[0]
    return x_best, f_best, converged, n_eval


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
    """Best-of-multi-start Nelder-Mead fit of (a, b, delta).

    Bounds b > 0, delta > 0 are enforced through the objective (violations
    cost the same flat penalty as non-physical spectra).  Ties between seeds
    break on the lowest seed index; with no seeds the defaults around the
    stored parameters are used.
    """
    variant = Variant.parse(variant)
    if seeds is None:
        seeds = default_seeds(sys_initial.params)
    if not seeds:
        raise FitFailedError("no seeds given")
    for s in seeds:
        if s.delta <= 0:
            raise DomainError(f"seed delta must be > 0, got {s.delta}")
    used = _usable(levels)
    if len(used) < 3:
        raise UnderdeterminedFitError(
            f"{len(used)} usable levels for 3 free parameters; need at least 3"
        )

    m_q, m_qbar, _, label = sys_initial

    def objective(x):
        a, b, d = x
        if b <= 0 or d <= 0:
            return _PENALTY_GEV
        try:
            sys_x = MesonSystem(m_q, m_qbar, CornellParams(a, b, d), label)
        except DomainError:
            return _PENALTY_GEV
        return residual(sys_x, used, variant)

    best = None
    total_eval = 0
    for idx, seed in enumerate(seeds):
        x, fval, converged, n_eval = nelder_mead(objective, [seed.a, seed.b, seed.delta])
        total_eval += n_eval
        if fval >= _PENALTY_GEV:
            continue
        # residuals within the numeric noise floor count as ties, and ties
        # resolve to the lowest seed index (the mirror-a basin is an exact
        # twin of the primary one, so this keeps selection deterministic)
        if best is None or fval < best[1] - 1e-9:
            best = (x, fval, converged, idx)
    if best is None:
        raise FitFailedError("every seed ended non-physical; no fit result")
    x, fval, converged, _ = best
    params = CornellParams(*x)
    sys_fit = MesonSystem(sys_initial.m_q, sys_initial.m_qbar, params, sys_initial.label)
    rows = per_level_results(sys_fit, levels, variant)
    return FitResult(
        params=params,
        residual_rms=fval,  # the objective at x is residual(sys_fit, used, variant)
        per_level=rows,
        converged=converged,
        n_eval=total_eval,
    )
