"""Cornell-parameter fitting against experimental level masses.

The objective is the unweighted RMS of (model - experimental) mass over the
levels flagged for fitting; levels where the model has no bound state
contribute a flat 10 GeV penalty instead of aborting the optimizer.  The
minimizer is a hand-rolled Nelder-Mead simplex (derivative-free; the
landscape is cheap, smooth away from the physicality boundary, and bimodal
in a, hence multi-start seeding with both a-sign basins).  Convergence means
the simplex diameter in (a, b, delta) fell below 1e-8 (GeV^2, GeV^2, GeV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CornellParams, MesonSystem, QuantumState, Variant, cornell_quadratic, mass_spectrum_detailed
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


@dataclass(frozen=True)
class ExperimentalLevel:
    """One spectroscopic level: label, quantum numbers, measured mass."""

    label: str
    state: QuantumState
    mass: float | None
    include_in_fit: bool = True

    def __post_init__(self):
        if self.mass is not None and not math.isfinite(self.mass):
            raise DomainError(f"level {self.label}: mass must be finite or None")

    @property
    def usable(self) -> bool:
        return self.include_in_fit and self.mass is not None


@dataclass(frozen=True)
class LevelResult:
    label: str
    model_mass: float  # NaN when non-physical
    exp_mass: float | None
    error: float | None  # model - exp where both exist
    branch: str
    included: bool = True


@dataclass(frozen=True)
class FitResult:
    params: CornellParams
    residual_rms: float
    per_level: tuple[LevelResult, ...]
    converged: bool
    n_eval: int = 0

    def recomputed_rms(self) -> float:
        """Independent recomputation of residual_rms from per_level rows."""
        rows = [lr for lr in self.per_level if lr.included]
        errs = [lr.error for lr in rows if lr.error is not None and math.isfinite(lr.model_mass)]
        penal = [lr for lr in rows if lr.exp_mass is not None and not math.isfinite(lr.model_mass)]
        total = sum(e * e for e in errs) + _PENALTY_GEV ** 2 * len(penal)
        count = len(errs) + len(penal)
        return math.sqrt(total / count) if count else math.nan


def _usable(levels) -> list[ExperimentalLevel]:
    return [lv for lv in levels if lv.usable]


def residual(sys: MesonSystem, levels, variant: Variant | str = Variant.REAL) -> float:
    """Unweighted RMS mass residual over the fit levels (GeV)."""
    variant = Variant.parse(variant)
    used = _usable(levels)
    if len(used) < 3:
        raise UnderdeterminedFitError(
            f"{len(used)} usable levels for 3 free parameters; need at least 3"
        )
    total = 0.0
    for lv in used:
        try:
            model, _ = mass_spectrum_detailed(sys, lv.state, variant)
            total += (model - lv.mass) ** 2
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
    hand-rolled: scipy.optimize would make fit import scipy, against the
    numpy/scipy-free start-up of the fit command.
    """
    k = len(seed)
    calls = [0]

    def f(xs):
        calls[0] += 1
        return func(xs)

    x0 = [float(v) for v in seed]
    simplex = [list(x0)]
    for i in range(k):
        p = list(x0)
        p[i] += 0.05 * max(abs(p[i]), 0.1)
        simplex.append(p)
    fvals = [f(p) for p in simplex]

    def diameter():
        d = 0.0
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                d = max(d, math.dist(simplex[i], simplex[j]))
        return d

    alpha, gamma_e, rho, sigma = 1.0, 2.0, 0.5, 0.5
    converged = False
    for _ in range(max_iter):
        order = sorted(range(k + 1), key=lambda i: fvals[i])
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if diameter() < 1e-8:
            converged = True
            break
        centroid = [sum(p[i] for p in simplex[:-1]) / k for i in range(k)]
        worst = simplex[-1]
        refl = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        f_r = f(refl)
        if fvals[0] <= f_r < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_r
        elif f_r < fvals[0]:
            exp_p = [c + gamma_e * (r - c) for c, r in zip(centroid, refl)]
            f_e = f(exp_p)
            if f_e < f_r:
                simplex[-1], fvals[-1] = exp_p, f_e
            else:
                simplex[-1], fvals[-1] = refl, f_r
        else:
            contr = [c + rho * (w - c) for c, w in zip(centroid, worst)]
            f_c = f(contr)
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contr, f_c
            else:
                best = simplex[0]
                for i in range(1, k + 1):
                    simplex[i] = [b + sigma * (p - b) for b, p in zip(best, simplex[i])]
                    fvals[i] = f(simplex[i])
    order = sorted(range(k + 1), key=lambda i: fvals[i])
    return simplex[order[0]], fvals[order[0]], converged, calls[0]


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

    def objective(x):
        a, b, d = x
        if b <= 0 or d <= 0:
            return _PENALTY_GEV
        try:
            sys_x = MesonSystem(sys_initial.m_q, sys_initial.m_qbar, CornellParams(a, b, d), sys_initial.label)
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
