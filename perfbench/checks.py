"""Output checks, each against an oracle independent of the path timed.

* spectrum/scan masses: a seeded sample against ``core.energy_real_via_nu``
  (real7, the NU root-solve route) or ``core.rest_energy_bracket`` (complex5,
  the pure-real rest-energy route written apart from ``energy_complex``), to
  1e-9 relative.
* fit: the generating (a, b, delta) recovered within 5 %.  The spectrum is
  symmetric in a about 3b/delta^2, so the mirrored a is the same fit.
* grid: a seeded sample of cells against an mpmath evaluation of the closed
  form to 1e-5, and density == |amplitude|^2 in every cell.  The oracle
  builds alpha and beta from the Cornell parameters and the level energy of
  the mass oracles above, its own Rodrigues coefficients and
  ``mpmath.gammainc``.  A normalized grid's cells must carry the factor B of
  a one-dimensional Parseval integral (see ``b_oracle``).
* check: exit 0 with every line PASS.

Each checker returns ``(ok, detail, counts)``; counts carries the work the
command wrote (model masses, grid cells).
"""

from __future__ import annotations

import csv
import os
import random

import mpmath
import numpy as np

from htaspec import core
from htaspec.core import CornellParams, QuantumState, Variant
from htaspec.errors import HtaspecError

from workloads import Command, Meson

MASS_RTOL = 1e-9
FIT_RTOL = 0.05
CELL_RTOL = 1e-5
DENSITY_RTOL = 1e-13
MASS_SAMPLES = 4
CELL_SAMPLES = 4


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _oracle_energy(sys_v, variant: Variant, state: QuantumState) -> float:
    if variant is Variant.REAL:
        return core.energy_real_via_nu(sys_v, state)
    return core.rest_energy_bracket(sys_v, state)


def _oracle_mass(meson: Meson, variant: Variant, state: QuantumState, params: CornellParams | None = None) -> float:
    sys_v = meson.system(variant, params)
    return sys_v.mass_sum + _oracle_energy(sys_v, variant, state)


def _mass_errors(samples) -> list[str]:
    bad = []
    for meson, variant, state, params, written in samples:
        want = _oracle_mass(meson, variant, state, params)
        if not abs(written - want) <= MASS_RTOL * abs(want):
            bad.append(f"{meson.label} {state.label} {variant.value}: wrote {written!r}, oracle {want!r}")
    return bad


def check_spectrum(cmd: Command, rc: int, stdout: str, rng: random.Random):
    variant = Variant.parse(cmd.meta["variant"])
    written = []  # (meson, state, mass)
    for label, meson in cmd.meta["mesons"].items():
        for row in _rows(os.path.join(cmd.out, f"{label}_spectrum.csv")):
            written.append((meson, QuantumState(int(row["n"]), int(row["l"])), float(row["model_mass"])))
        for fig in ("fig1", "fig2"):
            for row in _rows(os.path.join(cmd.out, f"{fig}_{label}.csv")):
                written.append((meson, QuantumState(int(row["n"]), int(row["l"])), float(row["mass"])))
        for row in _rows(os.path.join(cmd.out, f"{label}_comparison.csv")):
            written.append((meson, QuantumState.from_label(row["label"]), float(row["model"])))
    if rc != 0:
        return False, f"exit {rc}", {"masses": len(written)}
    sample = rng.sample(written, min(MASS_SAMPLES, len(written)))
    bad = _mass_errors([(m, variant, st, None, mass) for m, st, mass in sample])
    return not bad, "; ".join(bad), {"masses": len(written)}


def check_scan(cmd: Command, rc: int, stdout: str, rng: random.Random):
    meta = cmd.meta
    meson, param = meta["meson"], meta["param"]
    variant = Variant.parse(meta["variant"])
    rows = _rows(os.path.join(cmd.out, f"{meson.label}_scan_{param}.csv"))
    physical = [r for r in rows if r["physical"] == "true"]
    counts = {"masses": len(physical)}
    if rc != 0:
        return False, f"exit {rc}", counts
    if len(rows) != meta["steps"] or not physical:
        return False, f"{len(rows)} rows, {len(physical)} physical", counts
    base = meson.system(variant).params
    state = QuantumState.from_label(meta["state"])
    samples = []
    for row in rng.sample(physical, min(MASS_SAMPLES, len(physical))):
        kw = {"a": base.a, "b": base.b, "delta": base.delta, param: float(row["value"])}
        samples.append((meson, variant, state, CornellParams(**kw), float(row["mass"])))
    bad = _mass_errors(samples)
    return not bad, "; ".join(bad), counts


def check_fit(cmd: Command, rc: int, stdout: str, rng: random.Random):
    if rc != 0:
        return False, f"exit {rc}", {}
    rows = {r["meson"]: r for r in _rows(os.path.join(cmd.out, "fitted_params.csv"))}
    bad = []
    for label, meson in cmd.meta["mesons"].items():
        row = rows.get(label)
        if row is None:
            bad.append(f"{label}: no fit row")
            continue
        a, b, d = float(row["a"]), float(row["b"]), float(row["delta"])
        mirror_a = 6.0 * b / d ** 2 - a
        gen = meson.gen
        err_a = min(abs(a - gen.a), abs(mirror_a - gen.a)) / abs(gen.a)
        err_b, err_d = abs(b - gen.b) / gen.b, abs(d - gen.delta) / gen.delta
        if max(err_a, err_b, err_d) > FIT_RTOL:
            bad.append(f"{label}: fitted ({a:.6g}, {b:.6g}, {d:.6g}) vs generating ({gen.a:.6g}, {gen.b:.6g}, {gen.delta:.6g})")
    return not bad, "; ".join(bad), {}


def _rodrigues(u, c, n: int) -> list:
    """Coefficients of y_n = x^(-p) e^(-q/x) d^n/dx^n [x^(2n) e^(q/x) x^p],
    q = -2u, p = -2c: the minus-branch Rodrigues polynomial, in mpmath."""
    q, p = -2 * u, -2 * c
    terms = {2 * n: mpmath.mpf(1)}
    for _ in range(n):
        new: dict = {}
        for j, coeff in terms.items():
            new[j - 1] = new.get(j - 1, 0) + coeff * (p + j)
            new[j - 2] = new.get(j - 2, 0) - coeff * q
        terms = new
    return [terms.get(j, 0) for j in range(n + 1)]


def oracle_alpha_beta(meson: Meson, state_label: str, variant: Variant) -> tuple[float, float]:
    """alpha and beta of a grid's wave function, from the Cornell parameters:
    alpha = 8mE - 24bm/delta and beta = -8am + 24bm/delta^2, with E from the
    mass oracle's route rather than the closed form the grid command uses."""
    sys_v = meson.system(variant)
    a, b, d = sys_v.params.a, sys_v.params.b, sys_v.params.delta
    m = meson.m_q * meson.m_qbar / (meson.m_q + meson.m_qbar)
    energy = _oracle_energy(sys_v, variant, QuantumState.from_label(state_label))
    return 8 * m * energy - 24 * b * m / d, -8 * a * m + 24 * b * m / d ** 2


def psi_oracle(alpha: float, beta: float, variant: Variant, n: int, r: float, p: float) -> complex:
    """psi_n(r, p_r) with B = 1 from the closed form, at 30 digits."""
    with mpmath.workdps(30):
        u = mpmath.sqrt(-mpmath.mpf(alpha))
        r, p = mpmath.mpf(r), mpmath.mpf(p)
        if variant is Variant.REAL:
            c = mpmath.mpf(beta) / (2 * u)
            w = mpmath.mpc(u, -2 * p)
            acc = 0
            for j, coeff in enumerate(_rodrigues(u, c, n)):
                if coeff:
                    acc += coeff * mpmath.power(w, 2 + j - c) * mpmath.gammainc(c - 2 - j, r * w)
            val = mpmath.exp(-4j * p * r) * acc / mpmath.pi
        else:
            g = (-mpmath.mpf(beta) - 4j * p) / (2 * u)
            big_w = mpmath.mpc(u, -4 * p)
            val = mpmath.exp(-2j * p * r) * mpmath.power(big_w, g - 2) * mpmath.gammainc(2 - g, r * big_w) / mpmath.pi
        return complex(val)


def b_oracle(alpha: float, beta: float, n: int) -> float:
    """B with 4 pi int |psi_n|^2 r^2 dr dp_r = 1 (real variant), by Parseval.

    psi_n(r, .) is the Fourier transform of Omega_n(r - w/2) over w <= 0, so
    int |psi_n|^2 dp_r = (1/pi) int_r^inf |Omega_n(t)|^2 dt, and the whole
    integral is (4/3) int_0^inf t^3 |Omega_n(t)|^2 dt with
    Omega_n(t) = exp(-u t) t^(c-3) y_n(1/t): one real integral, no gamma
    function and no momentum quadrature.
    """
    with mpmath.workdps(20):
        u = mpmath.sqrt(-mpmath.mpf(alpha))
        c = mpmath.mpf(beta) / (2 * u)
        coeffs = _rodrigues(u, c, n)

        def integrand(t):
            y = sum(coeff * t ** (-j) for j, coeff in enumerate(coeffs))
            return t ** 3 * (mpmath.exp(-u * t) * t ** (c - 3) * y) ** 2

        peak = max((c - 1) / u, 1 / u)
        total = mpmath.quad(integrand, [0, peak, 4 * peak, mpmath.inf])
        return float(1 / mpmath.sqrt(4 * total / 3))


def _axis(lo: float, hi: float, count: int) -> np.ndarray:
    return np.array([lo + (hi - lo) * i / (count - 1) for i in range(count)])


def check_grid(cmd: Command, rc: int, stdout: str, rng: random.Random):
    meta = cmd.meta
    meson, state = meta["meson"], meta["state"]
    path = os.path.join(cmd.out, f"{meson.label}_{state}_grid.csv")
    nr, np_ = meta["rsteps"], meta["psteps"]
    counts = {"cells": nr * np_}
    if rc != 0:
        return False, f"exit {rc}", counts
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (nr * np_, 5):
        return False, f"grid table shape {table.shape}", counts
    r, p, re, im, dens = table.T
    if not np.all(np.isfinite(table)):
        return False, f"{int(np.sum(~np.isfinite(table).all(axis=1)))} non-finite cells", counts
    want_r = np.repeat(_axis(meta["rmin"], meta["rmax"], nr), np_)
    want_p = np.tile(_axis(meta["pmin"], meta["pmax"], np_), nr)
    if not (np.allclose(r, want_r, rtol=1e-14, atol=0) and np.allclose(p, want_p, rtol=1e-14, atol=1e-300)):
        return False, "grid axes differ from the requested ones", counts
    amp = re + 1j * im
    if not np.allclose(dens, np.abs(amp) ** 2, rtol=DENSITY_RTOL, atol=0):
        return False, "density != |amplitude|^2", counts
    variant = Variant.parse(meta["variant"])
    alpha, beta = oracle_alpha_beta(meson, state, variant)
    n = QuantumState.from_label(state).n
    picks = rng.sample(range(nr * np_), CELL_SAMPLES)
    ratios = [complex(amp[k]) / psi_oracle(alpha, beta, variant, n, r[k], p[k]) for k in picks]
    # normalized grids are real7 only (workloads.py), where b_oracle applies
    want = b_oracle(alpha, beta, n) if meta["normalize"] else 1.0
    if any(abs(q - want) > CELL_RTOL * want for q in ratios):
        return False, f"cells/oracle ratios {ratios}, want {want!r}", counts
    return True, "", counts


def check_check(cmd: Command, rc: int, stdout: str, rng: random.Random):
    lines = [line for line in stdout.splitlines() if line.strip()]
    failing = [line for line in lines if not line.startswith("PASS")]
    if rc != 0 or not lines or failing:
        return False, f"exit {rc}; " + " | ".join(failing), {}
    return True, "", {}


CHECKS = {
    "spectrum": check_spectrum,
    "scan": check_scan,
    "fit": check_fit,
    "grid": check_grid,
    "check": check_check,
}


def check(cmd: Command, rc: int, stdout: str, rng: random.Random):
    """Run the command's checker; a missing or unreadable output fails it."""
    try:
        return CHECKS[cmd.kind](cmd, rc, stdout, rng)
    except (OSError, ValueError, KeyError) as exc:
        return False, f"unreadable output: {type(exc).__name__}: {exc}", {}
    except HtaspecError as exc:
        return False, f"oracle refused the written value: {type(exc).__name__}: {exc}", {}
