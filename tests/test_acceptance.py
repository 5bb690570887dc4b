"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure against its frozen tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time

import numpy as np
import pytest

from htaspec import confine1d, core, fitting, waves
from htaspec.core import CornellParams, MesonSystem, QuantumState, Variant
from htaspec.errors import UnderdeterminedFitError

REAL_CCBAR = {"1S": 3.097, "2S": 3.686, "1P": 3.511, "2P": 3.912, "3S": 4.022, "4S": 4.231, "1D": 3.939}
REAL_BBBAR = {"1S": 9.460, "2S": 10.042, "1P": 9.899, "2P": 10.268, "3S": 10.355, "4S": 10.542, "1D": 10.307}
REAL_BCBAR = {"1S": 6.275, "2S": 6.842, "1P": 6.360, "2P": 6.919, "3S": 7.356, "4S": 7.822, "1D": 6.524}
COMPLEX_CCBAR = {"1S": 3.097, "2S": 3.657, "1P": 3.511, "2P": 3.938, "3S": 4.039, "4S": 4.311, "1D": 4.005}

MASS_TOL = 15e-3  # published values carry 1 MeV print precision plus
                  # 4-decimal parameter rounding


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def spectrum_errors(sys_v, table, variant):
    errs = {}
    for label, want in table.items():
        got = core.mass_spectrum(sys_v, QuantumState.from_label(label), variant)
        errs[label] = got - want
    return errs


def random_draw(rng):
    sys_v = MesonSystem(
        2 * rng.uniform(0.5, 2.5),
        2 * rng.uniform(0.5, 2.5),
        CornellParams(rng.uniform(-3, 3), rng.uniform(0.1, 1.5), rng.uniform(0.2, 1.5)),
    )
    return sys_v, QuantumState(rng.randint(0, 4), rng.randint(0, 3))


class TestAcceptance:
    def test_01_ccbar_real_spectrum(self, ccbar_real):
        t0 = time.perf_counter()
        errs = spectrum_errors(ccbar_real, REAL_CCBAR, Variant.REAL)
        elapsed = time.perf_counter() - t0
        worst = max(abs(e) for e in errs.values())
        ok = worst <= MASS_TOL and elapsed < 1.0
        report(
            "criterion-01 ccbar real-variant spectrum",
            ok,
            f"max|err| = {worst * 1e3:.2f} MeV (tol 15), runtime {elapsed:.3f}s (< 1s)",
        )

    def test_02_bbbar_real_spectrum(self, bbbar_real):
        errs = spectrum_errors(bbbar_real, REAL_BBBAR, Variant.REAL)
        worst = max(abs(e) for e in errs.values())
        report("criterion-02 bbbar real-variant spectrum", worst <= MASS_TOL, f"max|err| = {worst * 1e3:.2f} MeV (tol 15)")

    def test_03_bcbar_real_spectrum(self, bcbar_real):
        errs = spectrum_errors(bcbar_real, REAL_BCBAR, Variant.REAL)
        worst = max(abs(e) for e in errs.values())
        report("criterion-03 bcbar real-variant spectrum", worst <= MASS_TOL, f"max|err| = {worst * 1e3:.2f} MeV (tol 15)")

    def test_04_ccbar_complex_spectrum(self, ccbar_complex):
        errs = spectrum_errors(ccbar_complex, COMPLEX_CCBAR, Variant.COMPLEX)
        worst = max(abs(e) for e in errs.values())
        report(
            "criterion-04 ccbar momentum-coupled spectrum at rest",
            worst <= MASS_TOL,
            f"max|err| = {worst * 1e3:.2f} MeV (tol 15)",
        )

    def test_05_fit_quality(self, dataset):
        rng = np.random.RandomState(2024)
        for meson in ("ccbar", "bbbar"):
            rec = dataset[meson]
            sys_v = rec.system(Variant.REAL)
            levels = rec.experimental_levels(Variant.REAL)
            stored = sys_v.params
            base = fitting.residual(sys_v, levels)
            seeds = [
                CornellParams(
                    stored.a * rng.uniform(0.9, 1.1),
                    stored.b * rng.uniform(0.9, 1.1),
                    stored.delta * rng.uniform(0.9, 1.1),
                )
                for _ in range(3)
            ]
            t0 = time.perf_counter()
            result = fitting.fit(sys_v, levels, Variant.REAL, seeds=seeds)
            elapsed = time.perf_counter() - t0
            within = (
                abs(result.params.a - stored.a) <= 0.05 * abs(stored.a)
                and abs(result.params.b - stored.b) <= 0.05 * abs(stored.b)
                and abs(result.params.delta - stored.delta) <= 0.05 * abs(stored.delta)
            )
            ok = result.residual_rms <= base + 1e-12 and within and elapsed < 30.0
            report(
                f"criterion-05 fit {meson}",
                ok,
                f"rms {result.residual_rms * 1e3:.3f} MeV <= stored {base * 1e3:.3f} MeV, "
                f"params within 5%: {within}, runtime {elapsed:.2f}s (< 30s)",
            )
        # bcbar's measured column has two entries for three parameters: the
        # fit is underdetermined by construction and must refuse
        rec = dataset["bcbar"]
        with pytest.raises(UnderdeterminedFitError):
            fitting.fit(rec.system(Variant.REAL), rec.experimental_levels(Variant.REAL))
        report(
            "criterion-05 fit bcbar",
            True,
            "2 measured levels for 3 parameters: underdetermined error raised as specified",
        )

    def test_06_nu_equivalence(self):
        rng = np.random.RandomState(4321)
        worst = 0.0
        for _ in range(100):
            sys_v, st = random_draw(rng)
            e_closed = core.energy_real(sys_v, st)
            e_nu = core.energy_real_via_nu(sys_v, st)
            worst = max(worst, abs(e_closed - e_nu) / max(abs(e_closed), 1e-12))
        report("criterion-06 NU-pipeline equivalence", worst < 1e-9, f"worst rel dev = {worst:.2e} (tol 1e-9)")

    def test_07_degeneracy_identity(self):
        worst = 0.0
        for b, d, m in ((0.6, 0.8, 1.5), (1.2, 0.5, 0.8), (0.3, 1.4, 2.2)):
            sys_v = MesonSystem(2 * m, 2 * m, CornellParams(3 * b / d**2, b, d))
            flat = 3 * b / d
            for n in range(5):
                for l in range(3):
                    st = QuantumState(n, l)
                    for e in (
                        core.energy_real(sys_v, st),
                        core.energy_real_via_nu(sys_v, st),
                        core.energy_complex(sys_v, st, 0.0),
                        core.rest_energy_bracket(sys_v, st),
                    ):
                        worst = max(worst, abs(e - flat) / flat)
        report("criterion-07 degeneracy identity", worst < 1e-14, f"worst rel dev = {worst:.2e} (machine precision)")

    def test_08_rest_consistency(self):
        rng = np.random.RandomState(4321)
        worst = 0.0
        for _ in range(100):
            sys_v, st = random_draw(rng)
            e_cx = core.energy_complex(sys_v, st, 0.0)
            e_br = core.rest_energy_bracket(sys_v, st)
            worst = max(worst, abs(e_cx.real - e_br) / max(abs(e_br), 1e-12), abs(e_cx.imag))
        report("criterion-08 rest-frame bracket consistency", worst < 1e-9, f"worst rel dev = {worst:.2e} (tol 1e-9)")

    def test_09_airy_1d_suite(self):
        t0 = time.perf_counter()
        sys1 = confine1d.Confinement1DSystem(0.615, 0.4069)
        # energies against bisection roots of psi(0, p, E) = 0
        worst_e = 0.0
        for n in (0, 1, 2):
            for p in (0.0, 0.5):
                e_ref = _bisect_energy(sys1, n, p)
                worst_e = max(worst_e, abs(confine1d.energy_1d(sys1, n, p) - e_ref))
        # moment identity
        worst_m = max(confine1d.moment_identity_check(x, n) for n in (1, 2) for x in (0.0, 1.0, 2.0))
        # normalized probability
        e0 = confine1d.energy_1d(sys1, 0, 0.0)
        c = confine1d.normalize_1d(sys1, e0)
        total = 4 * math.pi * c * c * confine1d._norm_integral(sys1, e0, 15.0)
        elapsed = time.perf_counter() - t0
        ok = worst_e < 1e-8 and worst_m < 1e-6 and abs(total - 1) < 1e-3 and elapsed < 10.0
        report(
            "criterion-09 1d linear-confinement suite",
            ok,
            f"energy-vs-bisection {worst_e:.1e} (tol 1e-8), moment residual {worst_m:.1e} (tol 1e-6), "
            f"probability dev {abs(total - 1):.1e} (tol 1e-3), runtime {elapsed:.2f}s (< 10s)",
        )

    def test_10_wave_oracle_equivalence(self, ccbar_real):
        worst = 0.0
        grids = {0: "1S", 1: "2S"}
        for n, label in grids.items():
            st = QuantumState.from_label(label)
            params = waves.wave_params(ccbar_real, st, core.energy_real(ccbar_real, st))
            rs = np.linspace(0.4, 2.8, 5)
            ps = np.linspace(-1.0, 1.0, 5)
            for r in rs:
                for p in ps:
                    closed = waves.psi_n(params, n, r, p)
                    numeric = waves.psi_n_numeric(params, n, r, p)
                    worst = max(worst, abs(closed - numeric) / abs(closed))
        st = QuantumState.from_label("1S")
        params = waves.wave_params(ccbar_real, st, core.energy_real(ccbar_real, st))
        b1 = waves.normalize_B(params, 0)
        b2 = waves.normalize_B(params, 0, r_pad=2.0)
        trunc = abs(b2 - b1) / b1
        prob = waves.total_probability(waves.WaveParams(params.alpha, params.beta, params.gamma, b1), 0)
        ok = worst < 1e-5 and trunc < 1e-4 and abs(prob - 1) < 1e-3
        report(
            "criterion-10 closed-form vs transform oracle",
            ok,
            f"worst rel dev {worst:.1e} (tol 1e-5), truncation shift {trunc:.1e} (tol 1e-4), "
            f"probability dev {abs(prob - 1):.1e} (tol 1e-3)",
        )

    def test_11_density_peak_trend(self, ccbar_real):
        st = QuantumState.from_label("1S")
        params = waves.wave_params(ccbar_real, st, core.energy_real(ccbar_real, st))
        grid = waves.density_grid(params, 0, (0.02, 6.0, 500), (0.0, 1.0, 5))
        peaks = [waves.peak_radius(grid, j) for j in range(5)]
        monotone = all(b >= a for a, b in zip(peaks, peaks[1:])) and peaks[-1] > peaks[0]
        direction = "increasing" if peaks[-1] > peaks[0] else "decreasing"
        report(
            "criterion-11 density-peak trend vs momentum",
            monotone,
            f"peak radius over |p_r| in [0,1]: {[round(p, 4) for p in peaks]} GeV^-1 ({direction})",
        )

    def test_12_time_factor_modulus(self):
        sys1 = confine1d.Confinement1DSystem(0.615, 0.4069)
        rng = np.random.RandomState(99)
        worst = 0.0
        for _ in range(100):
            r, p = rng.uniform(0, 4), rng.uniform(-2, 2)
            t1, t2 = rng.uniform(-30, 30, size=2)
            m1 = abs(confine1d.time_factor(sys1, r, p, t1))
            m2 = abs(confine1d.time_factor(sys1, r, p, t2))
            worst = max(worst, abs(m1 - m2) / m1)
        report("criterion-12 time-factor modulus", worst < 1e-13, f"worst rel dev = {worst:.2e} (machine precision)")


def _bisect_energy(sys1, n, p):
    # n-th root in E of psi(r=0, p, E) = 0, independent bisection
    kin = p * p / (2 * sys1.m)
    grid = np.linspace(kin + 1e-9, kin + 6.0, 2000)
    f = lambda e: confine1d.psi_1d(sys1, 0.0, p, e, c1=1.0)
    vals = [f(e) for e in grid]
    crossings = [i for i in range(1, len(grid)) if (vals[i] < 0) != (vals[i - 1] < 0)]
    lo, hi = grid[crossings[n] - 1], grid[crossings[n]]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == (f(lo) < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
