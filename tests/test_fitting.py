import math
import sys

import pytest

from htaspec import core, fitting
from htaspec.core import CornellParams, MesonSystem, QuantumState, Variant
from htaspec.errors import DomainError, FitFailedError

LABELS = ("1S", "2S", "1P", "2P", "3S", "4S", "1D")


def synthetic_levels(sys_v, variant=Variant.REAL, labels=LABELS):
    out = []
    for label in labels:
        st = QuantumState.from_label(label)
        out.append(
            fitting.ExperimentalLevel(label, st, core.mass_spectrum(sys_v, st, variant), True)
        )
    return out


class TestResidual:
    def test_round_trip_is_tiny(self, ccbar_real):
        levels = synthetic_levels(ccbar_real)
        assert fitting.residual(ccbar_real, levels) < 1e-12

    def test_underdetermined(self, ccbar_real):
        levels = synthetic_levels(ccbar_real)[:2]
        with pytest.raises(FitFailedError, match="usable levels for 3 free parameters"):
            fitting.residual(ccbar_real, levels)
        none_included = [
            fitting.ExperimentalLevel(lv.label, lv.state, lv.mass, False) for lv in synthetic_levels(ccbar_real)
        ]
        with pytest.raises(FitFailedError, match="usable levels for 3 free parameters"):
            fitting.residual(ccbar_real, none_included)

    def test_perturbing_b_increases_residual(self, dataset):
        rec = dataset["ccbar"]
        sys_v = rec.system(Variant.REAL)
        levels = rec.experimental_levels(Variant.REAL)
        base = fitting.residual(sys_v, levels)
        bumped = MesonSystem(
            sys_v.m_q, sys_v.m_qbar, CornellParams(sys_v.params.a, sys_v.params.b * 1.1, sys_v.params.delta)
        )
        assert fitting.residual(bumped, levels) > base

    def test_order_invariance(self, dataset):
        rec = dataset["ccbar"]
        sys_v = rec.system(Variant.REAL)
        levels = rec.experimental_levels(Variant.REAL)
        assert fitting.residual(sys_v, levels) == fitting.residual(sys_v, list(reversed(levels)))

    def test_nonphysical_penalty_is_finite(self):
        # parameters with no bound state at some level must not blow up
        sys_v = MesonSystem(1.0, 1.0, CornellParams(-1.0, 0.5, 0.8))
        levels = [
            fitting.ExperimentalLevel("1S", QuantumState(0, 0), 2.5, True),
            fitting.ExperimentalLevel("2S", QuantumState(1, 0), 3.0, True),
            fitting.ExperimentalLevel("3S", QuantumState(2, 0), 3.4, True),
        ]
        # b = -30: a negative radicand at every level, so no level is bound
        bad = MesonSystem(1.0, 1.0, CornellParams(-1.0, -30.0, 1.0))
        r = fitting.residual(bad, levels)
        assert math.isfinite(r)
        assert r == pytest.approx(10.0, rel=1e-6)

    def test_synthetic_round_trip_residual(self, dataset):
        # stored parameters against the stored model column: sub-MeV rms
        rec = dataset["ccbar"]
        sys_v = rec.system(Variant.REAL)
        levels = [
            fitting.ExperimentalLevel(lv.label, lv.state, rec.this_work[lv.label][Variant.REAL], True)
            for lv in rec.experimental_levels(Variant.REAL)
        ]
        assert fitting.residual(sys_v, levels) < 1e-3


class TestLevenbergMarquardt:
    @staticmethod
    def rosenbrock(x):
        # zero residual at (1, 1, 3), reached through Rosenbrock's curved valley
        return [10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], x[2] - 3.0]

    def test_minimum_reached_to_rounding(self):
        x, r, converged, n_eval = fitting._levenberg_marquardt(self.rosenbrock, [-1.2, 1.0, 0.0])
        assert converged
        assert x == pytest.approx([1.0, 1.0, 3.0], abs=1e-14)
        assert max(map(abs, r)) < 1e-14
        assert r == self.rosenbrock(x)
        assert n_eval > 7  # the seed, one Jacobian (6) and at least one trial

    def test_inadmissible_seed_comes_back_unconverged(self):
        admissible = lambda x: None if x[0] <= 0 else self.rosenbrock(x)
        assert fitting._levenberg_marquardt(admissible, [-1.2, 1.0, 0.0]) == ([-1.2, 1.0, 0.0], None, False, 1)

    def test_inadmissible_steps_are_rejected(self):
        # the least-squares minimum x0 = 0 lies where x0 <= 0.5 is inadmissible:
        # trial steps across the boundary are rejected, and the fit stops
        # unconverged at it, where no central difference can be taken
        seen = []
        line = lambda x: seen.append(x) or (None if x[0] <= 0.5 else [x[0], x[1] - 1.0, x[2] - 3.0])
        x, r, converged, n_eval = fitting._levenberg_marquardt(line, [2.0, 0.0, 0.0])
        assert not converged
        assert any(p[0] <= 0.5 for p in seen)
        assert 0.5 < x[0] < 0.5001
        assert r == [x[0], x[1] - 1.0, x[2] - 3.0]
        assert n_eval == len(seen)

    def test_step_cap_flags_unconverged(self, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_STEPS", 2)
        _, _, converged, n_eval = fitting._levenberg_marquardt(self.rosenbrock, [-1.2, 1.0, 0.0])
        assert not converged
        assert n_eval <= 1 + 2 * (6 + 1)
        truth = MesonSystem(1.23, 1.23, CornellParams(-1.5, 0.45, 0.52), "test")
        result = fitting.fit(truth, synthetic_levels(truth), seeds=[CornellParams(-1.2, 0.5, 0.6)])
        assert not result.converged
        assert result.residual_rms > 1e-7


class TestFit:
    def test_synthetic_recovery(self):
        truth = MesonSystem(1.23, 1.23, CornellParams(-1.5, 0.45, 0.52), "test")
        levels = synthetic_levels(truth)
        seeds = [CornellParams(-1.2, 0.5, 0.6)]
        result = fitting.fit(truth, levels, seeds=seeds)
        assert result.converged
        assert result.params.a == pytest.approx(-1.5, rel=1e-6)
        assert result.params.b == pytest.approx(0.45, rel=1e-6)
        assert result.params.delta == pytest.approx(0.52, rel=1e-6)
        assert result.residual_rms < 1e-7

    def test_calibration_subset_recovers_published_point(self, dataset):
        # the three pinned levels per meson identify the stored parameters
        import numpy as np

        rng = np.random.RandomState(77)
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
            result = fitting.fit(sys_v, levels, seeds=seeds)
            assert result.residual_rms <= base + 1e-12
            assert result.params.a == pytest.approx(stored.a, rel=0.05)
            assert result.params.b == pytest.approx(stored.b, rel=0.05)
            assert result.params.delta == pytest.approx(stored.delta, rel=0.05)

    def test_complex_variant_calibration_subsets(self, dataset):
        # the momentum-coupled tables are also exact three-state solves:
        # their calibration subsets identify the stored parameters
        for meson in ("ccbar", "bbbar"):
            rec = dataset[meson]
            sys_v = rec.system(Variant.COMPLEX)
            stored = sys_v.params
            seed = CornellParams(stored.a * 1.07, stored.b * 0.94, stored.delta * 1.05)
            result = fitting.fit(sys_v, rec.experimental_levels(Variant.COMPLEX), Variant.COMPLEX, seeds=[seed])
            assert result.params.a == pytest.approx(stored.a, rel=1e-3)
            assert result.params.b == pytest.approx(stored.b, rel=1e-3)
            assert result.params.delta == pytest.approx(stored.delta, rel=1e-3)
            assert result.residual_rms < 1e-3

    def test_bcbar_positive_a_basin(self, dataset):
        # fitting the bcbar model column from a positive-a seed lands on the
        # large positive coupling (order 100)
        rec = dataset["bcbar"]
        sys_v = rec.system(Variant.REAL)
        levels = synthetic_levels(sys_v)
        result = fitting.fit(sys_v, levels, seeds=[CornellParams(80.0, 0.6, 0.2)])
        assert result.params.a == pytest.approx(105.67, rel=0.05)
        assert result.params.a > 50

    def test_underdetermined_default_bcbar(self, dataset):
        rec = dataset["bcbar"]
        sys_v = rec.system(Variant.REAL)
        with pytest.raises(FitFailedError, match="usable levels for 3 free parameters"):
            fitting.fit(sys_v, rec.experimental_levels(Variant.REAL))

    def test_no_seeds_rejected(self, ccbar_real):
        with pytest.raises(FitFailedError, match="no seeds given"):
            fitting.fit(ccbar_real, synthetic_levels(ccbar_real), seeds=[])

    def test_bad_seed_delta_rejected(self, ccbar_real):
        with pytest.raises(DomainError):
            fitting.fit(ccbar_real, synthetic_levels(ccbar_real), seeds=[CornellParams(1.0, 1.0, -0.5)])

    def test_optimum_scored_once(self, dataset, monkeypatch):
        rec = dataset["ccbar"]
        sys_v = rec.system(Variant.REAL)
        levels = rec.experimental_levels(Variant.REAL)
        calls = []
        orig = fitting._level_errors
        monkeypatch.setattr(fitting, "_level_errors", lambda *a: calls.append(a) or orig(*a))
        result = fitting.fit(sys_v, levels)
        # every scoring is one of the solver's residual evaluations, none after
        assert 0 < len(calls) <= result.n_eval
        sys_fit = MesonSystem(sys_v.m_q, sys_v.m_qbar, result.params, sys_v.label)
        calls.clear()
        # residual reads the same per-level function, and agrees to the bit
        assert result.residual_rms == fitting.residual(sys_fit, levels)
        assert len(calls) == 1

    def test_one_scoring_loop(self, dataset, monkeypatch):
        # every level rule a fit builds, under either name it can be looked
        # up by, is built by _level_errors itself: no pass after the solve
        rec = dataset["ccbar"]
        sys_v = rec.system(Variant.REAL)
        levels = rec.experimental_levels(Variant.REAL)
        callers, orig = [], core.level_rule

        def counting(*args):
            callers.append(sys._getframe(1).f_code)
            return orig(*args)

        monkeypatch.setattr(core, "level_rule", counting)
        monkeypatch.setattr(fitting, "level_rule", counting)
        result = fitting.fit(sys_v, levels)
        assert 0 < len(callers) <= result.n_eval
        assert set(callers) == {fitting._level_errors.__code__}

    def test_seeded_at_stored_point_never_worse(self, dataset):
        for meson in ("ccbar", "bbbar"):
            rec = dataset[meson]
            sys_v = rec.system(Variant.REAL)
            levels = rec.experimental_levels(Variant.REAL)
            base = fitting.residual(sys_v, levels)
            result = fitting.fit(sys_v, levels, seeds=[sys_v.params])
            assert result.residual_rms <= base + 1e-12


class TestDefaultSeeds:
    def test_includes_mirror_basin(self):
        params = CornellParams(-1.5, 0.45, 0.52)
        seeds = fitting.default_seeds(params)
        a_star = 3 * params.b / params.delta**2
        assert any(s.a > a_star for s in seeds)
        assert any(s.a < a_star for s in seeds)
