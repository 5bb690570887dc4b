"""Golden values of the level rule and of fit, pinned bit for bit.

The level-rule and residual digests were recorded before the level rule
was split into a per-system and a per-state part (core.level_rule), on
Python 3.10, 3.11 and 3.12, and re-recorded when the degenerate-level and
too-few-levels errors folded into NonPhysicalParameters and FitFailedError
(4 level and 40 residual outcomes renamed, no other entry moved).  The fit
pins are the Levenberg-Marquardt fit's own digits, each bounded by the rms
the earlier Nelder-Mead fit reached.
Any bit that moves here is a behaviour change, not noise.

A raise is recorded as its exception class name, so the pinned draw also
fixes which inputs raise, and with what.  Each drawn system is built inside
its recorded call, so a point CornellParams rejects (delta <= 0) records
DomainError and the draw goes on at the same RNG position.
"""

import ast
import hashlib
import random
from pathlib import Path

import pytest

import htaspec
from htaspec import core, fitting
from htaspec.cli import main
from htaspec.core import CornellParams, MesonSystem, QuantumState, Variant
from htaspec.dataio import ExperimentalLevel


def _outcome(fn):
    try:
        return repr(fn())
    except Exception as exc:  # the class is the recorded outcome
        return type(exc).__name__


def _draw_params(rng):
    """(a, b, delta) from one of the regimes the level rule branches on."""
    kind = rng.randrange(7)
    b, d = rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)
    if kind == 0:  # generic
        return rng.uniform(-3.0, 3.0), b, d
    if kind == 1:  # the vertex C1 = 0
        return 3 * b / d ** 2, b, d
    if kind == 2:  # near the vertex
        return 3 * b / d ** 2 * (1 + rng.choice((-1e-9, 1e-9))), b, d
    if kind == 3:  # bcbar-like
        return rng.uniform(80.0, 130.0), rng.uniform(0.4, 0.7), rng.uniform(0.15, 0.2)
    if kind == 4:  # b = 0: the complex5 1S condition degenerates (cden == 0)
        return rng.uniform(-3.0, 3.0), 0.0, d
    if kind == 5:  # b < 0: real7 cden can vanish, radicands go negative
        return rng.uniform(-3.0, 3.0), -rng.choice((2.0, rng.uniform(0.5, 30.0))), 1.0
    return rng.uniform(-3.0, 3.0), b, -d  # delta <= 0: CornellParams rejects it


def _draw_system(rng):
    """(m_q, m_qbar, (a, b, delta)); _system builds it."""
    m = rng.choice((1.0, rng.uniform(0.5, 5.0)))
    return m, rng.choice((m, rng.uniform(0.5, 5.0))), _draw_params(rng)


def _system(m_q, m_qbar, params):
    return MesonSystem(m_q, m_qbar, CornellParams(*params))


def _state(rng):
    return QuantumState(rng.randint(0, 5), rng.randint(0, 3))


def level_outcomes():
    rng = random.Random(20261019)
    out = []
    for _ in range(500):
        sys_v, st = _draw_system(rng), _state(rng)
        for variant in Variant:
            out.append(_outcome(lambda: core.level(_system(*sys_v), st, variant)))
    return out


def residual_outcomes():
    rng = random.Random(1019)
    out = []
    for _ in range(200):
        sys_v = _draw_system(rng)
        levels = [
            ExperimentalLevel(
                st.label, st, rng.choice((None, rng.uniform(0.0, 15.0))) if rng.random() < 0.1 else rng.uniform(0.0, 15.0),
                rng.random() < 0.9,
            )
            for st in {_state(rng) for _ in range(rng.randint(3, 8))}
        ]
        levels.sort()
        for variant in Variant:
            out.append(_outcome(lambda: fitting.residual(_system(*sys_v), levels, variant)))
    return out


def _digest(outcomes):
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


def test_draw_covers_every_outcome():
    names = set(level_outcomes()) | set(residual_outcomes())
    assert {"DomainError", "NonPhysicalParameters", "FitFailedError"} <= names
    # the flat 10 GeV penalty of a system with no bound fit level
    assert "10.0" in names


def test_level_rule_golden():
    assert _digest(level_outcomes()) == "e9be29c9feeeca155c9eece22fc1fe28a6f38b18147585e3044a6cc77e986e8b"


def test_residual_golden():
    assert _digest(residual_outcomes()) == "33fb63f45bae2ab2aff6647acd56a6a3862f68966d384e36a3d697d5913c30f3"


def test_no_builtin_sum():
    # builtin sum() of floats is compensated from Python 3.12 on, so an output
    # it feeds differs between interpreters; numpy's .sum() method does not
    # depend on the interpreter
    calls = []
    for path in sorted(Path(htaspec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


# with no builtin sum() on the fit path, each golden holds on every
# interpreter
_FITTED = {
    "real7": (
        "meson,a,b,delta,residual_rms,converged\n"
        "ccbar,-1.6808385785593905,0.40692033013616341,0.50735584529502786,3.6259732146947156e-16,true\n"
        "bbbar,-0.73825447703300129,1.0627987463100215,1.1870694459536868,1.0255800994045674e-15,true\n"
    ),
    "complex5": (
        "meson,a,b,delta,residual_rms,converged\n"
        "ccbar,-2.5432456564339683,0.42782118063408903,0.42862067008858679,0,true\n"
        "bbbar,-1.1820384909811805,0.7912402076399806,0.62763892574721258,0,true\n"
    ),
}

# the residual_rms that the Nelder-Mead simplex, the fit before
# Levenberg-Marquardt, reached on each case: a bound the fit must keep
_NELDER_MEAD_RMS = {
    "real7": {"ccbar": 3.3050900088688146e-10, "bbbar": 3.24942173052078e-10},
    "complex5": {"ccbar": 4.9704773882763797e-10, "bbbar": 1.1845859979836076e-09},
}


@pytest.mark.parametrize(
    "flags, variant",
    [([], "real7"), (["--seed-from-paper"], "real7"), (["--variant", "complex5"], "complex5")],
    ids=["default", "seed-from-paper", "complex5"],
)
def test_bundled_fit_golden(tmp_path, capsys, flags, variant):
    # bcbar has two measured levels for three parameters: exit 4
    assert main(["fit", *flags, "--out", str(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fit failed: bcbar: 2 usable levels for 3 free parameters; need at least 3\n"
    written = (tmp_path / "fitted_params.csv").read_text(encoding="utf-8")
    for row in written.splitlines()[1:]:
        meson, *_, rms, _ = row.split(",")
        assert float(rms) <= _NELDER_MEAD_RMS[variant][meson] + 1e-12
    assert written == _FITTED[variant]


def _synthetic(sys_v, variant, labels=("1S", "2S", "1P", "2P", "3S", "1D")):
    rng = random.Random(sys_v.label)
    return [
        ExperimentalLevel(lab, st, core.mass_spectrum(sys_v, st, variant) + rng.uniform(-0.02, 0.02))
        for lab, st in ((lab, QuantumState.from_label(lab)) for lab in labels)
    ]


_MIRROR = object()  # seeds: default_seeds(...) with the mirrored-a seed alone


# (m_q, m_qbar, a, b, delta) of the truth, variant, seeds, Nelder-Mead's
# residual_rms (a bound, as above; on complex-mirror the simplex stopped
# unconverged at its iteration cap after 10,240 evaluations), and the pinned
# (repr(params), repr(residual_rms), n_eval)
_SYNTHETIC_FITS = {
    "real-default": (
        (1.23, 1.23, -1.62, 0.43, 0.49), Variant.REAL, None, 0.006160476527591556,
        ("CornellParams(a=-1.6644246317753373, b=0.4395058296116634, delta=0.5071984984183106)", "0.006160476527591751", 231),
    ),
    "complex-default": (
        (1.23, 1.23, -2.4, 0.44, 0.45), Variant.COMPLEX, None, 0.010268297888778912,
        ("CornellParams(a=-2.4104369387104594, b=0.441662467079363, delta=0.4494033962069004)", "0.010268297888778746", 299),
    ),
    "real-mirror": (
        (4.19, 4.19, -0.70, 1.0, 1.15), Variant.REAL, _MIRROR, 0.010456509812804875,
        ("CornellParams(a=4.992301018603858, b=1.0333089310598018, delta=1.204907415562571)", "0.010456509812804644", 72),
    ),
    "complex-mirror": (
        (4.19, 4.19, -1.1, 0.8, 0.62), Variant.COMPLEX, _MIRROR, 0.2009577856273717,
        ("CornellParams(a=-1.1423330126327833, b=0.8123351043324019, delta=0.6226877080041381)", "0.004019354455985262", 174),
    ),
    "bcbar-like": (
        (4.19, 1.23, 104.0, 0.52, 0.177), Variant.REAL, [CornellParams(90.0, 0.55, 0.18)], 0.004775080639804317,
        ("CornellParams(a=94.43706844933041, b=0.5176162549383075, delta=0.18524787781370625)", "0.004775080639805466", 57),
    ),
}


@pytest.mark.parametrize("truth, variant, seeds, nelder_mead_rms, expected", _SYNTHETIC_FITS.values(), ids=_SYNTHETIC_FITS.keys())
def test_synthetic_fit_golden(truth, variant, seeds, nelder_mead_rms, expected):
    m_q, m_qbar, a, b, d = truth
    sys_v = MesonSystem(m_q, m_qbar, CornellParams(a, b, d), f"synthetic {truth}")
    levels = _synthetic(sys_v, variant)
    start = MesonSystem(m_q, m_qbar, CornellParams(a * 1.05, b * 0.97, d * 1.03), sys_v.label)
    if seeds is _MIRROR:
        seeds = fitting.default_seeds(start.params)[-1:]
    result = fitting.fit(start, levels, variant, seeds=seeds)
    assert result.converged
    assert result.residual_rms <= nelder_mead_rms + 1e-12
    assert (repr(result.params), repr(result.residual_rms), result.n_eval) == expected
