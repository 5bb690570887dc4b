"""Contract of the value types: immutable namedtuples that validate when
built, by keyword or position, and again on _replace and _make; and of the
indices that the library takes, which are integers."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import htaspec
from htaspec import confine1d, core, dataio, nu, special, waves
from htaspec.core import CornellParams, MesonSystem, QuantumState, Variant
from htaspec.errors import DomainError

_PARAMS = CornellParams(a=-1.6808, b=0.4069, delta=0.5074)


def _values():
    return [
        _PARAMS,
        MesonSystem(1.23, 1.23, _PARAMS, "ccbar"),
        QuantumState(1, 2),
        core.ScanPoint(0.5, 3.1, True, "+"),
        waves.WaveParams(alpha=-1.0, beta=2.2),
        confine1d.Confinement1DSystem(m=0.615, b=0.4069),
        dataio.ExperimentalLevel("1S", QuantumState(0), 3.097),
        nu.NUProblem(sigma_tilde=(-1.0, 2.0, -3.0), tau_tilde=(0, -4)),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], 0.0)
    with pytest.raises(AttributeError):
        value.extra = 0.0  # __slots__ = (): no instance dict either


def test_quantum_state_as_dict_key_and_set_member():
    masses = {QuantumState(0, 0): 3.097, QuantumState(1, 1): 3.9}
    assert masses[QuantumState.from_label("2P")] == 3.9
    assert {QuantumState(0), QuantumState(0, 0), QuantumState.from_label("1S")} == {QuantumState(n=0, l=0)}


def test_repr_keeps_the_keyword_form():
    assert repr(_PARAMS) == "CornellParams(a=-1.6808, b=0.4069, delta=0.5074)"
    assert repr(QuantumState(2)) == "QuantumState(n=2, l=0)"


@pytest.mark.parametrize(
    "build",
    [
        lambda: waves.WaveParams(alpha=-1.0, beta=2.2)._replace(B=-1.0),
        lambda: waves.WaveParams(alpha=-1.0, beta=2.2)._replace(alpha=0.5),
        lambda: waves.WaveParams(alpha=-1.0, beta=2.2)._replace(variant="bogus"),
        lambda: _PARAMS._replace(delta=0),
        lambda: _PARAMS._replace(a=math.nan),
        lambda: CornellParams._make([1.0, 0.4, 0.0]),
        lambda: MesonSystem(1.23, 1.23, _PARAMS)._replace(m_q=0.0),
        lambda: QuantumState(1, 2)._replace(n=11),
        lambda: confine1d.Confinement1DSystem(0.615, 0.4069)._replace(b=-1.0),
        lambda: dataio.ExperimentalLevel("1S", QuantumState(0), 3.097)._replace(mass=math.inf),
        lambda: nu.NUProblem((1, 2, 3), (0, -4))._replace(tau_tilde=(0, 1, 2)),
    ],
    ids=["WaveParams-B", "WaveParams-alpha", "WaveParams-variant", "CornellParams-delta", "CornellParams-a", "CornellParams-make",
         "MesonSystem", "QuantumState", "Confinement1DSystem", "ExperimentalLevel", "NUProblem"],
)
def test_replace_validates(build):
    with pytest.raises(DomainError):
        build()


def test_replace_keeps_type_and_other_fields():
    p = waves.WaveParams(alpha=-1.0, beta=2.2, variant=Variant.COMPLEX)
    q = p._replace(B=2.0)
    assert type(q) is waves.WaveParams
    assert (q.alpha, q.beta, q.B, q.variant) == (-1.0, 2.2, 2.0, Variant.COMPLEX)
    # _replace runs __new__, so NUProblem converts the new coefficients too
    assert nu.NUProblem((1, 2, 3), (0, -4))._replace(tau_tilde=[1]).tau_tilde == (1 + 0j, 0j)


def test_values_are_tuples():
    # the one change from the frozen dataclasses they replace
    a, b, delta = _PARAMS
    assert (a, b, delta) == (-1.6808, 0.4069, 0.5074)
    assert QuantumState(1, 2) == (1, 2)
    assert list(core.ScanPoint(0.5, 3.1, True)) == [0.5, 3.1, True, ""]


def test_phase_space_grid_checks_shapes():
    amp = np.zeros((2, 3), complex)
    grid = waves.PhaseSpaceGrid((0.1, 0.2), (-1.0, 0.0, 1.0), amp, abs(amp) ** 2)
    assert grid.cell_errors == ()
    with pytest.raises(DomainError):
        waves.PhaseSpaceGrid((0.1, 0.2, 0.3), (-1.0, 0.0, 1.0), amp, abs(amp) ** 2)
    with pytest.raises(DomainError):
        waves.PhaseSpaceGrid((0.1, 0.2), (-1.0, 0.0, 1.0), amp, np.zeros(3))


def test_every_checked_value_type_takes_the_base():
    # a namedtuple subclass whose __new__ checks its fields must take Checked
    # as its first base, or _replace and _make would skip the checks
    modules = [importlib.import_module(f"htaspec.{m.name}") for m in pkgutil.iter_modules(htaspec.__path__)]
    checked = {
        obj
        for mod in modules
        for obj in vars(mod).values()
        if inspect.isclass(obj) and "__new__" in vars(obj) and any(hasattr(base, "_fields") for base in obj.__bases__)
    }
    assert {CornellParams, MesonSystem, QuantumState, waves.WaveParams, dataio.ExperimentalLevel,
            nu.NUProblem, confine1d.Confinement1DSystem} <= checked
    for cls in checked:
        assert inspect.getattr_static(cls, "_make") is vars(core.Checked)["_make"], cls.__name__


_WAVE = waves.WaveParams(alpha=-1.0, beta=10.0)  # c = 5: normalizable up to n = 3
_SYS = MesonSystem(1.4495, 1.4495, CornellParams(-1.6808, 0.4069, 0.5074), "ccbar")

# each entry point at an index k: (name, call, a valid k)
_INDEXED = [
    ("psi_n", lambda k: waves.psi_n(_WAVE, k, 0.5, 0.3), 1),
    ("psi_n_numeric", lambda k: waves.psi_n_numeric(_WAVE, k, 0.5, 0.3), 1),
    ("half_transformed_kernel", lambda k: waves.half_transformed_kernel(_WAVE, k)(0.7 + 0.1j), 2),
    ("normalize_B", lambda k: waves.normalize_B(_WAVE, k), 1),
    ("density_grid", lambda k: waves.density_grid(_WAVE, k, [0.5, 1.0], [0.0, 0.3]).amplitudes.tolist(), 1),
    ("rodrigues_y", lambda k: nu.rodrigues_y(nu.ExpPowerForm(rate=-2.0, power=-3.0), k), 2),
    ("lambda_n", lambda k: nu.lambda_n((1.0, -4.0), k), 2),
    ("energy_1d", lambda k: confine1d.energy_1d(confine1d.Confinement1DSystem(0.615, 0.4069), k), 1),
    ("moment_identity_check", lambda k: confine1d.moment_identity_check(0.5, k), 2),
    ("airy_ai_zero", lambda k: special.airy_ai_zero(k), 2),
    ("parameter_scan", lambda k: core.parameter_scan(_SYS, QuantumState(0), "a", -1.7, -1.6, k), 3),
    ("QuantumState.n", lambda k: QuantumState(k, 0), 1),
    ("QuantumState.l", lambda k: QuantumState(0, k), 1),
]


@pytest.mark.parametrize("call, k", [entry[1:] for entry in _INDEXED], ids=[entry[0] for entry in _INDEXED])
def test_indices_are_integers(call, k):
    # a non-integer index raises, never truncates; a numpy integer is the integer
    with pytest.raises(TypeError):
        call(1.5)
    assert call(np.int64(k)) == call(k)
