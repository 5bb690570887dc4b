"""Seeded inputs and command rounds for the three benchmark workloads.

A workload is a sequence of *rounds*.  Round ``r`` of seed ``s`` draws every
input from ``random.Random(f"{workload}:{s}:{r}")``, so the same seed gives the
same inputs.  Every round of a workload has the same shape (the same commands
on the same state and grid sizes); the seed only moves the physics inside it:
quark masses, Cornell parameters, axis windows, and which meson or state a
short command picks.  That keeps the cost of a round steady across seeds
while the inputs still vary.

Why each workload exists:

* ``spectra`` -- short ``spectrum``/``scan`` commands plus two ``fit``
  commands over a seeded three-meson dataset whose measured levels come from
  known generating parameters.  Nothing here calls a special-function kernel
  or a quadrature, so interpreter and import start-up, ``core`` and
  ``fitting`` set its time.  Kernel or quadrature work should not move it.
* ``grids`` -- ``grid --no-normalize`` for n = 0..2 and both variants, from
  the default 120x41 up to about 10^5 cells.  The scalar Gamma(s, z) kernel,
  the per-cell glue of ``psi_n`` and CSV formatting do nearly all the work;
  nothing calls ``leggauss``.
* ``quadrature`` -- ``check --suite all`` on a seeded one-meson input plus
  two normalizing ``grid`` commands (2S and 3S; ``check`` covers 1S).  ``normalize_B``, ``total_probability``,
  the NU root-solve and the Airy quadratures dominate.

The program receives only the generated files and command-line arguments.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from htaspec import core, waves
from htaspec.core import CornellParams, MesonSystem, QuantumState, Variant
from htaspec.errors import HtaspecError

# Meson families: constituent masses, (a, b, delta) per variant (the centres
# the generator jitters around) and the measured 1S mass.
FAMILIES = {
    "ccbar": (1.23, 1.23, (-1.6808, 0.4069, 0.5074), (-2.5423, 0.4278, 0.4286), 3.097),
    "bbbar": (4.19, 4.19, (-0.7383, 1.0628, 1.1871), (-1.182, 0.7912, 0.6276), 9.46),
    "bcbar": (4.19, 1.23, (105.67, 0.5157, 0.1763), (116.66, 0.5678, 0.1778), 6.275),
}

# Levels carrying a generated "measured" mass (at least 3 per meson).
MEASURED = ("1S", "2S", "1P", "2P", "3S", "1D")
# States the spectrum command writes for its figure curves; a meson is
# physical only if every one of them has a bound level in both variants.
_FIG_STATES = [(n, l) for l in (0, 1, 2) for n in range(6)] + [(n, l) for n in range(4) for l in range(4)]
_MASS_JITTER = 0.03
_PARAM_JITTER = 0.08
_FIT_START_JITTER = 0.10
# A drawn meson's generated 1S mass must lie within this share of its
# family's measured one: bcbar's spectrum moves by GeV under an 8 % jitter.
_GROUND_WINDOW = 0.10
# dataio rejects a measured mass at or below m_q + m_qbar - 1 GeV.
_LOADER_MARGIN = 1.0
_MAX_DRAWS = 400


@dataclass
class Meson:
    label: str
    m_q: float
    m_qbar: float
    gen: CornellParams  # real7 parameters that generate the measured masses
    start: CornellParams  # stored real7 parameters: the fit's starting point
    cpx: CornellParams  # stored complex5 parameters

    def system(self, variant: Variant, params: CornellParams | None = None) -> MesonSystem:
        """The system the program builds from the stored parameters."""
        if params is None:
            params = self.start if variant is Variant.REAL else self.cpx
        return MesonSystem(self.m_q, self.m_qbar, params, self.label)


@dataclass
class Command:
    """One CLI invocation and what its output check needs."""

    kind: str  # spectrum | scan | fit | grid | check
    argv: list[str]
    meta: dict = field(default_factory=dict)
    out: str = ""  # output directory, set by make_round


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return value * (1.0 + rng.uniform(-share, share))


def measured_masses(meson: Meson) -> dict[str, float]:
    gen = meson.system(Variant.REAL, meson.gen)
    return {label: core.mass_spectrum(gen, QuantumState.from_label(label), Variant.REAL) for label in MEASURED}


def _physical(meson: Meson, ground_mass: float, grid_states=()) -> bool:
    """Every figure state has a bound level in both variants; the measured
    levels exist, pass the loader's sanity bound and start near the family's
    ground state; every grid state gives valid wave-function parameters."""
    try:
        for variant in (Variant.REAL, Variant.COMPLEX):
            sys_v = meson.system(variant)
            for n, l in _FIG_STATES:
                core.mass_spectrum_detailed(sys_v, QuantumState(n, l), variant)
        masses = measured_masses(meson)
        for label, variant in grid_states:
            wave_params_for(meson, label, variant)
    except HtaspecError:
        return False
    floor = meson.m_q + meson.m_qbar - _LOADER_MARGIN
    return min(masses.values()) > floor and abs(masses["1S"] / ground_mass - 1.0) < _GROUND_WINDOW


def draw_meson(rng: random.Random, family: str, label: str, grid_states=()) -> Meson:
    """A jittered member of a family, redrawn until it is physical."""
    m_q, m_qbar, real, cpx, ground_mass = FAMILIES[family]
    for _ in range(_MAX_DRAWS):
        gen = CornellParams(*(_jitter(rng, v, _PARAM_JITTER) for v in real))
        meson = Meson(
            label=label,
            m_q=_jitter(rng, m_q, _MASS_JITTER),
            m_qbar=_jitter(rng, m_qbar, _MASS_JITTER),
            gen=gen,
            start=CornellParams(*(_jitter(rng, v, _FIT_START_JITTER) for v in (gen.a, gen.b, gen.delta))),
            cpx=CornellParams(*(_jitter(rng, v, _PARAM_JITTER) for v in cpx)),
        )
        if _physical(meson, ground_mass, grid_states):
            return meson
    raise RuntimeError(f"no physical {family} meson in {_MAX_DRAWS} draws")


def wave_params_for(meson: Meson, state_label: str, variant: Variant) -> waves.WaveParams:
    """The B = 1 wave-function parameters the grid command builds."""
    sys_v = meson.system(variant)
    state = QuantumState.from_label(state_label)
    if variant is Variant.REAL:
        energy = core.energy_real(sys_v, state)
    else:
        energy = core.energy_complex(sys_v, state, 0.0).real
    return waves.wave_params(sys_v, state, energy, variant=variant)


def write_dataset(path: str, mesons: list[Meson]) -> None:
    doc = {"mesons": []}
    for m in mesons:
        levels = [{"label": label, "exp_mass": mass} for label, mass in measured_masses(m).items()]
        doc["mesons"].append(
            {
                "label": m.label,
                "m_q": m.m_q,
                "m_qbar": m.m_qbar,
                "params": {
                    "real7": {"a": m.start.a, "b": m.start.b, "delta": m.start.delta},
                    "complex5": {"a": m.cpx.a, "b": m.cpx.b, "delta": m.cpx.delta},
                },
                "levels": levels,
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _scan_range(rng: random.Random, param: str, value: float) -> tuple[float, float]:
    if param == "a":
        span = 0.5 * abs(value) + rng.uniform(0.5, 1.5)
        return value - span, value + span
    return value * rng.uniform(0.4, 0.7), value * rng.uniform(1.3, 1.8)


def _spectra_round(rng: random.Random, work: str) -> list[Command]:
    mesons = [draw_meson(rng, fam, fam) for fam in FAMILIES]
    data = os.path.join(work, "mesons.json")
    write_dataset(data, mesons)
    by_label = {m.label: m for m in mesons}
    cmds = []
    for variant in ("real7", "complex5"):
        cmds.append(Command("spectrum", ["spectrum", "--input", data, "--variant", variant], {"mesons": by_label, "variant": variant}))
    for param in ("a", "b", "delta"):
        meson = rng.choice(mesons)
        variant = rng.choice(("real7", "complex5"))
        state = rng.choice(MEASURED)
        lo, hi = _scan_range(rng, param, getattr(meson.system(Variant.parse(variant)).params, param))
        argv = ["scan", "--input", data, "--meson", meson.label, "--variant", variant, "--param", param,
                "--lo", repr(lo), "--hi", repr(hi), "--steps", "201", "--state", state]
        cmds.append(Command("scan", argv, {"meson": meson, "variant": variant, "param": param, "state": state, "steps": 201}))
    cmds.append(Command("fit", ["fit", "--input", data, "--variant", "real7"], {"mesons": by_label}))
    cmds.append(Command("fit", ["fit", "--input", data, "--variant", "real7", "--seed-from-paper"], {"mesons": by_label}))
    return cmds


# (variant, state, r points, p points, family): n = 0..2, both variants,
# from the default 120x41 up to ~10^5 cells.
_GRID_SLOTS = (
    ("real7", "1S", 120, 41, "ccbar"),
    ("real7", "2S", 160, 81, "bbbar"),
    ("real7", "3S", 200, 101, "bcbar"),
    ("complex5", "1S", 120, 41, "bbbar"),
    ("real7", "1S", 320, 301, "ccbar"),
)


def _grid_command(rng, work, idx, meson, variant, state, rsteps, psteps, normalize) -> Command:
    data = os.path.join(work, f"meson{idx}.json")
    write_dataset(data, [meson])
    axes = {
        "rmin": rng.uniform(0.03, 0.08),
        "rmax": rng.uniform(5.0, 7.0),
        "pmin": rng.uniform(-1.2, -0.8),
        "pmax": rng.uniform(0.8, 1.2),
    }
    argv = ["grid", "--input", data, "--meson", meson.label, "--variant", variant, "--state", state,
            "--rsteps", str(rsteps), "--psteps", str(psteps)]
    for k, v in axes.items():
        argv += [f"--{k}", repr(v)]
    if not normalize:
        argv.append("--no-normalize")
    meta = {"meson": meson, "variant": variant, "state": state, "rsteps": rsteps, "psteps": psteps,
            "normalize": normalize, **axes}
    return Command("grid", argv, meta)


def _grids_round(rng: random.Random, work: str) -> list[Command]:
    cmds = []
    for idx, (variant, state, rsteps, psteps, family) in enumerate(_GRID_SLOTS):
        meson = draw_meson(rng, family, family, grid_states=[(state, Variant.parse(variant))])
        cmds.append(_grid_command(rng, work, idx, meson, variant, state, rsteps, psteps, normalize=False))
    return cmds


def _quadrature_round(rng: random.Random, work: str) -> list[Command]:
    states = ("2S", "3S")
    meson = draw_meson(rng, "ccbar", "ccbar", grid_states=[(st, Variant.REAL) for st in ("1S", *states)])
    data = os.path.join(work, "meson.json")
    write_dataset(data, [meson])
    cmds = [Command("check", ["check", "--suite", "all", "--input", data])]
    for idx, state in enumerate(states, start=1):
        cmds.append(_grid_command(rng, work, idx, meson, "real7", state, 60, 21, normalize=True))
    return cmds


_ROUNDS = {"spectra": _spectra_round, "grids": _grids_round, "quadrature": _quadrature_round}


def make_round(workload: str, seed: int, index: int, work: str) -> list[Command]:
    """The commands of round ``index``; inputs are written under ``work``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    os.makedirs(work, exist_ok=True)
    cmds = _ROUNDS[workload](rng, work)
    for i, cmd in enumerate(cmds):
        cmd.out = os.path.join(work, f"out{i}")
        cmd.argv += ["--out", cmd.out]
    return cmds
