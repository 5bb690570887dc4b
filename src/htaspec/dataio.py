"""Meson data file loading.

Input schema (JSON):

    {"mesons": [
        {"label": str,
         "m_q": GeV, "m_qbar": GeV,
         "params": {"real7": {"a","b","delta"}, "complex5": {...}},   # optional per variant
         "fit_levels": {"real7": ["1S", ...], ...},                   # optional; level labels,
                                                                      # default: those with data
         "levels": [
            {"label": "1S",                                           # unique within the meson
             "exp_mass": GeV or null,
             "include_in_fit": true/false,                            # optional override
             "this_work": {"real7": GeV or null, ...},                # optional, reference output
             "reference_masses": {model_name: GeV or null, ...}}      # optional comparison data
         ]}
    ]}

A bundled dataset covering ccbar/bbbar/bcbar ships with the package and is
used when no input path is given.  The bundled fit_levels mark, per variant,
the calibration subsets that reproduce the published parameters (three
states pinned per meson); strip them to fit against every measured level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .core import CornellParams, MesonSystem, QuantumState, Variant
from .errors import DomainError, InputError
from .fitting import ExperimentalLevel

__all__ = ["MesonRecord", "load_dataset", "builtin_dataset_text", "DEFAULT_DATASET"]

DEFAULT_DATASET = "builtin:mesons"


@dataclass(frozen=True)
class MesonRecord:
    """One meson's data: masses, optional per-variant parameters, levels."""

    label: str
    m_q: float
    m_qbar: float
    params: dict[Variant, CornellParams]
    levels: tuple[dict, ...]
    fit_levels: dict[Variant, tuple[str, ...]]

    def system(self, variant: Variant | str) -> MesonSystem:
        variant = Variant.parse(variant)
        if variant not in self.params:
            raise InputError(f"meson {self.label!r} has no stored parameters for {variant.value}")
        return MesonSystem(self.m_q, self.m_qbar, self.params[variant], self.label)

    def experimental_levels(self, variant: Variant | str) -> list[ExperimentalLevel]:
        """Levels with per-variant include_in_fit resolved.

        Priority: explicit per-level include_in_fit, then membership in the
        meson's fit_levels list for this variant, then "has a measured
        mass".
        """
        variant = Variant.parse(variant)
        chosen = self.fit_levels.get(variant)
        out = []
        for raw in self.levels:
            label = raw["label"]
            mass = raw.get("exp_mass")
            if "include_in_fit" in raw:
                include = raw["include_in_fit"]
            elif chosen is not None:
                include = label in chosen
            else:
                include = mass is not None
            out.append(
                ExperimentalLevel(
                    label=label,
                    state=QuantumState.from_label(label),
                    mass=mass,
                    include_in_fit=include and mass is not None,
                )
            )
        return out

    def this_work(self, label: str, variant: Variant | str) -> float | None:
        variant = Variant.parse(variant)
        for raw in self.levels:
            if raw["label"] == label:
                return (raw.get("this_work") or {}).get(variant.value)
        return None

    def reference_masses(self, label: str) -> dict[str, float]:
        for raw in self.levels:
            if raw["label"] == label:
                return dict(raw.get("reference_masses") or {})
        return {}


def builtin_dataset_text() -> str:
    return resources.files("htaspec.data").joinpath("mesons.json").read_text()


def _variant(token, where: str) -> Variant:
    try:
        return Variant.parse(token)
    except DomainError as exc:
        raise InputError(f"{where}: {exc}") from None


def _parse_params(raw, where: str) -> dict[Variant, CornellParams]:
    if not isinstance(raw or {}, dict):
        raise InputError(f"{where}: 'params' must be an object keyed by variant")
    out = {}
    for token, p in (raw or {}).items():
        variant = _variant(token, where)
        try:
            out[variant] = CornellParams(float(p["a"]), float(p["b"]), float(p["delta"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}: bad {token} parameter block: {exc}") from None
    return out


def _number_or_null(value) -> bool:
    # exact types: JSON true/false arrive as bools, a subclass of int
    return value is None or (type(value) in (int, float) and math.isfinite(value))


def load_dataset(source: str | None = None) -> list[MesonRecord]:
    """Parse a dataset path (or the bundled one when source is None)."""
    if source is None or source == DEFAULT_DATASET:
        text = builtin_dataset_text()
        origin = DEFAULT_DATASET
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file {source!r}: {exc}") from None
        origin = source
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{origin}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("mesons"), list) or not doc["mesons"]:
        raise InputError(f"{origin}: expected a top-level object with a non-empty 'mesons' list")
    records = []
    for raw in doc["mesons"]:
        try:
            label = raw["label"]
            m_q = float(raw["m_q"])
            m_qbar = float(raw["m_qbar"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{origin}: malformed meson entry: {exc}") from None
        where = f"{origin}: meson {label!r}"
        if not (m_q > 0 and m_qbar > 0):
            raise InputError(f"{where}: quark masses must be positive")
        levels = raw.get("levels") or []
        if not isinstance(levels, list):
            raise InputError(f"{where}: 'levels' must be a list")
        seen = set()
        for lv in levels:
            if not isinstance(lv, dict) or not isinstance(lv.get("label"), str):
                raise InputError(f"{where}: each level must be an object with a text label")
            try:
                QuantumState.from_label(lv["label"])
            except DomainError as exc:
                raise InputError(f"{where}: {exc}") from None
            if lv["label"] in seen:
                raise InputError(f"{where}: level {lv['label']} appears more than once")
            seen.add(lv["label"])
            for key in ("this_work", "reference_masses"):
                values = lv.get(key) or {}
                if not isinstance(values, dict):
                    raise InputError(f"{where} level {lv['label']}: {key!r} must be an object")
                for name, value in values.items():
                    if not _number_or_null(value):
                        raise InputError(f"{where} level {lv['label']}: {key} {name!r} is {value!r}, not a number or null")
            if not isinstance(lv.get("include_in_fit", False), bool):
                raise InputError(f"{where} level {lv['label']}: include_in_fit is {lv['include_in_fit']!r}, not true or false")
            mass = lv.get("exp_mass")
            if not _number_or_null(mass):
                raise InputError(f"{where} level {lv['label']}: bad mass {mass!r}")
            if mass is not None and mass <= m_q + m_qbar - 1.0:
                raise InputError(
                    f"{where} level {lv['label']}: mass {mass} below the "
                    f"constituent-sum sanity bound"
                )
        fit_levels = raw.get("fit_levels") or {}
        if not isinstance(fit_levels, dict) or not all(isinstance(v, list) for v in fit_levels.values()):
            raise InputError(f"{where}: 'fit_levels' must map each variant to a list of labels")
        for token, names in fit_levels.items():
            stray = [name for name in names if not isinstance(name, str) or name not in seen]
            if stray:
                raise InputError(f"{where}: fit_levels {token} names {stray}, not level labels of this meson")
        records.append(
            MesonRecord(
                label=label,
                m_q=m_q,
                m_qbar=m_qbar,
                params=_parse_params(raw.get("params"), where),
                levels=tuple(levels),
                fit_levels={_variant(token, where): tuple(labels) for token, labels in fit_levels.items()},
            )
        )
    return records
