"""Meson data file loading.

Input schema (JSON):

    {"mesons": [
        {"label": str,                                                # non-empty, no path separator or NUL,
                                                                      # unique within the file
         "m_q": GeV, "m_qbar": GeV,                                   # finite numbers, as a, b, delta
         "params": {"real7": {"a","b","delta"}, "complex5": {...}},   # optional per variant
         "fit_levels": {"real7": ["1S", ...], ...},                   # optional; level labels,
                                                                      # default: those with data
         "levels": [
            {"label": "1S",                                           # unique within the meson
             "exp_mass": GeV or null,
             "include_in_fit": true/false,                            # optional override
             "this_work": {"real7": GeV or null, ...},                # optional, the paper's masses; keyed by
                                                                      # variant token, an unknown one an input error
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
import os
import sys
from collections import namedtuple
from importlib import resources

from .core import Checked, CornellParams, MesonSystem, QuantumState, Variant
from .errors import DomainError, InputError

__all__ = ["ExperimentalLevel", "MesonRecord", "load_dataset", "builtin_dataset_text"]


class ExperimentalLevel(Checked, namedtuple("ExperimentalLevel", "label state mass include_in_fit")):
    """One spectroscopic level: label, quantum numbers, measured mass (None
    when unmeasured) and whether a fit uses it.  A level of a MesonRecord
    carries the file's include_in_fit, or None where the file leaves the
    choice to fit_levels; experimental_levels resolves it."""

    __slots__ = ()

    def __new__(cls, label: str, state: QuantumState, mass: float | None, include_in_fit: bool | None = True):
        if mass is not None and not math.isfinite(mass):
            raise DomainError(f"level {label}: mass must be finite or None")
        return super().__new__(cls, label, state, mass, include_in_fit)

    @property
    def usable(self) -> bool:
        return self.include_in_fit and self.mass is not None


class MesonRecord(namedtuple("MesonRecord", "label m_q m_qbar params levels fit_levels this_work references")):
    """One meson's data, parsed once by load_dataset: masses, per-variant
    parameters (a dict keyed by Variant), the ExperimentalLevel tuple in
    file order, per-variant fit_levels label tuples, and two dicts with an
    entry for every level label: this_work ({Variant: mass or None}, the
    paper's masses) and references ({model name: mass or None})."""

    __slots__ = ()

    def system(self, variant: Variant | str) -> MesonSystem:
        variant = Variant.parse(variant)
        if variant not in self.params:
            raise InputError(f"meson {self.label!r} has no stored parameters for {variant.value}")
        return MesonSystem(self.m_q, self.m_qbar, self.params[variant], self.label)

    def experimental_levels(self, variant: Variant | str) -> list[ExperimentalLevel]:
        """Levels with per-variant include_in_fit resolved.

        Priority: explicit per-level include_in_fit, then membership in the
        meson's fit_levels list for this variant, then "has a measured
        mass".  A level selected by either of the first two without an
        exp_mass raises InputError.
        """
        variant = Variant.parse(variant)
        chosen = self.fit_levels.get(variant)
        out = []
        for lv in self.levels:
            include = lv.include_in_fit
            if include is None:
                include = lv.label in chosen if chosen is not None else lv.mass is not None
            if include and lv.mass is None:
                source = "include_in_fit" if lv.include_in_fit else f"fit_levels {variant.value}"
                raise InputError(f"meson {self.label!r}: {source} selects {lv.label}, which has no exp_mass")
            out.append(lv._replace(include_in_fit=include))
        return out


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
        if not isinstance(p, dict):
            raise InputError(f"{where}: bad {token} parameter block: {p!r} is not an object")
        out[variant] = CornellParams(*(_number(p.get(key), f"{where}: {token} {key}") for key in CornellParams._fields))
    return out


def _number_or_null(value) -> bool:
    # exact types: JSON true/false arrive as bools, a subclass of int; an
    # integer past double range, like inf and NaN, is not a finite double
    return value is None or (type(value) in (int, float) and abs(value) <= sys.float_info.max)


def _number(value, what: str) -> float:
    if value is None or not _number_or_null(value):
        raise InputError(f"{what} is {value!r}, not a finite number")
    return float(value)


def load_dataset(source: str | None = None) -> list[MesonRecord]:
    """Parse a dataset path (or the bundled one when source is None)."""
    if source is None:
        text = builtin_dataset_text()
        origin = "bundled dataset"
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
    records, labels = [], set()
    for raw in doc["mesons"]:
        if not isinstance(raw, dict):
            raise InputError(f"{origin}: each meson must be an object")
        label = raw.get("label")  # it names the meson's output files
        if not isinstance(label, str) or not label or os.path.basename(label) != label or "\0" in label:
            raise InputError(f"{origin}: meson label {label!r} must be non-empty text with no path separator or NUL")
        where = f"{origin}: meson {label!r}"
        if label in labels:  # its output files would overwrite the first one's
            raise InputError(f"{where} appears more than once")
        labels.add(label)
        m_q, m_qbar = _number(raw.get("m_q"), f"{where}: m_q"), _number(raw.get("m_qbar"), f"{where}: m_qbar")
        if not (m_q > 0 and m_qbar > 0):
            raise InputError(f"{where}: quark masses must be positive")
        raw_levels = raw.get("levels") or []
        if not isinstance(raw_levels, list):
            raise InputError(f"{where}: 'levels' must be a list")
        levels, this_work, references = [], {}, {}
        for lv in raw_levels:
            if not isinstance(lv, dict) or not isinstance(lv.get("label"), str):
                raise InputError(f"{where}: each level must be an object with a text label")
            name = lv["label"]
            try:
                state = QuantumState.from_label(name)
            except DomainError as exc:
                raise InputError(f"{where}: {exc}") from None
            if name in this_work:
                raise InputError(f"{where}: level {name} appears more than once")
            at = f"{where} level {name}"
            for key in ("this_work", "reference_masses"):
                values = lv.get(key) or {}
                if not isinstance(values, dict):
                    raise InputError(f"{at}: {key!r} must be an object")
                for model, value in values.items():
                    if not _number_or_null(value):
                        raise InputError(f"{at}: {key} {model!r} is {value!r}, not a number or null")
            this_work[name] = {_variant(token, f"{at}: this_work"): value for token, value in (lv.get("this_work") or {}).items()}
            references[name] = lv.get("reference_masses") or {}
            if not isinstance(lv.get("include_in_fit", False), bool):
                raise InputError(f"{at}: include_in_fit is {lv['include_in_fit']!r}, not true or false")
            mass = lv.get("exp_mass")
            if not _number_or_null(mass):
                raise InputError(f"{at}: bad mass {mass!r}")
            if mass is not None and mass <= m_q + m_qbar - 1.0:
                raise InputError(f"{at}: mass {mass} below the constituent-sum sanity bound")
            levels.append(ExperimentalLevel(name, state, mass, lv.get("include_in_fit")))
        fit_levels = raw.get("fit_levels") or {}
        if not isinstance(fit_levels, dict) or not all(isinstance(v, list) for v in fit_levels.values()):
            raise InputError(f"{where}: 'fit_levels' must map each variant to a list of labels")
        for token, names in fit_levels.items():
            stray = [name for name in names if not isinstance(name, str) or name not in this_work]
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
                this_work=this_work,
                references=references,
            )
        )
    return records
