"""Traced child: run one htaspec command with each layer's public functions
wrapped from outside the program.

    python perfbench/tracer.py STATS.json <htaspec arguments...>

The program's source is not touched.  Each traced function is replaced by a
wrapper under every name a caller looks it up by: the module attribute
(``special.upper_incomplete_gamma``) and every ``from ... import`` binding of
the same object in another htaspec module (``waves.upper_incomplete_gamma``).
Coarse calls are also recorded as spans (name, start, end, parent); scalar
leaf calls only add to a per-function count and time, so tracing does not
swamp them.  Self time is a call's time minus the time of the traced calls
it made.  A function that does not exist is reported in ``absent`` rather
than as zero, so renaming or deleting one leaves the benchmark running.

STATS.json receives ``{"functions", "extra", "absent", "spans"}``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import numpy as np

# (metric name, module, attribute, span?, count elements?)
TRACED = (
    ("cli.main", "htaspec.cli", "main", True, False),
    ("cli.write_csv", "htaspec.cli", "_write_csv", True, False),
    ("dataio.load_dataset", "htaspec.dataio", "load_dataset", True, False),
    ("core.parameter_scan", "htaspec.core", "parameter_scan", True, False),
    ("core.energy_real_via_nu", "htaspec.core", "energy_real_via_nu", True, False),
    ("core.mass_spectrum_detailed", "htaspec.core", "mass_spectrum_detailed", False, False),
    ("nu.solve", "htaspec.nu", "solve", False, False),
    ("nu.rodrigues_y", "htaspec.nu", "rodrigues_y", False, False),
    ("fitting.fit", "htaspec.fitting", "fit", True, False),
    ("fitting.residual", "htaspec.fitting", "residual", False, False),
    ("waves.density_grid", "htaspec.waves", "density_grid", True, False),
    ("waves.normalize_B", "htaspec.waves", "normalize_B", True, False),
    ("waves.total_probability", "htaspec.waves", "total_probability", True, False),
    ("waves.psi_n", "htaspec.waves", "psi_n", False, False),
    ("waves.leggauss", "numpy.polynomial.legendre", "leggauss", False, False),
    ("confine1d.normalize_1d", "htaspec.confine1d", "normalize_1d", True, False),
    ("confine1d.moment_identity_check", "htaspec.confine1d", "moment_identity_check", True, False),
    ("special.upper_incomplete_gamma", "htaspec.special", "upper_incomplete_gamma", False, True),
    ("special.airy_ai", "htaspec.special", "airy_ai", False, True),
    ("special.gamma_complex", "htaspec.special", "gamma_complex", False, True),
)

# A traced function counted only when called from this module (leggauss is
# numpy's; only the wave-function quadratures' calls are this layer's).
_CALLER = {"waves.leggauss": "htaspec.waves"}


class Tracer:
    """Counts, times and spans of the wrapped functions in this process."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.functions: dict[str, dict] = {}
        self.extra = {
            "cli.csv_bytes": 0,
            "waves.cells": 0,
            "waves.cell_errors": 0,
            "fitting.n_eval": 0,
            "fitting.converged": 0,
        }
        self.absent: list[str] = []
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._child = [0.0]  # traced time of the callees of each open call
        self._open_spans: list[int] = []

    def wrap(self, name, orig, span, elements, caller=None):
        rec = self.functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0, "elements": 0})
        post = _POST.get(name)
        child, open_spans, spans, clock = self._child, self._open_spans, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return orig(*args, **kwargs)
            rec["calls"] += 1
            if elements:
                rec["elements"] += _elements(args)
            if span:
                open_spans.append(len(spans))
                spans.append([name, clock() - self.t0, None, open_spans[-2] if len(open_spans) > 1 else -1])
            child.append(0.0)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except Exception:
                rec["errors"] += 1
                raise
            finally:
                dt = clock() - start
                rec["s"] += dt
                rec["self_s"] += dt - child.pop()
                child[-1] += dt
                if span:
                    spans[open_spans.pop()][2] = clock() - self.t0
            if post is not None:
                post(self, result, args)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED function under each name callers use for it."""
        for name, modname, attr, span, elements in TRACED:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, orig, span, elements, _CALLER.get(name))
            setattr(mod, attr, wrapper)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("htaspec"):
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapper)

    def rodrigues_cache(self, waves_module):
        cached = getattr(waves_module, "_rodrigues_coeffs_cached", None)
        info = getattr(cached, "cache_info", None)
        if info is None:
            self.absent.append("waves.rodrigues_cache")
            return
        ci = info()
        self.extra["waves.rodrigues_cache.hits"] = ci.hits
        self.extra["waves.rodrigues_cache.misses"] = ci.misses

    def dump(self, path):
        doc = {"functions": self.functions, "extra": self.extra, "absent": self.absent, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _elements(args) -> int:
    n = 1
    for a in args:
        if not isinstance(a, (int, float, complex)):
            n = max(n, int(np.size(a)))
    return n


def _post_write_csv(tracer, result, args):
    tracer.extra["cli.csv_bytes"] += os.path.getsize(args[0])


def _post_density_grid(tracer, grid, args):
    amplitudes = getattr(grid, "amplitudes", None)
    errors = getattr(grid, "cell_errors", None)
    _add_attr(tracer, "waves.cells", None if amplitudes is None else np.size(amplitudes))
    _add_attr(tracer, "waves.cell_errors", None if errors is None else len(errors))


def _post_fit(tracer, result, args):
    _add_attr(tracer, "fitting.n_eval", getattr(result, "n_eval", None))
    _add_attr(tracer, "fitting.converged", getattr(result, "converged", None))


def _add_attr(tracer, name, value):
    """Add a result attribute to a counter; a missing attribute marks it absent."""
    if value is None:
        if name not in tracer.absent:
            tracer.absent.append(name)
    else:
        tracer.extra[name] += int(value)


_POST = {
    "cli.write_csv": _post_write_csv,
    "waves.density_grid": _post_density_grid,
    "fitting.fit": _post_fit,
}


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import htaspec.cli
    import htaspec.waves

    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = htaspec.cli.main(argv)
    finally:
        tracer.rodrigues_cache(htaspec.waves)
        tracer.dump(stats_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
