"""The benchmark's contract with the program: every name that
perfbench/tracer.py wraps or reads, and that perfbench/checks.py calls,
exists.  A deletion then fails here, and not only in a traced harness run
(which reports it as ``absent``).  tracer.py is read by path and parsed,
not run: nothing is wrapped and no command runs.
"""

import ast
import importlib
from pathlib import Path

from htaspec import cli, core, waves

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced():
    # TRACED's literal, parsed from the source: the tracer is not run
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED")


def test_every_traced_function_resolves():
    entries = traced()
    assert entries
    missing = [f"{mod}.{attr}" for _, mod, attr, *_ in entries if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_rodrigues_cache_reports_its_hits():
    assert callable(waves._rodrigues_coeffs_cached.cache_info)


def test_mass_check_routes_exist():
    assert callable(core.energy_real_via_nu) and callable(core.rest_energy_bracket)


def test_check_takes_out():
    # every benchmark command, check included, is run with --out DIR
    args = cli.build_parser().parse_args(["check", "--out", "DIR"])
    assert (args.func, args.out) == (cli.cmd_check, "DIR")
