"""The benchmark's contract with the program: every name that
perfbench/tracer.py wraps or reads, and every htaspec name that
perfbench/checks.py, workloads.py and kernel_bench.py use, exists, and
workloads.py can draw every workload's inputs.  A deletion, or a level-rule
change that leaves the generator without a physical meson, then fails here,
and not only in a harness run (a traced one reports a deletion as
``absent``).  tracer.py, checks.py and kernel_bench.py are read by path and
parsed, not run; of workloads.py only make_round runs, writing round 0's
inputs into a temporary directory.  Nothing is wrapped and no command runs.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from htaspec import cli, waves

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"


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


def htaspec_names(tree):
    """(module, name, attributes) of each `from htaspec... import name` in
    tree, and of each attribute chain rooted at such a name: ("htaspec.core",
    "Variant", ("parse",)) for Variant.parse."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "htaspec":
            bound.update({alias.asname or alias.name: (node.module, alias.name) for alias in node.names})
    found = {(*target, ()) for target in bound.values()}
    for node in ast.walk(tree):
        attrs = ()
        while isinstance(node, ast.Attribute):
            node, attrs = node.value, (node.attr, *attrs)
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            found.add((*bound[node.id], attrs))
    return found


def resolves(module, name, attrs):
    mod = importlib.import_module(module)
    # `from M import name` binds M's attribute or, failing that, its submodule
    obj = getattr(mod, name) if hasattr(mod, name) else importlib.import_module(f"{module}.{name}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


@pytest.mark.parametrize("script", ["checks.py", "workloads.py", "kernel_bench.py"])
def test_every_benchmark_name_resolves(script):
    # Variant.parse, QuantumState.from_label, core.energy_real_via_nu,
    # waves.wave_params, special.airy_ai and the rest: a name deleted with
    # its own tests would otherwise break only the benchmark
    names = htaspec_names(ast.parse((BENCH / script).read_text(encoding="utf-8")))
    assert names
    missing = [".".join([module, name, *attrs]) for module, name, attrs in sorted(names) if not resolves(module, name, attrs)]
    assert missing == []


def test_check_takes_out():
    # every benchmark command, check included, is run with --out DIR
    args = cli.build_parser().parse_args(["check", "--out", "DIR"])
    assert (args.func, args.out) == (cli.cmd_check, "DIR")


def _workloads():
    # by path, under a name of its own: perfbench is not a package
    if (mod := sys.modules.get("perfbench_workloads")) is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
        mod = sys.modules["perfbench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["spectra", "grids", "quadrature"])
def test_every_workload_draws_its_inputs(tmp_path, workload, seed):
    # draw_meson raises RuntimeError when 400 draws hold no physical meson
    cmds = _workloads().make_round(workload, seed, 0, str(tmp_path))
    assert cmds and all(cmd.argv[0] == cmd.kind for cmd in cmds)
