"""Start-up contract: a command imports numpy only when it runs code that
needs it, and no command imports scipy; no command imports dataclasses
(which pulls in inspect, ast, dis and tokenize), and each command compiles
only the package modules it runs.

Each case runs in a fresh interpreter, since this test process has long
since imported all of them.  The checks are on module names, not timings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def loaded_after(code, cwd, roots=("numpy", "scipy")):
    """Names in sys.modules under the given top-level packages after running code in a fresh interpreter."""
    probe = f"import sys\nprint('MODULES', *sorted(m for m in sys.modules if m.split('.')[0] in {tuple(roots)!r}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{probe}"], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("MODULES"))
    return set(line.split()[1:])


def run_main(argv, rc):
    return f"from htaspec.cli import main\nassert main({argv!r}) == {rc}"


def test_cli_import_loads_neither(tmp_path):
    assert loaded_after("import htaspec.cli", tmp_path) == set()


_SPECTRUM = (["spectrum", "--out", "out"], 0)
_SCAN = (["scan", "--meson", "ccbar", "--param", "b", "--lo", "0.3", "--hi", "0.5", "--steps", "11", "--out", "out"], 0)
# bcbar has two measured levels for three parameters
_FIT = (["fit", "--out", "out"], 4)


@pytest.mark.parametrize("argv, rc", [_SPECTRUM, _SCAN, _FIT], ids=["spectrum", "scan", "fit"])
def test_light_commands_load_neither(tmp_path, argv, rc):
    assert loaded_after(run_main(argv, rc), tmp_path) == set()
    assert os.listdir(tmp_path / "out")


@pytest.mark.parametrize(
    "code",
    ["import htaspec.cli", run_main(*_SPECTRUM), run_main(*_SCAN), run_main(*_FIT), run_main(["check", "--suite", "nu"], 0)],
    ids=["import", "spectrum", "scan", "fit", "check-nu"],
)
def test_loads_no_dataclasses_or_inspect(tmp_path, code):
    # the value types are namedtuples; dataclasses and the inspect it pulls
    # in cost about 9 ms of a fresh import
    assert loaded_after(code, tmp_path, ("dataclasses", "inspect")) == set()


@pytest.mark.parametrize("argv, rc", [_SPECTRUM, _SCAN], ids=["spectrum", "scan"])
def test_spectrum_and_scan_compile_neither_nu_nor_fitting(tmp_path, argv, rc):
    mods = loaded_after(run_main(argv, rc), tmp_path, ("htaspec",))
    assert "htaspec.core" in mods
    assert not mods & {"htaspec.nu", "htaspec.fitting"}


def test_fit_compiles_no_nu(tmp_path):
    mods = loaded_after(run_main(*_FIT), tmp_path, ("htaspec",))
    assert "htaspec.fitting" in mods
    assert "htaspec.nu" not in mods


_GRID = ["grid", "--meson", "ccbar", "--rsteps", "4", "--psteps", "3", "--out", "out"]


@pytest.mark.parametrize(
    "flags",
    [[], ["--no-normalize"], ["--variant", "complex5", "--no-normalize"]],
    ids=["real7-normalized", "real7-unnormalized", "complex5-unnormalized"],
)
def test_grid_loads_no_scipy(tmp_path, flags):
    # Gamma(s, z), the complete Gamma it needs and the normalizing
    # quadrature are numpy only; scipy.special alone would add about 0.3 s.
    # grid never reaches Airy, so it builds no Gauss-Laguerre nodes either
    airy_idle = "from htaspec import special\nassert special._laguerre.cache_info().currsize == 0"
    mods = loaded_after(run_main(_GRID + flags, 0) + "\n" + airy_idle, tmp_path)
    assert "numpy" in mods
    assert not any(m.split(".")[0] == "scipy" for m in mods)


def test_grid_loads_no_dataclasses(tmp_path):
    # numpy itself imports inspect, so only dataclasses is checked here
    assert loaded_after(run_main(_GRID, 0), tmp_path, ("dataclasses",)) == set()


def test_heap_frozen_once_at_exit(tmp_path):
    # main registers gc.freeze with atexit once, however often it runs, so
    # the shutdown collections skip the heap; the first handler registered runs last
    code = """
import atexit, gc
calls = []
atexit.register(lambda: print("FREEZES", len(calls), gc.get_freeze_count() > 0))
freeze = gc.freeze
gc.freeze = lambda: (calls.append(1), freeze())
from htaspec.cli import main
for _ in range(2):
    assert main(["scan", "--meson", "ccbar", "--param", "b", "--lo", "0.3", "--hi", "0.5", "--steps", "5", "--out", "out"]) == 0
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "FREEZES 1 True\n")


def test_grid_loads_no_process_pool(tmp_path):
    # a grid large enough to split across CPUs forks its workers itself
    argv = ["grid", "--meson", "ccbar", "--rsteps", "160", "--psteps", "81", "--no-normalize", "--out", "out"]
    assert loaded_after(run_main(argv, 0), tmp_path, ("multiprocessing", "concurrent", "subprocess")) == set()


@pytest.mark.parametrize("argv, rc", [_SPECTRUM, _SCAN, _FIT], ids=["spectrum", "scan", "fit"])
def test_only_grid_compiles_gridsplit(tmp_path, argv, rc):
    assert "htaspec.gridsplit" not in loaded_after(run_main(argv, rc), tmp_path, ("htaspec",))


@pytest.mark.parametrize("suite", ["nu", "quadrature", "moment", "all"])
def test_check_loads_no_scipy(tmp_path, suite):
    # the root-solve (Brent), the Airy functions and zeros and the Airy
    # quadratures (Gauss-Legendre) are in-house: scipy.special alone would
    # add about 0.4 s of cold import to `check`, and scipy.optimize or
    # scipy.integrate (which pulls in scipy.linalg) about 0.3 s.  The
    # quadrature and moment suites import confine1d: it loads no scipy either
    mods = loaded_after(run_main(["check", "--suite", suite], 0), tmp_path)
    assert not any(m.split(".")[0] == "scipy" for m in mods)
    if suite == "nu":
        # the NU root-solve is pure Python
        assert mods == set()

