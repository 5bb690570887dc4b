"""grid across CPUs: a grid cut into row slices, each past the first
evaluated and formatted in a forked worker, writes the bytes of the one-slice
grid, and no worker outlives the command on any exit path.

Each command runs in a fresh interpreter under ``-W error`` with
OPENBLAS_NUM_THREADS unset (the default a user has), so that it can fork;
the expected CSV and report are built here from waves.density_grid over the
whole axes, each value written by "%".  os.fork is wrapped by the test script, not by the program, to
count the workers.  The last test cuts grids at random rows in process: any
cut gives the one-call grid bit for bit.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from htaspec import core, dataio, waves
from htaspec.core import QuantumState, Variant

SRC = str(Path(__file__).resolve().parents[1] / "src")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

SCRIPT = """
import os, sys
report, argv = sys.argv[1], sys.argv[2:]
forks = []
_fork = os.fork
def fork():
    pid = _fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
{setup}
from htaspec.cli import main
rc = main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
    left = "child"
except ChildProcessError:
    left = "none"
with open(report, "w") as fh:
    fh.write(f"{{len(forks)}} {{left}}")
sys.exit(rc)
"""

# the next test's worker fails: density_grid raises for a slice that does not start at row 0
FAIL_PAST_ROW_0 = """
from htaspec import waves
from htaspec.errors import NumericError
_density_grid = waves.density_grid
def density_grid(params, n, r_axis, p_axis):
    if not isinstance(r_axis, tuple) and r_axis[0] > 0.05:
        raise NumericError("injected failure")
    return _density_grid(params, n, r_axis, p_axis)
waves.density_grid = density_grid
"""


def run_grid(tmp_path, argv, setup="", env=None):
    """(exit code, stdout, stderr, workers forked, children left) of one
    command in a fresh interpreter."""
    report = tmp_path / "report"
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT.format(setup=setup), str(report), *argv],
        cwd=tmp_path, env=dict(base, **(env or {})), capture_output=True, text=True, timeout=120,
    )
    forks, left = report.read_text().split() if report.exists() else (None, None)
    return proc.returncode, proc.stdout, proc.stderr, forks and int(forks), left


def axis(argv, name, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


def expected(argv):
    """(CSV text, stderr) of the grid, from density_grid over the whole axes."""
    rec = {r.label: r for r in dataio.load_dataset()}[argv[argv.index("--meson") + 1]]
    variant = Variant.parse(axis(argv, "--variant", "real7"))
    state = QuantumState.from_label(axis(argv, "--state", "1S"))
    sys_v = rec.system(variant)
    energy, _ = core.level(sys_v, state, variant)
    params = waves.wave_params(sys_v, state, energy, variant=variant)
    if "--no-normalize" not in argv:
        params = params._replace(B=waves.normalize_B(params, state.n))
    grid = waves.density_grid(
        params,
        state.n,
        core._axis_interval(axis(argv, "--rmin", 0.05), axis(argv, "--rmax", 6.0), axis(argv, "--rsteps", 120), "r"),
        core._axis_interval(axis(argv, "--pmin", -1.0), axis(argv, "--pmax", 1.0), axis(argv, "--psteps", 41), "p"),
    )
    # each value written by "%" itself, independent of the formatter under test
    f = f"%.{axis(argv, '--precision', 17)}g"
    text = "r,p_r,re,im,density\n" + "".join(
        f"{f % r},{f % p},{f % a.real},{f % a.imag},{f % d}\n"
        for r, amp, dens in zip(grid.r_values, grid.amplitudes.tolist(), grid.densities.tolist())
        for p, a, d in zip(grid.p_values, amp, dens)
    )
    err = ""
    if grid.cell_errors:
        shown = grid.cell_errors[:5]
        err = f"{len(grid.cell_errors)} of {grid.amplitudes.size} cells failed (nan in the CSV); first {len(shown)}:\n"
        err += "".join(f"cell ({i},{j}): {msg}\n" for i, j, msg in shown)
    return text, err, grid.amplitudes.size


GRIDS = {
    # the benchmark's five grid shapes
    "ccbar-1S-120x41": ["--meson", "ccbar", "--rsteps", "120", "--psteps", "41", "--no-normalize"],
    "bbbar-2S-160x81": ["--meson", "bbbar", "--state", "2S", "--rsteps", "160", "--psteps", "81", "--no-normalize"],
    "bcbar-3S-200x101": ["--meson", "bcbar", "--state", "3S", "--rsteps", "200", "--psteps", "101", "--no-normalize"],
    "bbbar-complex5-120x41": ["--meson", "bbbar", "--variant", "complex5", "--rsteps", "120", "--psteps", "41", "--no-normalize"],
    "ccbar-1S-320x301": ["--meson", "ccbar", "--rsteps", "320", "--psteps", "301", "--no-normalize"],
    # a worker's formatting at other digits; at 18 every value takes "%"
    **{
        f"ccbar-1S-320x301-precision-{d}": ["--meson", "ccbar", "--rsteps", "320", "--psteps", "301", "--no-normalize", "--precision", d]
        for d in ("1", "6", "16", "18")
    },
    "normalized": ["--meson", "ccbar", "--state", "2S", "--rsteps", "160", "--psteps", "81"],
    # the first 34 rows have r <= 0 and fail with psi_n's DomainError text
    "r-through-zero": ["--meson", "ccbar", "--rmin", "-1", "--rmax", "5", "--rsteps", "200", "--psteps", "101", "--no-normalize"],
    # every cell fails
    "all-cells-fail": ["--meson", "bcbar", "--no-normalize", "--rsteps", "100", "--psteps", "101", "--pmin", "1e11", "--pmax", "2e11"],
}


@pytest.mark.parametrize("flags", list(GRIDS.values()), ids=list(GRIDS))
def test_split_grid_matches_one_slice(tmp_path, flags):
    argv = ["grid", *flags, "--out", "out"]
    text, err, cells = expected(argv)
    rc, out, stderr, forks, left = run_grid(tmp_path, argv)
    assert (rc, out, stderr) == (0, "", err)
    csv = next((tmp_path / "out").iterdir())
    assert csv.read_text() == text
    assert left == "none"
    # one slice per usable CPU, none smaller than one psi_n block
    if CPUS > 1 and cells >= 2 * waves._BLOCK_CELLS:
        assert 1 <= forks < CPUS
    else:
        assert forks == 0


def test_narrow_r_interval_exits_2(tmp_path):
    # five points from 1 to its next float repeat r = 1: the axis is not
    # strictly ascending, and nothing is written
    flags = ["--meson", "ccbar", "--rmin", "1", "--rmax", "1.0000000000000002", "--rsteps", "5", "--psteps", "2"]
    rc, out, stderr, forks, left = run_grid(tmp_path, ["grid", *flags, "--out", "out"])
    assert (rc, out, stderr, forks, left) == (2, "", "input error: r axis must be strictly ascending\n", 0, "none")
    assert not (tmp_path / "out").exists()


def test_index_no_cell_takes_forks_nothing(tmp_path):
    argv = ["grid", *GRIDS["ccbar-1S-320x301"], "--state", "8S", "--out", "out"]
    rc, out, stderr, forks, left = run_grid(tmp_path, argv)
    assert (rc, out, stderr, forks, left) == (3, "", "non-physical parameters: psi_n: n must be in [0, 6], got 7\n", 0, "none")


def test_numpy_loaded_first_takes_one_slice(tmp_path):
    # OpenBLAS's pool is running by then: the process is not forked
    argv = ["grid", *GRIDS["bbbar-2S-160x81"], "--out", "out"]
    text, err, _ = expected(argv)
    rc, out, stderr, forks, left = run_grid(tmp_path, argv, setup="import numpy")
    assert (rc, out, stderr, forks, left) == (0, "", err, 0, "none")
    assert next((tmp_path / "out").iterdir()).read_text() == text


# grid sees four usable CPUs, whatever the host has
FOUR_CPUS = "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}"
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="grid splits only where /proc/self/task counts threads")


@linux_only
@pytest.mark.skipif(CPUS < 2, reason="one usable CPU: grid forks no worker")
def test_importing_gridsplit_first_leaves_one_thread():
    # a library caller that imports gridsplit before numpy gets a split grid:
    # the module sets OpenBLAS's thread count before it loads numpy
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = "import os, htaspec.gridsplit as g; print(len(os.listdir('/proc/self/task')), len(g._row_slices(320, 301)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    threads, slices = map(int, proc.stdout.split())
    assert threads == 1 and slices >= 2


@linux_only
def test_four_slices_match_one_slice(tmp_path):
    argv = ["grid", *GRIDS["ccbar-1S-320x301"], "--out", "out"]
    text, err, _ = expected(argv)
    rc, out, stderr, forks, left = run_grid(tmp_path, argv, FOUR_CPUS)
    assert (rc, out, stderr, forks, left) == (0, "", err, 3, "none")
    assert next((tmp_path / "out").iterdir()).read_text() == text


@linux_only
def test_no_more_slices_than_rows(tmp_path):
    # 2 rows of 10,000 cells hold four psi_n blocks but give two slices
    argv = ["grid", "--meson", "ccbar", "--rsteps", "2", "--psteps", "10000", "--no-normalize", "--out", "out"]
    text, err, _ = expected(argv)
    rc, out, stderr, forks, left = run_grid(tmp_path, argv, FOUR_CPUS)
    assert (rc, out, stderr, forks, left) == (0, "", err, 1, "none")
    assert next((tmp_path / "out").iterdir()).read_text() == text


@linux_only
def test_four_slices_reaped_when_the_output_cannot_be_written(tmp_path):
    # each worker is left holding more rows than a pipe buffers
    (tmp_path / "FILE").write_text("")
    argv = ["grid", *GRIDS["ccbar-1S-320x301"], "--out", "FILE/sub"]
    rc, out, stderr, forks, left = run_grid(tmp_path, argv, FOUR_CPUS)
    assert (rc, out, forks, left) == (2, "", 3, "none")
    assert stderr.startswith("input error: cannot write output: ") and stderr.count("\n") == 1


# rows with r > 3 fail: no failed cell of a 320-row grid lies in its first slice
NAN_PAST_R3 = """
import math
from htaspec import waves
_density_grid = waves.density_grid
def density_grid(params, n, r_axis, p_axis):
    grid = _density_grid(params, n, r_axis, p_axis)
    rows = [i for i, r in enumerate(grid.r_values) if r > 3.0]
    grid.amplitudes[rows], grid.densities[rows] = complex(math.nan, math.nan), math.nan
    grid.cell_errors += tuple((i, j, "NumericError: injected") for i in rows for j in range(len(grid.p_values)))
    return grid
waves.density_grid = density_grid
"""


@linux_only
def test_worker_cell_errors_keep_their_grid_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(waves, "density_grid", waves.density_grid)  # undone after the test
    exec(NAN_PAST_R3, {})
    argv = ["grid", *GRIDS["ccbar-1S-320x301"], "--out", "out"]
    text, err, _ = expected(argv)
    assert err.splitlines()[1] == "cell (159,0): NumericError: injected"
    # the patch imports numpy before main, so OpenBLAS is held to one thread here
    rc, out, stderr, forks, left = run_grid(tmp_path, argv, FOUR_CPUS + NAN_PAST_R3, {"OPENBLAS_NUM_THREADS": "1"})
    assert (rc, out, stderr, forks, left) == (0, "", err, 3, "none")
    assert next((tmp_path / "out").iterdir()).read_text() == text


@pytest.mark.skipif(CPUS < 2, reason="one usable CPU: grid forks no worker")
def test_failing_worker_is_reaped(tmp_path):
    # the patch imports numpy before main, so OpenBLAS is held to one thread here
    argv = ["grid", *GRIDS["ccbar-1S-320x301"], "--out", "out"]
    rc, out, stderr, forks, left = run_grid(tmp_path, argv, FAIL_PAST_ROW_0, {"OPENBLAS_NUM_THREADS": "1"})
    assert (rc, out, stderr) == (5, "", "numeric failure: injected failure\n")
    assert forks >= 1 and left == "none"
    assert not (tmp_path / "out").exists()


# the next test's workers fail while formatting, after they have sent their cell errors
FAIL_FORMATTING_PAST_ROW_0 = """
from htaspec import waves
class Unformattable:
    def __iter__(self):
        raise MemoryError
_density_grid = waves.density_grid
def density_grid(params, n, r_axis, p_axis):
    grid = _density_grid(params, n, r_axis, p_axis)
    if not isinstance(r_axis, tuple) and r_axis[0] > 0.05:
        grid.densities = Unformattable()
    return grid
waves.density_grid = density_grid
"""


@linux_only
def test_worker_failing_after_its_cell_errors_leaves_no_csv(tmp_path):
    # the parent has written its own rows when it finds a worker's missing
    argv = ["grid", *GRIDS["ccbar-1S-320x301"], "--out", "out"]
    rc, out, stderr, forks, left = run_grid(tmp_path, argv, FOUR_CPUS + FAIL_FORMATTING_PAST_ROW_0, {"OPENBLAS_NUM_THREADS": "1"})
    assert (rc, out, stderr) == (5, "", "numeric failure: a grid worker ended before sending all of its rows\n")
    assert (forks, left) == (3, "none")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.skipif(CPUS < 2, reason="one usable CPU: grid forks no worker")
def test_worker_is_reaped_when_the_output_cannot_be_written(tmp_path):
    (tmp_path / "FILE").write_text("")
    argv = ["grid", *GRIDS["ccbar-1S-320x301"], "--out", "FILE/sub"]
    rc, out, stderr, forks, left = run_grid(tmp_path, argv)
    assert (rc, out) == (2, "")
    assert stderr.startswith("input error: cannot write output: ") and stderr.count("\n") == 1
    assert forks >= 1 and left == "none"


# (meson, variant, state, r axis, p axis) of grids cut at random rows in process
CUT_GRIDS = {
    "real7-n0": ("ccbar", "real7", "1S", (0.05, 6.0, 120), (-1.0, 1.0, 101)),
    "real7-n1": ("ccbar", "real7", "2S", (0.05, 6.0, 120), (-1.0, 1.0, 101)),
    "real7-n2": ("bbbar", "real7", "3S", (0.05, 6.0, 120), (-1.0, 1.0, 101)),
    "complex5": ("bbbar", "complex5", "1S", (0.05, 6.0, 120), (-1.0, 1.0, 41)),
    "r-through-zero": ("ccbar", "real7", "1S", (-1.0, 5.0, 200), (-1.0, 1.0, 101)),
    "all-cells-fail": ("bcbar", "real7", "1S", (0.05, 6.0, 100), (1e11, 2e11, 101)),
}


@pytest.mark.parametrize("name", list(CUT_GRIDS))
def test_any_row_cut_gives_the_one_call_grid(name):
    # every cell is elementwise arithmetic on its own r and p_r, so slices cut
    # anywhere, inside a psi_n block or the r <= 0 prefix, give the one-call
    # grid bit for bit
    meson, variant, label, r_axis, p_axis = CUT_GRIDS[name]
    rec = {r.label: r for r in dataio.load_dataset()}[meson]
    variant, state = Variant.parse(variant), QuantumState.from_label(label)
    sys_v = rec.system(variant)
    params = waves.wave_params(sys_v, state, core.level(sys_v, state, variant)[0], variant=variant)
    rs, ps = core._axis_interval(*r_axis, "r"), core._axis_interval(*p_axis, "p")
    whole = waves.density_grid(params, state.n, rs, ps)
    block = waves._BLOCK_CELLS // len(ps)
    first = sum(r <= 0 for r in rs)
    fixed = {first // 2, first + block // 2} - {0}  # inside the prefix and inside a block
    rng = random.Random(f"cut:{name}")
    for cuts in [sorted(fixed), *(sorted(rng.sample(range(1, len(rs)), rng.randint(1, 4))) for _ in range(6))]:
        bounds = [0, *cuts, len(rs)]
        parts = [waves.density_grid(params, state.n, rs[lo:hi], ps) for lo, hi in zip(bounds, bounds[1:])]
        np.testing.assert_array_equal(np.concatenate([g.amplitudes for g in parts]).view(float), whole.amplitudes.view(float))
        np.testing.assert_array_equal(np.concatenate([g.densities for g in parts]), whole.densities)
        shifted = [(lo + i, j, msg) for lo, g in zip(bounds, parts) for i, j, msg in g.cell_errors]
        assert shifted == list(whole.cell_errors), cuts
