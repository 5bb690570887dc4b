"""The grid command's rows across the usable CPUs.

evaluate cuts a grid's r values into contiguous slices, computes the first
one and forks a worker for each other one, which computes its rows with
waves.density_grid, formats them and sends them back through a pipe.  A
cell's value does not depend on which rows share its psi_n call, so a cut
may fall on any row and the slices give the bytes of one call.  Only grid
imports this module, so no other command compiles it.

A worker sends, pickled, its head (its slice's cell errors, or the exception
density_grid raised) as soon as it has it, then one message per r row: the
row's CSV lines joined by "\n", the item that goes unchanged to the file.  It
formats every row before it sends the first, so it formats while the parent
formats its own slice.  Each message is one pickle, so a worker that ends
early leaves the parent a short read.

Only a process with one OS thread is forked (_row_slices), and OpenBLAS
starts a thread pool when numpy is imported, so this module sets
OPENBLAS_NUM_THREADS=1, before it imports waves and numpy, when the variable
is unset and numpy is not loaded yet: the largest LAPACK calls here are
eigenproblems of at most 50 x 50, which the pool does not speed up.  A
program that loaded numpy first keeps its pool, and its grids take one slice.
"""

from __future__ import annotations

import os
import pickle
import sys
from contextlib import contextmanager
from itertools import chain

if "numpy" not in sys.modules:  # before waves imports it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import waves
from .errors import NumericError


@contextmanager
def evaluate(params: waves.WaveParams, n: int, rs: list[float], ps: list[float], digits: int):
    """Yield (rows, cell_errors) of the grid rs x ps, axis values checked by
    core._axis_values: the CSV text of each r row (_grid_rows), without the
    header, and density_grid's cell errors over the whole grid.  Both are
    those of one density_grid call; every worker is reaped when the block
    exits, however it exits.
    """
    waves._check_index(params, n)  # an n no cell takes raises before any fork
    slices = _row_slices(len(rs), len(ps))
    workers = []  # ((lo, hi), pid, pipe) of each slice after the first
    try:
        for lo, hi in slices[1:]:
            workers.append(((lo, hi), *_fork_slice(params, n, rs[lo:hi], ps, digits)))
        grid = waves.density_grid(params, n, rs[: slices[0][1]], ps)
        errors = list(grid.cell_errors)
        for (lo, _), _, pipe in workers:
            head = _received(pipe)  # the worker's cell errors, or the exception it raised
            if isinstance(head, BaseException):
                raise head
            errors += [(lo + i, j, msg) for i, j, msg in head]
        yield chain(_grid_rows(grid, digits), *(_received_rows(pipe, hi - lo) for (lo, hi), _, pipe in workers)), errors
    finally:
        # every pipe first: a worker still writing gets EPIPE and exits once
        # the later workers, which hold copies of its read end, have exited
        for _, _, pipe in workers:
            pipe.close()
        for _, pid, _ in workers:
            os.waitpid(pid, 0)


def _row_slices(rows: int, cols: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) row ranges of a rows x cols grid, as even as the
    rows allow: one per usable CPU, and at most one per row and per psi_n
    block of cells.  A cut may fall on any row, inside a psi_n block or in the r <= 0
    prefix: every cell's value is elementwise arithmetic on its own r and
    p_r, whichever rows share its psi_n call.

    One slice unless the process can be forked: a child forked from a
    process with a second thread can deadlock (Python 3.12 warns), so the
    process must have one OS thread (on Linux, one entry in
    /proc/self/task; elsewhere the grid takes one slice).
    """
    try:
        cpus = len(os.sched_getaffinity(0)) if len(os.listdir("/proc/self/task")) == 1 else 1
    except OSError:
        cpus = 1
    count = max(1, min(cpus, rows, rows * cols // waves._BLOCK_CELLS))
    cuts = [k * rows // count for k in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def _fork_slice(params: waves.WaveParams, n: int, r_rows: list[float], ps: list[float], digits: int):
    """Fork a worker for the grid rows at r_rows; its (pid, pipe).

    The worker leaves by os._exit: no exit handler or stream flush of the
    parent runs twice.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    code = 1
    try:
        os.close(read)
        with open(write, "wb") as pipe:
            try:
                grid = waves.density_grid(params, n, r_rows, ps)
            except Exception as exc:
                pickle.dump(exc, pipe)
            else:
                pickle.dump(grid.cell_errors, pipe)
                pipe.flush()  # the parent waits for this before it writes anything
                for row in list(_grid_rows(grid, digits)):  # every row formatted before the first is sent
                    pickle.dump(row, pipe)
        code = 0
    finally:
        os._exit(code)


def _received(pipe):
    # a worker's next message; one that ended early left it unsent
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise NumericError("a grid worker ended before sending all of its rows") from None


def _received_rows(pipe, count):
    # a worker's rows, read after its head; a function binds its own pipe,
    # where a generator expression over the workers would read the last one's
    for _ in range(count):
        yield _received(pipe)


def _grid_rows(grid, digits: int):
    # each r row's CSV lines joined by "\n"; each p_r string formatted once
    # per grid and each r string once per row, the cells fed from Python-float
    # columns.  "%g" renders NaN as "nan", as cli._fmt does
    f = f"%.{digits}g"
    cell = ",".join([f] * 3)
    ps = [f"{f % p}," for p in grid.p_values]
    for r, amp, dens in zip(grid.r_values, grid.amplitudes, grid.densities):
        head = f"{f % r},"
        yield "\n".join([head + p + cell % values for p, values in zip(ps, zip(amp.real.tolist(), amp.imag.tolist(), dens.tolist()))])
