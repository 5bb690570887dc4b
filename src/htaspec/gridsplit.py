"""The grid command's rows across the usable CPUs, and their CSV text.

evaluate cuts a grid's r values into contiguous slices, computes the first
one and forks a worker for each other one, which computes its rows with
waves.density_grid, formats them and sends them back through a pipe.  A
cell's value does not depend on which rows share its psi_n call, so a cut
may fall on any row and the slices give the bytes of one call.  Only grid
imports this module, so no other command compiles it.

A worker sends, pickled, its head (its slice's cell errors, or the exception
density_grid raised) as soon as it has it, then one message per block of at
most waves._BLOCK_CELLS cells: the block's CSV lines joined by "\n", the item
that goes unchanged to the file.  It formats every block before it sends the
first, so it formats while the parent formats its own slice.  Each message
is one pickle, so a worker that ends early leaves the parent a short read.

Each cell's re, im and density are written as "%.{D}g" % value writes them,
byte for byte, by one numpy formatter per block (_cell_text): a long-double
fast path decides about 98 % of the values at D = 17, and "%" writes the
rest.  Where the long double is the double (eps = 2^-52, as with MSVC and on
Apple arm64), the fast path decides nothing and "%" writes every value; it
also assumes a correctly rounded long double (x87 extended, IEEE quad).

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
from functools import lru_cache
from itertools import chain

if "numpy" not in sys.modules:  # before waves imports it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import waves
from .errors import NumericError


@contextmanager
def evaluate(params: waves.WaveParams, n: int, rs: list[float], ps: list[float], digits: int):
    """Yield (blocks, cell_errors) of the grid rs x ps, axis values checked
    by core._axis_values: the grid's CSV text without the header, block by
    block (_grid_blocks), and density_grid's cell errors over the whole grid.
    Both are those of one density_grid call; every worker is reaped when the
    with block exits, however it exits.
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
        blocks = (_received_blocks(pipe, len(_blocks((hi - lo) * len(ps)))) for (lo, hi), _, pipe in workers)
        yield chain(_grid_blocks(grid, digits), *blocks), errors
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
                for block in list(_grid_blocks(grid, digits)):  # every block formatted before the first is sent
                    pickle.dump(block, pipe)
        code = 0
    finally:
        os._exit(code)


def _received(pipe):
    # a worker's next message; one that ended early left it unsent
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise NumericError("a grid worker ended before sending all of its rows") from None


def _received_blocks(pipe, count):
    # a worker's blocks, read after its head; a function binds its own pipe,
    # where a generator expression over the workers would read the last one's
    for _ in range(count):
        yield _received(pipe)


def _grid_blocks(grid, digits: int):
    """The grid's CSV lines, _BLOCK_CELLS cells to a block in row-major
    order, each block's lines joined by "\n".  Each r and p_r string is
    formatted once by "%", the cells' re, im and density by _cell_text."""
    f, cols = f"%.{digits}g", len(grid.p_values)
    r_text, p_text = (np.array([f"{f % x}," for x in axis], dtype="S") for axis in (grid.r_values, grid.p_values))
    amp, dens = grid.amplitudes.reshape(-1), grid.densities.reshape(-1)
    for lo, hi in _blocks(amp.size):
        values = np.empty((hi - lo, 3))
        values[:, :2] = amp[lo:hi].view(np.float64).reshape(-1, 2)
        values[:, 2] = dens[lo:hi]
        text = _cell_text(values.reshape(-1), digits).reshape(hi - lo, 3, -1)
        text[:, :, -1] = (44, 44, 10)  # the byte after each value: ",", "," and "\n"
        first, skip = divmod(lo, cols)
        rows = slice(first, (hi - 1) // cols + 1)
        line = [np.repeat(r_text[rows], cols), np.tile(p_text, rows.stop - first)]
        line = [t[skip : skip + hi - lo, None].view(np.uint8) for t in line] + [text.reshape(hi - lo, -1)]
        # every NUL byte dropped in one pass
        yield np.concatenate(line, axis=1).tobytes().translate(None, b"\0")[:-1].decode("ascii")


def _blocks(cells: int):
    # (lo, hi) cell ranges of a slice's messages: a worker sends one per range
    return [(lo, min(lo + waves._BLOCK_CELLS, cells)) for lo in range(0, cells, waves._BLOCK_CELLS)]


# A correctly rounded long-double 10^e times |v| is within 10^D eps of the
# exact product below 10^D: two roundings, each within eps/2 relative.  A
# long double no wider than the double (eps >= 2^-52) decides no element.
_EPS = np.finfo(np.longdouble).eps
_WORD = np.dtype("<u8")  # eight bytes of text, the first in the low byte


@lru_cache(maxsize=None)
def _ten(e: int):
    # 10^e rounded to the nearest long double by the platform's parser
    return np.longdouble(f"1e{e}")


@lru_cache(maxsize=None)
def _tables():
    """_cell_text's tables: digits[c] the four digit bytes of c (0 to 9999),
    digits[10000 + c] the same with trailing zeros dropped; by decimal
    exponent X + 330 (X + 990 for a negative value), the sign and fixed
    notation's prefix of X from -4 to -1 ("0.", ..., "0.000"), and the
    exponent ("e-05", "e+123")."""
    d = np.arange(100, dtype=np.uint32)
    two = (d // 10 + 48) | (d % 10 + 48) << np.uint32(8)  # the two digits of d
    zeros = (d % 10 == 0).astype(np.intp) + (d == 0)  # and how many of them are trailing zeros
    full = np.bitwise_or.outer(two, two << np.uint32(16)).ravel()  # c = 100 a + b at [a, b]
    zeros = np.where(d == 0, 2 + zeros[:, None], zeros).ravel()
    digits = np.concatenate([full, full & np.array([2**32 - 1 >> 8 * k for k in range(5)], np.uint32)[zeros]])
    x = np.arange(-330, 330)
    ax = np.abs(x).astype(np.uint64)
    exponent = (101 | (43 + 2 * (x < 0)).astype(np.uint64) << np.uint64(8) | (ax >= 100) * ((ax // 100 + 48) << np.uint64(16))
                | (ax // 10 % 10 + 48) << np.uint64(24) | (ax % 10 + 48) << np.uint64(32))
    prefix = np.zeros(660, np.uint64)
    prefix[326:330] = [int.from_bytes(b"\0" + b"0.000"[:k].ljust(7, b"\0"), "little") for k in (5, 4, 3, 2)]
    return digits.astype("<u4"), np.concatenate([prefix, prefix | 45]).astype(_WORD), exponent.astype(_WORD)


def _cell_text(v, digits: int):
    """(len(v), width) uint8: row i holds the bytes of "%.{digits}g" % v[i]
    with NUL bytes among and after them, and ends in a NUL byte.

    The fast path (after Gay 1990 and Adams 2019) scales |v| into
    [10^(D-1), 10^D) by a long-double 10^e, e from floor(log10 |v|)
    corrected once.  Where the product's fraction lies farther from 1/2 than
    10^D eps, and the product farther than that from 10^(D-1) and 10^D, its
    nearest integer holds the D digits of "%".  They are laid out by the
    decimal exponent X: fixed notation for -4 <= X < D, scientific
    otherwise, trailing fraction zeros dropped.  Every other element takes
    "%": zero, -0.0, NaN, +-inf, the undecided ones, and all of them when
    D > 17 or where the long double is the double.
    """
    D, m = digits, v.size
    rest, text = np.arange(m), None
    if D <= 17 and _EPS < np.finfo(np.float64).eps:
        dig, prefix, exponent = _tables()
        a = np.abs(v)
        good = (a > 0) & (a < np.inf)
        a = np.where(good, a, 1.0)
        e = (D - 1) - np.floor(np.log10(a)).astype(np.intp)
        lo_e = e.min() - 1
        table = np.array([_ten(k) for k in range(lo_e, e.max() + 2)])
        al = a.astype(np.longdouble)
        s = al * table[e - lo_e]
        whole = s.astype(np.intp)
        lo, hi = 10 ** (D - 1), 10**D
        fix = np.flatnonzero((whole < lo) | (whole >= hi))
        e[fix] += np.where(whole[fix] < lo, 1, -1)
        s[fix] = al[fix] * table[e[fix] - lo_e]
        whole[fix] = s[fix].astype(np.intp)
        # the fraction, exact in the long double, is within 2^-54 of its
        # double: the comparisons below widen the bound by 2^-53 to cover that
        frac = (s - whole).astype(np.float64)
        bound = float(np.longdouble(hi) * _EPS) + 2.0**-53
        n = whole + (frac > 0.5)
        good &= (np.abs(frac - 0.5) > bound) & (n < hi) & ((whole > lo) | (whole == lo) & (frac > bound))
        x = (D - 1) - e
        # words: the sign and prefix, the digits (four to a 32-bit quarter,
        # the first after `pad` NUL bytes, with a byte to spare), the exponent
        chunks = (D + 3) // 4
        pad, size = 4 * chunks - D, (4 * chunks + 8) // 8
        words = np.zeros((m, size + 2), _WORD)
        quads = words.view("<u4")
        rem, tail = n, np.full(m, 10000)
        for j in range(chunks + 1, 1, -1):  # the last digits first, every zero after the last nonzero one dropped
            q = rem // 10000
            c = rem - q * 10000
            rem = q
            quads[:, j] = dig[c + tail]
            tail *= c == 0
        exponent = exponent.copy()
        exponent[326 : 330 + D] = 0  # fixed notation
        words[:, -1] = exponent[x + 330]
        words[:, 0] = prefix[x + np.where(v < 0, 990, 330)]
        # the first digit: in scientific notation and for X = 0 it moves to
        # the prefix, and the point after it where a nonzero digit follows
        head = (x == 0) | (x < -4) | (x >= D)
        first = n // lo
        words[:, 0] |= (head * ((first + 48) << 8 | (n != first * lo) * (46 << 16))).astype(np.uint64)
        quads[:, 2] &= np.uint32(2**32 - 1 >> 8 * pad << 8 * pad) & ~(head * np.uint32(255 << 8 * pad))
        # 0 < X < D: the digits after digit X move up a byte for the point,
        # where a nonzero digit follows it, and every digit up to it stays
        mid = np.flatnonzero((x > 0) & (x < D))
        if mid.size:
            k = x[mid, None] + pad  # the byte of digit X
            at = np.arange(8 * size)
            moved = np.take_along_axis(words[mid, 1:-1].view(np.uint8), at - (at > k), axis=1)
            moved |= ((at >= pad) & (at <= k)) * np.uint8(48)
            moved[at == k + 1] = (n[mid] % 10 ** (D - 1 - x[mid]) != 0) * np.uint8(46)
            words[mid, 1:-1] = moved.view(_WORD)
        text = words.view(np.uint8)
        rest = np.flatnonzero(~good)
    if rest.size:
        slow = _percent(v[rest], D)
        if text is None:
            text = np.empty((m, slow.itemsize + 1), np.uint8)
        text[rest] = slow.astype(f"S{text.shape[1]}").view(np.uint8).reshape(rest.size, -1)
    return text


def _percent(v, digits: int):
    # the text of the values the fast path leaves, by "%" itself
    return np.array([f"%.{digits}g" % x for x in v.tolist()], dtype="S")
