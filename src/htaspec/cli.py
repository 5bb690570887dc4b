"""Command-line front end.

    htaspec spectrum [--input F] [--variant V] [--out D] [--meson L]
    htaspec fit      [--seed-from-paper] ...
    htaspec grid     --meson L --state 1S [axis flags] ...
    htaspec scan     --param a --lo -10 --hi 10 --steps 201 ...
    htaspec check    [--input F] [--suite nu|quadrature|moment|all]

spectrum, fit, grid and scan take --input F, --variant V, --out D, --meson L
and --precision D (significant digits of CSV floats, default 17; D from 1
to 2**31 - 1, the largest precision "%" takes).
check takes only --input, --suite and --out (it writes no file).

grid evaluates the polynomial n = k - 1 of --state kL, scaled (unless
--no-normalize) by the closed-form B of waves.normalize_B, which check tests
against a 2-D quadrature; a non-normalizable state exits 3 and writes nothing.
grid's axes and scan's values share one rule: strictly ascending and
finite, from at least one value (scan: two).  An empty or non-finite
interval, one too narrow for its steps to be distinct floats, or one whose
values overflow to inf, exits 2 with no file.

Exit codes: 0 ok, 2 input error, 3 non-physical parameters, 4 fit failure,
5 internal numeric failure; a malformed --state (1F, 0S, X) exits 2, a state
no wave function takes (grid's 8S) 3.  Outputs are CSV with fixed float
formatting and fixed ordering, so identical inputs give byte-identical files.

Each command compiles only the modules it runs: spectrum and scan load core
and dataio, fit adds fitting, check --suite nu adds nu, grid adds waves, nu,
special, gridsplit and numpy, and check's quadrature (moment) suite adds
waves, nu, special, confine1d and numpy (confine1d, special and numpy).  No
command imports scipy or dataclasses: with no bytecode cache, every module a
command imports is compiled on each run.

grid splits its rows across the usable CPUs (gridsplit documents the worker
protocol); _write_csv writes each block's CSV text as it comes, and a grid
that fails while writing leaves no CSV.  Every command writes a float as
"%.{D}g" % value does: grid's cells through gridsplit's numpy formatter,
whose long-double fast path gives the same bytes and leaves to "%" what it
cannot decide (every value where the long double is the double), the other
commands' values through _fmt.  _write_csv makes the --out
directory when it writes the first CSV, so a command that fails first
creates nothing.  main registers gc.freeze with atexit, so the
interpreter's shutdown collections skip the heap that the imports built.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys

from . import core, dataio
from .core import QuantumState, Variant
from .errors import DomainError, FitFailedError, InputError, NonPhysicalParameters, NumericError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONPHYSICAL = 3
EXIT_FIT = 4
EXIT_NUMERIC = 5

_FIG1_STATES = [(n, l) for l in (0, 1, 2) for n in range(6)]
_FIG2_STATES = [(n, l) for n in (0, 1, 2, 3) for l in range(4)]


def _fmt(value, digits: int) -> str:
    # "%g" writes NaN as "nan"; a data-file value may be missing (written
    # empty); a level label is text (written as it is)
    if value is None:
        return ""
    return value if isinstance(value, str) else f"%.{digits}g" % value


def _write_csv(path: str, header: list[str], lines):
    """Make path's directory, then write the header, then each item of lines
    (CSV text without its last newline) and a newline; if that raises, the
    file is removed."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fh = open(path, "w", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.write(",".join(header) + "\n")
                for line in lines:
                    fh.write(line + "\n")
        except BaseException:
            os.remove(path)  # a failed command leaves no CSV
            raise
    except OSError as exc:
        raise InputError(f"cannot write output: {exc}") from None


def _select_mesons(args) -> list[dataio.MesonRecord]:
    records = dataio.load_dataset(args.input)
    if args.meson:
        records = [r for r in records if r.label == args.meson]
        if not records:
            raise InputError(f"meson {args.meson!r} not found in the input file")
    return records


def _precision(text: str) -> int:
    # "%" reads a precision as a C int and refuses a larger one
    try:
        digits = int(text)
        if 1 <= digits <= 2**31 - 1:
            return digits
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer from 1 to {2**31 - 1}, got {text!r}")


def _state(text: str) -> QuantumState:
    try:
        return QuantumState.from_label(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", default=None, help="meson data file (JSON); default: bundled dataset")
    p.add_argument("--variant", default="real7", choices=["real7", "complex5"], help="spectrum variant")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--meson", default=None, help="restrict to one meson label")
    p.add_argument("--precision", type=_precision, default=17, help="significant digits in CSV output")


def cmd_spectrum(args) -> int:
    variant = Variant.parse(args.variant)
    d = args.precision
    # every mass before any output, each state once: a record without
    # parameters or a non-physical state exits with nothing written
    spectra = []
    for rec in _select_mesons(args):
        sys_v = rec.system(variant)
        masses = {}
        for st in [lv.state for lv in rec.levels] + [QuantumState(n, l) for n, l in _FIG1_STATES + _FIG2_STATES]:
            if st not in masses:
                masses[st] = core.mass_spectrum_detailed(sys_v, st, variant)
        spectra.append((rec, masses))
    for rec, masses in spectra:
        # every level in file order; which of them a fit selects plays no part here
        refs = [rec.references[lv.label] for lv in rec.levels]
        ref_names = sorted({name for r in refs for name in r})
        columns = ["label", "model", "measured", *ref_names]
        rows = [(lv.label, masses[lv.state][0], lv.mass, *map(r.get, ref_names)) for lv, r in zip(rec.levels, refs)]
        _write_csv(
            os.path.join(args.out, f"{rec.label}_comparison.csv"),
            columns,
            [",".join(_fmt(v, d) for v in row) for row in rows],
        )
        _write_csv(
            os.path.join(args.out, f"{rec.label}_spectrum.csv"),
            ["label", "n", "l", "model_mass", "exp_mass", "branch"],
            [
                f"{lv.label},{lv.state.n},{lv.state.l},{_fmt(masses[lv.state][0], d)},{_fmt(lv.mass, d)},{masses[lv.state][1]}"
                for lv in rec.levels
            ],
        )
        _write_csv(
            os.path.join(args.out, f"fig1_{rec.label}.csv"),
            ["l", "n", "mass"],
            [f"{l},{n},{_fmt(masses[QuantumState(n, l)][0], d)}" for n, l in _FIG1_STATES],
        )
        _write_csv(
            os.path.join(args.out, f"fig2_{rec.label}.csv"),
            ["n", "l", "mass"],
            [f"{n},{l},{_fmt(masses[QuantumState(n, l)][0], d)}" for n, l in _FIG2_STATES],
        )
        # after its CSVs: an --out that cannot be made prints no table
        _print_table(f"== {rec.label} ({variant.value}) ==", columns, rows)
    return EXIT_OK


def _print_table(title: str, columns: list[str], rows):
    """Print a title, a left-aligned table and a blank line; a missing value
    reads "-", text is printed as it is and every number keeps three
    decimals (a data-file 3 reads 3.000, as 3.0 does)."""
    cells = [columns] + [["-" if v is None else v if isinstance(v, str) else f"{v:.3f}" for v in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    print(title)
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print()


def cmd_fit(args) -> int:
    from . import fitting

    variant = Variant.parse(args.variant)
    records = _select_mesons(args)
    d = args.precision
    rows = []
    failures = []
    for rec in records:
        try:
            sys_v = rec.system(variant)
            levels = rec.experimental_levels(variant)
            seeds = [sys_v.params] if args.seed_from_paper else None
            result = fitting.fit(sys_v, levels, variant, seeds=seeds)
            rows.append(
                [
                    rec.label,
                    _fmt(result.params.a, d),
                    _fmt(result.params.b, d),
                    _fmt(result.params.delta, d),
                    _fmt(result.residual_rms, d),
                    str(result.converged).lower(),
                ]
            )
        except FitFailedError as exc:
            failures.append(f"{rec.label}: {exc}")
    _write_csv(
        os.path.join(args.out, "fitted_params.csv"),
        ["meson", "a", "b", "delta", "residual_rms", "converged"],
        map(",".join, rows),
    )
    for msg in failures:
        print(f"fit failed: {msg}", file=sys.stderr)
    return EXIT_FIT if failures else EXIT_OK


def cmd_grid(args) -> int:
    # both axes are built and checked once, before any data is read: a bad one exits 2
    from . import gridsplit, waves

    variant = Variant.parse(args.variant)
    try:
        rs = core._axis_interval(args.rmin, args.rmax, args.rsteps, "r")
        ps = core._axis_interval(args.pmin, args.pmax, args.psteps, "p")
    except DomainError as exc:
        raise InputError(str(exc)) from None
    records = _select_mesons(args)
    if len(records) != 1:
        raise InputError("grid needs exactly one meson (use --meson)")
    rec = records[0]
    n, d = args.state.n, args.precision
    sys_v = rec.system(variant)
    energy, _ = core.level(sys_v, args.state, variant)
    params = waves.wave_params(sys_v, args.state, energy, variant=variant)
    if args.normalize:
        params = params._replace(B=waves.normalize_B(params, n))
    with gridsplit.evaluate(params, n, rs, ps, d) as (blocks, errors):
        _write_csv(
            os.path.join(args.out, f"{rec.label}_{args.state.label}_grid.csv"),
            ["r", "p_r", "re", "im", "density"],
            blocks,
        )
    if errors:
        shown = errors[:5]  # bounded: a grid can fail in thousands of cells
        print(f"{len(errors)} of {args.rsteps * args.psteps} cells failed (nan in the CSV); first {len(shown)}:", file=sys.stderr)
        for i, j, msg in shown:
            print(f"cell ({i},{j}): {msg}", file=sys.stderr)
    return EXIT_OK


def cmd_scan(args) -> int:
    variant = Variant.parse(args.variant)
    records = _select_mesons(args)
    if len(records) != 1:
        raise InputError("scan needs exactly one meson (use --meson)")
    rec = records[0]
    d = args.precision
    sys_v = rec.system(variant)
    try:  # the steps and the interval are checked here, by grid's axis rule
        points = core.parameter_scan(sys_v, args.state, args.param, args.lo, args.hi, args.steps, variant)
    except DomainError as exc:
        raise InputError(str(exc)) from None
    rows = [
        [args.param, _fmt(pt.value, d), _fmt(pt.mass, d), str(pt.physical).lower(), pt.branch]
        for pt in points
    ]
    _write_csv(
        os.path.join(args.out, f"{rec.label}_scan_{args.param}.csv"),
        ["param", "value", "mass", "physical", "branch"],
        map(",".join, rows),
    )
    return EXIT_OK


def _check_nu() -> list[tuple[str, float, float]]:
    import random

    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-3, 3)
        b = rng.uniform(0.1, 1.5)
        delta = rng.uniform(0.2, 1.5)
        m = rng.uniform(0.5, 2.5)
        st = QuantumState(rng.randint(0, 3), rng.randint(0, 2))
        sys_v = core.MesonSystem(2 * m, 2 * m, core.CornellParams(a, b, delta))
        e_closed = core.energy_real(sys_v, st)
        e_nu = core.energy_real_via_nu(sys_v, st)
        worst = max(worst, abs(e_closed - e_nu) / max(abs(e_closed), 1e-12))
    return [("nu-vs-closed-form", worst, 1e-9)]


def _check_quadrature(records) -> list[tuple[str, float, float]]:
    from . import confine1d, waves

    # the first real7 meson whose 1S state is normalizable; with none, the first one's error
    st, error = QuantumState.from_label("1S"), None
    for rec in [r for r in records if Variant.REAL in r.params] or records[:1]:
        sys_v = rec.system(Variant.REAL)
        try:
            params = waves.wave_params(sys_v, st, core.energy_real(sys_v, st))
            b_norm = waves.normalize_B(params, 0)
            break
        except NonPhysicalParameters as exc:
            error = error or exc
    else:
        raise error
    prob = waves.total_probability(params._replace(B=b_norm), 0)
    one = confine1d.Confinement1DSystem(sys_v.reduced_mass, sys_v.params.b)
    e0 = confine1d.energy_1d(one, 0, 0.0)
    c1 = confine1d.normalize_1d(one, e0)
    c1_quad = 1.0 / math.sqrt(4.0 * math.pi * confine1d._norm_integral(one, e0, 15.0))
    return [
        ("wave-normalization-probability", abs(prob - 1.0), 1e-10),
        ("1d-closed-form-vs-quadrature", abs(c1 / c1_quad - 1.0), 1e-12),
    ]


def _check_moment() -> list[tuple[str, float, float]]:
    from . import confine1d

    return [(f"moment-identity n={n} x={x}", confine1d.moment_identity_check(x, n), 1e-12) for n in (1, 2) for x in (0.0, 1.0, 2.0)]


def cmd_check(args) -> int:
    records = dataio.load_dataset(args.input)
    # each suite returns its (name, measured, tol) lines; a line passes when
    # measured < tol, which a NaN measurement fails
    suites = {
        "nu": _check_nu,
        "quadrature": lambda: _check_quadrature(records),
        "moment": _check_moment,
    }
    chosen = list(suites) if args.suite == "all" else [args.suite]
    passed = True
    for suite in chosen:
        # printed as each suite returns: a later suite that raises keeps them
        for name, measured, tol in suites[suite]():
            ok = measured < tol
            print(f"{'PASS' if ok else 'FAIL'} {name}: residual={measured:.3e} (tol {tol:.0e})")
            passed = passed and ok
    return EXIT_OK if passed else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htaspec",
        description="Phase-space quarkonium spectroscopy: spectra, fits, wave-function grids, scans, and cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="mass spectrum tables and figure curves")
    _common_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit", help="fit (a, b, delta) per meson")
    _common_flags(p)
    p.add_argument("--seed-from-paper", action="store_true", help="seed only at the stored parameter point")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("grid", help="phase-space wave-function grid CSV")
    _common_flags(p)
    p.add_argument("--state", type=_state, default="1S", help="spectroscopic level kL fixing the energy and the polynomial index n = k - 1 (default 1S)")
    p.add_argument("--rmin", type=float, default=0.05)
    p.add_argument("--rmax", type=float, default=6.0)
    p.add_argument("--rsteps", type=int, default=120)
    p.add_argument("--pmin", type=float, default=-1.0)
    p.add_argument("--pmax", type=float, default=1.0)
    p.add_argument("--psteps", type=int, default=41)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True, help="normalize B before evaluating")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("scan", help="mass vs one Cornell parameter")
    _common_flags(p)
    p.add_argument("--param", required=True, choices=["a", "b", "delta"])
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--steps", type=int, default=201)
    p.add_argument("--state", type=_state, default="1S")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("check", help="run the cross-validation oracles")
    p.add_argument("--input", default=None, help="meson data file (JSON); default: bundled dataset")
    p.add_argument("--out", default=".", help="output directory (check writes no file)")
    p.add_argument("--suite", default="all", choices=["nu", "quadrature", "moment", "all"])
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    # the interpreter's shutdown collections then skip the heap; no output
    # waits on them: every CSV is closed by its with block, and the standard
    # streams are flushed either way
    atexit.unregister(gc.freeze)  # registered once, however often main runs
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NonPhysicalParameters, DomainError) as exc:
        print(f"non-physical parameters: {exc}", file=sys.stderr)
        return EXIT_NONPHYSICAL
    except FitFailedError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
