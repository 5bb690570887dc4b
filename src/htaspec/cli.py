"""Command-line front end.

    htaspec spectrum [--input F] [--variant V] [--out D] [--meson L]
    htaspec fit      [--seed-from-paper] ...
    htaspec grid     --meson L --state 1S [--n N] [axis flags] ...
    htaspec scan     --param a --lo -10 --hi 10 --steps 201 ...
    htaspec check    [--input F] [--suite nu|quadrature|moment|all]

spectrum, fit, grid and scan take --input F, --variant V, --out D, --meson L
and --precision D (significant digits of CSV floats, default 17; D >= 1).
check takes only --input, --suite and --out (it writes no file).

Exit codes: 0 ok, 2 input error, 3 non-physical parameters, 4 fit failure,
5 internal numeric failure.  Outputs are CSV with fixed float formatting and
fixed ordering, so identical inputs give byte-identical files.

spectrum, scan and fit never import numpy or scipy; grid and check import
them (through waves and confine1d) only when they run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import core, dataio, fitting
from .core import QuantumState, Variant
from .errors import (
    DegenerateOrderError,
    DegenerateStateError,
    DomainError,
    FitFailedError,
    HtaspecError,
    InputError,
    NonPhysicalParameters,
    NumericError,
    UnderdeterminedFitError,
)

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
    """Write the header and each CSV line (given without its newline)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _select_mesons(args) -> list[dataio.MesonRecord]:
    records = dataio.load_dataset(args.input)
    if args.meson:
        records = [r for r in records if r.label == args.meson]
        if not records:
            raise InputError(f"meson {args.meson!r} not found in the input file")
    return records


def _precision(text: str) -> int:
    digits = int(text)
    if digits < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {digits}")
    return digits


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
        levels = rec.experimental_levels(variant)
        masses = {}
        for st in [lv.state for lv in levels] + [QuantumState(n, l) for n, l in _FIG1_STATES + _FIG2_STATES]:
            if st not in masses:
                masses[st] = core.mass_spectrum_detailed(sys_v, st, variant)
        spectra.append((rec, levels, masses))
    os.makedirs(args.out, exist_ok=True)
    for rec, levels, masses in spectra:
        refs = [rec.reference_masses(lv.label) for lv in levels]
        ref_names = sorted({name for r in refs for name in r})
        columns = ["label", "model", "measured", *ref_names]
        rows = [(lv.label, masses[lv.state][0], lv.mass, *map(r.get, ref_names)) for lv, r in zip(levels, refs)]
        _print_table(f"== {rec.label} ({variant.value}) ==", columns, rows)
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
                for lv in levels
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
    variant = Variant.parse(args.variant)
    records = _select_mesons(args)
    os.makedirs(args.out, exist_ok=True)
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
        except (UnderdeterminedFitError, FitFailedError) as exc:
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
    from . import waves

    variant = Variant.parse(args.variant)
    for name, lo, hi, steps in (("r", args.rmin, args.rmax, args.rsteps), ("p", args.pmin, args.pmax, args.psteps)):
        if steps < 1:
            raise InputError(f"{name} axis needs at least 1 point")
        if steps > 1 and not lo < hi:
            raise InputError(f"empty {name} axis interval [{lo}, {hi}]")
    records = _select_mesons(args)
    if len(records) != 1:
        raise InputError("grid needs exactly one meson (use --meson)")
    rec = records[0]
    state = QuantumState.from_label(args.state)
    n = args.n if args.n is not None else state.n
    d = args.precision
    sys_v = rec.system(variant)
    energy, _ = core.level(sys_v, state, variant)
    params = waves.wave_params(sys_v, state, energy, variant=variant)
    if args.normalize:
        params = replace(params, B=waves.normalize_B(params, n))
    grid = waves.density_grid(
        params,
        n,
        (args.rmin, args.rmax, args.rsteps),
        (args.pmin, args.pmax, args.psteps),
    )
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, f"{rec.label}_{args.state}_grid.csv"),
        ["r", "p_r", "re", "im", "density"],
        _grid_lines(grid, d),
    )
    if grid.cell_errors:
        shown = grid.cell_errors[:5]  # bounded: a grid can fail in thousands of cells
        print(f"{len(grid.cell_errors)} of {grid.amplitudes.size} cells failed (nan in the CSV); first {len(shown)}:", file=sys.stderr)
        for i, j, msg in shown:
            print(f"cell ({i},{j}): {msg}", file=sys.stderr)
    return EXIT_OK


def _grid_lines(grid, digits: int):
    # one format per line, fed from Python-float columns one r row at a
    # time; "%g" renders NaN as "nan", as _fmt does
    line = ",".join([f"%.{digits}g"] * 5)
    ps = list(grid.p_values)
    for r, amp, dens in zip(grid.r_values, grid.amplitudes, grid.densities):
        yield from map(line.__mod__, zip([r] * len(ps), ps, amp.real.tolist(), amp.imag.tolist(), dens.tolist()))


def cmd_scan(args) -> int:
    variant = Variant.parse(args.variant)
    if not (args.lo < args.hi):
        raise InputError(f"empty scan interval [{args.lo}, {args.hi}]")
    if args.steps < 2:
        raise InputError(f"scan needs at least 2 steps, got {args.steps}")
    records = _select_mesons(args)
    if len(records) != 1:
        raise InputError("scan needs exactly one meson (use --meson)")
    rec = records[0]
    state = QuantumState.from_label(args.state)
    os.makedirs(args.out, exist_ok=True)
    d = args.precision
    sys_v = rec.system(variant)
    points = core.parameter_scan(sys_v, state, args.param, args.lo, args.hi, args.steps, variant)
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


def _check_nu() -> list[tuple[str, bool, float, float]]:
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
    return [("nu-vs-closed-form", worst < 1e-9, worst, 1e-9)]


def _check_quadrature(records) -> list[tuple[str, bool, float, float]]:
    from . import confine1d, waves

    rec = next((r for r in records if Variant.REAL in r.params), records[0])
    sys_v = rec.system(Variant.REAL)
    st = QuantumState.from_label("1S")
    params = waves.wave_params(sys_v, st, core.energy_real(sys_v, st))
    b_norm = waves.normalize_B(params, 0)
    prob = waves.total_probability(replace(params, B=b_norm), 0)
    shift = abs(waves.normalize_B(params, 0, r_pad=2.0) - b_norm) / b_norm
    one = confine1d.Confinement1DSystem(sys_v.reduced_mass, sys_v.params.b)
    c1 = confine1d.normalize_1d(one, confine1d.energy_1d(one, 0, 0.0))
    ratio = c1 / confine1d.closed_form_c1(one)
    return [
        ("wave-normalization-probability", abs(prob - 1.0) < 1e-3, abs(prob - 1.0), 1e-3),
        ("wave-normalization-truncation", shift < 1e-4, shift, 1e-4),
        (f"1d-closed-form-ratio (diagnostic, quadrature/closed = {ratio:.6f})", True, 0.0, 0.0),
    ]


def _check_moment() -> list[tuple[str, bool, float, float]]:
    from . import confine1d

    lines = []
    for n in (1, 2):
        for x in (0.0, 1.0, 2.0):
            resid = confine1d.moment_identity_check(x, n)
            lines.append((f"moment-identity n={n} x={x}", resid < 1e-6, resid, 1e-6))
    return lines


def cmd_check(args) -> int:
    records = dataio.load_dataset(args.input)
    # each suite returns its (name, ok, measured, tol) lines; tol 0 marks a
    # diagnostic line, printed without a residual
    suites = {
        "nu": _check_nu,
        "quadrature": lambda: _check_quadrature(records),
        "moment": _check_moment,
    }
    chosen = list(suites) if args.suite == "all" else [args.suite]
    lines = [line for name in chosen for line in suites[name]()]
    for name, ok, measured, tol in lines:
        status = "PASS" if ok else "FAIL"
        if tol:
            print(f"{status} {name}: residual={measured:.3e} (tol {tol:.0e})")
        else:
            print(f"{status} {name}")
    return EXIT_OK if all(ok for _, ok, _, _ in lines) else EXIT_NUMERIC


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
    p.add_argument("--state", default="1S", help="spectroscopic level fixing the energy (default 1S)")
    p.add_argument("--n", type=int, default=None, help="polynomial index (default: the state's k-1)")
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
    p.add_argument("--state", default="1S")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("check", help="run the cross-validation oracles")
    p.add_argument("--input", default=None, help="meson data file (JSON); default: bundled dataset")
    p.add_argument("--out", default=".", help="output directory (check writes no file)")
    p.add_argument("--suite", default="all", choices=["nu", "quadrature", "moment", "all"])
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NonPhysicalParameters, DegenerateStateError, DegenerateOrderError, DomainError) as exc:
        print(f"non-physical parameters: {exc}", file=sys.stderr)
        return EXIT_NONPHYSICAL
    except (UnderdeterminedFitError, FitFailedError) as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HtaspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
