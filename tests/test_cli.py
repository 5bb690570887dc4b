import csv
import json
import math
import os
import warnings
from importlib.resources import files

import numpy as np
import pytest

from htaspec import cli


def run(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSpectrum:
    def test_writes_tables_and_curves(self, tmp_path):
        assert run(["spectrum", "--out", str(tmp_path)]) == 0
        for meson in ("ccbar", "bbbar", "bcbar"):
            assert (tmp_path / f"{meson}_spectrum.csv").exists()
            assert (tmp_path / f"fig1_{meson}.csv").exists()
            assert (tmp_path / f"fig2_{meson}.csv").exists()

    def test_ccbar_ground_state_value(self, tmp_path):
        run(["spectrum", "--meson", "ccbar", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "ccbar_spectrum.csv")
        row = next(r for r in rows if r["label"] == "1S")
        assert float(r_val := row["model_mass"]) == pytest.approx(3.097, abs=15e-3)
        assert row["n"] == "0" and row["l"] == "0"
        assert row["branch"] == "+"

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["spectrum", "--input", "/no/such/file.json", "--out", str(tmp_path)]) == 2

    def test_unknown_meson_exits_2(self, tmp_path):
        assert run(["spectrum", "--meson", "zzbar", "--out", str(tmp_path)]) == 2

    def test_model_masses_are_core_masses(self, tmp_path, ccbar_real):
        from htaspec import core

        run(["spectrum", "--meson", "ccbar", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "ccbar_spectrum.csv")
        assert len(rows) >= 3
        for r in rows:
            state = core.QuantumState(int(r["n"]), int(r["l"]))
            mass, branch = core.mass_spectrum_detailed(ccbar_real, state, "real7")
            assert (r["model_mass"], r["branch"]) == (f"{mass:.17g}", branch)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--meson", "ccbar", "--precision", "-1"],
            ["grid", "--meson", "ccbar", "--precision", "-2"],
            ["scan", "--meson", "ccbar", "--param", "a", "--lo", "1", "--hi", "2", "--precision", "0"],
            # past the largest precision "%" takes
            ["spectrum", "--meson", "ccbar", "--precision", "2147483648"],
            ["grid", "--meson", "ccbar", "--no-normalize", "--precision", "2147483648"],
            ["scan", "--meson", "ccbar", "--param", "a", "--lo", "1", "--hi", "2", "--precision", str(10**30)],
            # not an integer: the range message, not argparse's, which names the private type function
            ["grid", "--meson", "ccbar", "--precision", "x"],
            ["grid", "--meson", "ccbar", "--precision", "1.5"],
        ],
    )
    def test_precision_out_of_range_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not os.listdir(tmp_path)
        err = capsys.readouterr().err
        assert err.endswith(f"argument --precision: must be an integer from 1 to 2147483647, got {argv[-1]!r}\n")

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["spectrum", "--out", str(d1)])
        run(["spectrum", "--out", str(d2)])
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_nonphysical_params_exit_3(self, tmp_path, capsys):
        doc = {
            "mesons": [
                {
                    "label": "bad",
                    "m_q": 1.0,
                    "m_qbar": 1.0,
                    "params": {"real7": {"a": -1.0, "b": 0.5, "delta": -0.5}},
                    "levels": [{"label": "1S", "exp_mass": 2.5}],
                }
            ]
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert run(["spectrum", "--input", str(p), "--out", str(tmp_path)]) == 3
        assert os.listdir(tmp_path) == ["bad.json"]
        assert capsys.readouterr().out == ""

    def test_complex5_negative_delta_exit_3(self, tmp_path, capsys):
        # x = delta must lie where x = 1/r lives, in the complex variant too
        doc = {
            "mesons": [
                {
                    "label": "bad",
                    "m_q": 1.23,
                    "m_qbar": 1.23,
                    "params": {"complex5": {"a": -2.5423, "b": 0.4278, "delta": -1.0}},
                    "levels": [{"label": "1S", "exp_mass": 3.097}],
                }
            ]
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert run(["spectrum", "--input", str(p), "--variant", "complex5", "--out", str(tmp_path)]) == 3
        assert os.listdir(tmp_path) == ["bad.json"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta must be positive" in captured.err

    def test_integer_valued_numbers_print_three_decimals(self, tmp_path, capsys):
        level = {"label": "1S", "exp_mass": 3, "reference_masses": {"other": 4, "text": 3.1}}
        doc = {
            "mesons": [
                {
                    "label": "intc",
                    "m_q": 1.23,
                    "m_qbar": 1.23,
                    "params": {"real7": {"a": -1.6808, "b": 0.4069, "delta": 0.5074}},
                    "levels": [level],
                }
            ]
        }
        p = tmp_path / "int.json"
        p.write_text(json.dumps(doc))
        assert run(["spectrum", "--input", str(p), "--out", str(tmp_path)]) == 0
        row = capsys.readouterr().out.splitlines()[2].split()
        assert row == ["1S", "3.097", "3.000", "4.000", "3.100"]

    def test_missing_variant_params_exit_2(self, tmp_path, capsys):
        good = {"label": "good", "m_q": 1.23, "m_qbar": 1.23, "params": {"real7": {"a": -1.6808, "b": 0.4069, "delta": 0.5074}}}
        doc = {"mesons": [good, {"label": "noparams", "m_q": 1.23, "m_qbar": 1.23}]}
        p = tmp_path / "noparams.json"
        p.write_text(json.dumps(doc))
        assert run(["spectrum", "--input", str(p), "--out", str(tmp_path)]) == 2
        assert os.listdir(tmp_path) == ["noparams.json"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'noparams' has no stored parameters for real7" in captured.err

    @pytest.mark.parametrize("command", ["spectrum", "fit"])
    def test_repeated_meson_label_exits_2(self, tmp_path, capsys, command):
        # spectrum wrote the second ccbar's CSVs over the first's, fit two ccbar rows
        from htaspec import dataio

        doc = json.loads(dataio.builtin_dataset_text())
        ccbar = next(m for m in doc["mesons"] if m["label"] == "ccbar")
        doc["mesons"].append({**ccbar, "m_q": 1.3, "m_qbar": 1.3})
        p = tmp_path / "twice.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run([command, "--input", str(p), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {p}: meson 'ccbar' appears more than once\n"
        assert not out.exists()

    def test_each_mass_computed_once(self, tmp_path, monkeypatch):
        from htaspec import core

        states = []
        orig = core.mass_spectrum_detailed

        def counting(sys_v, state, variant):
            states.append(state)
            return orig(sys_v, state, variant)

        monkeypatch.setattr(core, "mass_spectrum_detailed", counting)
        assert run(["spectrum", "--meson", "ccbar", "--out", str(tmp_path)]) == 0
        # 7 levels, all among the 22 distinct figure states (18 + 16 - 12 shared)
        assert len(states) == len(set(states)) == 22


class TestFit:
    def test_seed_from_paper_never_worse(self, tmp_path, dataset):
        from htaspec import fitting
        from htaspec.core import Variant

        code = run(["fit", "--meson", "ccbar", "--seed-from-paper", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "fitted_params.csv")
        assert len(rows) == 1
        rec = dataset["ccbar"]
        base = fitting.residual(rec.system(Variant.REAL), rec.experimental_levels(Variant.REAL))
        assert float(rows[0]["residual_rms"]) <= base + 1e-12
        assert rows[0]["converged"] == "true"

    def test_underdetermined_exits_4(self, tmp_path):
        assert run(["fit", "--meson", "bcbar", "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize(
        "selection, source",
        [
            ({"fit_levels": {"real7": ["1S", "2S", "4S"]}}, "fit_levels real7"),
            ({"include": "4S"}, "include_in_fit"),
        ],
        ids=["fit-levels", "include-in-fit"],
    )
    def test_selected_unmeasured_level_exits_2(self, tmp_path, capsys, selection, source):
        # the bundled ccbar record's 4S has no exp_mass; selecting it used to
        # drop it silently and fail later as an underdetermined fit
        from htaspec import dataio

        doc = json.loads(dataio.builtin_dataset_text())
        ccbar = next(m for m in doc["mesons"] if m["label"] == "ccbar")
        ccbar["fit_levels"].update(selection.get("fit_levels", {}))
        for lv in ccbar["levels"]:
            if lv["label"] == selection.get("include"):
                lv["include_in_fit"] = True
        path = tmp_path / "selected.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["fit", "--input", str(path), "--meson", "ccbar", "--out", str(out)]) == 2
        assert f"{source} selects 4S, which has no exp_mass" in capsys.readouterr().err
        assert not out.exists()
        # spectrum lists every level and never reads the fit selection
        assert run(["spectrum", "--input", str(path), "--meson", "ccbar", "--out", str(out)]) == 0

    def test_fit_recovers_parameters(self, tmp_path):
        code = run(["fit", "--meson", "bbbar", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "fitted_params.csv")
        assert float(rows[0]["a"]) == pytest.approx(-0.7383, rel=0.05)
        assert float(rows[0]["delta"]) == pytest.approx(1.1871, rel=0.05)


class TestGridScan:
    def test_single_cell_grid(self, tmp_path):
        code = run(
            [
                "grid", "--meson", "ccbar", "--state", "1S", "--out", str(tmp_path),
                "--rmin", "1.0", "--rmax", "1.0", "--rsteps", "1",
                "--pmin", "0.2", "--pmax", "0.2", "--psteps", "1",
                "--no-normalize",
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "ccbar_1S_grid.csv")
        assert len(rows) == 1
        assert set(rows[0]) == {"r", "p_r", "re", "im", "density"}
        amp2 = float(rows[0]["re"]) ** 2 + float(rows[0]["im"]) ** 2
        assert float(rows[0]["density"]) == pytest.approx(amp2, rel=1e-12)

    def test_grid_rmin_zero_writes_nan_row(self, tmp_path, capsys):
        code = run(
            ["grid", "--meson", "ccbar", "--rmin", "0", "--rmax", "1.0", "--rsteps", "3",
             "--pmin", "-1", "--pmax", "1", "--psteps", "3", "--no-normalize", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "ccbar_1S_grid.csv").read_bytes().split(b"\n")
        assert lines[:4] == [b"r,p_r,re,im,density", b"0,-1,nan,nan,nan", b"0,0,nan,nan,nan", b"0,1,nan,nan,nan"]
        assert lines[-1] == b"" and len(lines) == 11
        assert all(b"nan" not in line for line in lines[4:])
        assert capsys.readouterr().err.count("DomainError") == 3

    def test_grid_many_failed_cells_bounded_stderr(self, tmp_path, capsys):
        code = run(
            ["grid", "--meson", "ccbar", "--rmin", "0", "--rmax", "1.0", "--rsteps", "3",
             "--psteps", "41", "--no-normalize", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "ccbar_1S_grid.csv").read_text().splitlines()
        assert sum(line.endswith("nan,nan,nan") for line in lines) == 41
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("41 of 123 cells failed")
        assert len(err) == 6 and all("DomainError" in line for line in err[1:])

    def test_grid_overflowing_density_is_a_failed_cell(self, tmp_path, capsys):
        # |psi_n| near 1e292 here: its square overflows.  The cells are
        # written nan and reported, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["grid", "--meson", "bcbar", "--no-normalize", "--rmin", "1e-10", "--rmax", "1e-9", "--rsteps", "3",
                 "--psteps", "3", "--pmin", "1e8", "--pmax", "1e9", "--out", str(tmp_path)]
            )
        assert code == 0
        lines = (tmp_path / "bcbar_1S_grid.csv").read_text().splitlines()
        assert len(lines) == 10 and all(line.endswith(",nan,nan,nan") for line in lines[1:])
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "9 of 9 cells failed (nan in the CSV); first 5:"
        assert err[1:] == [f"cell ({i},{j}): NumericError: |psi_n|^2 is not finite" for i, j in
                           [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]]

    def test_grid_overflowing_terms_warn_nothing(self, tmp_path, capsys):
        # far out in p_r, w ** (2 + j - c) in psi_n's terms passes 1e308, and
        # cell (1,1)'s continued fraction stalls; the cells are reported by
        # the grid, not by numpy RuntimeWarnings (which, raised as errors
        # here, would end the command)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["grid", "--meson", "bcbar", "--no-normalize", "--rsteps", "3", "--psteps", "3",
                 "--pmin", "1e11", "--pmax", "2e11", "--out", str(tmp_path)]
            )
        assert code == 0
        lines = (tmp_path / "bcbar_1S_grid.csv").read_text().splitlines()
        assert len(lines) == 10 and all(line.endswith(",nan,nan,nan") for line in lines[1:])
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "9 of 9 cells failed (nan in the CSV); first 5:"
        assert len(err) == 6 and all(": NumericError: " in line for line in err[1:])

    def test_grid_requires_single_meson(self, tmp_path):
        assert run(["grid", "--out", str(tmp_path)]) == 2
    def test_grid_momentum_coupled_variant(self, tmp_path):
        code = run(
            ["grid", "--meson", "ccbar", "--variant", "complex5", "--state", "1S",
             "--rmin", "0.5", "--rmax", "2.0", "--rsteps", "2",
             "--pmin", "0.0", "--pmax", "0.4", "--psteps", "2",
             "--no-normalize", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "ccbar_1S_grid.csv")
        assert len(rows) == 4

    def test_grid_momentum_coupled_excited_exits_3(self, tmp_path):
        assert run(
            ["grid", "--meson", "ccbar", "--variant", "complex5", "--state", "2S", "--out", str(tmp_path)]
        ) == 3

    @pytest.mark.parametrize("meson", ["ccbar", "bbbar", "bcbar"])
    def test_grid_momentum_coupled_normalized_exits_3(self, tmp_path, capsys, meson):
        assert run(
            ["grid", "--meson", meson, "--variant", "complex5", "--state", "1S",
             "--rsteps", "3", "--psteps", "3", "--out", str(tmp_path)]
        ) == 3
        assert "normalization integrals cover the real variant only" in capsys.readouterr().err
        assert not (tmp_path / f"{meson}_1S_grid.csv").exists()

    @pytest.mark.parametrize("normalize", ["--normalize", "--no-normalize"])
    @pytest.mark.parametrize(
        "extra",
        [["--state", "8S"], ["--variant", "complex5", "--state", "2S"]],
        ids=["n-above-range", "complex5-excited"],
    )
    def test_grid_invalid_n_exits_3(self, tmp_path, capsys, extra, normalize):
        # no cell can take the state's n: exit before writing a CSV of nan cells
        assert run(
            ["grid", "--meson", "ccbar", *extra, "--rsteps", "3", "--psteps", "3", normalize, "--out", str(tmp_path)]
        ) == 3
        assert capsys.readouterr().err.startswith("non-physical parameters: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("label", ["1F", "0S", "X"])
    @pytest.mark.parametrize(
        "argv",
        [["grid", "--meson", "ccbar"], ["scan", "--meson", "ccbar", "--param", "a", "--lo", "1", "--hi", "2"]],
        ids=["grid", "scan"],
    )
    def test_malformed_state_exits_2(self, tmp_path, capsys, argv, label):
        # a label that names no state is an input error, not a non-physical one
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--state", label, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --state: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grid_complex_level_energy_exits_3(self, tmp_path, capsys):
        # the complex5 1S energy here is -0.3875 +- 0.0484i: grid follows the
        # level rule, as spectrum does, instead of gridding at Re E
        doc = {
            "mesons": [
                {
                    "label": "cx",
                    "m_q": 1.5,
                    "m_qbar": 1.5,
                    "params": {"complex5": {"a": -1.0, "b": -0.05, "delta": 0.5}},
                    "levels": [{"label": "1S", "exp_mass": 3.0}],
                }
            ]
        }
        p = tmp_path / "cx.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for argv in (["spectrum"], ["grid", "--meson", "cx", "--no-normalize"]):
            assert run([*argv, "--input", str(p), "--variant", "complex5", "--out", str(out)]) == 3
            assert "no real-valued branch at 1S" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_bad_axis_exits_2(self, tmp_path):
        assert run(
            ["grid", "--meson", "ccbar", "--rmin", "2.0", "--rmax", "1.0",
             "--rsteps", "4", "--out", str(tmp_path)]
        ) == 2

    def test_scan_symmetry_two_a_values(self, tmp_path):
        code = run(
            ["scan", "--meson", "bcbar", "--param", "a", "--lo", "-10", "--hi", "110",
             "--steps", "241", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "bcbar_scan_a.csv")
        assert len(rows) == 241
        # mirror symmetry about a* = 3b/delta^2: the two branches of the
        # curve attain each mass twice
        good = [(float(r["value"]), float(r["mass"])) for r in rows if r["physical"] == "true"]
        a_star = 3 * 0.5157 / 0.1763**2
        by_value = dict(good)
        hits = 0
        for a, mass in good:
            mirror = 2 * a_star - a
            close = [m for aa, m in good if abs(aa - mirror) < 0.26]
            if close:
                assert min(abs(m - mass) for m in close) < 0.05
                hits += 1
        assert hits > 100

    @pytest.mark.parametrize("variant", ["real7", "complex5"])
    def test_scan_delta_flags_nonpositive_delta(self, tmp_path, variant):
        code = run(
            ["scan", "--meson", "ccbar", "--param", "delta", "--lo", "-1.0", "--hi", "0.5",
             "--steps", "16", "--variant", variant, "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "ccbar_scan_delta.csv")
        assert len(rows) == 16
        for r in rows:
            if float(r["value"]) <= 0:
                assert (r["mass"], r["physical"], r["branch"]) == ("nan", "false", "")
        assert any(r["physical"] == "true" for r in rows)

    def test_scan_bad_interval_exits_2(self, tmp_path):
        assert run(["scan", "--meson", "ccbar", "--param", "a", "--lo", "2", "--hi", "1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "param, lo, hi, steps",
        [("a", "1", "1.0000000000000002", "5"), ("b", "0", "inf", "3")],
        ids=["repeated-values", "infinite-interval"],
    )
    def test_scan_takes_grids_axis_rule(self, tmp_path, capsys, param, lo, hi, steps):
        # values that repeat, or are nan and inf, are no scan: one line, exit 2, no CSV
        out = tmp_path / "out"
        argv = ["scan", "--meson", "ccbar", "--param", param, "--lo", lo, "--hi", hi, "--steps", steps]
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: {param} axis must be strictly ascending\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, axis",
        [
            (["scan", "--param", "b", "--lo", "0", "--hi", "1.7e308", "--steps", "3"], "b"),
            (["grid", "--no-normalize", "--rmin", "1", "--rmax", "1.7e308", "--rsteps", "3", "--psteps", "1"], "r"),
            (["grid", "--no-normalize", "--rmin", "inf", "--rsteps", "1", "--psteps", "1"], "r"),
        ],
        ids=["scan-overflow", "grid-overflow", "grid-inf-point"],
    )
    def test_axis_past_double_range_exits_2(self, tmp_path, capsys, argv, axis):
        # finite ends 1.7e308 apart put the last value at inf, and one value
        # may be inf itself: one line, exit 2, no CSV
        out = tmp_path / "out"
        assert run([*argv, "--meson", "ccbar", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: {axis} axis must be finite\n"
        assert not out.exists()


    def test_level_past_double_range_is_non_physical(self, tmp_path, capsys):
        # real7 a = -1e160: u * u overflows, so the level is no number;
        # spectrum exits 3 with one line and no file, and scan flags the points
        data = tmp_path / "x.json"
        params = {"real7": {"a": -1e160, "b": 0.2, "delta": 0.5}}
        data.write_text(json.dumps({"mesons": [{"label": "x", "m_q": 1.5, "m_qbar": 1.5, "params": params}]}))
        out = tmp_path / "out"
        assert run(["spectrum", "--input", str(data), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "non-physical parameters: the level of 1S is past double range (-inf)\n"
        assert not out.exists()
        argv = ["scan", "--input", str(data), "--param", "a", "--lo=-1e200", "--hi=-1e100", "--steps", "3"]
        assert run([*argv, "--out", str(out)]) == 0
        flagged = [(r["mass"], r["physical"], r["branch"]) for r in read_csv(out / "x_scan_a.csv") if float(r["value"]) <= -1e100]
        assert flagged == [("nan", "false", "")] * len(flagged) and len(flagged) >= 2


class TestCheck:
    def test_nu_suite_passes(self, capsys):
        assert run(["check", "--suite", "nu"]) == 0
        out = capsys.readouterr().out
        assert "PASS nu-vs-closed-form" in out

    def test_moment_suite_passes(self, capsys):
        assert run(["check", "--suite", "moment"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_every_line_is_gated(self, capsys):
        # a line with no residual and tolerance could never fail
        assert run(["check", "--suite", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert all(line.startswith("PASS ") and "residual=" in line and "(tol " in line for line in lines)

    def test_first_meson_not_normalizable(self, tmp_path, capsys):
        # bcbar's real7 1S (c = -27.4) is not normalizable: the probability
        # line takes the next real7 meson, and prints what the bundled order
        # does; with bcbar alone the nu line, printed first, still shows
        assert run(["check"]) == 0
        bundled = capsys.readouterr().out
        doc = json.loads((files("htaspec") / "data" / "mesons.json").read_text())
        by_label = {m["label"]: m for m in doc["mesons"]}
        for order, code in ((["bcbar", "ccbar"], 0), (["bcbar"], 3)):
            p = tmp_path / "mesons.json"
            p.write_text(json.dumps({"mesons": [by_label[label] for label in order]}))
            assert run(["check", "--input", str(p)]) == code
            out, err = capsys.readouterr()
            want = bundled if code == 0 else bundled.splitlines(keepends=True)[0]
            assert (out, "not normalizable" in err) == (want, code == 3)

    def test_lines_print_as_each_suite_returns(self, monkeypatch, capsys):
        # a suite that raises ends the command, but not the lines before it
        def fail():
            raise cli.NumericError("quadrature suite failed")

        monkeypatch.setattr(cli, "_check_quadrature", lambda records: fail())
        assert run(["check"]) == 5
        out, err = capsys.readouterr()
        assert out.startswith("PASS nu-vs-closed-form: residual=") and out.count("\n") == 1
        assert err == "numeric failure: quadrature suite failed\n"

    def test_nan_measurement_fails(self, monkeypatch, capsys):
        # a line passes only when measured < tol, which NaN is not
        from htaspec import confine1d

        monkeypatch.setattr(confine1d, "moment_identity_check", lambda x, n: math.nan)
        assert run(["check", "--suite", "moment"]) == 5
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("FAIL moment-identity") and "residual=nan" in line for line in lines)

    def test_coarser_moment_quadrature_fails(self, monkeypatch, capsys):
        # half the panels and nodes leave residuals near 5e-10, far above
        # the 1e-15 the rule in use reaches
        from htaspec import confine1d

        monkeypatch.setattr(confine1d, "_GL_PANELS", 4)
        monkeypatch.setattr(confine1d, "_GL_X", np.polynomial.legendre.leggauss(16)[0])
        monkeypatch.setattr(confine1d, "_GL_W", np.polynomial.legendre.leggauss(16)[1])
        assert run(["check", "--suite", "moment"]) == 5
        assert capsys.readouterr().out.count("FAIL moment-identity") == 6

    @pytest.mark.parametrize("flag", [["--meson", "ccbar"], ["--variant", "complex5"], ["--precision", "3"]])
    def test_flags_it_never_reads_exit_2(self, flag):
        # check writes no CSV and runs one variant on the first meson it can
        with pytest.raises(SystemExit) as exc:
            run(["check", "--suite", "moment", *flag])
        assert exc.value.code == 2


class TestUnwritableOutput:
    # --out names a file, or a path under one: the directory cannot be made
    @pytest.mark.parametrize(
        "argv, out",
        [
            (["spectrum", "--meson", "ccbar"], "FILE"),
            (["fit", "--meson", "ccbar", "--seed-from-paper"], "FILE/sub"),
            (["grid", "--meson", "ccbar", "--rsteps", "4", "--psteps", "3"], "FILE/sub"),
            (["scan", "--meson", "ccbar", "--param", "b", "--lo", "0.3", "--hi", "0.5", "--steps", "5"], "FILE"),
        ],
        ids=["spectrum", "fit", "grid", "scan"],
    )
    def test_out_dir_that_cannot_be_made_exits_2(self, tmp_path, capsys, argv, out):
        (tmp_path / "FILE").write_text("")
        assert run([*argv, "--out", str(tmp_path / out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""  # spectrum prints no table before its first CSV
        assert err.startswith("input error: cannot write output: [Errno ") and err.count("\n") == 1
        assert (tmp_path / "FILE").read_text() == ""

    def test_csv_that_cannot_be_written_exits_2(self, tmp_path, capsys):
        # a directory stands where the CSV goes
        (tmp_path / "ccbar_scan_b.csv").mkdir()
        argv = ["scan", "--meson", "ccbar", "--param", "b", "--lo", "0.3", "--hi", "0.5", "--steps", "5"]
        assert run([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot write output: [Errno ") and err.count("\n") == 1


class TestHelp:
    @pytest.mark.parametrize("sub", ["spectrum", "fit", "grid", "scan", "check"])
    def test_help_exits_zero(self, sub):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0


class TestComparisonReport:
    def test_comparison_csv_written(self, tmp_path, capsys):
        run(["spectrum", "--meson", "ccbar", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "ccbar_comparison.csv")
        assert rows[0]["label"] == "1S"
        assert float(rows[0]["model"]) == pytest.approx(3.097, abs=15e-3)
        out = capsys.readouterr().out
        assert "== ccbar (real7) ==" in out
        assert "measured" in out

    def test_model_column_matches_stored_model_values(self, tmp_path, dataset):
        from htaspec.core import Variant

        run(["spectrum", "--meson", "ccbar", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "ccbar_comparison.csv")
        assert len(rows) == 7
        for row in rows:
            assert float(row["model"]) == pytest.approx(dataset["ccbar"].this_work[row["label"]][Variant.REAL], abs=15e-3)

    def test_bbbar_1p_value(self, tmp_path):
        run(["spectrum", "--meson", "bbbar", "--out", str(tmp_path)])
        row = next(r for r in read_csv(tmp_path / "bbbar_comparison.csv") if r["label"] == "1P")
        assert float(row["model"]) == pytest.approx(9.899, abs=15e-3)
        assert float(row["measured"]) == pytest.approx(9.899)

    def test_reference_columns_present(self, tmp_path):
        run(["spectrum", "--meson", "ccbar", "--out", str(tmp_path)])
        header = (tmp_path / "ccbar_comparison.csv").read_text().splitlines()[0].split(",")
        assert "dirac_gcp" in header and "wkb_ikp" in header
