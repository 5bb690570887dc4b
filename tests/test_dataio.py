import json

import pytest

from htaspec import dataio
from htaspec.core import Variant
from htaspec.errors import InputError


class TestBuiltinDataset:
    def test_loads_three_mesons(self):
        records = dataio.load_dataset()
        assert [r.label for r in records] == ["ccbar", "bbbar", "bcbar"]

    def test_params_per_variant(self, dataset):
        cc = dataset["ccbar"]
        assert cc.params[Variant.REAL].a == pytest.approx(-1.6808)
        assert cc.params[Variant.COMPLEX].a == pytest.approx(-2.5423)

    def test_fit_levels_resolution(self, dataset):
        cc = dataset["ccbar"]
        real_fit = [lv.label for lv in cc.experimental_levels(Variant.REAL) if lv.include_in_fit]
        cplx_fit = [lv.label for lv in cc.experimental_levels(Variant.COMPLEX) if lv.include_in_fit]
        assert real_fit == ["1S", "2S", "1P"]
        assert cplx_fit == ["1S", "1P", "3S"]

    def test_default_fit_set_is_all_measured(self, dataset):
        bc = dataset["bcbar"]  # no fit_levels block in the bundled data
        usable = [lv.label for lv in bc.experimental_levels(Variant.REAL) if lv.include_in_fit]
        assert usable == ["1S", "2S"]

    def test_this_work_and_references(self, dataset):
        cc = dataset["ccbar"]
        assert cc.this_work("1S", Variant.REAL) == pytest.approx(3.097)
        assert cc.this_work("2S", Variant.COMPLEX) == pytest.approx(3.657)
        refs = cc.reference_masses("1S")
        assert refs["dirac_gcp"] == pytest.approx(3.097)

    def test_state_labels_valid(self, dataset):
        for rec in dataset.values():
            for lv in rec.experimental_levels(Variant.REAL):
                assert lv.state.n >= 0


class TestValidation:
    def test_missing_file(self):
        with pytest.raises(InputError):
            dataio.load_dataset("/nonexistent/path.json")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            dataio.load_dataset(str(p))

    def test_missing_mesons_key(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"mesons": []}))
        with pytest.raises(InputError):
            dataio.load_dataset(str(p))

    def test_bad_level_label(self, tmp_path):
        doc = {"mesons": [{"label": "x", "m_q": 1.0, "m_qbar": 1.0, "levels": [{"label": "0Q"}]}]}
        p = tmp_path / "badlabel.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            dataio.load_dataset(str(p))

    def test_mass_sanity_bound(self, tmp_path):
        doc = {
            "mesons": [
                {"label": "x", "m_q": 2.0, "m_qbar": 2.0, "levels": [{"label": "1S", "exp_mass": 1.0}]}
            ]
        }
        p = tmp_path / "lowmass.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            dataio.load_dataset(str(p))

    def test_negative_quark_mass(self, tmp_path):
        doc = {"mesons": [{"label": "x", "m_q": -1.0, "m_qbar": 1.0, "levels": []}]}
        p = tmp_path / "negm.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            dataio.load_dataset(str(p))

    def test_missing_variant_params(self, tmp_path, dataset):
        doc = {"mesons": [{"label": "x", "m_q": 1.0, "m_qbar": 1.0, "levels": [{"label": "1S", "exp_mass": 3.0}]}]}
        p = tmp_path / "noparams.json"
        p.write_text(json.dumps(doc))
        rec = dataio.load_dataset(str(p))[0]
        with pytest.raises(InputError):
            rec.system(Variant.REAL)

    @pytest.mark.parametrize(
        "entry",
        [
            {"params": {"real8": {"a": -1.0, "b": 0.5, "delta": 0.5}}},
            {"fit_levels": {"real8": ["1S"]}},
            {"levels": [5]},
            {"params": [1, 2]},
            {"fit_levels": {"real7": 5}},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "reference_masses": [1]}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "reference_masses": {"m": 3.1}}, {"label": "1S"}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "reference_masses": {"m": "a,b"}}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "reference_masses": {"m": True}}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "reference_masses": {"m": [3.1]}}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "this_work": {"real7": "3.1"}}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "this_work": {"real7": float("inf")}}]},
            {"levels": [{"label": "1S", "exp_mass": True}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "include_in_fit": "false"}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0, "include_in_fit": 0}]},
            {"levels": [{"label": "1S", "exp_mass": 3.0}, {"label": "1P", "exp_mass": 3.5}], "fit_levels": {"real7": ["1S", "1p"]}},
            {"fit_levels": {"real7": ["1S", ["1S"]]}},
        ],
        ids=["params-variant", "fit-levels-variant", "level-not-object", "params-not-object",
             "fit-levels-not-list", "reference-masses-not-object", "duplicate-level-label",
             "reference-mass-text", "reference-mass-bool", "reference-mass-list", "this-work-text",
             "this-work-infinite", "exp-mass-bool", "include-in-fit-text", "include-in-fit-number",
             "fit-levels-unknown-label", "fit-levels-not-label"],
    )
    def test_malformed_shape_is_input_error(self, tmp_path, entry):
        doc = {"mesons": [{"label": "x", "m_q": 1.0, "m_qbar": 1.0, "levels": [{"label": "1S", "exp_mass": 3.0}], **entry}]}
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            dataio.load_dataset(str(p))

    def test_include_override(self, tmp_path):
        doc = {
            "mesons": [
                {
                    "label": "x",
                    "m_q": 1.0,
                    "m_qbar": 1.0,
                    "params": {"real7": {"a": -1.0, "b": 0.5, "delta": 0.5}},
                    "levels": [
                        {"label": "1S", "exp_mass": 3.0, "include_in_fit": False},
                        {"label": "2S", "exp_mass": 3.5},
                    ],
                }
            ]
        }
        p = tmp_path / "override.json"
        p.write_text(json.dumps(doc))
        rec = dataio.load_dataset(str(p))[0]
        levels = rec.experimental_levels(Variant.REAL)
        assert [lv.include_in_fit for lv in levels] == [False, True]
