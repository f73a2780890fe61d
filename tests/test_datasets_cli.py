import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kemeny import DataError, load_csv, load_dataset
from kemeny.cli import main
from kemeny.datasets import Dataset, _parse_cell


class TestEmbeddedData:
    def test_iris_shape(self, iris):
        assert iris.n_rows == 150
        assert iris.columns == (
            "sepal_length", "sepal_width", "petal_length", "petal_width",
        )

    def test_sleep_shape(self, sleep):
        assert sleep.n_rows == 20
        assert sleep.columns == ("extra", "group", "ID")
        assert sorted(np.unique(sleep.column("group"))) == [1.0, 2.0]

    def test_load_dataset_by_name(self):
        assert load_dataset("iris").n_rows == 150

    def test_unknown_column_lists_choices(self, sleep):
        with pytest.raises(DataError, match="available"):
            sleep.column("bogus")


class TestCsvParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        data = load_csv(str(path))
        assert data.columns == ("a", "b")
        assert data.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_extended_reals_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nInf,1\n-Inf,2\n")
        data = load_csv(str(path))
        assert data.data[0, 0] == math.inf
        assert data.data[1, 0] == -math.inf

    def test_bad_cell_names_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,abc\n")
        with pytest.raises(DataError, match=r"row 3.*'b'"):
            load_csv(str(path))

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,NA\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(str(path))

    def test_duplicate_columns_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_csv(str(path))

    def test_exclude_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1,x\n2,y\n")
        data = load_csv(str(path), exclude=("label",))
        assert data.columns == ("a",)

    def test_headerless(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1;2\n3;4\n")
        data = load_csv(str(path), delimiter=";", header=False)
        assert data.columns == ("c1", "c2")

    def test_select_preserves_order(self):
        d = Dataset(columns=("a", "b"), data=np.array([[1.0, 2.0]]))
        assert d.select(["b", "a"]).columns == ("b", "a")


_SPACE = st.text(alphabet=" \t\n\r\x0b\x0c\xa0", max_size=2)
_NUMBER = st.one_of(
    st.floats(allow_nan=False).map(repr), st.integers(-(10**20), 10**20).map(str)
)
# about half the cells are padded well-formed numbers
_CELL = st.one_of(
    st.builds("{}{}{}".format, _SPACE, _NUMBER, _SPACE),
    st.one_of(
        st.text(alphabet="0123456789+-.e_ \t\n\r\x0b\x0c\xa0", max_size=8),
        st.sampled_from(
            ["inf", "-Infinity", " +INF ", "nan", "-nan", "NA", "n/a", "null", "", "1_0"]
        ),
    ),
)


def _assert_loads_as_parse_cell(path, rows, names):
    """load_csv must match the row-major cell-by-cell parse: the same bytes,
    or the same first DataError."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([names, *rows])
    try:
        want = np.array(
            [[_parse_cell(cell, i, name) for cell, name in zip(row, names)]
             for i, row in enumerate(rows, start=2)]
        )
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_csv(str(path))
        assert str(got.value) == str(exc)
    else:
        assert load_csv(str(path)).data.tobytes() == want.tobytes()


class TestColumnWiseLoader:
    @given(_CELL)
    def test_cell_agrees_with_parse_cell(self, tmp_path_factory, cell):
        path = tmp_path_factory.mktemp("cell") / "t.csv"
        _assert_loads_as_parse_cell(path, [(cell,)], ("a",))

    @given(st.lists(st.tuples(_CELL, _CELL), min_size=1, max_size=4))
    def test_table_agrees_with_cell_by_cell_parse(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        _assert_loads_as_parse_cell(path, rows, ("a", "b"))

    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,x\n4,5\ny,6\n")
        with pytest.raises(DataError, match=r"^non-numeric cell 'x' at row 3, column 'b'$"):
            load_csv(str(path))

    def test_ragged_row_before_bad_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n4,x\n")
        with pytest.raises(DataError, match=r"ragged row 3 has 1 cells, expected 2$"):
            load_csv(str(path))

    def test_bad_cell_before_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,NA\n3\n")
        with pytest.raises(DataError, match=r"^missing value at row 2, column 'b'$"):
            load_csv(str(path))

    def test_one_kept_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,23,3\n4,-5.5,6\n")
        data = load_csv(str(path), exclude=("a", "c"))
        assert data.columns == ("b",)
        assert data.data.tolist() == [[23.0], [-5.5]]

    def test_exclude_text_column_keeps_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label,b\n1,x,2\n3,y,4\n")
        data = load_csv(str(path), exclude=("label",))
        assert data.columns == ("a", "b")
        assert data.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_headerless_semicolon_values(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1;2.5\n-inf;4\n")
        data = load_csv(str(path), delimiter=";", header=False)
        assert data.data.tolist() == [[1.0, 2.5], [-math.inf, 4.0]]

    def test_negative_zero_kept_bit_for_bit(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n-0.0,0.0\n")
        assert load_csv(str(path)).data.tobytes() == np.array([[-0.0, 0.0]]).tobytes()

    def test_field_over_csv_limit_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n" + "1" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(DataError) as got:
            load_csv(str(path))
        assert str(got.value).startswith(f"cannot read {path}: field larger than")

    def test_non_utf8_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n\xe9,3\n")
        code, out, err = run_cli(
            capsys, "test", "--data", str(path), "--x", "a", "--y", "b", "--method", "z"
        )
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "data" and str(path) in error["message"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliMatrix:
    def test_iris_kemeny_distance_golden(self, capsys):
        code, out, err = run_cli(
            capsys, "matrix", "--data", "iris", "--metric", "kemeny_distance"
        )
        assert code == 0, err
        payload = json.loads(out)["payload"]
        cols = payload["columns"]
        cells = payload["cells"]
        idx = {c: i for i, c in enumerate(cols)}
        golden = {
            ("sepal_width", "sepal_length"): 11990,
            ("petal_length", "sepal_length"): 3410,
            ("petal_width", "sepal_length"): 4243,
            ("petal_length", "sepal_width"): 13145,
            ("petal_width", "sepal_width"): 12804,
            ("petal_width", "petal_length"): 2634,
        }
        for (a, b), want in golden.items():
            assert cells[idx[a]][idx[b]] == want
            assert cells[idx[b]][idx[a]] == want
        for i in range(4):
            assert cells[i][i] == 0.0

    def test_mom_fit_annotation(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "--data", "iris", "--metric", "kemeny_distance",
            "--mom-fit",
        )
        assert code == 0
        fits = json.loads(out)["payload"]["mom_fits"]
        cell = fits["sepal_width|petal_length"]
        assert cell["alpha1"] == pytest.approx(0.5797333, abs=1e-6)
        assert cell["alpha2"] == pytest.approx(0.4059677, abs=1e-6)

    def test_pearson_diagonal_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "--data", "iris", "--metric", "pearson"
        )
        payload = json.loads(out)["payload"]
        for i in range(4):
            assert payload["cells"][i][i] == pytest.approx(1.0)

    def test_tau_diagonal_is_concentration(self, capsys, iris):
        from kemeny import kemeny_variance

        code, out, _ = run_cli(
            capsys, "matrix", "--data", "iris", "--metric", "tau_kappa"
        )
        payload = json.loads(out)["payload"]
        want = kemeny_variance(iris.column("sepal_length"))
        assert payload["cells"][0][0] == pytest.approx(want)

    def test_degenerate_column_flagged_not_fatal(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,1,2\n2,1,3\n3,1,4\n")
        code, out, _ = run_cli(
            capsys, "matrix", "--data", str(path), "--metric", "kemeny_rho"
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["flags"]  # b is constant
        assert payload["cells"][0][2] == pytest.approx(1.0)

    def test_mom_fit_restricted_to_distance(self, capsys):
        code, _, err = run_cli(
            capsys, "matrix", "--data", "iris", "--metric", "pearson", "--mom-fit"
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == "usage"


class TestCliTest:
    def test_pointbiserial_sleep(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--data", "sleep", "--x", "group", "--y", "extra",
            "--method", "pointbiserial",
        )
        payload = json.loads(out)["payload"]
        assert payload["p_two_sided"] == pytest.approx(0.1097329, abs=1e-6)
        assert payload["effect"] == pytest.approx(0.25789, abs=5e-6)

    def test_wilcoxon_sleep(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--data", "sleep", "--x", "group", "--y", "extra",
            "--method", "wilcoxon",
        )
        payload = json.loads(out)["payload"]
        assert payload["W"] == 25.5
        assert payload["p"] == pytest.approx(0.06933, abs=1e-4)

    def test_baseline_block(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--data", "sleep", "--x", "group", "--y", "extra",
            "--method", "z", "--baselines",
        )
        block = json.loads(out)["payload"]["baselines"]
        assert block["wilcoxon"]["W"] == 25.5
        assert "kendall_tau_b" in block and "spearman_rho" in block

    def test_welch_on_identical_columns_fails_numerically(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,1\n1,1\n2,2\n")
        code, _, err = run_cli(
            capsys, "test", "--data", str(path), "--x", "a", "--y", "b",
            "--method", "paired",
        )
        assert code == 4
        assert json.loads(err)["error"]["code"] == "numeric"

    def test_welch_on_two_rows_fails_numerically(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n2,1\n")
        code, _, err = run_cli(
            capsys, "test", "--data", str(path), "--x", "a", "--y", "b",
            "--method", "welch",
        )
        assert code == 4
        error = json.loads(err)["error"]
        assert error["code"] == "numeric" and "kemeny_t_welch" in error["message"]

    def test_missing_column_is_data_error(self, capsys):
        code, _, err = run_cli(
            capsys, "test", "--data", "sleep", "--x", "nope", "--y", "extra",
            "--method", "z",
        )
        assert code == 3
        assert json.loads(err)["error"]["code"] == "data"


class TestCliFitEnumerate:
    def test_fit_iris_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--data", "iris",
            "--fit-columns", "sepal_width,petal_length",
        )
        payload = json.loads(out)["payload"]
        assert payload["rho"] == 13145.0
        assert payload["alpha1"] == pytest.approx(0.5797333, abs=1e-6)

    def test_enumerate_n2(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2")
        payload = json.loads(out)["payload"]
        assert payload["population_count"] == 2
        assert payload["moments"]["mean"] == 0.0
        assert payload["moments"]["count"] == 4

    def test_enumerate_cap(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "6")
        assert code == 4

    def test_table1_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table1", "--n-list", "2,3", "--output", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,formula_sd,empirical_mean,empirical_sd")
        assert len(lines) == 3


class TestCliBootstrap:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        config = {
            "replicates": 100,
            "resample_size": 30,
            "seed": 7,
            "methods": ["tau_kappa", "wilcoxon_w"],
            "dataset": "sleep",
            "x": "group",
            "y": "extra",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code1, out1, _ = run_cli(capsys, "bootstrap", "--config", str(path))
        code2, out2, _ = run_cli(capsys, "bootstrap", "--config", str(path))
        assert code1 == code2 == 0
        assert out1 == out2

    def test_missing_field_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"replicates": 5}))
        code, _, err = run_cli(capsys, "bootstrap", "--config", str(path))
        assert code == 2

    def test_bad_json_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "bootstrap", "--config", str(path))
        assert code == 3

    def test_flag_overrides_and_raw_stream(self, capsys, tmp_path):
        config = {
            "replicates": 999, "resample_size": 999, "seed": 7,
            "methods": ["tau_kappa"], "dataset": "sleep",
            "x": "group", "y": "extra",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        raw_path = tmp_path / "raw.csv"
        code, out, _ = run_cli(
            capsys, "bootstrap", "--config", str(path),
            "--replicates", "12", "--resample-size", "25",
            "--raw-out", str(raw_path),
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["replicates"] == 12
        assert payload["resample_size"] == 25
        lines = raw_path.read_text().strip().splitlines()
        assert lines[0] == "replicate,method,value"
        assert len(lines) == 1 + payload["methods"]["tau_kappa"]["evaluated"]


class TestCliBootstrapTwoRows:
    """Two-row resamples: kendall_z is finite, pearson_t has no degrees of
    freedom and is skipped; no envelope holds NaN or Infinity."""

    @staticmethod
    def _strict(text):
        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        return json.loads(text, parse_constant=reject)

    def _run(self, capsys, tmp_path, methods):
        config = {"replicates": 200, "resample_size": 2, "seed": 7, "methods": methods,
                  "dataset": "sleep", "x": "group", "y": "extra"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        return run_cli(capsys, "bootstrap", "--config", str(path))

    def test_kendall_z(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, ["kendall_z", "tau_kappa"])
        assert code == 0, err
        summary = self._strict(out)["payload"]["methods"]["kendall_z"]
        assert summary["evaluated"] > 0 and {summary["min"], summary["max"]} <= {-1.0, 1.0}

    def test_pearson_t(self, capsys, tmp_path):
        code, out, err = self._run(capsys, tmp_path, ["pearson_t"])
        assert code == 4 and out == ""
        error = self._strict(err)["error"]
        assert error["code"] == "numeric" and "pearson_t" in error["message"]


class TestCliOutputs:
    def test_csv_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix", "--data", "sleep", "--columns", "extra,group",
            "--metric", "spearman", "--output", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "column,extra,group"
        assert len(lines) == 3

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["payload"]["population_count"] == 24

    def test_stamp_adds_timestamp(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--stamp")
        assert json.loads(out)["timestamp"] is not None

    def test_default_no_timestamp(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2")
        assert json.loads(out)["timestamp"] is None

    def test_json_floats_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--data", "sleep", "--x", "group", "--y", "extra",
            "--method", "z",
        )
        payload = json.loads(out)["payload"]
        from kemeny import kemeny_z_test, load_sleep

        sleep = load_sleep()
        exact = kemeny_z_test(sleep.column("group"), sleep.column("extra"))
        assert payload["statistic"] == exact.statistic  # lossless round trip
