"""End-to-end CLI behavior: subcommands, formats, diagnostics, exit codes."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from imbindex import ConfusionMatrix
from imbindex.audit import (
    BoundRow,
    Condition1Result,
    Condition1Witness,
    Condition2Result,
    Condition3Result,
)
from imbindex.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from imbindex.io import read_matrix_csv, write_matrix_csv
from imbindex.lab import ResultRow, SummaryRow
from imbindex.values import IndexValue

from conftest import REPO_ROOT, SPEC_DIR


@pytest.fixture()
def base_matrix_csv(tmp_path):
    path = tmp_path / "base.csv"
    write_matrix_csv(path, ConfusionMatrix([[8, 2], [10, 90]]))
    return path


class TestEval:
    def test_binary_table(self, base_matrix_csv, capsys):
        code = main(["eval", "--matrix", str(base_matrix_csv), "--indices", "binary"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "index,value,reason"
        assert len(lines) == 9
        assert "gmean2,0.848528," in out
        assert "precision,0.444444," in out

    def test_default_selection_covers_all_for_two_classes(self, base_matrix_csv, capsys):
        code = main(["eval", "--matrix", str(base_matrix_csv)])
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.strip().splitlines()) == 16

    def test_multiclass_diagonal_all_ones(self, tmp_path, capsys):
        path = tmp_path / "diag.csv"
        write_matrix_csv(path, ConfusionMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 3]]))
        code = main(["eval", "--matrix", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            assert ",1.000000," in line

    def test_undefined_prints_literal_token(self, tmp_path, capsys):
        path = tmp_path / "undef.csv"
        write_matrix_csv(path, ConfusionMatrix([[0, 10], [0, 100]]))
        code = main(["eval", "--matrix", str(path), "--indices", "precision"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "precision,UNDEFINED,no positive predictions" in out

    def test_empty_row_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n3,4\n")
        code = main(["eval", "--matrix", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "row 1" in err

    @pytest.mark.parametrize("text, message", [
        pytest.param("1,2\n3,4,5\n", "row 2 has 3 entries, expected 2", id="ragged"),
        pytest.param("1,-3\n3,4\n", "row 1, column 2: entry -3 is negative", id="negative"),
        pytest.param("1,2\n0,0\n", "row 2 sums to zero (class has no test points)",
                     id="empty-row"),
        pytest.param("", "file contains no rows", id="empty-file"),
        pytest.param("a,b\n", "header row but no count rows", id="header-only"),
        pytest.param("a,b,c\n1,2\n3,4\n", "header has 3 labels for 2 classes",
                     id="header-too-long"),
    ])
    def test_invalid_grid_names_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["eval", "--matrix", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_repeated_header_label_is_input_error(self, tmp_path, capsys):
        # a repeated class would be written back by --save-matrix as it came in
        path = tmp_path / "twice.csv"
        path.write_text("a,b,a\n3,0,0\n0,3,0\n0,0,3\n")
        saved = tmp_path / "saved.csv"
        code = main(["eval", "--matrix", str(path), "--save-matrix", str(saved)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: header repeats the label 'a'\n"
        assert not saved.exists()

    def test_json_format_full_precision(self, base_matrix_csv, capsys):
        code = main(["eval", "--matrix", str(base_matrix_csv), "--indices", "gmean2",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["value"] == pytest.approx(0.8485281374238571, abs=1e-15)

    def test_full_precision_flag(self, base_matrix_csv, capsys):
        code = main(["eval", "--matrix", str(base_matrix_csv), "--indices", "gmean2",
                     "--full-precision"])
        assert code == EXIT_OK
        assert "0.8485281374238571" in capsys.readouterr().out

    def test_labels_ingestion_with_save_roundtrip(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("true,predicted\nA,A\nA,B\nB,B\nB,B\n")
        saved = tmp_path / "tallied.csv"
        code = main(["eval", "--labels", str(pairs), "--classes", "A,B",
                     "--save-matrix", str(saved)])
        assert code == EXIT_OK
        matrix, labels = read_matrix_csv(saved)
        assert matrix == ConfusionMatrix([[1, 1], [0, 2]])
        assert labels == ("A", "B")

    def test_invalid_utf8_names_the_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"true,predicted\nA,B\nB,\xff\n")
        assert main(["eval", "--labels", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {path}: line 3, byte 3: invalid UTF-8 (invalid start byte)\n")

    def test_matrix_invalid_utf8_names_the_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "matrix.csv"
        path.write_bytes(b"a,b\n1,\xff2\n3,4\n")
        assert main(["eval", "--matrix", str(path)]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "", f"error: {path}: line 2, byte 3: invalid UTF-8 (invalid start byte)\n")

    @pytest.mark.parametrize("reader, text", [
        ("--labels", "true,predicted\nA,B\nB," + "x" * 200_000 + "\n"),
        ("--matrix", "a," + "x" * 200_000 + "\n1,2\n3,4\n"),  # in the header
    ])
    def test_field_past_the_csv_limit_names_the_path(self, tmp_path, capsys, reader, text):
        path = tmp_path / "big.csv"
        path.write_text(text)
        assert main(["eval", reader, str(path)]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "", f"error: {path}: field larger than field limit ({csv.field_size_limit()})\n")

    def test_output_file(self, base_matrix_csv, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["eval", "--matrix", str(base_matrix_csv), "--indices", "auroc",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert "auroc,0.850000," in out.read_text()

    def test_unknown_index_is_input_error(self, base_matrix_csv, capsys):
        code = main(["eval", "--matrix", str(base_matrix_csv), "--indices", "f1"])
        assert code == EXIT_INPUT
        assert "unknown index" in capsys.readouterr().err

    def test_empty_index_list_is_input_error(self, base_matrix_csv, capsys):
        assert main(["eval", "--matrix", str(base_matrix_csv), "--indices", ","]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: no index ids given\n")

    def test_missing_file_is_input_error(self, capsys):
        assert main(["eval", "--matrix", "does_not_exist.csv"]) == EXIT_INPUT

    def test_negative_digits_is_input_error(self, base_matrix_csv, capsys):
        code = main(["eval", "--matrix", str(base_matrix_csv), "--digits", "-1"])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --digits must be non-negative, got -1\n")

    @pytest.mark.parametrize("classes", ["", " , "])
    def test_empty_class_list_is_input_error(self, tmp_path, classes, capsys):
        # an empty --classes is an error, not a request to infer the class order
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("true,predicted\nA,A\nA,B\nB,B\n")
        code = main(["eval", "--labels", str(pairs), "--classes", classes])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: need at least 2 classes to tally a confusion matrix\n")

    @pytest.mark.parametrize("text, classes, label", [
        pytest.param("a,a\na,b\n", None, "b", id="only-predicted"),
        pytest.param("a,a\nb,b\n", "a,b,c", "c", id="listed-class-without-rows"),
    ])
    def test_class_without_rows_is_named(self, tmp_path, capsys, text, classes, label):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(text)
        argv = ["eval", "--labels", str(pairs)] + (["--classes", classes] if classes else [])
        assert main(argv) == EXIT_INPUT
        out, err = capsys.readouterr()
        message = f"class {label!r} has no test points (no row has true label {label!r})"
        assert (out, err) == ("", f"error: {message}\n")

    def test_classes_with_matrix_is_input_error(self, base_matrix_csv, capsys):
        code = main(["eval", "--matrix", str(base_matrix_csv), "--classes", "x,y"])
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --classes applies only to --labels\n")


class TestAudit:
    def test_single_index_violation_with_witness(self, capsys):
        code = main(["audit", "--index", "precision", "--cond", "1", "--trials", "60"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["condition1"]["verdict"] == "Violated"
        assert payload[0]["condition1"]["witness"]["factors"]

    def test_check_paper_all_green(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["audit", "--all", "--check-paper", "--trials", "80",
                     "--output", str(report)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert captured.err == "verdicts match the expected table for 13 indices\n"
        payload = json.loads(report.read_text())
        assert len(payload) == 13

    def test_check_paper_counts_only_compared_indices(self, capsys):
        # neither index has an expected row, so nothing was compared
        code = main(["audit", "--index", "recall,specificity", "--cond", "1", "--trials", "20",
                     "--check-paper"])
        assert code == EXIT_OK
        assert capsys.readouterr().err == "verdicts match the expected table for 0 indices\n"

    def test_empty_condition_list_is_input_error(self, capsys):
        code = main(["audit", "--all", "--cond", "", "--check-paper"])
        assert code == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: no condition to audit; choose among 1, 2, 3\n")

    def test_check_paper_mismatch_exits_three(self, monkeypatch, capsys):
        from imbindex import audit as audit_mod

        patched = dict(audit_mod.EXPECTED_VERDICTS)
        patched["gmean2"] = ("Violated", "NotApplicable", "NotApplicable")
        monkeypatch.setattr(audit_mod, "EXPECTED_VERDICTS", patched)
        code = main(["audit", "--index", "gmean2", "--cond", "1", "--trials", "30",
                     "--check-paper"])
        captured = capsys.readouterr()
        assert code == EXIT_MISMATCH
        assert "MISMATCH" in captured.err

    def test_condition2_range_table(self, capsys):
        code = main(["audit", "--index", "auroc_ovo", "--cond", "2", "--c", "2..5"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        table = payload[0]["condition2"]["table"]
        assert payload[0]["condition2"]["verdict"] == "CDependentBounds"
        assert [row["class_count"] for row in table] == [2, 3, 4, 5]
        assert table[1]["theoretical_min"] == pytest.approx(0.25)

    def test_c_range_default_is_the_audit_default(self, monkeypatch, capsys):
        from imbindex import audit as audit_mod
        from imbindex.cli import _build_parser, _parse_ints

        args = _build_parser().parse_args(["audit", "--all"])
        assert _parse_ints(args.c_range, "class-count range") == audit_mod.DEFAULT_C_RANGE
        monkeypatch.setattr(audit_mod, "DEFAULT_C_RANGE", (2, 5))
        assert main(["audit", "--index", "acsa", "--cond", "2"]) == EXIT_OK
        table = json.loads(capsys.readouterr().out)[0]["condition2"]["table"]
        assert [row["class_count"] for row in table] == [2, 5]

    @pytest.mark.parametrize("index", ["precision", "acsa"])
    def test_class_count_range_below_two_is_input_error(self, index, capsys):
        # a two-class index is NotApplicable under condition 2, but the range is still checked
        assert main(["audit", "--index", index, "--cond", "2", "--c", "1..3"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: class-count range must contain values >= 2\n")

    @pytest.mark.parametrize("raw", ["2..", "a..3", "..3", "2..3..4", "2,x"])
    def test_malformed_class_count_range_is_input_error(self, raw, capsys):
        assert main(["audit", "--index", "acsa", "--cond", "2", "--c", raw]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: bad class-count range {raw!r}\n")

    @pytest.mark.parametrize("argv, message", [
        (["audit", "--all", "--cond", "1,x"], "error: bad condition list '1,x'\n"),
        (["audit", "--all", "--cond", "3..1"], "error: empty condition list '3..1'\n"),
        (["bounds", "auroc_ova", "3", "--profile", "2,x"], "error: bad profile '2,x'\n"),
    ])
    def test_malformed_integer_list_names_its_flag(self, argv, message, capsys):
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("argv, message", [
        (["--trials", "0"], "error: trials must be at least 1\n"),
        (["--cond", "4"], "error: conditions must be among 1, 2, 3; got [4]\n"),
    ])
    def test_out_of_range_option_is_input_error(self, argv, message, capsys):
        assert main(["audit", "--all", *argv]) == EXIT_INPUT
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("raw", ["3", "3,3", "4..4"])
    def test_check_paper_needs_two_class_counts_for_condition2(self, raw, capsys):
        # one class count cannot show whether the bounds depend on C
        assert main(["audit", "--all", "--cond", "2", "--c", raw, "--check-paper"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: --check-paper needs at least two class "
                                       f"counts for condition 2, got class-count range {raw!r}\n")

    def test_single_class_count_audits_without_check_paper(self, capsys):
        assert main(["audit", "--index", "acsa", "--cond", "2", "--c", "3"]) == EXIT_OK
        table = json.loads(capsys.readouterr().out)[0]["condition2"]["table"]
        assert [row["class_count"] for row in table] == [3]

    def test_class_count_applies_to_multiclass_rows_only(self, capsys):
        code = main(["audit", "--all", "--cond", "1", "--class-count", "5", "--trials", "10"])
        assert code == EXIT_OK
        rows = {r["index"]: r["condition1"] for r in json.loads(capsys.readouterr().out)}
        assert rows["gmean2"]["class_count"] == 2
        assert rows["acsa"]["class_count"] == 5

    def test_condition3_at_a_hundred_classes(self, capsys):
        code = main(["audit", "--all", "--cond", "3", "--class-count", "100", "--check-paper"])
        out, err = capsys.readouterr()
        assert code == EXIT_OK
        assert err == "verdicts match the expected table for 13 indices\n"
        rows = {r["index"]: r["condition3"] for r in json.loads(out)}
        assert rows["gmean_c"]["epsilons"] == ["1/100", "1/10000"]
        assert rows["gmean_c"]["class_count"] == 100

    @pytest.mark.parametrize("conditions", ["1,3", "3"])
    @pytest.mark.parametrize("class_count", ["0", "1"])
    def test_class_count_below_two_is_input_error(self, conditions, class_count, capsys):
        code = main(["audit", "--index", "acsa", "--cond", conditions,
                     "--class-count", class_count, "--trials", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert "class_count must be at least 2" in captured.err

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["audit", "--index", "acsa", "--cond", "1", "--seed", "-1"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: --seed must be non-negative, got -1\n")

    def test_usage_error_without_selection(self):
        assert main(["audit"]) == EXIT_USAGE


class TestBounds:
    def test_ovo_three_classes(self, capsys):
        assert main(["bounds", "auroc_ovo", "3"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.25 1"

    def test_acsa_seven_classes(self, capsys):
        assert main(["bounds", "acsa", "7"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0 1"

    def test_ova_with_profile(self, capsys):
        assert main(["bounds", "auroc_ova", "3", "--profile", "2,3,4"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.222222 1"

    def test_unknown_index_is_input_error(self, capsys):
        assert main(["bounds", "nope", "3"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: unknown index 'nope'; known ids: ")

    def test_ova_without_profile_is_input_error(self, capsys):
        assert main(["bounds", "auroc_ova", "3"]) == EXIT_INPUT
        assert "profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile, message",
        [
            ("1,2", "error: profile has 2 counts but class_count is 3\n"),
            ("1,0,2", "error: profile counts must be positive\n"),
        ],
    )
    @pytest.mark.parametrize("index_id", ["acsa", "auroc_ovo", "n_auroc_ova", "auroc_ova"])
    def test_bad_profile_is_input_error(self, index_id, profile, message, capsys):
        assert main(["bounds", index_id, "3", "--profile", profile]) == EXIT_INPUT
        assert capsys.readouterr() == ("", message)


class TestSimulate:
    def test_small_spec_writes_outputs(self, tmp_path, capsys):
        spec = {
            "experiment": "tiny",
            "kind": "rrt_stability",
            "seed": 3,
            "datasets": [{
                "id": "d", "mode": "matrix", "matrix": [[8, 2], [10, 90]],
                "schedule": ["1", "2", "10"],
                "indices": ["gmean2", "precision"],
            }],
        }
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(spec))
        code = main(["simulate", str(spec_path), "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert (tmp_path / "tiny_long.csv").exists()
        assert (tmp_path / "tiny_summary.csv").exists()
        assert "gmean2: mean schedule std = 0.000000" in out

    def test_bundled_growth_spec(self, tmp_path, capsys):
        code = main(["simulate", str(SPEC_DIR / "example1_type2.json"),
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        long_csv = (tmp_path / "example1_type2_long.csv").read_text()
        assert "auroc_ova" in long_csv

    def test_malformed_spec_names_field(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"kind": "type2_growth", "experiment": "x"}))
        code = main(["simulate", str(spec_path), "--output-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "spec.steps" in capsys.readouterr().err

    def test_missing_spec_file_is_named(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["simulate", str(missing), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert "No such file" in err and str(missing) in err

    @pytest.mark.parametrize("field, value, message", [
        ("schedule", ["1", "abc"], "spec.datasets[0].schedule: 'abc' is not a ratio"),
        ("schedule", ["1", "1/0"], "spec.datasets[0].schedule: '1/0' is not a ratio"),
        ("trials", 2.7, "spec.datasets[0].trials: expected an integer, got 2.7"),
        ("threshold", True, "spec.datasets[0].threshold: expected a finite number, got True"),
        ("positive_side", "up",
         "spec.datasets[0].positive_side: expected 'greater' or 'less', got 'up'"),
        ("indices", "gmean2", "spec.datasets[0].indices: expected a JSON array, got 'gmean2'"),
    ])
    def test_malformed_spec_field_is_input_error(self, tmp_path, capsys, field, value, message):
        raw = json.loads((SPEC_DIR / "rrt_stability_point.json").read_text())
        raw["datasets"][0][field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = main(["simulate", str(spec_path), "--output-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_misspelt_field_is_input_error(self, tmp_path, capsys):
        # "trails" would otherwise leave trials at its default of 1
        raw = json.loads((SPEC_DIR / "example1_type1.json").read_text())
        raw["trails"] = raw.pop("trials")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = main(["simulate", str(spec_path), "--output-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == "error: spec.trails: unknown field\n"
        assert not list(tmp_path.glob("*.csv"))

    def test_invalid_matrix_names_its_field(self, tmp_path, capsys):
        raw = json.loads((SPEC_DIR / "rrt_stability_matrix.json").read_text())
        raw["datasets"][0]["matrix"] = [[0, 0], [1, 1]]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = main(["simulate", str(spec_path), "--output-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: spec.datasets[0].matrix: row 1 sums to zero (class has no test points)\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_two_class_index_on_three_classes_names_its_field(self, tmp_path, capsys):
        raw = json.loads((SPEC_DIR / "rrt_stability_matrix.json").read_text())
        raw["datasets"][1]["indices"].append("precision")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = main(["simulate", str(spec_path), "--output-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: spec.datasets[1].indices: 'precision' is a two-class index, "
            "but spec.datasets[1].matrix has 3 classes\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_non_numeric_threshold_is_input_error(self, tmp_path, capsys):
        raw = json.loads((SPEC_DIR / "example1_type1.json").read_text())
        raw["thresholds"] = [3, "abc"]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = main(["simulate", str(spec_path), "--output-dir", str(tmp_path)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: spec.thresholds: expected a finite number, got 'abc'\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name", ["../escape", "", ".", "..", "a/b", "a\\b", None])
    def test_unsafe_experiment_name_is_input_error(self, tmp_path, capsys, name):
        raw = json.loads((SPEC_DIR / "rrt_stability_point.json").read_text())
        raw["experiment"] = name
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw))
        code = main(["simulate", str(spec_path), "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            f"error: spec.experiment: {name!r} is not a file name"
        )
        assert [p.name for p in tmp_path.rglob("*")] == ["spec.json"]

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text("{not json")
        assert main(["simulate", str(spec_path)]) == EXIT_INPUT


def names(row_type) -> list[str]:
    return [f.name for f in fields(row_type)]


class TestOutputSchema:
    """JSON keys and CSV columns are the result fields in declaration order."""

    def test_keys_and_columns_are_the_fields(self, tmp_path, base_matrix_csv, capsys):
        assert main(["audit", "--all", "--trials", "20"]) == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 13
        witnesses = bound_rows = 0
        for report in reports:
            assert list(report) == ["index", "seed", "condition1", "condition2", "condition3"]
            assert list(report["condition1"]) == names(Condition1Result)
            assert list(report["condition2"]) == names(Condition2Result)
            assert list(report["condition3"]) == names(Condition3Result)
            if (witness := report["condition1"]["witness"]) is not None:
                witnesses += 1
                assert list(witness) == names(Condition1Witness)
                ConfusionMatrix(witness["matrix"])  # a matrix is written as its rows
            for row in report["condition2"]["table"]:
                bound_rows += 1
                assert list(row) == names(BoundRow)
        assert witnesses and bound_rows

        assert main(["eval", "--matrix", str(base_matrix_csv), "--format", "json"]) == EXIT_OK
        values = json.loads(capsys.readouterr().out)
        assert values and all(list(v) == names(IndexValue) for v in values)

        code = main(["simulate", str(SPEC_DIR / "rrt_stability_matrix.json"),
                     "--output-dir", str(tmp_path)])
        assert code == EXIT_OK
        for suffix, row_type in (("long", ResultRow), ("summary", SummaryRow)):
            path = tmp_path / f"rrt_stability_matrix_{suffix}.csv"
            header = path.read_text().splitlines()[0]
            assert header.split(",") == names(row_type)


class TestUsageAndSeed:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_help_exits_clean(self):
        assert main(["--help"]) == EXIT_OK


def _fresh_interpreter(code: str, **env: str) -> list[str]:
    """Stdout words of ``python -c code`` with src on the path and no inherited
    ``OPENBLAS_NUM_THREADS``; ``env`` adds variables."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(PYTHONPATH=str(REPO_ROOT / "src"), **env)
    result = subprocess.run([sys.executable, "-c", code], env=environ,
                            capture_output=True, text=True, check=True)
    return result.stdout.split()


_THREADS = (
    "import os, pathlib, imbindex.cli; "
    "status = pathlib.Path('/proc/self/status'); "
    "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset')); "
    "print([l.split()[1] for l in status.read_text().splitlines() "
    "if l.startswith('Threads:')][0] if status.exists() else 'unknown')"
)


class TestStartup:
    """The CLI keeps numpy's OpenBLAS single-threaded; the library sets nothing."""

    def test_package_import_loads_no_numpy_and_sets_nothing(self):
        # numpy loaded by ``imbindex`` itself would start OpenBLAS before the CLI's setting
        code = (
            "import os, sys, imbindex; print('numpy' in sys.modules); "
            "import imbindex.audit, imbindex.lab; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))"
        )
        assert _fresh_interpreter(code) == ["False", "unset"]

    def test_audit_import_loads_no_numpy(self):
        assert _fresh_interpreter("import sys, imbindex.audit; print('numpy' in sys.modules)") == [
            "False"
        ]

    def test_paper_audit_never_loads_numpy_random(self):
        # condition 1 computes PCG64's words itself; numpy is loaded only for the lab
        code = (
            "import contextlib, io, sys\n"
            "from imbindex import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['audit', '--all', '--check-paper'])\n"
            "print(code, 'numpy.random' in sys.modules)"
        )
        assert _fresh_interpreter(code) == ["0", "False"]

    def test_cli_import_runs_one_thread(self):
        value, threads = _fresh_interpreter(_THREADS)
        assert value == "1"
        assert threads in ("1", "unknown")

    def test_preset_value_is_kept(self):
        assert _fresh_interpreter(_THREADS, OPENBLAS_NUM_THREADS="3")[0] == "3"


class TestUnusablePaths:
    """A path that cannot be written is an input error naming the path, not a traceback."""

    @pytest.mark.parametrize("argv", [
        pytest.param(lambda f, m: ["simulate", str(SPEC_DIR / "example1_type2.json"),
                                   "--output-dir", str(f)], id="simulate-output-dir-is-file"),
        pytest.param(lambda f, m: ["eval", "--matrix", str(m), "--output", str(f / "x")],
                     id="eval-output-under-file"),
        pytest.param(lambda f, m: ["eval", "--matrix", str(m), "--save-matrix", str(f / "x")],
                     id="eval-save-matrix-under-file"),
        pytest.param(lambda f, m: ["audit", "--index", "acsa", "--cond", "3",
                                   "--output", str(f / "x")], id="audit-output-under-file"),
    ])
    def test_exit_two(self, tmp_path, base_matrix_csv, capsys, argv):
        regular_file = tmp_path / "file"
        regular_file.write_text("")
        assert main(argv(regular_file, base_matrix_csv)) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno ") and str(regular_file) in err
