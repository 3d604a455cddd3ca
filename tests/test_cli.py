"""Command-line interface: output formats, exit codes, and determinism."""

import io
import json
import sys

import pytest

from intervalence import interval_statistics
from intervalence.cli import main
from intervalence.tamari import CSV_HEADER, interval_valence_polynomial, stats_to_csv


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_error(*argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    return err.value.code


# --------------------------------------------------------------------- poly

def test_poly_size_one(capsys):
    code, out = run(capsys, "poly", "--n", "1")
    assert code == 0
    assert out.strip() == "1"


def test_poly_projection_to_three_variables(capsys):
    code, out = run(capsys, "poly", "--n", "3", "--spec", "xbar=1")
    assert code == 0
    assert out.strip() == (
        "x y ybar + x^2 + 3 x y + y^2 + 3 x ybar + 3 y ybar + ybar^2"
    )


def test_poly_two_var_triangle(capsys):
    code, out = run(capsys, "poly", "--n", "3", "--two-var")
    assert code == 0
    assert "a^2 + 3 a abar + abar^2" in out
    rows = [line.split() for line in out.strip().split("\n")[-3:]]
    assert rows == [["1", "3", "2"], [".", "3", "3"], [".", ".", "1"]]


def test_poly_json_round_trips(capsys):
    code, out = run(capsys, "poly", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == interval_valence_polynomial(4).to_json()


def test_poly_csv_header(capsys):
    code, out = run(capsys, "poly", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "coeff,x,y,ybar,xbar"
    assert len(lines) == 1 + len(interval_valence_polynomial(2).terms)


def test_poly_rejects_bad_spec(capsys):
    assert run_error("poly", "--n", "3", "--spec", "z=1") == 2
    assert run_error("poly", "--n", "3", "--spec", "x") == 2
    assert run_error("poly", "--n", "3", "--spec", "x=two") == 2
    capsys.readouterr()
    assert run_error("poly", "--n", "3", "--two-var", "--spec", "x=2") == 2
    assert "--spec does not apply to --two-var" in capsys.readouterr().err
    assert run_error("poly", "--n", "3", "--spec", "x=1,x=2") == 2
    assert "variable 'x' substituted twice" in capsys.readouterr().err


# ------------------------------------------------------------------- series

def test_series_full_text_contains_frozen_order(capsys):
    code, out = run(capsys, "series", "--mode", "full", "--N", "4")
    assert code == 0
    assert "u^2 v x + u v^2 ybar + u v y" in out


def test_series_sync_counts_and_exit(capsys):
    code, out = run(capsys, "series", "--mode", "sync", "--N", "8")
    assert code == 0
    assert "counts: 1, 2, 6, 22, 91, 408, 1938" in out
    assert "algebraic residual through t^7: 0" in out


def test_series_bicubic_json(capsys):
    code, out = run(capsys, "series", "--mode", "bicubic", "--N", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == [1, 3, 12, 56, 288, 1584]
    assert doc["residual_zero"] is True
    assert doc["universe"] == ["u", "v"]
    assert doc["intervals"]["N"] == 7


def test_series_rejects_out_of_range_truncation():
    assert run_error("series", "--mode", "full", "--N", "13") == 2
    assert run_error("series", "--mode", "full", "--N", "0") == 2
    assert run_error("series", "--mode", "unknown", "--N", "5") == 2


# ------------------------------------------------------------------- verify

def test_verify_all_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--max-n", "4")
    assert code == 0
    assert out.count("PASS") == 8
    assert "all suites passed" in out


def test_verify_selected_suites_json(capsys):
    code, out = run(capsys, "verify", "--suite", "triangle,sync", "--max-n", "5",
                    "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["check_id"] for r in reports] == ["triangle", "sync"]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_empty_range_is_skipped(capsys):
    # realroots starts at n = 2, so --max-n 1 leaves it nothing to check
    code, out = run(capsys, "verify", "--suite", "realroots,sync", "--max-n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("SKIP realroots     n=2..1 ")
    assert lines[1].startswith("PASS sync          n=1..1 ")
    assert lines[-1] == "all suites passed (1 skipped)"
    code, out = run(capsys, "verify", "--suite", "realroots,sync", "--max-n", "1",
                    "--format", "json")
    assert code == 0
    skipped, passed = json.loads(out)
    assert (skipped["check_id"], skipped["status"]) == ("realroots", "skip")
    assert skipped["witness"] is None and skipped["details"] == {}
    assert skipped["n_range"] == [2, 1]
    assert passed["status"] == "pass"


def test_verify_unknown_suite_is_usage_error():
    assert run_error("verify", "--suite", "nosuch") == 2


def test_verify_max_n_bounds():
    assert run_error("verify", "--suite", "sync", "--max-n", "9") == 2


# -------------------------------------------------------------------- table

def test_table_text_matrix(capsys):
    code, out = run(capsys, "table", "--n", "3")
    assert code == 0
    rows = [line.split() for line in out.strip().split("\n")[1:-1]]
    assert rows == [["1", ".", "."], ["3", "4", "."], ["1", "3", "1"]]
    assert "total 13" in out


def test_table_csv_records(capsys):
    code, out = run(capsys, "table", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1:] == [
        "2,0,0,0,0,1,0,0,0,1,1",
        "2,1,0,1,0,0,1,1,0,0,0",
        "2,1,1,0,1,0,0,0,1,0,1",
    ]


def test_table_csv_bytes_match_stats_to_csv(tmp_path, capsys):
    # the rows written per class keep the bytes of the per-record writer,
    # q included (n <= 7): stdout ends with print's extra newline, an
    # --output file does not
    for n in range(1, 8):
        text = stats_to_csv(interval_statistics(n))
        code, out = run(capsys, "table", "--n", str(n), "--format", "csv")
        assert code == 0 and out == text + "\n", n
        path = tmp_path / f"table{n}.csv"
        assert main(["table", "--n", str(n), "--format", "csv", "--output", str(path)]) == 0
        assert path.read_text() == text, n


class CountingBytes(io.BytesIO):
    """A binary stream that counts the writes that reach it."""

    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


def write_through_stdout(monkeypatch):
    raw = CountingBytes()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8",
                                                        write_through=True))
    return raw


def test_table_csv_writes_in_blocks(monkeypatch):
    # 2531 lines at n = 6: a handful of writes, not one per row
    raw = write_through_stdout(monkeypatch)
    assert main(["table", "--n", "6", "--format", "csv"]) == 0
    assert raw.getvalue().decode() == stats_to_csv(interval_statistics(6)) + "\n"
    assert 1 <= raw.writes <= 4


def test_single_piece_output_is_one_write(monkeypatch):
    # the print-style newline goes out with the text
    raw = write_through_stdout(monkeypatch)
    assert main(["poly", "--n", "2"]) == 0
    assert raw.getvalue() == b"x xbar + y + ybar\n"
    assert raw.writes == 1


def test_table_q_pair(capsys):
    code, out = run(capsys, "table", "--n", "3", "--pair", "q,dy", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 13
    assert sum(sum(row) for row in doc["matrix"]) == 13


def test_table_rejects_bad_pairs():
    assert run_error("table", "--n", "3", "--pair", "dx,zz") == 2
    assert run_error("table", "--n", "8", "--pair", "q,dy") == 2
    assert run_error("table", "--n", "3", "--threads", "0") == 2


# -------------------------------------------------------------------- trees

def test_trees_text_rows(capsys):
    code, out = run(capsys, "trees", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    index, tree, cano, comp = lines[4].split("\t")
    assert (index, tree, cano, comp) == ("4", "(o (o (o o)))", "LLLR", "3")


def test_trees_json_fields(capsys):
    code, out = run(capsys, "trees", "--n", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"index": 0, "tree": "((o o) o)", "canopy": "LRR", "composition": [1, 1]},
        {"index": 1, "tree": "(o (o o))", "canopy": "LLR", "composition": [2]},
    ]


def test_trees_rejects_out_of_range():
    assert run_error("trees", "--n", "0") == 2
    assert run_error("trees", "--n", "10") == 2


# ------------------------------------------------------------------- output

def test_output_writes_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    code = main(["poly", "--n", "2", "--output", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().strip() == "x xbar + y + ybar"


def test_output_unwritable_path_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "out.txt"
    code = main(["poly", "--n", "2", "--output", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


def test_repeated_runs_are_identical(capsys):
    first = run(capsys, "series", "--mode", "full", "--N", "5")
    second = run(capsys, "series", "--mode", "full", "--N", "5")
    assert first == second


def test_missing_command_is_usage_error():
    assert run_error() == 2
