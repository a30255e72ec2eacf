import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homsuper as hs
from homsuper import cli
from homsuper import freealg as fa


def corpus_file(name):
    return str([p for p in hs.corpus_paths() if p.name == name][0])


def run_python(*args):
    """A fresh interpreter that imports the same homsuper as these tests."""
    path = [str(Path(hs.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_verify_leibniz_suite_passes(capsys):
    code = cli.main(["verify", corpus_file("leibniz_a2_b.json"),
                     "--suite", "leibniz"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 3 and "FAIL" not in out


def test_verify_lie_suite_fails_with_counterexample(capsys):
    code = cli.main(["verify", corpus_file("leibniz_a2_b.json"),
                     "--suite", "lie"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL SKEW_SUPER" in out
    assert "(b1,b1)" in out


def test_verify_zero_algebra_all_suite(capsys):
    code = cli.main(["verify", corpus_file("zero_1_1.json"), "--suite", "all"])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_json_report_stream(capsys):
    code = cli.main(["verify", corpus_file("leibniz_f2_e.json"),
                     "--suite", "leibniz", "--report", "json"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["name"] for r in records] == ["grading", "multiplicativity",
                                            "LLSI"]
    assert all(r["passed"] for r in records)


def test_verify_missing_file_exits_2(capsys):
    code = cli.main(["verify", "/nonexistent/thing.json",
                     "--suite", "leibniz"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_multiple_files_deterministic_order(capsys):
    files = [corpus_file("leibniz_a2_b.json"), corpus_file("zero_1_1.json")]
    code = cli.main(["verify", *files, "--suite", "leibniz",
                     "--report", "json"])
    out = capsys.readouterr().out
    assert code == 0
    seen = [json.loads(line)["file"] for line in out.splitlines()]
    assert seen == [files[0]] * 3 + [files[1]] * 3


def test_workers_variable_starts_no_process_pool(capsys, monkeypatch):
    # Search and verify run in one process whatever HOMSUPER_WORKERS says.
    def refuse(*args, **kwargs):
        raise AssertionError("started a process pool")

    monkeypatch.setenv("HOMSUPER_WORKERS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    spec = hs.SearchSpec((1, 1), coeffs=("-1", "0", "1"))
    assert spec.space_size() >= 4
    outcome = hs.run_search(spec)
    assert outcome.examined == spec.space_size() and outcome.documents
    files = [corpus_file("leibniz_a2_b.json"), corpus_file("zero_1_1.json")]
    assert cli.main(["verify", *files, "--suite", "leibniz"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == \
        [files[0]] * 3 + [files[1]] * 3


def test_construct_ly_writes_verified_document(capsys, tmp_path):
    out_path = tmp_path / "ly.json"
    code = cli.main(["construct", corpus_file("leibniz_f2_e.json"),
                     "--target", "ly", "--out", str(out_path)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "binary_ternary"
    assert doc["metadata"]["expected"] == {"ly": True}
    assert all(doc["metadata"]["verdicts"].values())
    loaded = hs.load_algebra(out_path)
    assert all(r.passed for r in hs.check_suite("ly", loaded))


def test_construct_ly_from_zero_algebra(capsys, tmp_path):
    out_path = tmp_path / "zero_ly.json"
    code = cli.main(["construct", corpus_file("zero_1_1.json"),
                     "--target", "ly", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["product"] == [] and doc["ternary"] == []


def test_construct_akivis_records_leibniz_form_verdict(capsys, tmp_path):
    out_path = tmp_path / "akivis.json"
    code = cli.main(["construct", corpus_file("nonleibniz_a2_ab.json"),
                     "--target", "akivis", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["metadata"]["expected"] == {"akivis": True}
    assert doc["metadata"]["akivis_leibniz_form_source"] is False

    code = cli.main(["construct", corpus_file("leibniz_f2_e.json"),
                     "--target", "akivis", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["metadata"]["akivis_leibniz_form_source"] is True
    capsys.readouterr()


def test_construct_refuses_bad_precondition(capsys, tmp_path):
    code = cli.main(["construct", corpus_file("nonleibniz_a2_ab.json"),
                     "--target", "ly", "--out", str(tmp_path / "no.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "LLSI" in err and "b1" in err
    assert not (tmp_path / "no.json").exists()


def test_construct_into_a_missing_directory_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing" / "ly.json"
    code = cli.main(["construct", corpus_file("leibniz_f2_e.json"),
                     "--target", "ly", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert str(out_path) in captured.err


@pytest.mark.parametrize("text", [" 3", "+1", "1_0", "\u0663", ".5", "5."])
def test_verify_refuses_a_loose_rational_with_one_error_line(capsys,
                                                              tmp_path, text):
    # Fraction() reads all of these; the document format reads none.
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"dims": {"even": 1, "odd": 0},
                                "product": [[1, 1, 1, text]]}),
                    encoding="utf-8")
    code = cli.main(["verify", str(path), "--suite", "leibniz"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "invalid rational" in captured.err


def test_verify_refuses_a_misspelt_field_with_one_error_line(capsys,
                                                             tmp_path):
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps({"dims": {"even": 2, "odd": 0},
                                "prodcut": [[1, 1, 2, "1"]]}),
                    encoding="utf-8")
    code = cli.main(["verify", str(path), "--suite", "leibniz"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "unknown field 'prodcut'" in captured.err


@pytest.mark.parametrize("make_out_dir", [
    lambda tmp_path: tmp_path / "file",  # an existing file
    lambda tmp_path: tmp_path / "file" / "hits",  # a path under a file
], ids=["existing-file", "under-a-file"])
def test_search_into_a_bad_out_dir_exits_2(capsys, tmp_path, make_out_dir):
    (tmp_path / "file").write_text("")
    out_dir = make_out_dir(tmp_path)
    code = cli.main(["search", "--dims", "1,1", "--coeffs", "0,1",
                     "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert (tmp_path / "file").read_text() == ""


def test_prove_exit_codes(capsys):
    assert cli.main(["prove", "akivis-free"]) == 0
    out = capsys.readouterr().out
    assert "PROVED akivis-free" in out
    assert cli.main(["prove", "unknown-target"]) == 2


def test_prove_rewrite_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(fa, "_STEP_LIMIT", 3)
    code = cli.main(["prove", "shly8", "--report", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: rewrite step limit exceeded\n"


def test_prove_json_record(capsys):
    code = cli.main(["prove", "shly8", "--report", "json"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "PROVED"
    assert record["checked"] == 32


def test_search_stream_and_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "hits"
    code = cli.main(["search", "--dims", "1,1", "--coeffs", "0,1",
                     "--suite", "leibniz", "--report", "json",
                     "--out-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["space_size"] == 16
    docs = records[1:-1]
    assert records[-1]["found"] == len(docs)
    written = sorted(out_dir.glob("*.json"))
    assert len(written) == len(docs)
    for path, doc in zip(written, docs):
        assert json.loads(path.read_text()) == doc


def test_search_rejects_bad_dims(capsys):
    assert cli.main(["search", "--dims", "nope"]) == 2
    capsys.readouterr()
    # A negative dimension and a result cap below 1 are typed errors too.
    for args in (["--dims=-1,1"], ["--dims", "1,1", "--max", "0"],
                 ["--dims", "1,1", "--max", "-3"]):
        assert cli.main(["search", *args, "--coeffs=-1,0,1"]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_search_rejects_a_negative_budget(capsys):
    assert cli.main(["search", "--dims", "1,1", "--budget-ms", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the time budget must be nonnegative, "
                            "got -5 ms\n")
    # A zero budget is valid: the scan stops at once, flagged partial.
    assert cli.main(["search", "--dims", "1,1", "--budget-ms", "0"]) == 0
    assert capsys.readouterr().out.endswith("(partial)\n")


def test_search_rejects_oversized_space(capsys):
    code = cli.main(["search", "--dims", "3,3", "--coeffs=-1,0,1"])
    assert code == 2
    assert "space" in capsys.readouterr().err


def test_search_refuses_a_huge_space_before_any_output(capsys):
    # 3^8000, 3^15625 and 3^1000000 candidates: none of these numbers is
    # formatted, and no slot is built.
    for dims in ("20,0", "25,0", "100,0"):
        assert cli.main(["search", "--dims", dims, "--coeffs=-1,0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: search space has more than "
                                "10000000 candidates\n"), dims


def test_verify_unknown_suite_exits_2(capsys):
    code = cli.main(["verify", corpus_file("zero_1_1.json"),
                     "--suite", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: unknown suite or law: bogus\n"
    assert captured.out == ""


def test_search_unknown_suite_exits_2(capsys):
    code = cli.main(["search", "--dims", "1,1", "--suite", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: unknown suite or law: bogus\n"
    assert captured.out == ""


def test_search_zero_denominator_coefficient_exits_2(capsys):
    code = cli.main(["search", "--dims", "1,1", "--coeffs", "1/0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: coefficient '1/0'")


def test_search_non_rational_coefficient_exits_2(capsys):
    code = cli.main(["search", "--dims", "1,1", "--coeffs", "x"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: coefficient 'x'")


def test_search_refuses_decimal_exponents(capsys):
    for args, what in ((["--coeffs", "0,1e300000"], "coefficient"),
                       (["--coeffs=-1,0,1", "--alpha", "diag:1,2E3"],
                        "diagonal")):
        code = cli.main(["search", "--dims", "1,1", *args])
        captured = capsys.readouterr()
        assert code == 2, args
        assert captured.err.startswith("error: %s '" % what), args
        assert captured.out == ""
    assert cli.main(["search", "--dims", "1,0", "--coeffs", "0,0.5",
                     "--alpha", "diag:0.5,1"]) == 0


def test_search_suite_needing_ternary_slot_exits_2(capsys):
    code = cli.main(["search", "--dims", "1,1", "--suite", "akivis"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: algebra has no '{,,}' operation\n"
    assert captured.out == ""


def test_import_does_not_load_the_process_pool():
    # Nor the modules a dataclass pulls in, which stay resident.
    unwanted = ["concurrent.futures", "dataclasses", "inspect", "ast"]
    proc = run_python("-c", "import sys, homsuper; print([name for name in "
                      "%r if name in sys.modules])" % unwanted)
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


def test_console_entry_point_runs():
    proc = run_python("-m", "homsuper.cli", "prove", "prop32-i")
    assert proc.returncode == 0
    assert "PROVED prop32-i" in proc.stdout
