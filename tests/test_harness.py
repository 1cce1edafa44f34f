import hashlib
import subprocess
import sys

import pytest

from wred.cli import main
from wred.harness import (
    Report,
    ReportRow,
    SuiteConfig,
    load_instance,
    parse_document,
    run_suite,
    save_coloring_table,
)
from wred.kernel import InputError, Prefix
from wred.problems import Coloring, TreeByRule, measure_at_level


# --- documents -----------------------------------------------------------------


def test_coloring_table_roundtrip():
    f = Coloring(2, 3, lambda t: (t[0] + 2 * t[1]) % 3, "demo")
    doc = save_coloring_table(f, 8)
    text = doc.to_text()
    loaded, table = load_instance(parse_document(text))
    for t in f.tuples(range(8)):
        assert loaded.value(t) == f.value(t)
    assert parse_document(text).to_text() == text  # byte-exact round trip


def test_rule_document_resolves():
    doc = parse_document(
        "wred-instance v1\nkind: coloring\nrepresentation: rule\n"
        "param rule: parity-sum\nparam arity: 2\nparam colors: 2\n"
    )
    f = load_instance(doc)
    assert f.value((1, 2)) == 1 and f.value((1, 3)) == 0


def test_document_rejects_bad_color():
    text = ("wred-instance v1\nkind: coloring\nrepresentation: table\n"
            "param arity: 1\nparam colors: 2\nentry: 0 5\n")
    with pytest.raises(InputError, match="out of range"):
        load_instance(parse_document(text))


def test_document_rejects_malformed_line():
    with pytest.raises(InputError, match="line 2"):
        parse_document("wred-instance v1\nbogus content\n")


def test_document_rejects_bad_header():
    with pytest.raises(InputError, match="line 1"):
        parse_document("not-a-doc\n")


def test_tree_document_and_closure_check():
    text = ("wred-instance v1\nkind: tree\nrepresentation: table\n"
            "entry: 0\nentry: 0 0\n")
    t = load_instance(parse_document(text))
    assert Prefix((0, 0)) in t and Prefix((1,)) not in t
    bad = ("wred-instance v1\nkind: tree\nrepresentation: table\nentry: 0 0\n")
    with pytest.raises(InputError, match="downward"):
        load_instance(parse_document(bad))


def test_point_document():
    doc = parse_document(
        "wred-instance v1\nkind: point\nrepresentation: rule\nparam rule: alternating\n"
    )
    p = load_instance(doc)
    assert [p.bit(i) for i in range(4)] == [0, 1, 0, 1]


def test_tree_rule_document():
    doc = parse_document(
        "wred-instance v1\nkind: tree\nrepresentation: rule\nparam rule: no-11\n"
    )
    t = load_instance(doc)
    from fractions import Fraction

    assert measure_at_level(t, 4) == Fraction(8, 16)


# --- suite runner ----------------------------------------------------------------


def test_run_suite_single_entry_all_pass():
    report = run_suite("rt_product", SuiteConfig(samples=5, seed=7))
    assert report.rows
    assert all(r.status != "fail" for r in report.rows)
    assert report.exit_code() == 0


def test_run_suite_unknown_selector():
    with pytest.raises(InputError):
        run_suite("nonsense", SuiteConfig())


def test_report_deterministic_bytes():
    a = run_suite("rt_color_embed", SuiteConfig(samples=6, seed=3)).to_csv()
    b = run_suite("rt_color_embed", SuiteConfig(samples=6, seed=3)).to_csv()
    assert a == b


def test_verify_all_csv_bytes_pinned():
    csv = run_suite("all", SuiteConfig(samples=1, seed=0)).to_csv()
    assert len(csv.splitlines()) == 114
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "760ee069e37f948eebd755dbbd4b8b2f4f5ac845f34b6480f7ba3839cc82e3c6"
    )


def test_report_exit_codes():
    r = Report()
    r.add(ReportRow("c", "e", "k", "pass", "", 0, 16, 100))
    assert r.exit_code() == 0
    r.add(ReportRow("c2", "e", "k", "fail", "boom", 0, 16, 100))
    assert r.exit_code() == 1
    r.add(ReportRow("c3", "e", "k", "error", "resource", 0, 16, 100))
    assert r.exit_code() == 2


def test_report_rows_sorted_by_case():
    r = Report()
    r.add(ReportRow("z", "e", "k", "pass", "", 0, 16, 100))
    r.add(ReportRow("a", "e", "k", "pass", "", 0, 16, 100))
    lines = r.to_csv().splitlines()
    assert lines[1].startswith("a") and lines[2].startswith("z")


# --- CLI -----------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rt_product" in out and "squash configs" in out


def test_cli_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["verify", "rt_product", "--samples", "4", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("case_id,entry,check,status")
    assert "fail" not in text.split("\n", 1)[1] or "pass" in text


def test_cli_verify_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["verify", "ts_collapse", "--samples", "4", "--seed", "9",
                     "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_unknown_entry_is_input_error(capsys):
    assert main(["verify", "nope"]) == 3


def test_cli_squash(tmp_path):
    out = tmp_path / "squash.txt"
    code = main(["squash", "--config", "projection-toy", "--horizon", "12",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("marker: 0 1 2")
    assert "B_0: 000000000000" in text


def test_cli_adversary_qwwkl(tmp_path):
    out = tmp_path / "log.csv"
    code = main(["adversary", "qwwkl-cutter", "--param", "p=1/2", "--param", "q=3/4",
                 "--stages", "16", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("stage,case")
    assert ",2," in text  # some action stage fired


def test_cli_adversary_rerun_byte_identical(tmp_path):
    blobs = []
    for name in ("x.csv", "y.csv"):
        path = tmp_path / name
        assert main(["adversary", "ts1", "--stages", "16", "--out", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_oracle_roundtrip(tmp_path):
    doc = tmp_path / "inst.doc"
    doc.write_text(
        "wred-instance v1\nkind: coloring\nrepresentation: rule\n"
        "param rule: parity-sum\nparam arity: 2\nparam colors: 2\n"
    )
    code = main(["oracle", "homogeneous", "--input", str(doc), "--horizon", "8",
                 "--size", "4"])
    assert code == 0


def test_cli_oracle_paths(tmp_path, capsys):
    doc = tmp_path / "tree.doc"
    doc.write_text("wred-instance v1\nkind: tree\nrepresentation: rule\nparam rule: no-11\n")
    assert main(["oracle", "paths", "--input", str(doc), "--depth", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 8  # Fibonacci count at depth 4


def test_console_script_entrypoint():
    import os
    from pathlib import Path

    import wred

    # the child imports the same package however pytest found it
    env = dict(os.environ, PYTHONPATH=str(Path(wred.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wred.cli", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and "rt_product" in proc.stdout


def test_cli_oracle_thin_rainbow_min(tmp_path, capsys):
    doc = tmp_path / "c.doc"
    doc.write_text(
        "wred-instance v1\nkind: coloring\nrepresentation: rule\n"
        "param rule: mod-min\nparam arity: 1\nparam colors: 3\n"
    )
    assert main(["oracle", "thin", "--input", str(doc), "--horizon", "9", "--size", "6"]) == 0
    out = capsys.readouterr().out
    assert "found" in out and "omitted=0" in out
    doc2 = tmp_path / "inj.doc"
    doc2.write_text(
        "wred-instance v1\nkind: coloring\nrepresentation: rule\nparam rule: identity\n"
    )
    assert main(["oracle", "rainbow", "--input", str(doc2), "--horizon", "8",
                 "--size", "5"]) == 0
    assert "found (greedy): 0 1 2 3 4" in capsys.readouterr().out
    doc3 = tmp_path / "mm.doc"
    doc3.write_text(
        "wred-instance v1\nkind: coloring\nrepresentation: rule\n"
        "param rule: mod-min\nparam arity: 2\nparam colors: 3\n"
    )
    assert main(["oracle", "min-homogeneous", "--input", str(doc3), "--horizon", "8",
                 "--size", "4"]) == 0
