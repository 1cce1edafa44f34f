import hashlib
import subprocess
import sys

import pytest

from wred.cli import main
from wred.harness import (
    InstanceDocument,
    Report,
    ReportRow,
    SuiteConfig,
    failure,
    load_instance,
    parse_document,
    run_suite,
)
from wred.kernel import ContractError, InputError, Prefix, ResourceError
from wred.problems import Coloring, measure_at_level


# --- documents -----------------------------------------------------------------


def test_coloring_table_roundtrip():
    f = Coloring(2, 3, lambda t: (t[0] + 2 * t[1]) % 3, "demo")
    doc = InstanceDocument(kind="coloring", representation="table",
                           params={"arity": 2, "colors": 3},
                           entries=[t + (f.value(t),) for t in f.tuples(range(8))])
    text = doc.to_text()
    loaded = load_instance(parse_document(text))
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


@pytest.mark.parametrize("task, body, match", [
    ("homogeneous", "kind: coloring\nparam arity: 1\nparam colors: omega\nentry: 0 -1\n",
     r"color -1 out of range in entry \(0, -1\)"),
    ("thin", "kind: coloring\nparam arity: 2\nparam colors: 2\nentry: 1 0 1\n",
     r"table entry \(1, 0, 1\): \(1, 0\) is not an increasing tuple"),
    ("thin", "kind: coloring\nparam arity: 2\nparam colors: 2\nentry: 0 1 0\nentry: 0 1 1\n",
     r"table entry \(0, 1, 1\) repeats the tuple \(0, 1\)"),
    ("paths", "kind: tree\nentry: 0\nentry: 0 2\n",
     r"table tree entry \(0, 2\) is not a string of bits"),
], ids=["omega-negative-color", "coloring-not-increasing", "coloring-repeat", "tree-non-bit"])
def test_table_documents_reject_entries_never_read(tmp_path, capsys, task, body, match):
    text = "wred-instance v1\nrepresentation: table\n" + body
    with pytest.raises(InputError, match=match):
        load_instance(parse_document(text))
    doc = tmp_path / "table.doc"
    doc.write_text(text)
    assert main(["oracle", task, "--input", str(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")


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


@pytest.mark.parametrize("field, value", [
    ("samples", -1), ("fuel", -1), ("size", 0), ("size", -3), ("horizon", 0),
])
def test_run_suite_rejects_bad_config(field, value):
    with pytest.raises(InputError, match="samples and fuel >= 0"):
        run_suite("rt_product", SuiteConfig(**{field: value}))


def test_run_suite_contract_error_is_an_error_row(monkeypatch):
    from wred import harness

    ran = []

    def run_entry(entry_id, *args):
        ran.append(entry_id)
        if entry_id == "rt_product":
            raise ContractError("witness broke an invariant")
        return []

    monkeypatch.setattr(harness, "run_entry", run_entry)
    report = run_suite("all", SuiteConfig(samples=1))
    assert ran == sorted(harness.ENTRIES)  # the run goes on past the broken entry
    assert [(r.entry, r.check, r.status, r.detail) for r in report.rows] == [
        ("rt_product", "run", "error", "contract: witness broke an invariant")]


@pytest.mark.parametrize("error", [ContractError("witness broke an invariant"),
                                   RecursionError("maximum recursion depth exceeded")],
                         ids=["contract", "recursion"])
def test_verify_entry_contract_error_exits_4(monkeypatch, tmp_path, capsys, error):
    from wred import harness

    def run_entry(entry_id, *args):
        raise error

    monkeypatch.setattr(harness, "run_entry", run_entry)
    out = tmp_path / "report.csv"
    assert main(["verify", "rt_product", "--out", str(out)]) == 4
    rows = out.read_text().splitlines()
    assert rows[1:] == [f"rt_product,rt_product,run,error,contract: {error},0,16,4096"]
    assert "traceback" not in capsys.readouterr().err.lower()


def test_cli_recursion_error_is_one_contract_line(monkeypatch, capsys):
    from wred import cli

    def deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "squash_markers", deep)
    assert main(["squash", "--config", "projection-toy"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "contract error: maximum recursion depth exceeded\n"


@pytest.mark.parametrize("error, kind, text", [
    (ResourceError("out of fuel", position=3), "resource", "out of fuel {'position': 3}"),
    (ContractError("witness broke an invariant"), "contract", "witness broke an invariant"),
    (RecursionError("maximum recursion depth exceeded"), "contract",
     "maximum recursion depth exceeded"),
    (TypeError("boom"), "contract", "TypeError: boom"),
], ids=["resource", "contract", "recursion", "other"])
def test_failure_classifies_an_exception(error, kind, text):
    assert failure(error) == (kind, text)


def test_an_unexpected_exception_in_a_step_breaks_only_its_entry(monkeypatch, tmp_path, capsys):
    """A TypeError in rt_product's forward step is one `contract:` error row:
    `verify all` still reports every other entry's rows, and `wred verify`
    writes one stderr line and exits 4."""
    from wred.catalog import ENTRIES
    from wred.combinators import Witness
    from wred.kernel import pointwise

    def boom(ctx, x):
        raise TypeError("boom")

    reference = run_suite("all", SuiteConfig(samples=1))
    entry = ENTRIES["rt_product"]
    build = entry.build

    def broken_build(**params):
        w = build(**params)
        return Witness(w.source, w.target, pointwise(1, boom, "boom"), w.backward, w.label,
                       w.solve_slack)

    monkeypatch.setattr(entry, "build", broken_build)
    expected = Report([r for r in reference.rows if r.entry != "rt_product"] + [ReportRow(
        "rt_product", "rt_product", "run", "error", "contract: TypeError: boom", 0, 16, 4096)])
    out = tmp_path / "report.csv"
    assert main(["verify", "all", "--samples", "1", "--out", str(out)]) == 4
    assert out.read_text() == expected.to_csv()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("# all: ") and "error=1" in err
    assert "traceback" not in err.lower()


def test_cli_unexpected_exception_is_one_contract_line(monkeypatch, capsys):
    from wred import cli

    def broken(*args):
        raise TypeError("boom")

    monkeypatch.setattr(cli, "squash_markers", broken)
    assert main(["squash", "--config", "projection-toy"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "contract error: TypeError: boom\n"


def test_report_deterministic_bytes():
    a = run_suite("rt_color_embed", SuiteConfig(samples=6, seed=3)).to_csv()
    b = run_suite("rt_color_embed", SuiteConfig(samples=6, seed=3)).to_csv()
    assert a == b


def test_verify_all_csv_bytes_pinned():
    csv = run_suite("all", SuiteConfig(samples=1, seed=0)).to_csv()
    assert len(csv.splitlines()) == 114
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "422c894c1e451363f84230c13772811735dc0a2deb81685bf441b91c6568c44f"
    )


def test_verify_all_csv_bytes_pinned_at_seed_3():
    # a second seed: the tree path solvers read other cells on other trees
    csv = run_suite("all", SuiteConfig(samples=1, seed=3)).to_csv()
    assert len(csv.splitlines()) == 114
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "f1593342f1407f0ab877d7ba089d31577dbf363bb5d5767c14094dcfa1b3f2d4"
    )


def test_verify_row_keeps_a_check_name_with_a_slash_whole():
    rows = run_suite("wkl_from_seqwwkl", SuiteConfig(samples=1)).rows
    levels = sorted((r.case_id, r.check) for r in rows if "levels[" in r.case_id + r.check)
    assert levels == [("WKL<=Seq(1/2-WWKL)", f"levels[{tree}/{sigma}]")
                      for tree in ("first-1", "full", "no-11")
                      for sigma in ("Prefix()", "Prefix(01)", "Prefix(1)")]


def test_report_exit_codes():
    r = Report()
    r.add(ReportRow("c", "e", "k", "pass", "", 0, 16, 100))
    assert r.exit_code() == 0
    r.add(ReportRow("c2", "e", "k", "fail", "boom", 0, 16, 100))
    assert r.exit_code() == 1
    r.add(ReportRow("c3", "e", "k", "error", "resource", 0, 16, 100))
    assert r.exit_code() == 2
    r.add(ReportRow("c4", "e", "k", "error", "contract: witness broke an invariant", 0, 16, 100))
    assert r.exit_code() == 4
    r.add(ReportRow("c5", "e", "k", "error", "resource", 0, 16, 100))
    assert r.exit_code() == 4


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


@pytest.mark.parametrize("rep, param", [
    ("rule\nparam rule: seeded", "seed"),
    ("table\nentry: 1 0", "tail"),
], ids=["seed", "tail"])
def test_non_integer_point_params_are_input_errors(rep, param):
    text = f"wred-instance v1\nkind: point\nrepresentation: {rep}\nparam {param}: x\n"
    with pytest.raises(InputError, match=f"param {param}: expected an integer"):
        load_instance(parse_document(text))


@pytest.mark.parametrize("body, match", [
    ("entry: 0 1 2\n", "point bit 2 is not 0/1"),
    ("entry: 1 -1\n", "point bit -1 is not 0/1"),
    ("entry: 0 1\nparam tail: 3\n", "point bit 3 is not 0/1"),
], ids=["entry-two", "entry-negative", "tail-three"])
def test_point_table_bits_out_of_range_are_input_errors(body, match):
    text = "wred-instance v1\nkind: point\nrepresentation: table\n" + body
    with pytest.raises(InputError, match=match):
        load_instance(parse_document(text))


@pytest.mark.parametrize("task, body", [
    ("homogeneous", "kind: coloring\nrepresentation: rule\nparam rule: parity-sum\n"
                    "param arity: two\n"),
    ("homogeneous", "kind: coloring\nrepresentation: table\nparam colors: three\n"),
    ("homogeneous", "kind: point\nrepresentation: rule\nparam rule: seeded\nparam seed: x\n"),
    ("homogeneous", "kind: point\nrepresentation: rule\nparam rule: zeros\n"),
    ("paths", "kind: point\nrepresentation: rule\nparam rule: zeros\n"),
    ("homogeneous", "kind: tree\nrepresentation: rule\nparam rule: no-11\n"),
    ("paths", "kind: tree\nrepresentation: rule\nparam rule: first-bit\nparam value: one\n"),
    ("sort", "kind: coloring\nrepresentation: rule\nparam rule: identity\n"),
], ids=["arity-two", "colors-three", "seed-x", "point-homogeneous", "point-paths",
        "tree-homogeneous", "value-one", "unknown-task"])
def test_cli_oracle_bad_documents_are_input_errors(tmp_path, capsys, task, body):
    doc = tmp_path / "bad.doc"
    doc.write_text("wred-instance v1\n" + body)
    assert main(["oracle", task, "--input", str(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"], ids=["missing", "not-utf8"])
def test_cli_oracle_unreadable_input_is_input_error(tmp_path, capsys, content):
    doc = tmp_path / "input.doc"
    if content is not None:
        doc.write_bytes(content)
    assert main(["oracle", "paths", "--input", str(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("task, body", [
    ("homogeneous", "param arity: -1\nentry:\n"),
    ("homogeneous", "param arity: -1\n"),
    ("thin", "param arity: -1\n"),
    ("rainbow", "param arity: -1\n"),
    ("homogeneous", "param arity: 0\nentry: 1\n"),
], ids=["negative-empty-entry", "negative-homogeneous", "negative-thin", "negative-rainbow",
        "zero"])
def test_cli_oracle_table_arity_below_one_is_input_error(tmp_path, capsys, task, body):
    doc = tmp_path / "table.doc"
    doc.write_text("wred-instance v1\nkind: coloring\nrepresentation: table\n" + body)
    assert main(["oracle", task, "--input", str(doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: param arity") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["verify"], ["nosuch"], ["verify", "rt_product", "--bogus"],
                                  ["squash", "--horizon", "x", "--config", "projection-toy"]],
                         ids=["missing-entry", "unknown-command", "unknown-option", "bad-int"])
def test_cli_usage_errors_are_input_errors(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


def test_cli_contract_error_is_one_line_and_its_own_exit_code(monkeypatch, capsys):
    from wred import cli
    from wred.harness import EXIT_CONTRACT

    def broken(selector, config):
        raise ContractError("witness broke an invariant")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert main(["verify", "rt_product"]) == EXIT_CONTRACT == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "contract error: witness broke an invariant\n"


@pytest.mark.parametrize("argv", [["--samples", "-1"], ["--fuel", "-1"], ["--size", "-3"],
                                  ["--size", "0"], ["--horizon", "0"]])
def test_cli_verify_bad_numbers_are_input_errors(tmp_path, capsys, argv):
    out = tmp_path / "report.csv"
    assert main(["verify", "rt_product", *argv, "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_help_exits_zero(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: wred" in capsys.readouterr().out


@pytest.mark.parametrize("name, param", [
    ("ts1", "k=x"),
    ("delta2", "k=x"),
    ("qwwkl-cutter", "psi=nope"),
    ("qwwkl-cutter", "p=1/0"),
    ("delta2", "guesser=nope"),
    ("cm", "phi=nope"),
], ids=["ts1-k", "delta2-k", "psi", "p-zero-denominator", "guesser", "phi"])
def test_cli_adversary_bad_params_are_input_errors(capsys, name, param):
    assert main(["adversary", name, "--param", param, "--stages", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("name, param, read", [
    ("ts1", "kk=3", "j, k, phi, psi"),
    ("qwwkl-cutter", "P=1/3", "p, q, psi, phi, fuel"),
    ("cm", "bogus=1", "phi"),
], ids=["ts1-kk", "qwwkl-P", "cm-bogus"])
def test_cli_adversary_unread_params_are_input_errors(tmp_path, capsys, name, param, read):
    out = tmp_path / "log.csv"
    assert main(["adversary", name, "--param", param, "--out", str(out)]) == 3
    assert not out.exists()
    key = param.split("=")[0]
    assert capsys.readouterr().err == f"input error: {name} reads no --param {key}; it reads {read}\n"


def test_cli_adversary_out_directory_is_input_error(tmp_path, capsys):
    assert main(["adversary", "cm", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write the --out file: ") and err.count("\n") == 1


def test_cli_verify_out_in_missing_directory_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.csv"
    assert main(["verify", "rt_product", "--samples", "1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write the --out file: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_cli_adversary_negative_fuel_is_input_error(tmp_path, capsys):
    out = tmp_path / "log.csv"
    assert main(["adversary", "qwwkl-cutter", "--param", "fuel=-5", "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == "input error: need fuel >= 0, got -5\n"


def test_cli_adversary_params_name_what_each_adversary_reads(monkeypatch, capsys):
    """Each adversary's declared --param keys are parsed in their declared
    order, and its run reads every one of them."""
    from wred import cli

    parsed, param = [], cli._param
    monkeypatch.setattr(cli, "_param", lambda params, key, *rest: parsed.append(key) or param(
        params, key, *rest))
    used = []

    class Inputs(dict):
        def __getitem__(self, key):
            used.append(key)
            return super().__getitem__(key)

    for name, (run, keys) in list(cli.ADVERSARIES.items()):
        parsed.clear(), used.clear()
        monkeypatch.setitem(cli.ADVERSARIES, name, (lambda a, run=run: run(Inputs(a)), keys))
        assert main(["adversary", name, "--stages", "1"]) == 0
        assert parsed == list(keys), name
        assert set(used) - {"stages"} == set(keys), name
    capsys.readouterr()


@pytest.mark.parametrize("name", ["qwwkl-cutter", "ts1", "delta2", "cm"])
def test_cli_adversary_negative_stages_is_input_error(tmp_path, capsys, name):
    out = tmp_path / "log.csv"
    assert main(["adversary", name, "--stages", "-1", "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("input error: --stages")


def test_cli_squash(tmp_path):
    out = tmp_path / "squash.txt"
    code = main(["squash", "--config", "projection-toy", "--horizon", "12",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("marker: 0 1 2")
    assert "B_0: 000000000000" in text


def test_cli_squash_unreadable_config_is_input_error(tmp_path, capsys):
    # a --config path that exists but is not a readable text file
    binary = tmp_path / "config.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path, binary):
        assert main(["squash", "--config", str(path), "--horizon", "12"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


def test_cli_squash_bad_horizon_or_count_is_input_error(capsys):
    # --count 10 needs m_10, past the 8 stages of horizon 2; before, an IndexError
    for argv in (["--horizon", "2", "--count", "10"], ["--count", "-1"], ["--horizon", "-3"]):
        assert main(["squash", "--config", "projection-toy", *argv]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


# sha256 of `wred squash --config C --horizon 300` stdout: the deepest squash
# pin, where one B_i(x) read pulls the most display levels
SQUASH_H300_SHA = {
    "coh-interleave": "1548cd93aecdfaa333870a3c33f48081d38d7f1275910fba4b24b20191091a11",
    "projection-toy": "a1bbaaed25a0206de245582d9761af31add27aa934b4b9c4ee4ae05ab88c4173",
    "trivial-q-rt12": "a1bbaaed25a0206de245582d9761af31add27aa934b4b9c4ee4ae05ab88c4173",
}


def test_cli_squash_horizon_300_pinned(capsys):
    for name, want in SQUASH_H300_SHA.items():
        assert main(["squash", "--config", name, "--horizon", "300"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, name


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


def test_cli_oracle_paths_negative_depth_is_input_error(tmp_path, capsys):
    doc = tmp_path / "tree.doc"
    doc.write_text("wred-instance v1\nkind: tree\nrepresentation: rule\nparam rule: no-11\n")
    assert main(["oracle", "paths", "--input", str(doc), "--depth", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "input error: level must be >= 0\n"


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
