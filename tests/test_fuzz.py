"""Derandomized fuzzing of the input surfaces: instance documents, `wred
oracle`, `wred squash --config` documents and `wred adversary --param`
values.  Whatever the input, a document either loads or is an InputError,
and the command ends in a documented exit code, with no exception but an
input, resource or contract error reaching `main`'s error arms.  Example
counts keep the whole module to about 2 s."""

from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

from wred import cli
from wred.catalog import SQUASH_CONFIGS
from wred.cli import ORACLE_TASKS
from wred.harness import failure, load_instance, parse_document
from wred.kernel import ContractError, InputError, ResourceError

EXIT_CODES = {0, 1, 2, 3, 4}
FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

NEGATIVE_ARITY_TABLE = ("wred-instance v1\nkind: coloring\nrepresentation: table\n"
                        "param arity: -1\nentry:\n")
PARAM_WITHOUT_COLON = "wred-instance v1\nkind: point\nrepresentation: rule\nparam x\n"

small_ints = st.integers(-3, 6).map(str)
words = st.sampled_from(["", "x", "omega", "w", "1/2", "3/4", "1/0", "-1/2", "zeros", "ones",
                         "seeded", "parity-sum", "constant", "mod-min", "identity", "full",
                         "no-11", "first-bit", "echo", "zero", "echo-shift", "spin", "embed23",
                         "single", "evens", "empty", "nope"])
junk = st.text(alphabet=" :#=-/019abx\u00e9\t\x00", max_size=12)
values = small_ints | words | junk
int_args = st.sampled_from(["-1", "0", "1", "2", "4", "6", "x"])

def _typed_failure(e):
    """`harness.failure`, re-raising an exception of no documented type."""
    if not isinstance(e, (ResourceError, ContractError, RecursionError)):
        raise e
    return failure(e)


def main(argv) -> int:
    """`cli.main`, where an unexpected exception escapes as a crash instead
    of being reported as a contract error."""
    with mock.patch.object(cli, "failure", _typed_failure):
        return cli.main(argv)


doc_lines = st.one_of(
    st.sampled_from(["kind: coloring", "kind: tree", "kind: point", "kind: x",
                     "representation: table", "representation: rule", "representation:",
                     "# comment", "", "junk", "entry", "param x", "kind"]),
    st.builds("param {}: {}".format,
              st.sampled_from(["arity", "colors", "rule", "seed", "value", "tail", "domain", "x"]),
              values),
    st.lists(st.integers(-1, 3).map(str) | st.just("x"), max_size=4).map(
        lambda es: "entry: " + " ".join(es)),
    junk,
)
documents = st.builds(
    lambda header, lines: "\n".join([header, *lines]) + "\n",
    st.sampled_from(["wred-instance v1"] * 6 + ["", "wred-instance v2"]),
    st.lists(doc_lines, max_size=8),
)


@settings(FUZZ, max_examples=100)
@example(NEGATIVE_ARITY_TABLE)
@example(PARAM_WITHOUT_COLON)
@given(documents)
def test_documents_load_or_are_input_errors(text):
    try:
        load_instance(parse_document(text))
    except InputError:
        pass


@settings(FUZZ, max_examples=60)
@example(NEGATIVE_ARITY_TABLE, "homogeneous", "16", "4", "6")
@given(documents, st.sampled_from(sorted(ORACLE_TASKS) + ["x"]), int_args, int_args,
       int_args)
def test_cli_oracle_exits_with_a_documented_code(tmp_path, text, task, horizon, size, depth):
    doc = tmp_path / "instance.doc"
    doc.write_text(text)
    assert main(["oracle", task, "--input", str(doc), "--horizon", horizon, "--size", size,
                 "--depth", depth]) in EXIT_CODES


@settings(FUZZ, max_examples=30)
@given(st.sampled_from(["config: ", "# c\nconfig: ", "", "x\n"]),
       st.sampled_from(sorted(SQUASH_CONFIGS) + ["nope", ""]),
       st.sampled_from(["-1", "0", "1", "4", "8"]), st.sampled_from(["-1", "0", "1", "3"]),
       st.none() | st.sampled_from(["-1", "0", "4", "10"]))
def test_cli_squash_config_documents_exit_with_a_documented_code(tmp_path, head, name, horizon,
                                                                 count, stages):
    cfg = tmp_path / "squash.cfg"
    cfg.write_text(head + name + "\n")
    argv = ["squash", "--config", str(cfg), "--horizon", horizon, "--count", count]
    assert main(argv + ([] if stages is None else ["--stages", stages])) in EXIT_CODES


@settings(FUZZ, max_examples=60)
@given(st.sampled_from(["qwwkl-cutter", "ts1", "delta2", "cm", "arb-bounds", "column-splitter",
                        "x"]),
       st.lists(st.builds("{}{}{}".format,
                          st.sampled_from(["p", "q", "psi", "phi", "fuel", "j", "k", "guesser",
                                           "columns", "x"]),
                          st.sampled_from(["=", "", "=="]), values), max_size=3),
       st.sampled_from(["-1", "0", "1", "3"]))
def test_cli_adversary_params_exit_with_a_documented_code(name, params, stages):
    argv = ["adversary", name, "--stages", stages]
    for param in params:
        argv += ["--param", param]
    assert main(argv) in EXIT_CODES

