"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbev
from orbev.cli import (
    _COMMANDS,
    _OPTIONS,
    CliUsageError,
    _build_parser,
    _command_parser,
    _option_fields,
    _parse,
    _read,
    dumps_canonical,
    main,
)
from orbev.epoly import SPACES, BivariatePolynomial
from orbev.lattice_core import IntegerMatrix
from orbev.orbifold_engine import ClassContribution
from oracles import from_json_terms, from_text, json_terms

P = BivariatePolynomial
G2_PATH = str(Path(__file__).parent / "data" / "g2.datum")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(args):
    buf = io.StringIO()
    code = main(args, out=buf)
    return code, buf.getvalue()


def json_dumps_reference(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# Strings mix arbitrary text with the characters JSON escapes or must not escape.
json_strings = st.text(st.sampled_from('"\\/\n\t\r\b\f\x00\x1f\x7f ä€😀a') | st.characters(), max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | json_strings,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(json_strings, children, max_size=5),
    max_leaves=40,
)

# Report objects the writer takes as values: polynomials with wide int
# coefficients of either sign (the zero polynomial among them), integer
# matrices of any shape, empty rows and columns included, and class terms
# built of both, at any depth, since the writer's class-row memo keys on the indent.
coefficients = st.integers(-(2**70), 2**70)
polynomials = st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)), coefficients, max_size=8).map(P)
matrices = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-(2**40), 2**40), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: IntegerMatrix(shape[0], shape[1], rows))
)
class_terms = st.builds(ClassContribution, matrices, st.integers(), st.integers(), st.integers(),
                        st.lists(st.integers(-(2**40), 2**40), max_size=3).map(tuple), polynomials, polynomials)
report_values = st.recursive(
    st.just(P.zero()) | polynomials | matrices | class_terms | st.integers() | json_strings | st.none() | st.booleans(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=20,
)


def plain(obj):
    """obj with each polynomial as its term dicts, matrix as its rows and class term as its row, for json.dumps."""
    if isinstance(obj, ClassContribution):
        return plain({
            "class_rep": obj.representative,
            "class_size": obj.class_size,
            "centralizer_order": obj.centralizer_order,
            "shift": obj.shift,
            "pi0_divisors": list(obj.pi0_divisors),
            "average_poly": obj.average,
            "weighted_poly": obj.weighted,
        })
    if isinstance(obj, BivariatePolynomial):
        return json_terms(obj)
    if isinstance(obj, IntegerMatrix):
        return [list(row) for row in obj.entries]
    if isinstance(obj, list):
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


class TestCompute:
    def test_sl2_betti_json(self):
        code, out = run_cli(["compute", "--group", "sl", "2", "1", "--space", "betti"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config_echo"]["command"] == "compute"
        assert len(doc["classes"]) == 2
        total = from_json_terms(doc["total"])
        assert total == P.monomial(2, 2) + P.monomial(1, 1, 4) + P.one()

    def test_class_records_have_required_fields(self):
        _, out = run_cli(["compute", "--group", "sl", "2", "1", "--space", "dolbeault"])
        doc = json.loads(out)
        for record in doc["classes"]:
            assert set(record) == {
                "class_rep",
                "class_size",
                "centralizer_order",
                "shift",
                "pi0_divisors",
                "average_poly",
                "weighted_poly",
            }

    def test_json_round_trips_byte_identical(self):
        _, out = run_cli(["compute", "--group", "sl", "3", "1", "--space", "betti"])
        assert json_dumps_reference(json.loads(out)) == out

    def test_text_and_json_encode_same_polynomial(self):
        args = ["compute", "--group", "sl", "2", "2", "--space", "abelian-surface"]
        _, json_out = run_cli(args)
        _, text_out = run_cli(args + ["--format", "text"])
        total_line = next(l for l in text_out.splitlines() if l.startswith("total: "))
        assert from_json_terms(json.loads(json_out)["total"]) == from_text(total_line.removeprefix("total: "))

    def test_deterministic_output(self):
        args = ["compute", "--group", "classical", "B", "2", "sc", "--space", "betti"]
        assert run_cli(args) == run_cli(args)

    def test_custom_datum(self):
        code, out = run_cli(["compute", "--group", "custom", G2_PATH, "--space", "betti"])
        assert code == 0
        assert json.loads(out)["config_echo"]["group"] == ["custom", G2_PATH]

    def test_classical_form_alias(self):
        code_long, out_long = run_cli(
            ["compute", "--group", "classical", "C", "2", "adjoint", "--space", "betti"]
        )
        code_short, out_short = run_cli(
            ["compute", "--group", "classical", "C", "2", "ad", "--space", "betti"]
        )
        assert code_long == code_short == 0
        assert json.loads(out_long)["total"] == json.loads(out_short)["total"]


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_writer_matches_json_dumps(self, obj):
        assert dumps_canonical(obj) == json_dumps_reference(obj)

    @settings(max_examples=300, deadline=None)
    @given(report_values)
    def test_report_objects_written_as_their_plain_form(self, obj):
        assert dumps_canonical(obj) == json_dumps_reference(plain(obj))

    def test_one_class_term_at_several_depths(self):
        """A term written at one indent, again at it, and at deeper ones, as json.dumps writes its row each time."""
        c = ClassContribution(IntegerMatrix(2, 2, [[0, -1], [1, 0]]), 2, 4, 2, (2,), P.monomial(1, 1, 3) + P.one(),
                              P.monomial(3, 3, 3) + P.monomial(2, 2))
        for obj in (c, [c, c], {"classes": [c, {"again": [c]}], "first": c}, [[[c]], c, ClassContribution(*c)]):
            assert dumps_canonical(obj) == json_dumps_reference(plain(obj))

    def test_empty_containers_and_int_lists(self):
        obj = {"a": [], "b": {}, "c": [[]], "d": [1, -2, 10**30], "e": [True, 0, None], "": [{}]}
        assert dumps_canonical(obj) == json_dumps_reference(obj)
        assert dumps_canonical([]) == "[]\n"
        assert dumps_canonical({}) == "{}\n"

    @pytest.mark.parametrize("obj", [1.5, [0.0], {"x": float("nan")}, {1: "a"}, {"a": {None: 1}}, (1, 2)])
    def test_other_types_and_non_str_keys_raise(self, obj):
        with pytest.raises(TypeError):
            dumps_canonical(obj)

    def test_custom_path_with_space_quote_and_umlaut(self, tmp_path):
        path = tmp_path / 'g2 "quoted" ä.datum'
        path.write_text(Path(G2_PATH).read_text())
        code, out = run_cli(["mirror-check", "--group", "custom", str(path), "--space", "betti"])
        assert code == 0
        assert json.loads(out)["config_echo"]["group"] == ["custom", str(path)]
        assert '\\"quoted\\" ä' in out
        assert out == json_dumps_reference(json.loads(out))


class TestMirrorCheck:
    def test_sl2_verdict_equal(self):
        code, out = run_cli(["mirror-check", "--group", "sl", "2", "1", "--space", "betti"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert all(p["difference"] == [] for p in doc["pair_diffs"])

    def test_text_format(self):
        code, out = run_cli(
            ["mirror-check", "--group", "sl", "2", "1", "--space", "betti", "--format", "text"]
        )
        assert code == 0
        assert "verdict: equal" in out

    def test_sl6_z2_abelian_surface(self):
        code, out = run_cli(
            ["mirror-check", "--group", "sl", "6", "2", "--space", "abelian-surface"]
        )
        assert code == 0
        assert json.loads(out)["verdict"] is True


class TestDualityCheck:
    def test_sl3(self):
        code, out = run_cli(["duality-check", "--group", "sl", "3", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        for row in doc["classes"]:
            assert row["orders_agree"] and row["fixed_counts_agree"]
            assert row["pi0_primal"] == row["pi0_dual"]


class TestClosedForm:
    def test_sl2_betti(self):
        code, out = run_cli(["closed-form", "--n", "2", "--m", "1", "--surface", "betti"])
        assert code == 0
        doc = json.loads(out)
        total = from_json_terms(doc["total"])
        assert total == P.monomial(2, 2) + P.monomial(1, 1, 4) + P.one()
        assert [t["partition"] for t in doc["classes"]] == [[2], [1, 1]]

    def test_explicit_d_must_match_surface(self, capsys):
        # d follows from --surface; a d that contradicts it is refused
        code, out = run_cli(
            ["closed-form", "--n", "2", "--m", "1", "--d", "4", "--surface", "betti"]
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --d" in capsys.readouterr().err

    def test_d_is_not_an_option(self, capsys):
        # the derived d is echoed; even the value --surface implies cannot be set
        _, out = run_cli(["closed-form", "--n", "2", "--m", "1", "--surface", "betti"])
        assert json.loads(out)["config_echo"]["d"] == 2
        code, out = run_cli(
            ["closed-form", "--n", "2", "--m", "1", "--d", "2", "--surface", "betti"]
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --d" in capsys.readouterr().err


class TestCrossValidate:
    def test_agreement(self):
        code, out = run_cli(["cross-validate", "--n", "3", "--m", "1", "--surface", "betti"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] is True
        assert doc["difference"] == []
        assert doc["total"] == doc["closed_form_total"]

    def test_space_is_not_an_option(self, capsys):
        # the engine's space follows from --surface and is echoed; it cannot be set,
        # not even to the surface's own space
        code, out = run_cli(["cross-validate", "--n", "2", "--m", "1", "--surface", "abelian"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config_echo"]["space"] == "abelian-surface"
        assert doc["verdict"] is True
        code, out = run_cli(
            ["cross-validate", "--n", "2", "--m", "1", "--surface", "abelian",
             "--space", "abelian-surface"]
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --space" in capsys.readouterr().err

    def test_mismatched_space_is_usage_error(self, capsys):
        # the closed form of the betti surface says nothing about the
        # dolbeault space, so asking for the comparison is a usage error, not a verdict
        for n, m in (("2", "1"), ("4", "2")):
            code, out = run_cli(
                ["cross-validate", "--n", n, "--m", m, "--surface", "betti",
                 "--space", "dolbeault"]
            )
            assert code == 1
            assert out == ""
            assert "unrecognized arguments: --space" in capsys.readouterr().err


USAGE_ERRORS = [
    (["compute", "--group", "--space", "betti"],
     "argument --group: expected at least one argument"),
    (["compute", "--group", "sl", "2", "--space", "betti"],
     "group selector 'sl' needs N and M, got ['2']"),
    (["compute", "--group", "classical", "B", "2", "--space", "betti"],
     "group selector 'classical' needs FAMILY N FORM, got ['B', '2']"),
    (["compute", "--group", "custom", "a", "b", "--space", "betti"],
     "group selector 'custom' needs a file path"),
    (["compute", "--group", "sl", "x", "y", "--space", "betti"],
     "non-integer sl parameters: ['x', 'y']"),
    (["compute", "--group", "classical", "B", "two", "sc", "--space", "betti"],
     "non-integer rank: two"),
    (["compute", "--group", "classical", "B", "2", "weird", "--space", "betti"],
     "unknown form 'weird'; use sc or adjoint"),
    (["compute", "--group", "su", "2", "--space", "betti"],
     "unknown group selector 'su'; use sl, classical, or custom"),
    (["compute", "--group", "sl", "2", "1", "--space", "klein-bottle"],
     "argument --space: invalid choice: 'klein-bottle' (choose from 'abelian-surface', 'betti',"
     " 'derham', 'dolbeault', 'mixed')"),
]
USAGE_ERROR_IDS = ["empty", "sl-arity", "classical-arity", "custom-arity", "sl-non-integer",
                   "rank-non-integer", "unknown-form", "unknown-kind", "choices"]

OTHER_COMMAND_OPTIONS = [
    ["duality-check", "--group", "sl", "2", "1", "--space", "betti"],
    ["closed-form", "--n", "2", "--m", "1", "--surface", "betti", "--cap", "5"],
    ["closed-form", "--n", "2", "--m", "1", "--surface", "betti", "--group", "sl", "2", "1"],
    ["compute", "--group", "sl", "2", "1", "--space", "betti", "--n", "2"],
    ["mirror-check", "--group", "sl", "2", "1", "--space", "betti", "--surface", "betti"],
]
OTHER_COMMAND_OPTION_IDS = ["duality-check-space", "closed-form-cap", "closed-form-group", "compute-n",
                            "mirror-check-surface"]


class TestErrors:
    def test_unknown_space_is_usage_error(self):
        code, _ = run_cli(["compute", "--group", "sl", "2", "1", "--space", "klein-bottle"])
        assert code == 1

    def test_unknown_group_kind(self):
        code, _ = run_cli(["compute", "--group", "su", "2", "--space", "betti"])
        assert code == 1

    def test_bad_sl_parameters(self):
        assert run_cli(["compute", "--group", "sl", "2", "--space", "betti"])[0] == 1
        assert run_cli(["compute", "--group", "sl", "x", "y", "--space", "betti"])[0] == 1
        assert run_cli(["compute", "--group", "sl", "4", "3", "--space", "betti"])[0] == 1

    def test_missing_datum_file(self):
        code, _ = run_cli(["compute", "--group", "custom", "/no/such/file", "--space", "betti"])
        assert code == 1

    def test_datum_path_is_a_directory(self, tmp_path, capsys):
        code, out = run_cli(["compute", "--group", "custom", str(tmp_path), "--space", "betti"])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("orbev: error: cannot read datum file") and err.count("\n") == 1

    def test_datum_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.datum"
        bad.write_bytes("label G\xe9\nrank 1\n".encode("latin-1"))
        code, out = run_cli(["compute", "--group", "custom", str(bad), "--space", "betti"])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("orbev: error: datum file is not UTF-8 text") and err.count("\n") == 1

    def test_malformed_datum_file(self, tmp_path):
        bad = tmp_path / "bad.datum"
        bad.write_text("rank 1\nbasis\n1\ngram\n1\ngenerators\n2\n")
        code, _ = run_cli(["compute", "--group", "custom", str(bad), "--space", "betti"])
        assert code == 1

    def test_repeated_datum_section(self, tmp_path, capsys):
        bad = tmp_path / "twice.datum"
        bad.write_text("rank 1\nbasis\n1\nbasis\n2\ngram\n1\ngenerators\n-1\n")
        code, out = run_cli(["compute", "--group", "custom", str(bad), "--space", "betti"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "orbev: error: basis appears twice\n"

    def test_cap_exceeded(self):
        code, _ = run_cli(["compute", "--group", "sl", "4", "1", "--space", "betti", "--cap", "5"])
        assert code == 1

    def test_oversized_group_refused_before_enumeration(self, capsys):
        # |W(B12)| = 2^12·12! ≈ 2·10^12 is over the default cap of 10^7; the
        # order comes from Schreier–Sims on 264 orbit points, so no element is
        # enumerated.  Memory is traced in this process only.
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out = run_cli(["compute", "--group", "classical", "B", "12", "sc", "--space", "betti"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("orbev: error: group generation exceeded cap 10000000") and err.count("\n") == 1
        assert elapsed < 30
        assert peak < 32 * 2**20

    def test_gram_entry_in_exponent_form_fails_fast(self, tmp_path, capsys):
        # Fraction("1e9999999") would build 10^9999999 (about 12 s); only p and p/q are read.
        bad = tmp_path / "exponent.datum"
        bad.write_text("rank 1\nbasis\n1\ngram\n1e9999999\ngenerators\n-1\n")
        start = time.perf_counter()
        code, out = run_cli(["compute", "--group", "custom", str(bad), "--space", "betti"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith("orbev: error: malformed gram row")

    def test_generator_rows_at_rank_zero(self, tmp_path, capsys):
        bad = tmp_path / "rank0.datum"
        bad.write_text("rank 0\nbasis\ngram\ngenerators\n1 2 3\n7\n")
        code, out = run_cli(["compute", "--group", "custom", str(bad), "--space", "betti"])
        assert (code, out) == (1, "")
        assert "rank 0" in capsys.readouterr().err

    def test_no_command(self):
        assert run_cli([])[0] == 1

    @pytest.mark.parametrize("argv, err", USAGE_ERRORS, ids=USAGE_ERROR_IDS)
    def test_usage_error_message(self, capsys, argv, err):
        # argparse refuses an empty selector (nargs="+") before _resolve_datum sees it
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err == f"orbev: error: {err}\n"

    @pytest.mark.parametrize("argv", OTHER_COMMAND_OPTIONS, ids=OTHER_COMMAND_OPTION_IDS)
    def test_options_of_other_commands_refused(self, capsys, argv):
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err.startswith("orbev: error: unrecognized arguments: ")


class TestParserDispatch:
    """main parses an argv that starts with a command name with that command's parser alone."""

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_command_parser_prints_the_subparser_help(self, name):
        tree = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert _command_parser(name).format_help() == tree.choices[name].format_help()

    @pytest.mark.parametrize(
        "argv",
        [argv for argv, _ in USAGE_ERRORS] + OTHER_COMMAND_OPTIONS + [["closed-form", "--n=4", "--m", "2", "--surf", "betti"]],
        ids=USAGE_ERROR_IDS + OTHER_COMMAND_OPTION_IDS + ["inline-value-and-abbreviation"],
    )
    def test_main_reports_what_the_whole_tree_parses(self, capsys, argv):
        """A usage error of the whole tree is main's message; an argv it accepts parses to the same fields."""
        try:
            parsed = vars(_build_parser().parse_args(argv))
        except CliUsageError as exc:
            assert run_cli(argv) == (1, "")
            assert capsys.readouterr().err == f"orbev: error: {exc}\n"
        else:
            assert vars(_parse(argv)) == parsed

    def test_one_command_process_builds_no_parser(self):
        proc = subprocess.run([sys.executable, "-c", ONE_PARSER_SCRIPT], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, []]


def parser_namespace(argv):
    """vars of what argv[0]'s parser returns for argv[1:], with command; None where it refuses or prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = _command_parser(argv[0]).parse_args(argv[1:])
    except (CliUsageError, SystemExit):
        return None
    return {**vars(args), "command": argv[0]}


# The reader's alphabet: every option string of any command (and --d, which none has) with its
# abbreviations, --opt=value forms, -h, --help, --, command names, and valid and invalid values.
OPTION_TOKENS = sorted({"--" + f[:k] for f in (*_OPTIONS, "d") for k in range(1, len(f) + 1)})
SPECIAL_TOKENS = ["-h", "--help", "--", *_COMMANDS]
VALUES = ["4", "2", "1", "0", "-3", "-", "", "a b", "-g2.datum", "x", " 3", "4.0", "sl", "classical", "custom",
          "B", "sc", G2_PATH, "betti", "abelian", "mixed", "json", "text", "klein-bottle"]
VALID_VALUES = {
    "group": [["sl", "2", "1"], ["classical", "B", "2", "sc"], ["custom", G2_PATH], ["custom", "a b"], [""]],
    "space": [[space] for space in sorted(SPACES)],
    "n": [["4"], ["2"], ["+3"], [" 1 "]],
    "m": [["2"], ["1"], ["0"]],
    "surface": [["betti"], ["abelian"]],
    "format": [["json"], ["text"]],
    "cap": [["5"], ["10000000"]],
}


@st.composite
def command_argvs(draw):
    """A command's argv: its options with valid values in any order, the optional ones at will, maybe one
    option given twice, then 0–2 edits that insert, replace or drop a token, each token from the alphabet."""
    name = draw(st.sampled_from(list(_COMMANDS)))
    fields = _option_fields(name)

    def piece(field):
        return ["--" + field, *draw(st.sampled_from(VALID_VALUES[field]))]

    pieces = [piece(f) for f in draw(st.permutations(fields)) if _OPTIONS[f].get("required") or draw(st.booleans())]
    for _ in range(draw(st.integers(0, 1))):
        pieces.insert(draw(st.integers(0, len(pieces))), piece(draw(st.sampled_from(fields))))
    argv = [token for piece in pieces for token in piece]
    inline = st.tuples(st.sampled_from(OPTION_TOKENS), st.sampled_from(VALUES)).map(lambda t: f"{t[0]}={t[1]}")
    values, options = st.sampled_from(VALUES), st.sampled_from(OPTION_TOKENS + SPECIAL_TOKENS)
    alphabet = st.one_of(values, values, options, inline)  # a value is drawn as often as the other two together
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        argv[i : i + draw(st.integers(0, 1))] = draw(st.lists(alphabet, max_size=1))
    return [name, *argv]


# argv that _read leaves to the command's parser, whether that parser refuses it or not.
READER_DECLINES = [
    ["closed-form", "--n", "4", "--m", "2", "--surf", "betti"],
    ["closed-form", "--n=4", "--m", "2", "--surface", "betti"],
    ["closed-form", "--n", "4", "--n", "5", "--m", "2", "--surface", "betti"],
    ["closed-form", "--n", "-3", "--m", "1", "--surface", "betti"],
    ["compute", "--group", "custom", "-g2.datum", "--space", "betti"],
    ["compute", "--group", "custom", "-", "--space", "betti"],
    ["compute", "--group", "sl", "2", "1", "-3", "--space", "betti"],
    ["closed-form", "--n", "--m", "2", "--surface", "betti"],
    ["closed-form", "--n", "4", "5", "--m", "2", "--surface", "betti"],
    ["closed-form", "--n", "", "--m", "2", "--surface", "betti"],
    ["closed-form", "--n", "4.0", "--m", "2", "--surface", "betti"],
    ["closed-form", "--n", "4", "--m", "2", "--surface", "klein-bottle"],
    ["closed-form", "--m", "2", "--surface", "betti"],
    ["closed-form", "4", "--n", "4", "--m", "2", "--surface", "betti"],
    ["closed-form", "--n", "4", "--m", "2", "--surface", "betti", "--cap", "5"],
    ["closed-form", "--n", "4", "--m", "2", "--surface", "betti", "--"],
    ["closed-form", "-h"],
    ["closed-form", "--help"],
    ["compute", "--group", "--space", "betti"],
]
READER_DECLINE_IDS = ["abbreviation", "inline-value", "repeated", "negative", "dash-path", "dash", "dash-in-selector",
                      "missing-value", "extra-value", "empty-int", "float", "choice", "missing-required",
                      "leading-value", "other-command-option", "double-dash", "-h", "--help", "empty-selector"]

# argv that _read takes, with values argparse takes as they are or converts with int().
READER_TAKES = [
    ["compute", "--group", "custom", "", "--space", "betti"],
    ["compute", "--group", "custom", "a b", "--space", "betti", "--format", "text"],
    ["closed-form", "--surface", "betti", "--m", " 2", "--n", "+4"],
    ["mirror-check", "--space", "mixed", "--group", "sl", "4", "2", "--cap", "100"],
    ["duality-check", "--group", "classical", "B", "2", "sc"],
    ["cross-validate", "--n", "2", "--m", "1", "--surface", "abelian", "--cap", "0"],
]


class TestReader:
    """_read returns the namespace the command's parser returns, or None to leave argv to it."""

    @settings(max_examples=300, deadline=None)
    @given(command_argvs())
    def test_reader_returns_none_or_the_parser_namespace(self, argv):
        read = _read(argv[0], argv[1:])
        assert read is None or vars(read) == parser_namespace(argv)

    @pytest.mark.parametrize("argv", READER_DECLINES, ids=READER_DECLINE_IDS)
    def test_reader_declines_and_the_parser_decides(self, argv):
        assert _read(argv[0], argv[1:]) is None
        expected = parser_namespace(argv)
        if expected is not None:  # the parser takes an abbreviation, --opt=value, a repeat, a negative number
            assert vars(_parse(argv)) == expected

    @pytest.mark.parametrize("argv", READER_TAKES, ids=lambda argv: argv[0])
    def test_reader_takes(self, argv):
        read = _read(argv[0], argv[1:])
        assert read is not None and vars(read) == parser_namespace(argv)

    def test_reader_takes_every_workload_argv(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        monkeypatch.delitem(sys.modules, "workloads", raising=False)
        from workloads import WORKLOADS, build_ops

        for workload in WORKLOADS:
            for argv in build_ops(workload, 1, tmp_path):
                read = _read(argv[0], argv[1:])
                assert read is not None and vars(read) == parser_namespace(argv), argv

    @pytest.mark.parametrize("field, extra", [
        ("n", {"action": "store"}),
        ("n", {"dest": "count"}),
        ("group", {"nargs": 2}),
    ], ids=["action", "dest", "nargs-2"])
    def test_reader_declines_an_option_spec_it_does_not_know(self, monkeypatch, field, extra):
        if field == "group":
            argv = ["compute", "--group", "sl", "2", "1", "--space", "betti"]
        else:
            argv = ["cross-validate", "--n", "2", "--m", "1", "--surface", "betti"]
        assert _read(argv[0], argv[1:]) is not None
        monkeypatch.setitem(_OPTIONS, field, {**_OPTIONS[field], **extra})
        assert _read(argv[0], argv[1:]) is None


@pytest.mark.parametrize("argv", [
    ["compute", "--group", "sl", "2", "1", "--space", "betti"],
    ["mirror-check", "--group", "sl", "2", "1", "--space", "mixed"],
    ["duality-check", "--group", "classical", "B", "2", "sc"],
    ["closed-form", "--n", "4", "--m", "2", "--surface", "abelian"],
    ["cross-validate", "--n", "2", "--m", "1", "--surface", "betti"],
], ids=lambda argv: argv[0])
def test_json_run_renders_no_text(monkeypatch, argv):
    """Text lines are built only for --format text: a JSON run never calls to_text."""
    unpatched = run_cli(argv + ["--format", "json"])
    assert unpatched[0] in (0, 2)

    def refuse(self):
        raise AssertionError("to_text called on a JSON run")

    monkeypatch.setattr(BivariatePolynomial, "to_text", refuse)
    assert run_cli(argv + ["--format", "json"]) == unpatched


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orbev", "compute", "--group", "sl", "2", "1",
             "--space", "betti"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert from_json_terms(doc["total"]) == P.monomial(2, 2) + P.monomial(1, 1, 4) + P.one()

    def test_one_process_prints_what_separate_processes_print(self):
        # main builds its parser once per process and reuses it; a usage error
        # and --help before a valid run must not change any output or exit code
        argvs = [
            ["compute", "--group", "sl", "2", "1", "--space", "klein-bottle"],
            ["--help"],
            ["compute", "--group", "sl", "2", "1", "--space", "betti"],
            ["closed-form", "--n", "2", "--m", "1", "--surface", "betti"],
            # C2_sc's class terms are B2_ad's, so its rows are the ones the writer rendered for B2_ad
            ["mirror-check", "--group", "classical", "B", "2", "ad", "--space", "mixed"],
            ["mirror-check", "--group", "classical", "C", "2", "sc", "--space", "mixed"],
        ]
        separate = []
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "orbev", *argv], capture_output=True, text=True)
            separate.append([proc.returncode, proc.stdout, proc.stderr])
        assert [code for code, _, _ in separate] == [1, 0, 0, 0, 0, 0]
        proc = subprocess.run(
            [sys.executable, "-c", ONE_PROCESS_SCRIPT, json.dumps(argvs)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        *together, trees_built, command_parsers_built = json.loads(proc.stdout)
        assert together == separate
        assert trees_built == 1
        # compute's, for the klein-bottle refusal; the valid runs are read without a parser
        assert command_parsers_built == 1

    @pytest.mark.parametrize("argv", [
        ["closed-form", "--n", "4", "--m", "2", "--surface", "betti"],
        ["mirror-check", "--group", "sl", "2", "1", "--space", "mixed"],
        ["duality-check", "--group", "classical", "B", "2", "sc"],
    ], ids=lambda argv: argv[0])
    def test_valid_command_leaves_locale_unimported(self, argv):
        # argparse's first gettext call imports locale; a valid command makes none
        src = str(Path(orbev.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-S", "-c", NO_LOCALE_SCRIPT, src, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, False]


ONE_PROCESS_SCRIPT = """
import contextlib, io, json, sys
from orbev.cli import _build_parser, _command_parser, main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results + [_build_parser.cache_info().misses, _command_parser.cache_info().misses]))
"""

NO_LOCALE_SCRIPT = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from orbev.cli import main
code = main(json.loads(sys.argv[2]), out=io.StringIO())
print(json.dumps([code, "locale" in sys.modules]))
"""

ONE_PARSER_SCRIPT = """
import io, json
from orbev import cli
built = []
init = cli._Parser.__init__
cli._Parser.__init__ = lambda self, *args, **kwargs: built.append(kwargs.get("prog")) or init(self, *args, **kwargs)
code = cli.main(["closed-form", "--n", "4", "--m", "2", "--surface", "betti"], out=io.StringIO())
print(json.dumps([code, built]))
"""
