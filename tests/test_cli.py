"""Command-line interface: output formats, exit codes, determinism."""

import io
import json
import subprocess
import sys
from pathlib import Path

from orbev.cli import dumps_canonical, main
from orbev.epoly import BivariatePolynomial

P = BivariatePolynomial
G2_PATH = str(Path(__file__).parent / "data" / "g2.datum")


def run_cli(args):
    buf = io.StringIO()
    code = main(args, out=buf)
    return code, buf.getvalue()


class TestCompute:
    def test_sl2_betti_json(self):
        code, out = run_cli(["compute", "--group", "sl", "2", "1", "--space", "betti"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config_echo"]["command"] == "compute"
        assert len(doc["classes"]) == 2
        total = P.from_json_terms(doc["total"])
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
        assert dumps_canonical(json.loads(out)) == out

    def test_text_and_json_encode_same_polynomial(self):
        args = ["compute", "--group", "sl", "2", "2", "--space", "abelian-surface"]
        _, json_out = run_cli(args)
        _, text_out = run_cli(args + ["--format", "text"])
        from_json = P.from_json_terms(json.loads(json_out)["total"])
        total_line = next(l for l in text_out.splitlines() if l.startswith("total: "))
        from_text = P.from_text(total_line.removeprefix("total: "))
        assert from_json == from_text

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
        total = P.from_json_terms(doc["total"])
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

    def test_cap_exceeded(self):
        code, _ = run_cli(["compute", "--group", "sl", "4", "1", "--space", "betti", "--cap", "5"])
        assert code == 1

    def test_no_command(self):
        assert run_cli([])[0] == 1


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
        assert P.from_json_terms(doc["total"]) == P.monomial(2, 2) + P.monomial(1, 1, 4) + P.one()
