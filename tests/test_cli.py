import io
import json
import sys

import pytest

from elliptica import cli

from conftest import CATALOG_QUILLEN_SPECS


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_names(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "cpn_sullivan" in out and "sphere_odd" in out


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", "cpn_sullivan(2)")
    assert code == 0
    assert "status: ok" in out


def test_cohomology_json_shape(capsys):
    code, out, _ = run(capsys, "cohomology", "cpn_sullivan(2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"model", "bound", "tables", "ledger", "status"}
    assert payload["tables"]["betti"]["4"] == 1
    assert payload["status"] == "ok"


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "invariants", "cpn_sullivan(2)", "--json")
    _, out2, _ = run(capsys, "invariants", "cpn_sullivan(2)", "--json")
    assert out1 == out2


def test_invariants_quillen_both_eta_readouts(capsys):
    code, out, _ = run(capsys, "invariants", "cpn_quillen(2)")
    assert code == 0
    assert "eta (alternating Gamma sum, algebra degrees) = 3" in out
    assert "eta (literal sequence readout) = -1" in out


def test_whitehead_reports_exactness(capsys):
    code, out, _ = run(capsys, "whitehead", "s2", "--max-degree", "6")
    assert code == 0
    assert "exact up to degree 6: yes" in out


def test_verify_all_identities(capsys):
    code, out, _ = run(capsys, "verify", "cpn_sullivan(2)")
    assert code == 0
    assert "FAIL" not in out


def test_compare_pair(capsys):
    code, out, _ = run(capsys, "compare", "s2", "s2_quillen")
    assert code == 0
    assert "status: ok" in out


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "invariants", "no_such_model")
    assert code == 2
    assert "usage error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/path/model.rhm")
    assert code == 2


def test_syntax_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.rhm"
    p.write_text("model m : sullivan\ngen x : 2\nd x = $$\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2
    assert "line 3" in err


def test_domain_error_exit_code(tmp_path, capsys):
    # polynomial algebra on one even generator: valid but not elliptic
    p = tmp_path / "poly.rhm"
    p.write_text("model poly : sullivan\ngen x : 2\n")
    code, _, err = run(capsys, "invariants", str(p))
    assert code == 1


def test_parse_file_roundtrip_via_cli(tmp_path, capsys):
    from elliptica import dsl
    text = dsl.serialize(dsl.catalog_spec("cpn_sullivan(2)"))
    p = tmp_path / "cp2.rhm"
    p.write_text(text)
    code, out, _ = run(capsys, "invariants", str(p))
    assert code == 0
    assert "rho = 3" in out


def test_rhm_request_validates_once(tmp_path, capsys, monkeypatch):
    # dsl.parse validates; check and the analysis reuse that pass
    from elliptica import dsl
    from elliptica.sullivan import SullivanModel
    p = tmp_path / "cp2.rhm"
    p.write_text(dsl.serialize(dsl.catalog_spec("cpn_sullivan(2)")))
    calls = []
    validate = SullivanModel.validate

    def counting_validate(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SullivanModel, "validate", counting_validate)
    for command in ("check", "invariants"):
        calls.clear()
        code, _, _ = run(capsys, command, str(p))
        assert code == 0
        assert len(calls) == 1, command


@pytest.mark.parametrize("command", ["cohomology", "invariants", "whitehead",
                                     "verify"])
def test_sullivan_commands_build_one_analysis(capsys, monkeypatch, command):
    # on both model kinds: every analysis passes through the shared __init__
    from elliptica import invariants
    built = []
    init = invariants._Analysis.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(invariants._Analysis, "__init__", counting_init)
    for spec, kind in [("cpn_sullivan(2)", invariants.SullivanAnalysis),
                       ("cpn_quillen(2)", invariants.QuillenAnalysis)]:
        built.clear()
        code, _, _ = run(capsys, command, spec, "--json")
        assert code == 0
        assert built == [kind]


BROKEN_D_SQUARED = ("model bad : sullivan\ngen x : 2\ngen y : 3\ngen z : 4\n"
                    "d y = x^2\nd z = x*y\n")


def test_check_reports_an_invalid_model(tmp_path, capsys):
    p = tmp_path / "bad.rhm"
    p.write_text(BROKEN_D_SQUARED)
    code, out, err = run(capsys, "check", str(p))
    assert code == 1 and err == ""
    assert out.splitlines() == ["model: bad (sullivan; x:2, y:3, z:4)",
                                "FAIL d-squared (z): d(d(z)) != 0",
                                "status: invalid"]
    code, out, err = run(capsys, "check", str(p), "--json")
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["model"] == "bad" and payload["status"] == "invalid"
    assert payload["tables"]["issues"] == [
        {"check": "d-squared", "generator": "z", "message": "d(d(z)) != 0"}]


@pytest.mark.parametrize("argv", [["check"], ["cohomology"], ["invariants"],
                                  ["whitehead"], ["verify"],
                                  ["compare", "cpn_sullivan(2)"]])
def test_a_non_minimal_quillen_model_is_refused(tmp_path, capsys, argv):
    # delta(b) = a is linear: an input fault (exit 1), not an exactness
    # breach of the engine (exit 3)
    p = tmp_path / "nm.rhm"
    p.write_text("model nm : quillen\ngen a : 2\ngen b : 3\nd b = a\n")
    code, out, err = run(capsys, *argv, str(p))
    assert code == 1
    assert "minimality (b): delta(b) has a linear term" in out + err
    assert "exactness breach" not in err


@pytest.mark.parametrize("spec", CATALOG_QUILLEN_SPECS)
def test_verify_quillen_ledger(capsys, spec):
    code, out, _ = run(capsys, "verify", spec)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:-1]] == \
        ["PASS"] * 3
    assert out.splitlines()[-1] == "status: ok"
    code, out, _ = run(capsys, "verify", spec, "--json")
    assert code == 0
    ledger = json.loads(out)["ledger"]
    assert [e["claim"] for e in ledger] == [
        "eta-equals-chi-h-minus-chi-pi", "eta-positive", "eta-dichotomy"]
    w = ledger[0]["witness"]
    assert set(w) == {"eta", "chi_h", "chi_pi"}
    assert w["eta"] == w["chi_h"] - w["chi_pi"]


def test_quillen_verify_refuses_a_short_window(capsys):
    code, out, err = run(capsys, "verify", "cpn_quillen(2)", "--max-degree",
                         "7")
    assert code == 1
    assert "status: ok" not in out
    assert "CP2q" in err and "at least 8" in err and "got 7" in err


def test_quillen_invariants_refuses_a_short_window(capsys):
    code, out, err = run(capsys, "invariants", "cpn_quillen(2)",
                         "--max-degree", "1")
    assert code == 1
    assert "status: ok" not in out
    assert "CP2q" in err and "8" in err


@pytest.mark.parametrize("argv", [
    ["invariants", "s2", "--max-degree", "3"],
    ["verify", "s2", "--max-degree", "3"],
    ["compare", "cpn_sullivan(2)", "cpn_quillen(2)", "--max-degree", "3"]])
def test_sullivan_commands_refuse_a_short_window(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "status: ok" not in out
    assert "window of at least" in err and "got 3" in err
    assert "beyond" not in err


@pytest.mark.parametrize("flag", [["--max-degree", "5"], ["--verbose"]])
def test_catalog_takes_no_window_or_verbose_flag(capsys, flag):
    code, out, err = run(capsys, "catalog", "s2", *flag)
    assert code == 2
    assert out == ""
    assert flag[0] in err


@pytest.mark.parametrize("command", ["cohomology", "invariants", "whitehead",
                                     "verify", "check"])
def test_negative_max_degree_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "s2", "--max-degree", "-3")
    assert code == 2
    assert out == ""
    assert "--max-degree" in err


@pytest.mark.parametrize("model,betti", [("s2", {"0": 1}),
                                         ("s2_quillen", {})])
def test_max_degree_zero_is_a_window_of_zero(capsys, model, betti):
    code, out, _ = run(capsys, "cohomology", model, "--max-degree", "0",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 0
    assert payload["tables"]["betti"] == betti
    code, out, _ = run(capsys, "whitehead", model, "--max-degree", "0",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 0 and payload["tables"]["nodes"] == []


@pytest.mark.parametrize("text,where", [
    ("model m : sullivan\ngen x : ²\n", "(line 2)"),
    ("model m : sullivan\ngen x : 2\ngen y : 3\nd y = ²*x\n",
     "(line 4, col 6)"),
])
def test_a_non_ascii_digit_is_a_located_syntax_error(tmp_path, capsys, text,
                                                     where):
    # '²' passes str.isdigit but is no integer literal
    p = tmp_path / "sup.rhm"
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err.startswith(f"syntax error {where}: ")


@pytest.mark.parametrize("line,col", [
    ("d y =x$", 6), ("d y = x$", 7), ("d y =   x$", 9)])
def test_a_d_line_error_column_counts_the_spaces_after_the_equals_sign(
        tmp_path, capsys, line, col):
    # the column is the token's 0-based offset in the raw line
    p = tmp_path / "col.rhm"
    p.write_text(f"model m : sullivan\ngen x : 2\ngen y : 3\n{line}\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err == (f"syntax error (line 4, col {col}): unexpected character "
                   f"'$'\n")


def test_an_undecodable_file_is_an_io_error(tmp_path, capsys):
    p = tmp_path / "bin.rhm"
    p.write_bytes(b"model m : sullivan\n\xff\n")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err == (f"usage error: cannot read {str(p)!r}: not UTF-8 text "
                   f"(invalid start byte at byte 19)\n")


def test_a_validation_error_names_the_model(tmp_path, capsys):
    p = tmp_path / "nm.rhm"
    p.write_text("model nm : quillen\ngen a : 2\ngen b : 3\nd b = a\n")
    code, out, err = run(capsys, "whitehead", str(p))
    assert code == 1 and out == ""
    assert err == ("error: DGLModel(nm): minimality (b): delta(b) has a "
                   "linear term\n")


@pytest.mark.parametrize("spec", ["cpn_sullivan(٣)", "cpn_sullivan(1_0)",
                                  "sphere_odd(0_3)", "cpn_sullivan(+2)"])
def test_a_spec_integer_that_is_not_ascii_digits_is_refused(capsys, spec):
    code, out, err = run(capsys, "check", spec)
    assert code == 1
    assert out == ""
    assert "takes one integer parameter" in err


@pytest.mark.parametrize("text", ["1_0", "٣", "+4", " 4", "4\n", "-0", "０"])
def test_a_max_degree_that_is_not_ascii_digits_is_refused(capsys, text):
    # int() reads each of these; the window must be ASCII digits only
    code, out, err = run(capsys, "cohomology", "s2", "--max-degree", text,
                         "--json")
    assert code == 2
    assert out == ""
    assert err.endswith(
        f"error: argument --max-degree: not ASCII digits: {text!r}\n")


@pytest.mark.parametrize("text,message", [
    ("two", "not an integer: 'two'"), ("", "not an integer: ''"),
    ("-1", "must be >= 0, got -1")])
def test_max_degree_refusals_keep_their_messages(capsys, text, message):
    code, out, err = run(capsys, "whitehead", "s2", "--max-degree", text)
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument --max-degree: {message}\n")


# --- one parser per process ----------------------------------------------------

def fresh_run(capsys, monkeypatch, *argv):
    """``run`` with a parser built for this call alone."""
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        return run(capsys, *argv)


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_no_flag_leaks_into_the_next_call(capsys, monkeypatch):
    first = run(capsys, "whitehead", "s2", "--verbose", "--max-degree", "6")
    second = run(capsys, "whitehead", "s2")
    assert second == fresh_run(capsys, monkeypatch, "whitehead", "s2")
    assert second[0] == 0 and second[1] != first[1]
    assert first == fresh_run(capsys, monkeypatch, "whitehead", "s2",
                              "--verbose", "--max-degree", "6")


def test_errors_and_help_leave_the_parser_as_it_was(capsys, monkeypatch):
    calls = [("whitehead", "s2", "--max-degree", "-1"), ("--help",),
             ("cohomology", "cpn_sullivan(2)", "--json")]
    shared = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert shared == [fresh_run(capsys, monkeypatch, *argv)
                      for argv in calls]


@pytest.mark.parametrize("argv", [(), ("whitehead",), ("catalog", "-h")])
def test_help_and_usage_equal_a_fresh_parsers(capsys, monkeypatch, argv):
    assert cli.build_parser().format_help() == \
        cli.build_parser.__wrapped__().format_help()
    assert cli.build_parser().format_usage() == \
        cli.build_parser.__wrapped__().format_usage()
    assert run(capsys, *argv) == fresh_run(capsys, monkeypatch, *argv)


def test_a_catalog_spec_nested_past_the_limit_is_a_usage_error(capsys):
    # 400 levels escaped main as a RecursionError, with a traceback
    spec = "product(" * 400 + "s2" + ", s2)" * 400
    code, out, err = run(capsys, "check", spec)
    assert code == 2 and out == ""
    assert err == "usage error: catalog spec nested deeper than 100 levels\n"
    code, out, _ = run(capsys, "check", "product(product(s2, s2), s2)")
    assert code == 0 and "ok" in out


def test_brackets_nested_past_the_limit_are_a_located_syntax_error(
        tmp_path, capsys):
    deep = "[a, " * 399 + "[a, a" + "]" * 400
    p = tmp_path / "deep.rhm"
    p.write_text(f"model deep : quillen\ngen a : 1\ngen b : 2\nd b = {deep}\n")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and out == ""
    assert err == ("syntax error (line 4, col 406): brackets nested deeper "
                   "than 100 levels\n")
    p.write_text("model m : quillen\ngen a : 1\ngen b : 3\n"
                 "d b = [a, [a, a]]\n")
    code, out, _ = run(capsys, "check", str(p))
    assert code == 0 and "ok" in out


NON_ASCII = "model \u00e9 : sullivan\ngen x : 2\ngen y : 3\nd y = x^2\n"


# the reports whose status is not "ok" (exit 1)
NOT_OK = {("check", "bad.rhm"): "invalid",
          ("compare", "cpn_sullivan(2)", "cpn_quillen(3)"): "mismatch"}


@pytest.mark.parametrize("argv", [
    ["whitehead", "cpn_sullivan(2)"], ["verify", "cpn_quillen(2)"],
    ["cohomology", "s2"], *NOT_OK,
    ["check", "cpn_sullivan(2)"], ["whitehead", "cpn_quillen(2)"],
    *([c, spec] for c in ("cohomology", "invariants")
      for spec in ("cpn_sullivan(2)", "cpn_quillen(2)")),
    ["verify", "cpn_sullivan(2)"], ["invariants", "e.rhm"],
    ["compare", "cpn_sullivan(2)", "cpn_quillen(2)"],
    ["catalog"], ["catalog", "product(s2,sphere_odd(3))"]])
def test_a_json_report_is_one_write(monkeypatch, tmp_path, argv):
    # the same text as json.dump with indent, written in one call
    (tmp_path / "bad.rhm").write_text(BROKEN_D_SQUARED)
    (tmp_path / "e.rhm").write_text(NON_ASCII, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    writes = []

    class Counting(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Counting())
    status = NOT_OK.get(tuple(argv), "ok")
    assert cli.main([*argv, "--json"]) == (0 if status == "ok" else 1)
    (text,) = writes
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"
    assert json.loads(text)["status"] == status


def test_a_non_ascii_model_name_is_escaped_in_json_and_printed_in_text(
        tmp_path, capsys):
    p = tmp_path / "e.rhm"
    p.write_text(NON_ASCII, encoding="utf-8")
    code, out, _ = run(capsys, "invariants", str(p), "--json")
    assert code == 0
    assert '  "model": "\\u00e9",' in out.splitlines()
    assert json.loads(out)["model"] == "\u00e9"
    code, out, _ = run(capsys, "invariants", str(p))
    assert code == 0
    assert out.splitlines()[0] == "model: \u00e9 (sullivan; x:2, y:3)"
