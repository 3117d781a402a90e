import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import liecas.casimir_gen
import liecas.cli
import liecas.contraction
import liecas.virtual_copy
from liecas.catalog import FAMILIES, build
from liecas.cli import main
from liecas.errors import (DegreeOverflowError, LiecasError,
                           LimitDoesNotExistError, PreconditionError)
from liecas.enveloping import PBWElement
from liecas.lie_core import algebra_to_json
from liecas.virtual_copy import emit_spec, make_spec
from property_suites import cli_fuzz


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---- documented examples ---------------------------------------------------------


def test_count_example_is_byte_exact(capsys):
    code, out = run(capsys, "count", "--family", "IHa", "--N", "4",
                    "--format", "json")
    assert code == 0
    assert out == '{"count": 3}\n'
    code, out = run(capsys, "count", "--family", "IHa", "--N", "4")
    assert (code, out) == (0, "count: 3\n")


def test_verify_copy_example_is_byte_exact(capsys):
    code, out = run(capsys, "verify-copy", "--family", "QHa", "--N", "3",
                    "--format", "json")
    assert code == 0
    assert out == '{"passed": true}\n'


def test_jacobi_violation_exits_2_with_triple(capsys, tmp_path):
    algebra, _ = build("Ha", 3)
    doc = algebra_to_json(algebra)
    for row in doc["brackets"]:
        if row["i"] == "J_12" and row["j"] == "J_13":
            for term in row["terms"]:
                term["c"] = "1"
    path = write_json(tmp_path / "garbage.json", doc)
    code, out = run(capsys, "count", "--algebra", path, "--format", "json")
    assert code == 2
    emitted = json.loads(out)
    assert emitted["error"] == "malformed-input"
    assert ["J_12", "J_13", "G_2"] in emitted["jacobi_violations"]


# ---- exit status ------------------------------------------------------------------


def test_validate_reports_violations_with_exit_1(capsys, tmp_path):
    doc = {
        "names": ["a", "b", "c"],
        "brackets": [
            {"i": "a", "j": "b", "terms": [{"k": "c", "c": "1"}]},
            {"i": "a", "j": "c", "terms": [{"k": "b", "c": "1"}]},
            {"i": "b", "j": "c", "terms": [{"k": "c", "c": "1"}]},
        ],
        "levi": [],
        "radical": ["a", "b", "c"],
    }
    path = write_json(tmp_path / "bad.json", doc)
    code, out = run(capsys, "validate", "--algebra", path, "--format", "json")
    assert code == 1
    emitted = json.loads(out)
    assert emitted["ok"] is False
    assert emitted["jacobi_violations"] == [["a", "b", "c"]]

    code, out = run(capsys, "validate", "--family", "QHa", "--N", "4",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_residual_past_the_int_string_limit_is_answered(tmp_path):
    # [a, b] = N c and [c, d] = N a with N = 2,500 ones leave Jacobi
    # residuals N^2 of 4,999 digits, past Python's default limit of 4,300
    # for str(int): validate shows them by their digit count, and the
    # refusal of every other request names the triple alone
    big = "1" * 2500
    path = write_json(tmp_path / "big.json", {
        "names": ["a", "b", "c", "d"],
        "brackets": [{"i": "a", "j": "b", "terms": [{"k": "c", "c": big}]},
                     {"i": "c", "j": "d", "terms": [{"k": "a", "c": big}]}],
        "levi": [], "radical": ["a", "b", "c", "d"]})

    def answer(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "liecas.cli", *argv, "--algebra", path],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONINTMAXSTRDIGITS="4300"))
        assert proc.stderr == ""
        return proc.returncode, proc.stdout

    assert answer("validate") == (1, "jacobi (a, b, d): residual "
                                  "<4999-digit integer>*a\n"
                                  "jacobi (b, c, d): residual "
                                  "<4999-digit integer>*c\n")
    refusal = {"error": "malformed-input",
               "detail": "bracket table fails validation: jacobi (a, b, d)",
               "jacobi_violations": [["a", "b", "d"], ["b", "c", "d"]],
               "levi_closure": [], "radical_ideal": []}
    for command in ("mc", "count"):
        code, out = answer(command, "--format", "json")
        assert (code, json.loads(out)) == (2, refusal)


def test_copy_residual_past_the_int_string_limit_is_answered(tmp_path):
    # P[J_12] = G_2 F_1 / (10^2200 + 1) + G_1 F_2 / (10^2200 + 3) on Ha(3)
    # leaves residual coefficients with 4,401-digit denominators; both
    # formats print them by their digit count instead of a traceback
    algebra, spec = build("Ha", 3)
    doc = emit_spec(spec)
    for term, d in zip(doc["P"]["J_12"], (1, 3)):
        term["coeff"] = "1/%d" % (10 ** 2200 + d)
    argv = [sys.executable, "-m", "liecas.cli", "verify-copy",
            "--algebra", write_json(tmp_path / "ha3.json",
                                    algebra_to_json(algebra)),
            "--spec", write_json(tmp_path / "big.json", doc)]
    out = {}
    for fmt in ("json", "text"):
        proc = subprocess.run(
            argv + ["--format", fmt], capture_output=True, text=True,
            env=dict(os.environ, PYTHONINTMAXSTRDIGITS="4300"))
        assert (proc.returncode, proc.stderr) == (1, "")
        assert "/<4401-digit integer>" in proc.stdout
        out[fmt] = proc.stdout
    report = json.loads(out["json"])
    assert report["passed"] is False and report["factor_residuals"]
    assert out["text"].startswith("[X'_J_12, G_1] = -")


@pytest.mark.parametrize("command,fmt", [
    (command, fmt) for command in ("catalog", "mc", "casimirs")
    for fmt in ("json", "latex")])
def test_coefficient_past_the_int_string_limit_is_answered(tmp_path, command,
                                                           fmt):
    # alpha = 10^5000 puts a 5,001-digit integer in the boson brackets; an
    # Ha(3) dressing with f and every P term times 10^2200 still verifies,
    # and its C_2 has coefficients of 4,401 digits.  Each is shown by its
    # digit count instead of a traceback
    if command == "casimirs":
        algebra, spec = build("Ha", 3)
        doc = emit_spec(spec)
        for terms in [doc["f"], *doc["P"].values()]:
            for term in terms:
                term["coeff"] = str(int(term["coeff"]) * 10 ** 2200)
        select = ["--algebra", write_json(tmp_path / "ha3.json",
                                          algebra_to_json(algebra)),
                  "--spec", write_json(tmp_path / "big.json", doc)]
    else:
        select = ["--family", "boson_example", "--alpha", "1e5000"]
    proc = subprocess.run(
        [sys.executable, "-m", "liecas.cli", command, *select,
         "--format", fmt], capture_output=True, text=True,
        env=dict(os.environ, PYTHONINTMAXSTRDIGITS="4300"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "-digit integer>" in proc.stdout
    if fmt == "json":
        json.loads(proc.stdout)


def test_failing_dressing_exits_1_with_residuals(capsys, tmp_path):
    algebra, spec = build("IHa", 3)
    apath = write_json(tmp_path / "iha3.json", algebra_to_json(algebra))
    doc = emit_spec(spec)
    doc["P"] = {name: [t for t in terms if "R" not in t["word"]]
                for name, terms in doc["P"].items()}
    spath = write_json(tmp_path / "broken_spec.json", doc)
    code, out = run(capsys, "verify-copy", "--algebra", apath,
                    "--spec", spath, "--format", "json")
    assert code == 1
    emitted = json.loads(out)
    assert emitted["passed"] is False
    assert emitted["factor_residuals"]

    code, out = run(capsys, "verify-copy", "--algebra", apath,
                    "--spec", spath)
    assert code == 1
    assert "defect" in out or "[X'_" in out


def test_missing_limit_exits_2_machine_readable(capsys):
    code, out = run(capsys, "contract", "--family", "IHa", "--N", "3",
                    "--weights", '{"T": 3}', "--format", "json")
    assert code == 2
    emitted = json.loads(out)
    assert emitted["error"] == "limit-does-not-exist"
    assert emitted["triple"][2] == "T"
    assert emitted["weight"] == -3
    assert emitted["copy_compatible"] is False
    assert emitted["f_top_weight"] == 6


def test_casimirs_over_the_degree_cap_exits_2(capsys):
    code, out = run(capsys, "casimirs", "--family", "IHa", "--N", "9",
                    "--format", "json")
    assert code == 2
    emitted = json.loads(out)
    assert emitted["error"] == "degree-overflow"
    assert emitted["detail"] == "word of length 24 exceeds the degree cap 12"


def test_verify_copy_over_the_degree_cap_exits_2(capsys, tmp_path):
    # f = R^6 makes [X'_i, X'_j] a degree-13 element: refused, not
    # reported; f = R^13 is refused as the spec is read
    algebra, _spec = build("Ha", 3)
    doc = algebra_to_json(algebra)
    for length in (6, 13):
        spec = {"f": [{"word": ["R"] * length, "coeff": "1"}]}
        code, out = run(capsys, "verify-copy",
                        "--algebra", write_json(tmp_path / "ha3.json", doc),
                        "--spec", write_json(tmp_path / "r.json", spec),
                        "--format", "json")
        assert (code, out) == (2, '{"detail": "word of length 13 exceeds '
                                  'the degree cap 12", "error": '
                                  '"degree-overflow"}\n')


def test_malformed_flags_exit_2(capsys, tmp_path):
    assert main([]) == 2
    assert main(["count"]) == 2                        # no input selected
    assert main(["count", "--family", "nope", "--N", "3"]) == 2
    assert main(["count", "--family", "su11", "--N", "4"]) == 2
    assert main(["count", "--family", "Ha", "--N", "3",
                 "--alpha", "2"]) == 2
    assert main(["count", "--family", "Ha", "--N", "3",
                 "--algebra", "x.json"]) == 2
    assert main(["count", "--algebra", str(tmp_path / "absent.json")]) == 2
    assert main(["count", "--family", "Ha", "--N", "3",
                 "--trials", "0"]) == 2
    assert main(["verify-copy", "--family", "so", "--N", "3"]) == 2
    assert main(["verify-copy", "--family", "boson_example",
                 "--alpha", "1/2"]) == 2
    assert main(["contract", "--family", "Ha", "--N", "3",
                 "--weights", "{broken"]) == 2
    capsys.readouterr()


def test_selection_flags_a_request_would_ignore_are_refused(capsys,
                                                          tmp_path):
    # catalog reads no algebra file, and a file fixes its own size, so
    # neither may swallow a flag and answer as if it were absent
    code, out = run(capsys, "catalog", "--algebra",
                    str(tmp_path / "absent.json"), "--N", "3",
                    "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "malformed-input"
    assert "unrecognized arguments: --algebra" in json.loads(out)["detail"]
    refusal = {"error": "malformed-input",
               "detail": "--N and --alpha only combine with --family"}
    code, out = run(capsys, "catalog", "--N", "3", "--format", "json")
    assert (code, json.loads(out)) == (2, refusal)
    algebra, spec = build("Ha", 3)
    path = write_json(tmp_path / "ha3.json", {
        "algebra": algebra_to_json(algebra), "spec": emit_spec(spec)})
    for argv in (["validate"], ["count"], ["mc"], ["verify-copy"],
                 ["casimirs"], ["contract", "--weights", "{}"]):
        for extra in (["--N", "7"], ["--alpha", "3"]):
            code, out = run(capsys, *argv, "--algebra", path, *extra,
                            "--format", "json")
            assert (code, json.loads(out)) == (2, refusal), argv + extra


def test_an_empty_family_is_an_unknown_family(capsys):
    # "" names no family: it may neither list the catalog nor read as
    # an absent --family
    refusal = {"error": "malformed-input", "detail": "unknown family ''"}
    for argv in (["catalog"], ["count", "--N", "3"], ["casimirs"]):
        code, out = run(capsys, *argv, "--family", "", "--format", "json")
        assert (code, json.loads(out)) == (2, refusal), argv


def test_a_nonzero_levi_weight_is_refused(capsys):
    weights = {"J_12": 5, "R": 1, "G_1": 1, "G_2": 1, "G_3": 1}
    code, out = run(capsys, "contract", "--family", "Ha", "--N", "3",
                    "--weights", json.dumps(weights), "--format", "json")
    assert (code, json.loads(out)) == (2, {
        "error": "malformed-input",
        "detail": "weight of Levi generator 'J_12' must be 0, got 5"})
    weights["J_12"] = 0
    code, out = run(capsys, "contract", "--family", "Ha", "--N", "3",
                    "--weights", json.dumps(weights), "--format", "json")
    assert code == 0
    assert json.loads(out)["weights"] == {"R": 1, "G_1": 1, "G_2": 1,
                                          "G_3": 1}


def _ha3_files(tmp_path, algebra_edit=None, spec_edit=None):
    """--algebra and --spec flags naming files of Ha(3)'s algebra and
    dressing documents, each after its in-place edit."""
    algebra, spec = build("Ha", 3)
    docs = {"algebra": algebra_to_json(algebra), "spec": emit_spec(spec)}
    flags = []
    for key, edit in (("algebra", algebra_edit), ("spec", spec_edit)):
        if edit is not None:
            edit(docs[key])
        flags += ["--" + key, write_json(tmp_path / (key + ".json"),
                                         docs[key])]
    return flags


def _ha3_answer(capsys, tmp_path, algebra_edit=None, spec_edit=None):
    """verify-copy --format json on Ha(3)'s dump after an edit of the
    algebra or spec document; (exit status, parsed stdout)."""
    code, out = run(capsys, "verify-copy",
                    *_ha3_files(tmp_path, algebra_edit, spec_edit),
                    "--format", "json")
    return code, json.loads(out)


def test_levi_that_is_no_list_is_malformed_input(capsys, tmp_path):
    code, doc = _ha3_answer(capsys, tmp_path,
                            algebra_edit=lambda d: d.update(levi=5))
    assert (code, doc["error"]) == (2, "malformed-input")


def test_radical_that_is_no_list_is_malformed_input(capsys, tmp_path):
    # an object of the radical names was once read as its keys
    def edit(d):
        d["radical"] = {name: 1 for name in d["radical"]}
    code, doc = _ha3_answer(capsys, tmp_path, algebra_edit=edit)
    assert (code, doc["error"]) == (2, "malformed-input")


def test_bracket_name_that_is_no_string_is_malformed_input(capsys, tmp_path):
    def edit(d):
        d["brackets"][0]["i"] = [d["brackets"][0]["i"]]
    code, doc = _ha3_answer(capsys, tmp_path, algebra_edit=edit)
    assert (code, doc) == (2, {"error": "malformed-input",
                               "detail": "unknown generator ['J_12']"})


def test_spec_word_name_that_is_no_string_is_malformed_input(capsys,
                                                             tmp_path):
    def edit(d):
        d["f"][0]["word"] = [d["f"][0]["word"]]
    code, doc = _ha3_answer(capsys, tmp_path, spec_edit=edit)
    assert (code, doc) == (2, {"error": "malformed-input",
                               "detail": "unknown generator ['R']"})


def test_float_coefficient_is_malformed_input(capsys, tmp_path):
    # a JSON float is already rounded, so it is refused like any float
    def edit(d):
        d["brackets"][0]["terms"][0]["c"] = 0.1
    code, doc = _ha3_answer(capsys, tmp_path, algebra_edit=edit)
    assert (code, doc) == (2, {"error": "malformed-input",
                               "detail": "inexact coefficient 0.1"})


def test_boolean_coefficient_is_malformed_input(capsys, tmp_path):
    # exact alone would read true as 1
    def edit_row(d):
        d["brackets"][0]["terms"][0]["c"] = True

    def edit_spec(d):
        d["f"][0]["coeff"] = True
    for edits in ({"algebra_edit": edit_row}, {"spec_edit": edit_spec}):
        code, doc = _ha3_answer(capsys, tmp_path, **edits)
        assert (code, doc) == (2, {"error": "malformed-input",
                                   "detail": "bad rational True"})


def _setting(value, *keys):
    """An in-place edit of a JSON document: doc[keys[0]]...[keys[-1]] =
    value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def _edited_ha3(**edits):
    """verify-copy on edited Ha(3) files in a scratch folder, as argv."""
    return lambda folder: ["verify-copy"] + _ha3_files(folder, **edits)


# request (in a scratch folder) -> detail of its malformed-input refusal;
# each reaches one check of outside input through cli.main
_OUTSIDE_INPUT = {
    "algebra-is-a-list": (
        lambda p: ["verify-copy", "--algebra", write_json(p / "a.json", [])],
        "algebra document must be a JSON object"),
    "name-is-no-string": (
        _edited_ha3(algebra_edit=lambda d: d["names"].append(7)),
        "names must be a list of strings"),
    "name-is-empty": (
        _edited_ha3(algebra_edit=lambda d: d["names"].append("")),
        "generator names must be nonempty strings"),
    "bad-bracket-term": (
        _edited_ha3(algebra_edit=_setting("x", "brackets", 0, "terms", 0)),
        "bad bracket term 'x'"),
    "bad-bracket-row": (
        _edited_ha3(algebra_edit=_setting("x", "brackets", 0)),
        "bad bracket row 'x'"),
    "terms-are-no-list": (
        _edited_ha3(algebra_edit=_setting({}, "brackets", 0, "terms")),
        "bracket terms must be a list"),
    "brackets-are-no-list": (
        _edited_ha3(algebra_edit=_setting({}, "brackets")),
        "brackets must be a list"),
    "spec-term-is-no-object": (
        _edited_ha3(spec_edit=_setting("x", "f", 0)),
        "bad enveloping term 'x'"),
    "spec-word-is-no-list": (
        _edited_ha3(spec_edit=_setting("R", "f", 0, "word")),
        "term word must be a list of names"),
    "weights-file-holds-a-list": (
        lambda p: ["contract", "--family", "Ha", "--N", "3", "--weights",
                   write_json(p / "w.json", [1, 2])],
        "weights must be a JSON object mapping names to integers"),
    "inline-weights-are-a-list": (
        lambda p: ["contract", "--family", "Ha", "--N", "3",
                   "--weights", "[1]"],
        "weights must be a JSON object mapping names to integers"),
    "inline-weights-are-a-number": (
        lambda p: ["contract", "--family", "Ha", "--N", "3",
                   "--weights", " 5"],
        "weights must be a JSON object mapping names to integers"),
    "spec-with-a-family": (
        lambda p: ["verify-copy", "--family", "Ha", "--N", "3",
                   "--spec", "x.json"],
        "--spec only combines with --algebra"),
}


@pytest.mark.parametrize("case", sorted(_OUTSIDE_INPUT))
def test_outside_input_is_refused_as_malformed(capsys, tmp_path, case):
    argv, detail = _OUTSIDE_INPUT[case]
    code, out = run(capsys, *argv(tmp_path), "--format", "json")
    assert (code, json.loads(out)) == (2, {"error": "malformed-input",
                                           "detail": detail})


def _ha3_with_spec(spec_doc):
    """verify-copy on Ha(3)'s algebra file and a spec file holding
    spec_doc, as argv in a scratch folder."""
    return lambda folder: (["verify-copy"] + _ha3_files(folder)[:2]
                           + ["--spec", write_json(folder / "s.json",
                                                   spec_doc)])


def _small_files(command, names, levi, brackets=(), f=None):
    """command on an algebra file over names, levi named and the rest
    radical, with brackets (i, j, k, c) by name, and a spec file with f
    (a generator name) and no P when f is given; argv in a folder."""
    doc = {"names": names, "levi": levi,
           "radical": [m for m in names if m not in levi],
           "brackets": [{"i": i, "j": j, "terms": [{"k": k, "c": c}]}
                        for i, j, k, c in brackets]}

    def argv(folder):
        flags = ["--algebra", write_json(folder / "a.json", doc)]
        if f is not None:
            flags += ["--spec", write_json(folder / "s.json", {
                "f": [{"word": [f], "coeff": "1"}], "P": {}})]
        return [command] + flags
    return argv


def _p_entry(name, words):
    """An in-place edit of a spec document: P[name] = the words, each with
    coefficient 1."""
    def edit(doc):
        doc["P"][name] = [{"word": w, "coeff": "1"} for w in words]
    return edit


# request (in a scratch folder) -> (error tag, exit status, detail) of a
# check of outside input that reaches it only here, through cli.main
_KEPT_CHECKS = {
    "spec-is-no-object": (
        _ha3_with_spec([]), "malformed-input", 2,
        "spec document must be an object with f"),
    "spec-without-f": (
        _ha3_with_spec({"P": {}}), "malformed-input", 2,
        "spec document must be an object with f"),
    "P-is-no-object": (
        _edited_ha3(spec_edit=_setting([], "P")), "malformed-input", 2,
        "P must map generator names to elements"),
    "f-is-zero": (
        _edited_ha3(spec_edit=_setting([], "f")), "malformed-input", 2,
        "f must be nonzero"),
    "f-is-not-homogeneous": (
        _edited_ha3(spec_edit=lambda d: d["f"].append(
            {"word": ["R", "R"], "coeff": "1"})), "malformed-input", 2,
        "f is not homogeneous (word lengths [1, 2])"),
    "f-is-off-the-radical": (
        _edited_ha3(spec_edit=_setting(["J_12"], "f", 0, "word")),
        "malformed-input", 2, "f touches non-radical generators ['J_12']"),
    "P-keyed-by-a-radical-name": (
        _edited_ha3(spec_edit=_p_entry("R", [["R", "R"]])),
        "malformed-input", 2,
        "P is keyed by 'R', which is not a Levi generator"),
    "P-of-the-wrong-top-degree": (
        _edited_ha3(spec_edit=_p_entry("J_12", [["R"]])),
        "malformed-input", 2, "P[J_12] has top degree 1, expected 2"),
    "element-is-no-list": (
        _edited_ha3(spec_edit=_setting({}, "f")), "malformed-input", 2,
        "enveloping element must be a list of terms"),
    "algebra-lacks-a-key": (
        _edited_ha3(algebra_edit=lambda d: d.pop("levi")),
        "malformed-input", 2, "algebra document lacks 'levi'"),
    "bracket-row-with-i-equal-j": (
        _edited_ha3(algebra_edit=_setting("J_12", "brackets", 0, "j")),
        "malformed-input", 2, "bracket row with i = j = 'J_12'"),
    "no-names": (
        _small_files("count", [], []), "malformed-input", 2,
        "algebra needs at least one generator"),
    "duplicate-generator-name": (
        _small_files("count", ["a", "a"], []), "malformed-input", 2,
        "duplicate generator name 'a'"),
    "levi-and-radical-overlap": (
        _edited_ha3(algebra_edit=lambda d: d["radical"].append("J_12")),
        "malformed-input", 2, "levi and radical must partition the index set"),
    "levi-closure-violation": (
        _small_files("count", ["J_12", "J_13", "R"], ["J_12", "J_13"],
                     [("J_12", "J_13", "R", "1")]),
        "malformed-input", 2,
        "bracket table fails validation: levi closure: [J_12, J_13] "
        "contains R"),
    "rotation-label-J_21": (
        _small_files("casimirs", ["J_21", "R"], ["J_21"], f="R"),
        "not-applicable", 2, "bad rotation label 'J_21'"),
    # str.isdigit takes other digits too: int refuses a superscript ², and
    # reads the Arabic-Indic ١٢ as 12, here with so(3)'s brackets
    "rotation-label-superscript-digits": (
        _small_files("casimirs", ["J_²³", "R"], ["J_²³"], f="R"),
        "not-applicable", 2, "Levi generator 'J_²³' is not of the J_ij form"),
    "rotation-labels-arabic-indic-digits": (
        _small_files("casimirs", ["J_١٢", "J_١٣", "J_٢٣", "R"],
                     ["J_١٢", "J_١٣", "J_٢٣"],
                     [("J_١٢", "J_٢٣", "J_١٣", "1"),
                      ("J_١٢", "J_١٣", "J_٢٣", "-1"),
                      ("J_١٣", "J_٢٣", "J_١٢", "-1")], f="R"),
        "not-applicable", 2, "Levi generator 'J_١٢' is not of the J_ij form"),
    "partial-rotation-block": (
        _small_files("casimirs", ["J_12", "J_13", "R"], ["J_12", "J_13"],
                     f="R"),
        "not-applicable", 2,
        "Levi part is not a full rotation block: have ['J_12', 'J_13']"),
    "family-without-N": (
        lambda folder: ["catalog", "--family", "Ha"], "malformed-input", 2,
        "family 'Ha' needs N"),
    "N-out-of-range": (
        lambda folder: ["catalog", "--family", "Ha", "--N", "2"],
        "malformed-input", 2, "family 'Ha' supports N in 3..9, got 2"),
    "weight-is-no-integer": (
        lambda folder: ["contract", "--family", "Ha", "--N", "3",
                        "--weights", '{"R": 1.5}'],
        "malformed-input", 2, "weight of 'R' must be an integer, got 1.5"),
}


@pytest.mark.parametrize("case", sorted(_KEPT_CHECKS))
def test_kept_input_checks_answer_through_the_cli(capsys, tmp_path, case):
    argv, tag, status, detail = _KEPT_CHECKS[case]
    code, out = run(capsys, *argv(tmp_path), "--format", "json")
    doc = json.loads(out)
    assert (code, doc["error"], doc["detail"]) == (status, tag, detail)


# outside JSON that the decoder refuses: a number past Python's int-string
# limit (4,300 digits) raises a plain ValueError, not a JSONDecodeError,
# and nesting past the recursion limit raises a RecursionError
HUGE_NUMBER = "1" * 5000
DEEP_NESTING = "[" * 100000


def _refuses_bad_json(capsys, argv, detail):
    """argv answers malformed-input with exit 2 and a detail that starts
    with detail, in json and in text."""
    code, out = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert (code, doc["error"]) == (2, "malformed-input")
    assert doc["detail"].startswith(detail)
    code, out = run(capsys, *argv, "--format", "text")
    assert code == 2 and out.startswith("error: " + detail)


def _refuses_bad_json_files(capsys, tmp_path, raw):
    """A file of the bytes raw is refused as bad JSON wherever a flag
    names a file: --algebra, --spec and --weights."""
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    for argv in (["validate", "--algebra", str(path)],
                 ["verify-copy", *_ha3_files(tmp_path)[:2],
                  "--spec", str(path)],
                 ["contract", "--family", "Ha", "--N", "3",
                  "--weights", str(path)]):
        _refuses_bad_json(capsys, argv, "bad JSON in %s: " % path)


def test_oversized_json_number_in_a_file_is_malformed_input(capsys,
                                                            tmp_path):
    doc = {"names": ["a", "b"],
           "brackets": [{"i": "a", "j": "b", "terms": [{"k": "b",
                                                        "c": "HUGE"}]}],
           "levi": [], "radical": ["a", "b"]}
    _refuses_bad_json_files(capsys, tmp_path, json.dumps(doc).replace(
        '"HUGE"', HUGE_NUMBER).encode("utf-8"))


def test_file_that_is_not_utf8_is_malformed_input(capsys, tmp_path):
    _refuses_bad_json_files(capsys, tmp_path, b'\xff{}')


def test_deeply_nested_json_in_a_file_is_malformed_input(capsys, tmp_path):
    _refuses_bad_json_files(capsys, tmp_path, DEEP_NESTING.encode("ascii"))


def test_oversized_json_number_in_inline_weights_is_malformed_input(capsys):
    _refuses_bad_json(capsys, ["contract", "--family", "Ha", "--N", "3",
                               "--weights", '{"R": %s}' % HUGE_NUMBER],
                      "bad inline weights JSON: ")


def test_deeply_nested_inline_weights_are_malformed_input(capsys):
    _refuses_bad_json(capsys, ["contract", "--family", "Ha", "--N", "3",
                               "--weights", '{"R": %s}' % DEEP_NESTING],
                      "bad inline weights JSON: ")


def test_bad_alpha_is_a_usage_error(capsys):
    # --alpha reads through sparse.exact; its refusal must reach argparse
    # as a usage error, not end the request in a traceback
    code, out = run(capsys, "catalog", "--family", "boson_example",
                    "--alpha", "1/0", "--format", "json")
    assert (code, json.loads(out)) == (2, {
        "error": "malformed-input",
        "detail": "argument --alpha: bad rational '1/0'"})
    code = main(["catalog", "--family", "boson_example", "--alpha", "x",
                 "--format", "text"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.endswith("error: argument --alpha: "
                                 "bad rational 'x'\n")


def test_usage_errors_answer_in_json(capsys):
    # validate takes no --spec; bb2 is no method
    code, out = run(capsys, "validate", "--family", "Ha", "--N", "3",
                    "--spec", "x.json", "--format", "json")
    assert code == 2
    assert json.loads(out) == {"error": "malformed-input",
                               "detail": "unrecognized arguments: --spec x.json"}
    code, out = run(capsys, "count", "--method", "bb2", "--format", "json")
    assert code == 2
    assert json.loads(out) == {
        "error": "malformed-input",
        "detail": "argument --method: invalid choice: 'bb2' "
                  "(choose from 'bb', 'bb1')"}
    # text keeps argparse's answer on stderr; --help still exits 0
    code = main(["count", "--method", "bb2", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage: liecas count")
    assert captured.err.endswith("liecas count: error: argument --method: "
                                 "invalid choice: 'bb2' "
                                 "(choose from 'bb', 'bb1')\n")
    assert main(["count", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: liecas count")


def test_format_without_a_value_is_a_text_usage_error(capsys):
    # no format can be read off the request, so argparse answers in text
    code = main(["validate", "--format"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage: liecas validate")
    assert captured.err.endswith("liecas validate: error: argument --format: "
                                 "expected one argument\n")


def test_every_fuzzed_input_gets_one_json_document():
    # seeded mutations of catalog dumps, specs and weights: each request
    # answers with one document and the exit its outcome declares
    counts = cli_fuzz(seed=34, cases=150)
    assert sum(counts.values()) == 150


# ---- determinism and format selection ---------------------------------------------


def test_same_seed_same_bytes(capsys):
    args = ("count", "--family", "QHa", "--N", "4", "--method", "bb1",
            "--verbose", "--format", "json", "--seed", "7")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["count"] == 6


def test_latex_output(capsys):
    code, out = run(capsys, "mc", "--family", "su11", "--format", "latex")
    assert code == 0
    assert "\\omega_{X_{1,1}}" in out
    assert "\\wedge" in out

    code, out = run(capsys, "count", "--family", "Ha", "--N", "3",
                    "--format", "latex")
    assert code == 0
    assert out == "N(\\mathfrak{g}) = 2\n"

    # a fractional structure constant is a \frac in brackets and forms
    code, out = run(capsys, "catalog", "--family", "boson_example",
                    "--alpha", "1/2", "--format", "latex")
    assert code == 0
    assert "\n[Q_{1}, P_{1}] = \\frac{1}{2} R\n" in out
    code, out = run(capsys, "mc", "--family", "boson_example",
                    "--alpha", "1/2", "--format", "latex")
    assert code == 0
    assert "+ \\frac{1}{2} \\omega_{Q_{1}} \\wedge \\omega_{E}\n" in out


# ---- subcommand documents ----------------------------------------------------------


def test_count_methods_agree(capsys):
    for family, N in (("IHa", 4), ("QHa", 3), ("so", 4)):
        counts = set()
        for method in ("bb", "bb1"):
            code, out = run(capsys, "count", "--family", family, "--N", str(N),
                            "--method", method, "--format", "json")
            assert code == 0
            counts.add(json.loads(out)["count"])
        assert len(counts) == 1


@pytest.mark.parametrize("factor", [2 ** 61 - 1, 7 * (2 ** 61 - 1)])
def test_count_ranks_so3_scaled_by_a_61_bit_prime(capsys, tmp_path, factor):
    # so(3) with every constant times p = 2^61 - 1 (or 7p) is still so(3);
    # ranked mod p alone, A(g) would read 0 at every point and count 3
    doc = algebra_to_json(build("so", 3)[0])
    for row in doc["brackets"]:
        for term in row["terms"]:
            term["c"] = str(factor * int(term["c"]))
    path = write_json(tmp_path / "so3_scaled.json", doc)
    for method in ("bb", "bb1"):
        for seed in range(1, 6):
            code, out = run(capsys, "count", "--algebra", path, "--method",
                            method, "--seed", str(seed), "--verbose",
                            "--format", "json")
            assert code == 0
            answer = json.loads(out)
            assert (answer["count"], answer["generic_rank"]) == (1, 2), \
                (method, seed)


@pytest.mark.parametrize("method, trials", [("bb", 3), ("bb1", 5)])
def test_count_verbose_echoes_the_method_and_samples_its_trials(
        capsys, method, trials):
    from liecas.invariants import invariant_count
    report = invariant_count(build("QHa", 3)[0], trials=trials, seed=11)
    code, out = run(capsys, "count", "--family", "QHa", "--N", "3",
                    "--method", method, "--seed", "11", "--verbose",
                    "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "count": report.count, "generic_rank": report.generic_rank,
        "method": method, "seed": 11,
        "witness_point": [str(x) for x in report.witness_point]}
    code, out = run(capsys, "count", "--family", "QHa", "--N", "3",
                    "--method", method, "--seed", "11", "--verbose")
    assert code == 0
    assert out.splitlines()[:2] == ["count: %d" % report.count,
                                    "method: %s" % method]


def test_mc_document_shape(capsys):
    code, out = run(capsys, "mc", "--family", "heisenberg", "--N", "1",
                    "--format", "json")
    assert code == 0
    forms = json.loads(out)["forms"]
    assert [row["k"] for row in forms] == ["P_1", "Q_1", "Z"]
    assert forms[0]["terms"] == []
    assert forms[2]["terms"] == [{"i": "P_1", "j": "Q_1", "c": "1"}]


def test_casimirs_document(capsys):
    code, out = run(capsys, "casimirs", "--family", "Ha", "--N", "3",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 3
    assert [row["l"] for row in doc["casimirs"]] == [1]
    row = doc["casimirs"][0]
    assert row["degree"] == 4
    assert row["coefficient"]
    assert row["symmetrized"]
    assert row["checked"] is True


def test_casimirs_without_a_rotation_pair(capsys, tmp_path):
    # h_1 dressed by f = Z alone has no Levi part: a rotation block of
    # size 1 and no even char-poly coefficient
    algebra, _spec = build("heisenberg", 1)
    flags = ["--algebra", write_json(tmp_path / "h1.json",
                                     algebra_to_json(algebra)),
             "--spec", write_json(tmp_path / "f.json", {
                 "f": [{"word": ["Z"], "coeff": "1"}], "P": {}})]
    code, out = run(capsys, "casimirs", *flags, "--format", "json")
    assert (code, out) == (0, '{"N": 1, "casimirs": []}\n')
    for fmt in ("text", "latex"):
        code, out = run(capsys, "casimirs", *flags, "--format", fmt)
        assert (code, out) == (0, "N = 1\n(no even coefficients: rotation "
                                  "block below 2)\n")


def test_casimirs_report_a_skipped_centrality_check(capsys, monkeypatch):
    # the one patch reaches both the check and the text note, which the
    # handler reads from casimir_gen when it runs
    monkeypatch.setattr(liecas.casimir_gen, "UCHECK_DEGREE_CAP", 3)
    code, out = run(capsys, "casimirs", "--family", "Ha", "--N", "3",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["casimirs"][0]["checked"] is False
    code, out = run(capsys, "casimirs", "--family", "Ha", "--N", "3")
    assert code == 0
    assert "(unchecked in U(g): degree 4 > 3)" in out.splitlines()


def test_contract_document(capsys):
    code, out = run(capsys, "contract", "--family", "boson_example",
                    "--weights", '{"Q_1": 1, "P_1": 1, "E": 1, "T": 1}',
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["copy_compatible"] is True
    assert doc["f_top_weight"] == 2
    assert doc["verify"]["passed"] is True
    assert set(doc["operators"]) == {"X_1,1", "X_-1,1", "X_1,-1"}


def test_a_lighter_p_half_leaves_the_f_half_alone(capsys, tmp_path):
    # [H, A] = B and [A, B] = Z, dressed by f = Z and P_H = B^2 / 2: the
    # weighting puts P_H at 0 below f at 1, so the limit operator of H
    # keeps only its f half and is no longer of the dressed shape
    apath = write_json(tmp_path / "a.json", {
        "names": ["H", "A", "B", "Z"],
        "brackets": [{"i": "H", "j": "A", "terms": [{"k": "B", "c": "1"}]},
                     {"i": "A", "j": "B", "terms": [{"k": "Z", "c": "1"}]}],
        "levi": ["H"], "radical": ["A", "B", "Z"]})
    spath = write_json(tmp_path / "s.json", {
        "f": [{"word": ["Z"], "coeff": "1"}],
        "P": {"H": [{"word": ["B", "B"], "coeff": "1/2"}]}})
    argv = ["contract", "--algebra", apath, "--spec", spath,
            "--weights", '{"A": 2, "Z": 1}']
    code, out = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["f_top_weight"] == 1
    assert doc["p_top_weights"] == {"H": 0}
    assert doc["copy_compatible"] is False
    assert doc["contracted_dressing"] is None
    code, out = run(capsys, *argv)
    assert (code, out) == (0, "weights: A=2, Z=1\n"
                              "top weight of f: 1\n"
                              "top weight of P[H]: 0\n"
                              "copy compatible: no\n"
                              "contracted bracket table:\n"
                              "limit operators:\n"
                              "H'' = H*Z\n")


def test_contract_weights_from_file(capsys, tmp_path):
    wpath = write_json(tmp_path / "w.json", {"Z": -1})
    code, out = run(capsys, "contract", "--family", "heisenberg", "--N", "2",
                    "--weights", wpath, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["contracted_algebra"]["brackets"] == []


def test_catalog_lists_every_family(capsys):
    code, out = run(capsys, "catalog", "--format", "json")
    assert code == 0
    rows = json.loads(out)["families"]
    assert [row["name"] for row in rows] == list(FAMILIES)
    assert all(set(row) >= {"name", "parameter", "carries_dressing", "about"}
               for row in rows)
    code, out = run(capsys, "catalog")
    lines = out.splitlines()
    assert code == 0
    assert [line.split(":")[0] for line in lines] == list(FAMILIES)
    for line in ("so: N in 2..9; no dressing; the rotation block so(N) alone",
                 "su11: fixed; no dressing; the three-generator split real "
                 "rank-one algebra",
                 "weyl_quesne: n in 1..9; with dressing; gl(n) over n boson "
                 "pairs and a unit",
                 "boson_example: alpha rational, default 1; with dressing; "
                 "rank-one Levi over two oscillator pairs and three more "
                 "directions; dressing at alpha = 1"):
        assert line in lines


def test_catalog_dump_round_trips(capsys, tmp_path):
    code, out = run(capsys, "catalog", "--family", "IHa_AM", "--N", "3",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    apath = write_json(tmp_path / "a.json", doc["algebra"])
    spath = write_json(tmp_path / "s.json", doc["spec"])
    code, out = run(capsys, "verify-copy", "--algebra", apath,
                    "--spec", spath, "--format", "json")
    assert code == 0
    assert out == '{"passed": true}\n'


def test_catalog_dump_loads_whole(capsys, tmp_path):
    code, out = run(capsys, "catalog", "--family", "IHa_AM", "--N", "3",
                    "--format", "json")
    assert code == 0
    path = write_json(tmp_path / "dump.json", json.loads(out))
    code, out = run(capsys, "verify-copy", "--algebra", path,
                    "--format", "json")
    assert code == 0
    assert out == '{"passed": true}\n'
    code, out = run(capsys, "count", "--algebra", path, "--format", "json")
    assert code == 0
    assert out == '{"count": 4}\n'


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "liecas.cli", "count", "--family", "IHa",
         "--N", "4", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == '{"count": 3}\n'


def test_closed_stdout_exits_quietly():
    # the reader is gone before the first byte: no traceback, one status
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liecas.cli", "casimirs", "--family", "IHa",
             "--N", "3", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == liecas.cli.BROKEN_PIPE == 141
    assert proc.stderr == b""


# a child that caps its own address space 20 MB above what it has mapped
# (read from Linux's /proc), with the casimirs layers already loaded, then
# runs the request
_OUT_OF_MEMORY = """
import resource, sys
import liecas.casimir_gen, liecas.catalog, liecas.cli, liecas.enveloping
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
_soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (mapped + 20 * 2 ** 20, hard))
sys.exit(liecas.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("fmt,answer", [
    ("json", '{"detail": "out of memory", "error": "out-of-memory"}\n'),
    ("text", "error: out of memory\n")])
def test_running_out_of_memory_answers_an_error(fmt, answer):
    # QHa(4)'s casimirs need about 65 MB more than the child has mapped:
    # the MemoryError is answered in the requested format, with no
    # traceback on stderr
    proc = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY, "casimirs", "--family", "QHa",
         "--N", "4", "--format", fmt], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, answer, "")


# ---- each request loads only what it runs ---------------------------------------

_LOADED = """
import contextlib, io, json, sys
import liecas.cli
requests, modules = json.loads(sys.argv[1])
codes = []
for argv in requests:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(liecas.cli.main(argv))
print(json.dumps({"codes": codes,
                  "loaded": [name for name in modules if name in sys.modules]}))
"""

# no request needs these: records are namedtuples and plain classes
_RECORD_MACHINERY = ["dataclasses", "inspect"]


def _fresh_run(requests, modules):
    """Exit statuses of the requests, run in order in a fresh interpreter,
    and which of the modules it then had loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, json.dumps([requests, modules])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_requests_on_an_algebra_file_load_no_dressing_layer(tmp_path):
    # validate, count, mc and a contraction without a dressing never reach
    # U(g), a dressing or the catalog, so a fresh interpreter running them
    # must not have imported those modules
    algebra, _spec = build("QHa", 3)
    path = write_json(tmp_path / "qha3.json", algebra_to_json(algebra))
    weights = json.dumps({"R": 1, "G_1": 1, "G_2": 1, "G_3": 1})
    requests = [argv + ["--algebra", path] for argv in (
        ["validate"], ["count", "--method", "bb1"], ["mc"],
        ["contract", "--weights", weights])]
    assert _fresh_run(requests, [
        "liecas.enveloping", "liecas.virtual_copy", "liecas.casimir_gen",
        "liecas.catalog"] + _RECORD_MACHINERY) == {
        "codes": [0, 0, 0, 0], "loaded": []}


def test_dressed_requests_load_only_their_layers():
    # a dressing is verified without invariant counts, and neither route
    # builds a dataclass
    assert _fresh_run([["verify-copy", "--family", "QHa", "--N", "3"]], [
        "liecas.invariants", "liecas.linalg"] + _RECORD_MACHINERY) == {
        "codes": [0], "loaded": []}
    assert _fresh_run([["casimirs", "--family", "Ha", "--N", "3"]],
                      _RECORD_MACHINERY) == {"codes": [0], "loaded": []}


def test_casimirs_loads_neither_invariants_nor_linalg():
    # the covariance check and the analytic realization it applies live in
    # casimir_gen, so no casimirs request counts invariants or ranks
    assert _fresh_run([["casimirs", "--family", family, "--N", "3"]
                       for family in ("Ha", "IHa", "QHa")],
                      ["liecas.invariants", "liecas.linalg"]) == {
        "codes": [0, 0, 0], "loaded": []}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


_ERROR_ARGS = {DegreeOverflowError: (9, 8),
               LimitDoesNotExistError: ("P_1", "Q_1", "Z", -3),
               liecas.cli._UsageError: (None, "boom")}


@pytest.mark.parametrize("cls", sorted(_subclasses(LiecasError),
                                       key=lambda c: c.__name__))
def test_every_error_becomes_a_json_document(capsys, monkeypatch, cls):
    def handler(args, fmt):
        raise cls(*_ERROR_ARGS.get(cls, ("boom",)))

    monkeypatch.setitem(liecas.cli._HANDLERS, "catalog", handler)
    code, out = run(capsys, "catalog", "--format", "json")
    assert (code, json.loads(out)["error"]) == (cls.status, cls.kind)


def _readme_error_table():
    """{kind: exit} from README's | error | exit | when | table; the row
    that names no kind is keyed None."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        rows = fh.read().split("| `error` | exit | when |\n", 1)[1]
    table = {}
    for row in rows.splitlines()[1:]:
        if not row.startswith("|"):
            break
        kind, status = (cell.strip() for cell in row.split("|")[1:3])
        table[kind.strip("`") if kind.startswith("`") else None] = int(status)
    return table


def test_readme_error_table_lists_what_the_error_classes_declare():
    folder = os.path.dirname(liecas.cli.__file__)
    source = ""
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py") and name != "errors.py":
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                source += fh.read()
    raised = [cls for cls in _subclasses(LiecasError)
              if "%s(" % cls.__name__ in source]
    assert raised
    for cls in raised:
        assert isinstance(cls.kind, str) and type(cls.status) is int, cls
    assert _readme_error_table() == {
        None: liecas.cli.BROKEN_PIPE,
        **{cls.kind: cls.status for cls in raised}}


# ---- one verify per request ------------------------------------------------------


def _count_verify(monkeypatch):
    original = liecas.virtual_copy.verify
    calls = []

    def counted(spec):
        calls.append(spec)
        return original(spec)

    for module in (liecas.virtual_copy, liecas.contraction, liecas.cli):
        if getattr(module, "verify", None) is original:
            monkeypatch.setattr(module, "verify", counted)
    return calls


def test_one_verify_per_request(capsys, monkeypatch):
    calls = _count_verify(monkeypatch)
    code, _out = run(capsys, "casimirs", "--family", "Ha", "--N", "3",
                     "--format", "json")
    assert code == 0
    assert len(calls) == 1
    del calls[:]
    # the dressing, then the contracted dressing it carries to the limit
    code, out = run(capsys, "contract", "--family", "boson_example",
                    "--weights", '{"Q_1": 1, "P_1": 1, "E": 1, "T": 1}',
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["verify"]["passed"] is True
    assert len(calls) == 2


def test_failing_dressing_prints_its_report(capsys, tmp_path):
    algebra, spec = build("Ha", 3)
    apath = write_json(tmp_path / "ha3.json", algebra_to_json(algebra))
    spath = write_json(tmp_path / "bare.json", dict(emit_spec(spec), P={}))
    for fmt in ("json", "text"):
        code, report = run(capsys, "verify-copy", "--algebra", apath,
                           "--spec", spath, "--format", fmt)
        assert code == 1
        for argv in (["casimirs"], ["contract", "--weights", "{}"]):
            assert run(capsys, *argv, "--algebra", apath, "--spec", spath,
                       "--format", fmt) == (1, report)


def test_a_failing_report_exits_with_the_precondition_status(
        capsys, tmp_path, monkeypatch):
    # the report answers for a PreconditionError, so its class owns the exit
    monkeypatch.setattr(PreconditionError, "status", 7)
    algebra, spec = build("Ha", 3)
    apath = write_json(tmp_path / "ha3.json", algebra_to_json(algebra))
    spath = write_json(tmp_path / "bare.json", dict(emit_spec(spec), P={}))
    code, out = run(capsys, "verify-copy", "--algebra", apath, "--spec",
                    spath, "--format", "json")
    assert code == 7
    assert json.loads(out)["passed"] is False


def test_casimirs_off_a_rotation_block_is_not_applicable(capsys):
    code, out = run(capsys, "casimirs", "--family", "boson_example",
                    "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "not-applicable"


def test_casimirs_refuses_another_rotation_sign_convention(capsys,
                                                           tmp_path):
    # Ha(3) with every J_ij negated: each stored coefficient times
    # s_i s_j s_k, s = -1 on a J, and P -> -P.  The file validates and the
    # dressing verifies, but [J_12, J_13] = +J_23 is not the so(3) bracket
    # its labels name, so casimirs does not apply; it is no internal fault
    def sign(name):
        return -1 if name.startswith("J_") else 1

    def negate(doc):
        for row in doc["brackets"]:
            for term in row["terms"]:
                c = Fraction(term["c"]) * sign(row["i"]) * sign(row["j"])
                term["c"] = str(c * sign(term["k"]))

    def negate_p(doc):
        for terms in doc["P"].values():
            for term in terms:
                term["coeff"] = str(-Fraction(term["coeff"]))

    flags = _ha3_files(tmp_path, algebra_edit=negate, spec_edit=negate_p)
    assert run(capsys, "validate", *flags[:2], "--format", "json")[0] == 0
    assert run(capsys, "verify-copy", *flags, "--format", "json") == (
        0, '{"passed": true}\n')
    detail = ("Levi bracket [J_12, J_13] is not the so(3) bracket of its "
              "labels, [J_ij, J_jk] = J_ik, [J_ij, J_ik] = -J_jk and "
              "[J_ik, J_jk] = -J_ij for i < j < k")
    code, out = run(capsys, "casimirs", *flags, "--format", "json")
    assert (code, json.loads(out)) == (2, {"error": "not-applicable",
                                           "detail": detail})
    assert run(capsys, "casimirs", *flags) == (2, "error: %s\n" % detail)


@pytest.mark.parametrize("family", FAMILIES)
def test_catalog_dump_round_trips_through_validate(capsys, tmp_path, family):
    least = FAMILIES[family].least
    select = ["--family", family] + ([] if least is None
                                     else ["--N", str(least)])
    code, dump = run(capsys, "catalog", *select, "--format", "json")
    assert code == 0
    path = tmp_path / "dump.json"
    path.write_text(dump, encoding="utf-8")
    code, from_file = run(capsys, "validate", "--algebra", str(path),
                          "--format", "json")
    assert code == 0
    assert json.loads(from_file)["ok"] is True
    assert run(capsys, "validate", *select, "--format", "json") == (0,
                                                                    from_file)


# ---- golden bytes of the report documents -----------------------------------------


def _stripped_iha3(tmp_path):
    # IHa(3) with every P term that touches R dropped: the dressing no
    # longer commutes with the radical nor closes up to f
    algebra, spec = build("IHa", 3)
    doc = emit_spec(spec)
    doc["P"] = {name: [t for t in terms if "R" not in t["word"]]
                for name, terms in doc["P"].items()}
    return ["--algebra", write_json(tmp_path / "iha3.json",
                                    algebra_to_json(algebra)),
            "--spec", write_json(tmp_path / "stripped.json", doc)]


def _literal_boson(tmp_path):
    # the left-to-right products of the boson_example dressing, which miss
    # the su(1,1) closure by 4f
    algebra, good = build("boson_example")
    ix = algebra.name_index
    G, F, Q, P, R, T = (ix[m] for m in ("G_1", "F_1", "Q_1", "P_1", "R", "T"))
    literal = dict(good.P)
    literal[ix["X_1,1"]] = PBWElement.from_terms(algebra, {
        (T, Q, F): Fraction(1), (T, G, P): Fraction(1),
        (R, G, F): Fraction(-1), (R, Q, P): Fraction(-1)})
    spec = make_spec(good.f, literal)
    return ["--algebra", write_json(tmp_path / "boson.json",
                                    algebra_to_json(algebra)),
            "--spec", write_json(tmp_path / "literal.json", emit_spec(spec))]


def _noncentral_f(tmp_path):
    # f = G_1 commutes neither with the radical nor with the Levi part
    algebra, _spec = build("boson_example")
    return ["--algebra", write_json(tmp_path / "boson.json",
                                    algebra_to_json(algebra)),
            "--spec", write_json(tmp_path / "f_g1.json",
                                 {"f": [{"coeff": "1", "word": ["G_1"]}]})]


def _non_lie(tmp_path):
    # Jacobi fails on (a, b, c); with {a, b} declared Levi, [a, b] = c also
    # leaks into the radical and [a, c] = b into the Levi part
    doc = {
        "names": ["a", "b", "c"],
        "brackets": [
            {"i": "a", "j": "b", "terms": [{"k": "c", "c": "1"}]},
            {"i": "a", "j": "c", "terms": [{"k": "b", "c": "1/2"}]},
            {"i": "b", "j": "c", "terms": [{"k": "c", "c": "1"}]},
        ],
        "levi": ["a", "b"],
        "radical": ["c"],
    }
    return ["--algebra", write_json(tmp_path / "non_lie.json", doc)]


_GOLDEN_CASES = {
    "verify-copy-stripped": (["verify-copy"], _stripped_iha3),
    "contract-stripped": (["contract", "--weights", '{"R": 1}'],
                          _stripped_iha3),
    "verify-copy-literal": (["verify-copy"], _literal_boson),
    "verify-copy-noncentral-f": (["verify-copy"], _noncentral_f),
    "validate-non-lie": (["validate"], _non_lie),
    "load-non-lie": (["count"], _non_lie),
}

# (exit code, SHA-256 of stdout) per case and format
_GOLDEN = {
    ("contract-stripped", "json"):
        (1, "fe3707893a548818d88420d60f3a7d64024a70f5c2b6f4e0c118b147db0c44d3"),
    ("contract-stripped", "text"):
        (1, "eb9d2774903a440b255beddfc0124f242c1078a57f879fae5c2233763d8f237f"),
    # the refusal names the first violating triple and renders no residual
    ("load-non-lie", "json"):
        (2, "5daac74495f850065e4609cc83433c5db62a1ce5486a6a8643e774eadaa9b4ec"),
    ("load-non-lie", "text"):
        (2, "234d167a15c6e5925000417691078905d357aa5102fcd926ceeed5fa8b28d75f"),
    ("validate-non-lie", "json"):
        (1, "04e0dca08b48dff22939ff9943a18e1464658cc056d837b5e5d7fa5b7e0d4447"),
    ("validate-non-lie", "text"):
        (1, "0eaabb08ec3a64b7abe36afc26cae48f49733090083170a9eb3d53a22bd11f0a"),
    ("verify-copy-literal", "json"):
        (1, "b1bd1c267138f8b5a53bf9d521fccf0abc8498fa6346abc157ef21f966233584"),
    ("verify-copy-literal", "text"):
        (1, "2e706304958e76dec593a228d6e865878baa038aa6a237d49ecb55d6b9bddc65"),
    ("verify-copy-noncentral-f", "json"):
        (1, "fb182b3f0e825b5508abd647132746c063083c2fb51a6d119c9bfaef968424c1"),
    ("verify-copy-noncentral-f", "text"):
        (1, "e4d234cb8a85e6f92217b128b5222bda5a67fa29a06833149cff4aaa45236f4c"),
    ("verify-copy-stripped", "json"):
        (1, "fe3707893a548818d88420d60f3a7d64024a70f5c2b6f4e0c118b147db0c44d3"),
    ("verify-copy-stripped", "text"):
        (1, "eb9d2774903a440b255beddfc0124f242c1078a57f879fae5c2233763d8f237f"),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
def test_report_documents_keep_their_bytes(capsys, tmp_path, case, fmt):
    argv, inputs = _GOLDEN_CASES[case]
    code, out = run(capsys, *argv, *inputs(tmp_path), "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        _GOLDEN[case, fmt]
