"""End-to-end command line checks through real subprocesses."""

import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cliffilt import cli

CMD = [sys.executable, "-m", "cliffilt.cli"]


def run(args, stdin=None):
    return subprocess.run(CMD + args, input=stdin, capture_output=True, text=True)


@pytest.fixture(scope="module")
def degree_doc():
    out = run(["example", "exterior4-degree"])
    assert out.returncode == 0
    return out.stdout


def test_examples_emit_valid_documents():
    for name in ("exterior4-degree", "exterior4-hodge", "cl5-irreducible", "cl1-trivial"):
        out = run(["example", name])
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["schema"] == "cliffilt/1"
        check = run(["check"], stdin=out.stdout)
        assert check.returncode == 0, name
        assert json.loads(check.stdout)["pass"] is True


def test_pipe_invariants_known_values(degree_doc):
    hodge = run(["example", "exterior4-hodge"]).stdout
    out = run(["invariants"], stdin=hodge)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["source_dims"] == [1, 0, 3, 0, 0]
    out = run(["invariants"], stdin=degree_doc)
    assert json.loads(out.stdout)["source_dims"] == [1, 0, 0, 0, 0]


def test_pipe_roundtrip_passes(degree_doc):
    out = run(["roundtrip"], stdin=degree_doc)
    assert out.returncode == 0
    assert json.loads(out.stdout)["pass"] is True


def test_check_refuses_a_certificate(degree_doc):
    # `check` takes five kinds; a certificate, such as roundtrip's, is none
    out = run(["check"], stdin=run(["roundtrip"], stdin=degree_doc).stdout)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: expected ") and out.stderr.count("\n") == 1, out.stderr
    assert out.stderr.rstrip().endswith("got Certificate")


def test_deform_quotient_chain(degree_doc):
    rep = run(["deform"], stdin=degree_doc)
    assert rep.returncode == 0
    back = run(["quotient", "--k", "1"], stdin=rep.stdout)
    assert back.returncode == 0
    assert json.loads(back.stdout)["kind"] == "onshell_module"
    collapsed = run(["quotient", "--k", "0"], stdin=rep.stdout)
    assert json.loads(collapsed.stdout)["dims"] == [1, 4, 6, 4, 1]
    checked = run(["check"], stdin=back.stdout)
    assert checked.returncode == 0


def test_corrupted_document_fails_check(degree_doc):
    doc = json.loads(degree_doc)
    doc["even_flags"][1]["rows"][0][7] = "5"
    out = run(["check"], stdin=json.dumps(doc))
    assert out.returncode == 1
    cert = json.loads(out.stdout)
    assert cert["pass"] is False and cert["witness"] is not None


def test_malformed_inputs_exit_two():
    assert run(["check"], stdin="garbage").returncode == 2
    assert run(["check"], stdin='{"schema": "other"}').returncode == 2
    rep = run(["deform"], stdin=run(["example", "cl1-trivial"]).stdout)
    assert run(["quotient", "--k", "-2"], stdin=rep.stdout).returncode == 2
    assert run(["quotient", "--k", "x"], stdin=rep.stdout).returncode == 2
    # Fraction would build 10**10000000 exactly, which takes seconds
    assert run(["quotient", "--k", "1e10000000"], stdin=rep.stdout).returncode == 2


@pytest.mark.parametrize("kind", ["module", "filtration"])
def test_declared_dimension_that_disagrees_exits_two(kind, degree_doc):
    doc = json.loads(degree_doc)
    doc["dim_even"] = 99
    if kind == "module":
        doc["kind"] = "module"
        del doc["even_flags"], doc["odd_flags"]
    out = run(["check"], stdin=json.dumps(doc))
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


def test_negative_budget_and_candidates_exit_two():
    doc = run(["example", "cl1-trivial"]).stdout
    for args in (["search", "--target", "1,1", "--budget", "-5"],
                 ["decompose", "--candidates", "-3"]):
        out = run(args, stdin=doc)
        assert out.returncode == 2 and out.stdout == "", args
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert json.loads(run(["search", "--target", "1,1", "--budget", "0"], stdin=doc).stdout)[
        "count"] == 0
    assert run(["decompose", "--candidates", "0"], stdin=doc).returncode == 0


def test_library_value_errors_exit_two_with_one_line(tmp_path):
    # the CLI keeps no copy of the library's argument checks: each of their
    # ValueErrors is one `error:` line and exit 2, a zero denominator too
    triv = run(["example", "cl1-trivial"]).stdout
    rep = run(["deform"], stdin=triv).stdout
    path = tmp_path / "triv.json"
    path.write_text(triv)
    birep = run(["deform"], stdin=run(["tensor", "--p", str(path), "--q", str(path)]).stdout)
    for args, stdin, message in [
            (["quotient", "--k", "-1"], rep, "shell value must be nonnegative"),
            (["quotient", "--k", "1/0"], rep, "zero denominator in rational '1/0'"),
            (["quotient", "--k", "1/0,1"], birep.stdout, "zero denominator"),
            (["quotient", "--k", "1,-1"], birep.stdout, "shell values must be positive"),
            (["decompose", "--candidates", "-1"], triv, "candidates must be nonnegative"),
            (["search", "--target", "3,3"], triv, "target parity sums"),
            (["envcheck", "--n", "13"], None, "limit of 12")]:
        out = run(args, stdin=stdin)
        assert out.returncode == 2 and out.stdout == "", args
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert message in out.stderr, (args, out.stderr)


def test_decompose_emits_summands():
    hodge = run(["example", "exterior4-hodge"]).stdout
    out = run(["decompose"], stdin=hodge)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert len(doc["summands"]) == 2
    assert all(s["status"] == "indecomposable (certified)" for s in doc["summands"])


def test_search_deterministic_and_valid():
    module = run(["example", "cl5-irreducible"]).stdout
    a = run(["search", "--target", "2,8,6", "--budget", "60", "--seed", "0"], stdin=module)
    b = run(["search", "--target", "2,8,6", "--budget", "60", "--seed", "0"], stdin=module)
    assert a.returncode == 0 and a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["count"] >= 1
    for enc in doc["filtrations"]:
        validated = run(["check"], stdin=json.dumps(enc))
        assert validated.returncode == 0


def test_tensor_bideform_biquotient_chain(tmp_path, degree_doc):
    # deform, check and quotient take the bifiltered and bigraded documents
    ext1 = run(["example", "cl1-trivial"]).stdout
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    p_path.write_text(degree_doc)
    q_path.write_text(ext1)
    bf = run(["tensor", "--p", str(p_path), "--q", str(q_path)])
    assert bf.returncode == 0
    assert json.loads(bf.stdout)["kind"] == "bifiltered_module"
    rep = run(["deform"], stdin=bf.stdout)
    assert rep.returncode == 0
    assert json.loads(rep.stdout)["kind"] == "bigraded_rep"
    ver = run(["check"], stdin=rep.stdout)
    assert ver.returncode == 0 and json.loads(ver.stdout)["pass"] is True
    back = run(["quotient", "--k", "2,1/3"], stdin=rep.stdout)
    assert back.returncode == 0
    assert run(["check"], stdin=back.stdout).returncode == 0


def test_quotients_reject_invalid_reps(tmp_path, degree_doc):
    # a doubled Q map breaks the relations the quotients assume (exit 1 with
    # the certificate); a bad shell value is still a malformed argument
    def doubled(rows):
        return [[str(2 * Fraction(x)) for x in row] for row in rows]

    rep = json.loads(run(["deform"], stdin=degree_doc).stdout)
    rep["q_maps"][0][-1]["rows"] = doubled(rep["q_maps"][0][-1]["rows"])
    for k in ("1", "0"):
        out = run(["quotient", "--k", k], stdin=json.dumps(rep))
        assert out.returncode == 1 and json.loads(out.stdout)["check"] == "offshell_relations"
    assert run(["quotient", "--k", "x"], stdin=json.dumps(rep)).returncode == 2

    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    p_path.write_text(degree_doc)
    q_path.write_text(run(["example", "cl1-trivial"]).stdout)
    bf = run(["tensor", "--p", str(p_path), "--q", str(q_path)])
    birep = json.loads(run(["deform"], stdin=bf.stdout).stdout)
    top = birep["q_plus"][0][-1][-1]
    top["rows"] = doubled(top["rows"])
    out = run(["quotient", "--k", "1,1"], stdin=json.dumps(birep))
    assert out.returncode == 1 and json.loads(out.stdout)["check"] == "bigraded_relations"
    assert run(["quotient", "--k", "0,1"], stdin=json.dumps(birep)).returncode == 2
    out = run(["quotient", "--k", "1,1e10000000"], stdin=json.dumps(birep))
    assert out.returncode == 2


def test_export_dot(degree_doc, tmp_path):
    out = run(["export-dot"], stdin=degree_doc)
    assert out.returncode == 0
    assert out.stdout.startswith("digraph adinkra {")
    # non-adapted case exits 1 with a certificate
    hodge = run(["example", "exterior4-hodge"]).stdout
    bad = run(["export-dot"], stdin=hodge)
    assert bad.returncode == 1
    assert json.loads(bad.stdout)["pass"] is False

    path = tmp_path / "g.dot"
    saved = run(["export-dot", "-o", str(path)], stdin=degree_doc)
    assert saved.returncode == 0 and path.read_text().startswith("digraph")


# on exterior4-hodge: 1 +- vol and g_j g_0 (1 +- vol) for j = 1..3 (even),
# g_i (1 +- vol) for i = 0..3 (odd), in the monomial coordinates
HODGE_BASIS = {
    "even": [[1, 0, 0, 0, 0, 0, 0, 1], [0, -1, 0, 0, 0, 0, 1, 0], [0, 0, -1, 0, 0, -1, 0, 0],
             [0, 0, 0, -1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, -1], [0, -1, 0, 0, 0, 0, -1, 0],
             [0, 0, -1, 0, 0, 1, 0, 0], [0, 0, 0, -1, -1, 0, 0, 0]],
    "odd": [[1, 0, 0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0, -1, 0], [0, 0, 1, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, -1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, -1], [0, 1, 0, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, -1, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0]],
}


def test_export_dot_accepts_an_adapted_hodge_basis(tmp_path):
    # the failing certificate without --basis is about the coordinate basis
    hodge = run(["example", "exterior4-hodge"]).stdout
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({key: [[str(x) for x in row] for row in rows]
                                for key, rows in HODGE_BASIS.items()}))
    out = run(["export-dot", "--basis", str(path)], stdin=hodge)
    assert out.returncode == 0, out.stdout
    assert out.stdout.startswith("digraph adinkra {")
    ranks = [line for line in out.stdout.splitlines() if "rank=same" in line]
    assert [line.count("shape=") for line in ranks] == [1, 4, 6, 4, 1]


def _identity_rows(dim):
    return [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]


def test_export_dot_rejects_a_basis_with_extra_columns(degree_doc, tmp_path):
    # 8 x 9 even rows of full rank: the span check names them, where the
    # length check inside the height search used to
    path = tmp_path / "basis.json"
    wide = [row + ["0"] for row in _identity_rows(8)]
    path.write_text(json.dumps({"even": wide, "odd": _identity_rows(8)}))
    out = run(["export-dot", "--basis", str(path)], stdin=degree_doc)
    assert out.returncode == 1
    cert = json.loads(out.stdout)
    assert (cert["check"], cert["pass"]) == ("adapted_basis", False)
    assert cert["witness"] == {"reason": "even basis does not span the even component"}


def _set_basis_entry(value):
    def defect(basis):
        basis["even"][0][0] = value
    return defect


def _ragged(basis):
    basis["odd"][1].pop()


# each of these gave exit 0 (the first three) or a traceback (the last)
BAD_BASIS = {
    "float entry": _set_basis_entry(1.0),
    "bool entry": _set_basis_entry(True),
    "exponent entry": _set_basis_entry("1e0"),
    "ragged row": _ragged,
}


@pytest.mark.parametrize("defect", sorted(BAD_BASIS))
def test_export_dot_basis_follows_document_rules(defect, degree_doc, tmp_path):
    path = tmp_path / "basis.json"
    basis = {"even": _identity_rows(8), "odd": _identity_rows(8)}
    path.write_text(json.dumps(basis))
    assert run(["export-dot", "--basis", str(path)], stdin=degree_doc).returncode == 0
    BAD_BASIS[defect](basis)
    path.write_text(json.dumps(basis))
    out = run(["export-dot", "--basis", str(path)], stdin=degree_doc)
    assert out.returncode == 2 and out.stderr.startswith("error: bad basis file")


def _nested_onshell(depth: int) -> bytes:
    """An on-shell module whose filtration is one, `depth` times over."""
    doc = {}
    for _ in range(depth):
        doc = {"schema": "cliffilt/1", "kind": "onshell_module", "shell": "1", "filtration": doc}
    return json.dumps(doc).encode()


# each of these raised a traceback from the JSON reader or the file read,
# or would from the decoder's recursion into nested documents
HOSTILE = {"deep nesting": b"[" * 100000, "utf-16 byte order mark": b"\xff\xfe{",
           "deeply nested documents": _nested_onshell(600)}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_files_exit_two(name, degree_doc, tmp_path):
    path = tmp_path / "hostile.json"
    path.write_bytes(HOSTILE[name])
    for args in (["check", str(path)], ["export-dot", "--basis", str(path)]):
        out = run(args, stdin=degree_doc)
        assert out.returncode == 2, (args, out.stderr)
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr


def test_envcheck():
    out = run(["envcheck", "--n", "2"])
    assert out.returncode == 0
    cert = json.loads(out.stdout)
    assert cert["check"] == "enveloping_quotient" and cert["pass"] is True
    # the certificate covers every degree, so there is no truncation option
    assert run(["envcheck", "--n", "1", "--max-degree", "2"]).returncode == 2


def test_envcheck_n_zero_default_degree():
    out = run(["envcheck", "--n", "0"])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["pass"] is True
    assert run(["envcheck", "--n", "0", "--max-degree", "2"]).returncode == 2


def test_generator_count_over_bound_exits_two():
    # 17 generators, one past the bound: a missing bound costs one Cl(17)
    out = run(["envcheck", "--n", "17"])
    assert out.returncode == 2 and "limit of 16" in out.stderr
    doc = json.loads(run(["example", "cl1-trivial"]).stdout)
    doc["n"] = 17
    doc["gram"] = {"shape": [17, 17],
                   "rows": [["1" if i == j else "0" for j in range(17)] for i in range(17)]}
    out = run(["check"], stdin=json.dumps(doc))
    assert out.returncode == 2 and "limit of 16" in out.stderr


def test_output_file_flag(tmp_path, degree_doc):
    path = tmp_path / "out.json"
    out = run(["invariants", "-o", str(path)], stdin=degree_doc)
    assert out.returncode == 0 and out.stdout == ""
    assert json.loads(path.read_text())["gr_dims"] == [1, 4, 6, 4, 1]


def test_input_path_positional(tmp_path, degree_doc):
    path = tmp_path / "f.json"
    path.write_text(degree_doc)
    out = run(["check", str(path)])
    assert out.returncode == 0


def test_non_clifford_module_rejected_by_every_command(degree_doc):
    # doubling gamma_eo[0] breaks g_0^2 = 1 but keeps every flag compatible
    doc = json.loads(degree_doc)
    gamma = doc["gamma_eo"][0]
    gamma["rows"] = [[str(2 * Fraction(x)) for x in row] for row in gamma["rows"]]
    mutant = json.dumps(doc)
    for args in (["check"], ["deform"], ["roundtrip"], ["invariants"], ["decompose"],
                 ["export-dot"], ["search", "--target", "1,4,6,4,1", "--budget", "2"]):
        out = run(args, stdin=mutant)
        assert out.returncode == 1, args
        cert = json.loads(out.stdout)
        assert cert["check"] == "supermodule_relations" and cert["pass"] is False, args


def test_one_subcommand_per_operation():
    # deform, quotient and check take a document of either k, so the
    # separate 2d spellings and the truncation degree are gone
    out = run(["--help"])
    listed = out.stdout.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == ["example", "check", "deform", "quotient", "roundtrip", "invariants",
                      "decompose", "search", "tensor", "export-dot", "envcheck"]
    for args in (["bideform"], ["biquotient"], ["verify2d"],
                 ["envcheck", "--n", "3", "--max-degree", "3"]):
        assert run(args, stdin="").returncode == 2, args


def test_quotient_takes_one_shell_value_per_direction(tmp_path, degree_doc):
    # the README's bigraded_rep and offshell_rep
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    p_path.write_text(degree_doc)
    q_path.write_text(run(["example", "cl1-trivial"]).stdout)
    birep = run(["deform"], stdin=run(["tensor", "--p", str(p_path), "--q", str(q_path)]).stdout)
    rep = run(["deform"], stdin=degree_doc)
    for k, doc, want in (("1", birep, "2 for BiGradedRep, got 1"),
                         ("1,1", rep, "1 for OffShellRep, got 2"),
                         ("1,1,1", birep, "2 for BiGradedRep, got 3")):
        out = run(["quotient", "--k", k], stdin=doc.stdout)
        assert out.returncode == 2 and out.stdout == "", k
        assert out.stderr == f"error: expected one shell value per direction, {want}\n"


def _readme_invocations():
    """The argument lists of every `cliffilt` call in the README's
    "Command line" sh block: each pipeline stage, without redirections."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    calls = []
    for line in block.splitlines():
        for part in line.split("|"):
            words = shlex.split(part, comments=True)
            if ">" in words:
                words = words[:words.index(">")]
            if words and words[0] == "cliffilt":
                calls.append(words[1:])
    return calls


def test_readme_invocations_parse():
    calls = _readme_invocations()
    assert len(calls) >= 10
    for argv in calls:
        assert cli.build_parser().parse_args(argv).command == argv[0]
