"""Byte-exact `cliffilt/1` outputs of the README pipelines.

Each stage runs through `cli.main` in-process and feeds its stdout to the
next stage.  The sha256 of every stdout and the exit code are pinned, so
any change to a document, a certificate or a witness shows up here.
`search` is left out: its cost grows with the budget, and the classify
tests cover it.
"""

import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest

from cliffilt import cli


def run(argv, stdin_text=""):
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, io.StringIO()
    try:
        code = cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


PINNED = {
    "bideform": (0, "54ad7e8592ef88a254c46dff9111e2661625604f0c4fcef78f034b09784f7d33"),
    "biquotient": (0, "2cdc0b912538c512f257a21b2042e8901329d82d037d5349f3dae3fc3e952421"),
    "check onshell": (0, "248ca9f88438ea87c58c56ac23be8414ca646a426dfcb96e2e98baaed5518208"),
    "check top Q doubled":
        (1, "023ca2db98739d06981195c862d9a60f2bbeeaf1efb235ca817273205eecd5af"),
    "check top flag missing a row":
        (1, "081c2d121471bc16f1132e3b07940bf16d9ca48e9abb180f2013e170c0568a85"),
    "decompose hodge": (0, "be350e62e8924354f8c91c28c5311ebb3614016c50654ea4eb8f83e75c35fb58"),
    "deform degree": (0, "f23846b34220948becdd10f27da9bbe5053279ba58c5aa11fa88c90561cbe132"),
    "envcheck --n 3": (0, "6e381d7dd0d1e36da7d6f3d338f89c95151306da688f2306f6cc90e12165d5bb"),
    "example cl1-trivial":
        (0, "758d8ce03261ad99d595d68d6b647b5b5586e1a11a8b84bd6819450911250cd5"),
    "example cl5-irreducible":
        (0, "69dd9992a47fa5d71a800dc614b3dff41192317f9070dd3e13f6830a65444baf"),
    "example exterior4-degree":
        (0, "78e262ead91ace85cb2528c592771ee69d17b94abe01401821ef6643a05cd7e6"),
    "example exterior4-hodge":
        (0, "eceaa199effa235efc12478e5418b9afe4ebcaca5ddaaa576f82a18034d0afc3"),
    "export-dot degree": (0, "53bbb6b096c189ccc9c2daee0516bf53b3e921aa040a34651e498e172787fdbe"),
    "invariants hodge": (0, "c98490423889c8d4ec6764e2879e6a9294cc072a628b3188bfe4cfb22abf1a6c"),
    "quotient --k 0": (0, "27516773610109b71fd84e90d4a0a4c6bf32f4b0c63cebcf5745ca501de8e607"),
    "quotient --k 2/3": (0, "4097f412bce67e9b19c9199808216e7c7d588fa6583aade15dd670b2e3830f66"),
    "roundtrip degree": (0, "59637930856d0687271424477e59b37b65ae723556ffaa1c82c842e96ebd25a0"),
    # the shell-(1, 1) quotient reproduces the tensor document byte for byte
    "tensor": (0, "2cdc0b912538c512f257a21b2042e8901329d82d037d5349f3dae3fc3e952421"),
    "verify2d": (0, "aa5172e299e3da279bd0096f016b68f0a846c81a85e89200427077c1514fbb09"),
    "verify2d q_plus entry changed":
        (1, "74d80c3ea6ee941dbf9f3781f507d99d02cbb33d8e6a38ae92e50853c10ee335"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Exit code and stdout of every stage, keyed by a stage name."""
    got = {}

    def stage(name, argv, stdin_text=""):
        got[name] = run(argv, stdin_text)
        return got[name][1]

    degree = stage("example exterior4-degree", ["example", "exterior4-degree"])
    hodge = stage("example exterior4-hodge", ["example", "exterior4-hodge"])
    trivial = stage("example cl1-trivial", ["example", "cl1-trivial"])
    stage("example cl5-irreducible", ["example", "cl5-irreducible"])
    stage("invariants hodge", ["invariants"], hodge)
    stage("roundtrip degree", ["roundtrip"], degree)
    rep = stage("deform degree", ["deform"], degree)
    onshell = stage("quotient --k 2/3", ["quotient", "--k", "2/3"], rep)
    stage("check onshell", ["check"], onshell)
    stage("quotient --k 0", ["quotient", "--k", "0"], rep)
    stage("decompose hodge", ["decompose"], hodge)
    tmp = tmp_path_factory.mktemp("pipes")
    (tmp / "p.json").write_text(degree)
    (tmp / "q.json").write_text(trivial)
    bf = stage("tensor", ["tensor", "--p", str(tmp / "p.json"), "--q", str(tmp / "q.json")])
    # the 2d stages are named for the library operation each reaches
    birep = stage("bideform", ["deform"], bf)
    stage("verify2d", ["check"], birep)
    stage("biquotient", ["quotient", "--k", "1,1"], birep)
    stage("export-dot degree", ["export-dot"], degree)
    stage("envcheck --n 3", ["envcheck", "--n", "3"])

    doc = json.loads(degree)
    doc["even_flags"][-1]["rows"].pop()
    stage("check top flag missing a row", ["check"], json.dumps(doc))

    doc = json.loads(rep)
    top = next(per[-1] for per in doc["q_maps"]
               if any(Fraction(x) for row in per[-1]["rows"] for x in row))
    top["rows"] = [[str(2 * Fraction(x)) for x in row] for row in top["rows"]]
    stage("check top Q doubled", ["check"], json.dumps(doc))

    doc = json.loads(birep)
    cell = next(cell for row in doc["q_plus"][0] for cell in row if cell["rows"])
    cell["rows"][0][0] = str(Fraction(cell["rows"][0][0]) + 1)
    stage("verify2d q_plus entry changed", ["check"], json.dumps(doc))
    return got


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pipeline_stage_bytes(outputs, name):
    code, text = outputs[name]
    assert (code, sha(text)) == PINNED[name]


def test_every_stage_pinned(outputs):
    assert sorted(outputs) == sorted(PINNED)


def test_stages_share_one_parser(outputs, tmp_path):
    """`cli.main` builds its parser once per process; options of one call
    (an output file, a shell value, a seed) do not carry into the next."""
    assert cli.build_parser() is cli.build_parser()
    degree = outputs["example exterior4-degree"][1]
    hodge = outputs["example exterior4-hodge"][1]
    path = tmp_path / "rep.json"
    assert run(["deform", "-o", str(path)], degree) == (0, "")
    rep = path.read_text()
    assert sha(rep) == PINNED["deform degree"][1]
    onshell = outputs["quotient --k 2/3"][1]
    birep = outputs["bideform"][1]
    for argv, stdin_text, name in [
        (["decompose", "--seed", "5", "--candidates", "1"], hodge, None),
        (["decompose"], hodge, "decompose hodge"),
        (["quotient", "--k", "2/3"], rep, "quotient --k 2/3"),
        (["quotient", "--k", "1,1"], birep, "biquotient"),
        (["quotient", "--k", "0"], rep, "quotient --k 0"),
        (["check"], onshell, "check onshell"),
        (["roundtrip"], degree, "roundtrip degree"),
        (["envcheck", "--n", "3"], "", "envcheck --n 3"),
    ]:
        code, text = run(argv, stdin_text)
        if name is None:
            assert code == 0
        else:
            assert (code, sha(text)) == PINNED[name], name
