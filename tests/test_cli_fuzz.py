"""Seeded fuzz of the command line over mutated README documents.

Each example is one README document with one defect: a scalar replaced
by a float, a bool, a huge int, a garbage string, a wrong rational or a
nested list; one key deleted; or one row of a matrix or flag truncated.
`check`, `deform` and `roundtrip` then run on it through `cli.main` in
process.  Each must exit 0, 1 or 2 and leave no traceback: a malformed
document exits 2 with a one-line message.
"""

import functools
import io
import json
import sys
import time
import tracemalloc
import traceback

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cliffilt import cli

COMMANDS = (["check"], ["deform"], ["roundtrip"])


def _run(argv, stdin_text=""):
    """Exit code, stdout and stderr of `cli.main`; an exception that
    escapes it is returned as its traceback on stderr, with code None."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


EXAMPLES = ("exterior4-degree", "exterior4-hodge", "cl5-irreducible", "cl1-trivial")
STAGES = ("deform", "quotient --k 2/3")


@functools.cache
def _documents() -> dict[str, str]:
    """The README example documents and the 1d pipeline's stages, by name."""
    docs = {}
    for name in EXAMPLES:
        code, docs[name], _ = _run(["example", name])
        assert code == 0
    text = docs["exterior4-degree"]
    for stage in STAGES:
        code, text, _ = _run(stage.split(), text)
        assert code == 0
        docs[stage] = text
    return docs


def _nodes(node, path=()):
    """(path, node) for the node and everything inside it."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _targets(doc, kind):
    """Paths a mutation of this kind can apply to."""
    if kind == "scalar":
        return [p for p, n in _nodes(doc) if p and not isinstance(n, (dict, list))]
    if kind == "delete":
        return [p for p, _ in _nodes(doc) if p and isinstance(_parent(doc, p), dict)]
    # a nonempty row: a list inside the "rows" of a matrix or flag
    return [p for p, n in _nodes(doc)
            if len(p) >= 2 and p[-2] == "rows" and isinstance(n, list) and n]


BAD_SCALARS = st.one_of(
    st.floats(),
    st.booleans(),
    st.sampled_from([2**64, -(2**64), 10**40]),
    st.text(max_size=6),
    st.sampled_from(["0", "2", "-1/3"]),  # well formed, but the wrong value
    st.lists(st.lists(st.sampled_from(["0", "1", 1]), max_size=2), min_size=1, max_size=2),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_cleanly(data):
    name = data.draw(st.sampled_from(EXAMPLES + STAGES), label="document")
    doc = json.loads(_documents()[name])
    kind = data.draw(st.sampled_from(["scalar", "delete", "truncate"]), label="mutation")
    targets = _targets(doc, kind)
    if data.draw(st.booleans(), label="shallow"):  # kind, n, shapes, dims as often as entries
        targets = [p for p in targets if len(p) <= 3] or targets
    path = targets[data.draw(st.integers(0, len(targets) - 1), label="target")]
    parent = _parent(doc, path)
    if kind == "scalar":
        parent[path[-1]] = data.draw(BAD_SCALARS, label="value")
    elif kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]].pop()
    mutated = json.dumps(doc)
    for argv in COMMANDS:
        code, _, err = _run(argv, mutated)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, path, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, path, err)


# inputs no mutation of a README document reaches: nesting deeper than the
# JSON reader recurses, and bytes that do not decode as text
HOSTILE = {"deep nesting": b"[" * 100000, "utf-16 byte order mark": b"\xff\xfe{"}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_files_exit_cleanly(name, tmp_path):
    path = tmp_path / "hostile.json"
    path.write_bytes(HOSTILE[name])
    runs = [argv + [str(path)] for argv in COMMANDS] + [["export-dot", "--basis", str(path)]]
    for argv in runs:
        code, _, err = _run(argv, _documents()["exterior4-degree"])
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if name == "deep nesting":  # the same text on stdin
        for argv in COMMANDS:
            code, _, err = _run(argv, HOSTILE[name].decode())
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


# what each command reads, by document kind; every command that takes a
# filtration takes an on-shell module (a quotient's output) in its place
_FILTRATION = {"filtration", "onshell_module"}
ACCEPTS = {
    "check": _FILTRATION | {"module", "offshell_rep", "bifiltered_module", "bigraded_rep"},
    "deform": _FILTRATION | {"bifiltered_module"},
    # one shell value per direction: a count that is not the document's k
    # is refused like a kind the command does not take
    "quotient --k 1": {"offshell_rep"},
    "quotient --k 1,1": {"bigraded_rep"},
    "roundtrip": _FILTRATION,
    "invariants": _FILTRATION,
    "decompose": _FILTRATION,
    "search --target 1,1 --budget 1": _FILTRATION | {"module"},
    "tensor --p": _FILTRATION,
    "tensor --q": _FILTRATION,
    "export-dot": _FILTRATION,
}


@functools.cache
def _kinds() -> dict[str, str]:
    """One small document of every kind, over Cl(1), by kind."""
    from cliffilt import graph, invariants, serialize
    from cliffilt.bifiltration import bideform, tensor_module
    from cliffilt.certificate import passing
    from cliffilt.deformation import deform, quotient_at
    from cliffilt.supermodule import degree_filtration, exterior_module

    f = degree_filtration(exterior_module(1))
    rep, bf = deform(f), tensor_module(f, f)
    docs = [f.module, f, rep, quotient_at(rep, 0), quotient_at(rep, 1), bf, bideform(bf),
            passing("example"), graph.to_graph(f), invariants.invariant_report(f),
            serialize.encode_decomposition(invariants.decompose(f)),
            serialize.encode_search_results([f])]
    texts = {}
    for doc in docs:
        text = serialize.dumps(doc)
        texts[json.loads(text)["kind"]] = text
    assert len(texts) == len(docs)
    return texts


def _run_on(command, text, path):
    """`_run` of a command of ACCEPTS on the document text; tensor reads it
    on the named side and the Cl(1) filtration on the other."""
    argv = command.split()
    if argv[0] != "tensor":
        return _run(argv, text)
    path.write_text(text)
    other = path.with_name("other.json")
    other.write_text(_kinds()["filtration"])
    sides = {"--p": other, "--q": other, argv[1]: path}
    return _run(["tensor", "--p", str(sides["--p"]), "--q", str(sides["--q"])])


@pytest.mark.parametrize("command", sorted(ACCEPTS))
def test_one_gate_on_what_each_command_reads(command, tmp_path):
    path = tmp_path / "doc.json"
    for kind, text in _kinds().items():
        code, out, err = _run_on(command, text, path)
        if kind in ACCEPTS[command]:
            assert code in (0, 1) and "expected" not in err, (kind, err)
        else:
            assert code == 2 and out == "", kind
            assert err.startswith("error: expected ") and err.count("\n") == 1, (kind, err)


@pytest.mark.parametrize("command", sorted(c for c, kinds in ACCEPTS.items() if _FILTRATION <= kinds))
def test_onshell_module_reads_as_its_filtration(command, tmp_path):
    # a quotient's on-shell output against the filtration it carries;
    # search took no on-shell module before the gate was one
    onshell = _kinds()["onshell_module"]
    inner = json.dumps(json.loads(onshell)["filtration"])
    runs = [_run_on(command, text, tmp_path / "doc.json") for text in (onshell, inner)]
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1], runs[0][2]


@pytest.mark.parametrize("kind", ["module", "filtration", "offshell_rep", "bifiltered_module",
                                  "bigraded_rep"])
def test_a_dimension_no_generator_backs_is_capped(kind):
    # a document over Cl(0), one component one past the cap: refused while
    # decoding, before an identity or a flag that size is built
    from cliffilt import serialize
    from cliffilt.bifiltration import bideform, tensor_module
    from cliffilt.deformation import deform
    from cliffilt.supermodule import MAX_FREE_DIM, degree_filtration, exterior_module

    f = degree_filtration(exterior_module(0))
    built = {"module": f.module, "filtration": f, "offshell_rep": deform(f),
             "bifiltered_module": tensor_module(f, f), "bigraded_rep": bideform(tensor_module(f, f))}
    doc = serialize.encode(built[kind])
    if kind in ("module", "filtration"):
        doc["dim_even"] = MAX_FREE_DIM + 1
    else:
        doc["dims"][0] = MAX_FREE_DIM + 1 if kind == "offshell_rep" else [MAX_FREE_DIM + 1, 0]
    tracemalloc.start()
    start = time.monotonic()
    code, out, err = _run(["check"], json.dumps(doc))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert time.monotonic() - start < 1 and peak < 2**20
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: malformed {kind} document: dimension 4097 exceeds 4096")


@pytest.mark.parametrize("command", ["invariants", "decompose"])
def test_a_commutant_no_generator_backs_is_capped(command):
    # the trivial filtration of a (32|1) module over Cl(0), whose graded
    # commutant has 32^2 + 1^2 unit pairs, one past the cap: refused before
    # any pair is built
    from cliffilt import serialize
    from cliffilt.clifford import CliffordAlgebra
    from cliffilt.supermodule import MAX_FREE_COMMUTANT, CliffordSupermodule, trivial_filtration

    assert 32 * 32 + 1 * 1 == MAX_FREE_COMMUTANT + 1
    text = serialize.dumps(trivial_filtration(CliffordSupermodule(CliffordAlgebra(0), [], [], 32, 1)))
    tracemalloc.start()
    start = time.monotonic()
    code, out, err = _run([command], text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert time.monotonic() - start < 1 and peak < 2**20
    assert code == 2 and out == ""
    assert err == ("error: graded commutant of dimension 1025 exceeds 1024, the limit when no "
                   "generator acts\n")


@pytest.mark.parametrize("dims, target", [((4, 0), "2,0,2"), ((1, 4), "1,2,0,2")])
def test_a_search_no_generator_backs_is_capped(dims, target):
    # a module over Cl(0) with a component one past the search's cap:
    # refused before any draw
    from cliffilt import serialize
    from cliffilt.clifford import CliffordAlgebra
    from cliffilt.invariants import MAX_FREE_SEARCH_DIM
    from cliffilt.supermodule import CliffordSupermodule

    assert max(dims) == MAX_FREE_SEARCH_DIM + 1
    text = serialize.dumps(CliffordSupermodule(CliffordAlgebra(0), [], [], *dims))
    tracemalloc.start()
    start = time.monotonic()
    code, out, err = _run(["search", "--target", target], text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert time.monotonic() - start < 1 and peak < 2**20
    assert code == 2 and out == ""
    assert err == "error: dimension 4 exceeds 3, the limit of a search when no generator acts\n"


def test_a_search_target_over_the_level_cap_is_refused():
    # cl1-trivial with a target one level past the cap: refused before the
    # module is checked or anything is drawn
    from cliffilt.invariants import MAX_SEARCH_LEVELS

    assert MAX_SEARCH_LEVELS == 32
    target = ",".join(["1", "1"] + ["0"] * (MAX_SEARCH_LEVELS - 1))
    text = _documents()["cl1-trivial"]
    tracemalloc.start()
    start = time.monotonic()
    code, out, err = _run(["search", "--target", target], text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert time.monotonic() - start < 1 and peak < 2**20
    assert code == 2 and out == ""
    assert err == "error: target of 33 levels exceeds 32, the limit of a search\n"


@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_search_targets_near_the_level_cap(data):
    # cl1-trivial, (1|1), with one even and one odd level of 1 in a target
    # of two levels under to two over the cap, at a small budget: accepted
    # up to the cap, refused past it
    from cliffilt.invariants import MAX_SEARCH_LEVELS

    length = data.draw(st.integers(MAX_SEARCH_LEVELS - 2, MAX_SEARCH_LEVELS + 2), label="length")
    target = [0] * length
    target[data.draw(st.sampled_from(range(0, length, 2)), label="even")] = 1
    target[data.draw(st.sampled_from(range(1, length, 2)), label="odd")] = 1
    budget = data.draw(st.integers(0, 2), label="budget")
    argv = ["search", "--target", ",".join(map(str, target)), "--budget", str(budget)]
    code, out, err = _run(argv, _documents()["cl1-trivial"])
    event(f"length {length} exit {code}")
    if length <= MAX_SEARCH_LEVELS:
        assert code == 0 and json.loads(out)["count"] <= budget, err
    else:
        assert code == 2 and out == ""
        assert err == f"error: target of {length} levels exceeds 32, the limit of a search\n"


def test_envcheck_over_its_cap_is_refused():
    # n = 13, one past the cap: refused before Cl(13) or its module is built;
    # past 16 generators the algebra's own limit is the one named
    from cliffilt.deformation import MAX_ENVCHECK_N

    assert MAX_ENVCHECK_N == 12
    tracemalloc.start()
    start = time.monotonic()
    code, out, err = _run(["envcheck", "--n", "13"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert time.monotonic() - start < 1 and peak < 2**20
    assert (code, out) == (2, "")
    assert err == "error: envcheck of 13 generators exceeds the limit of 12\n"
    assert "limit of 16" in _run(["envcheck", "--n", "17"])[2]


def test_tensor_over_its_cap_is_refused(tmp_path):
    # exterior(4) (x) exterior(5) has 16 * 32 = 512 dimensions, over the cap:
    # with the factors built, it is refused before any kron; exterior(4)
    # (x) exterior(4) is at the cap and still built
    from cliffilt import serialize
    from cliffilt.bifiltration import MAX_TENSOR_DIM, tensor_module
    from cliffilt.supermodule import degree_filtration, exterior_module

    assert MAX_TENSOR_DIM == 256
    f4, f5 = (degree_filtration(exterior_module(n)) for n in (4, 5))
    tracemalloc.start()
    start = time.monotonic()
    with pytest.raises(ValueError) as refused:
        tensor_module(f4, f5)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert time.monotonic() - start < 1 and peak < 2**20
    assert str(refused.value) == "tensor of dimension 512 exceeds the limit of 256"
    for name, f in (("p", f4), ("q", f5)):
        (tmp_path / name).write_text(serialize.dumps(f))
    code, out, err = _run(["tensor", "--p", str(tmp_path / "p"), "--q", str(tmp_path / "q")])
    assert (code, out) == (2, "") and err == f"error: {refused.value}\n"
    assert sum(tensor_module(f4, f4).dims.values()) == MAX_TENSOR_DIM
