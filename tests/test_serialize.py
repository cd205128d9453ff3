"""Round trips and rejection paths of the JSON layer."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffilt import cli, serialize
from cliffilt.bifiltration import bideform, check_bifiltered_module, tensor_module
from cliffilt.clifford import CliffordAlgebra
from cliffilt.deformation import deform, quotient_at
from cliffilt.exactalg import Matrix, Subspace, rational, rref
from cliffilt.graph import to_graph
from cliffilt.invariants import decompose, invariant_report
from cliffilt.serialize import (
    SerializeError,
    decode,
    dumps,
    encode,
    encode_decomposition,
    encode_search_results,
    loads,
)
from cliffilt.supermodule import (
    CliffordSupermodule,
    check_filtration,
    degree_filtration,
    exterior_module,
    hodge_filtration,
    irreducible_cl5,
    trivial_filtration,
)


def roundtrip(obj):
    text = dumps(obj)
    back = loads(text)
    assert dumps(back) == text
    return back


def test_module_roundtrip():
    m = irreducible_cl5()
    assert roundtrip(m) == m


def test_filtration_roundtrip_byte_identical():
    f = hodge_filtration(exterior_module(4))
    back = roundtrip(f)
    assert back.module == f.module
    assert tuple(back.even_flags) == tuple(f.even_flags)
    assert tuple(back.odd_flags) == tuple(f.odd_flags)
    # canonical flag bases make repeated dumps byte-identical
    assert dumps(f) == dumps(hodge_filtration(exterior_module(4)))


def test_offshell_and_quotient_roundtrips():
    r = deform(degree_filtration(exterior_module(3)))
    assert roundtrip(r) == r
    on = quotient_at(r, Fraction(2, 3))
    back = roundtrip(on)
    assert back.shell == Fraction(2, 3)
    assert check_filtration(back.filtration)
    gs = roundtrip(quotient_at(r, 0))
    assert gs.dims == quotient_at(r, 0).dims


def test_bifiltered_and_bigraded_roundtrips():
    bf = tensor_module(degree_filtration(exterior_module(2)),
                       degree_filtration(exterior_module(1)))
    back = roundtrip(bf)
    assert back.dims == bf.dims and back.biflags == bf.biflags
    assert back.gamma_plus == bf.gamma_plus and back.gamma_minus == bf.gamma_minus

    r = bideform(bf)
    back = roundtrip(r)
    assert back.dims == r.dims
    assert back.sp == r.sp and back.sm == r.sm
    assert back.qp == r.qp and back.qm == r.qm


def test_graph_and_certificate_roundtrips():
    g = to_graph(degree_filtration(exterior_module(3)))
    back = roundtrip(g)
    assert back.vertices == g.vertices and back.edges == g.edges

    cert = check_filtration(degree_filtration(exterior_module(2)))
    assert roundtrip(cert) == cert


@pytest.mark.parametrize("field, value", [
    ("pass", "false"), ("pass", 0), ("pass", 1), ("pass", None),
    ("check", 3), ("witness", [1]), ("witness", "none"),
])
def test_certificate_decoding_is_strict(field, value):
    doc = encode(check_filtration(degree_filtration(exterior_module(2))))
    assert loads(json.dumps(doc))
    doc[field] = value
    with pytest.raises(SerializeError):
        loads(json.dumps(doc))


def test_report_and_composites_roundtrip():
    f = hodge_filtration(exterior_module(4))
    rep = invariant_report(f)
    assert roundtrip(rep) == rep

    summands = decompose(f)
    doc = encode_decomposition(summands)
    back = loads(dumps(doc))
    assert len(back) == len(summands)
    assert {s.status for s in back} == {s.status for s in summands}

    found_doc = encode_search_results([f])
    back = loads(dumps(found_doc))
    assert len(back) == 1 and check_filtration(back[0])


def test_rationals_survive_exactly():
    r = deform(degree_filtration(exterior_module(1)))
    on = quotient_at(r, Fraction(22, 7))
    assert roundtrip(on).shell == Fraction(22, 7)


def test_zero_row_maps_keep_shape():
    # a rank-0 flag serializes with explicit ambient dimension
    f = degree_filtration(exterior_module(2))
    r = deform(f)
    back = roundtrip(r)
    for p, per in enumerate(back.q_maps):
        for q_orig, q_back in zip(r.q_maps[p], per):
            assert (q_back.rows, q_back.cols) == (q_orig.rows, q_orig.cols)


def test_malformed_documents_rejected():
    cases = [
        "not json at all",
        '[]',
        '{"kind": "module"}',
        '{"schema": "cliffilt/2", "kind": "module"}',
        '{"schema": "cliffilt/1", "kind": "mystery"}',
        '{"schema": "cliffilt/1", "kind": ["module"]}',
        '{"schema": "cliffilt/1", "kind": "module", "n": 1}',
        '{"schema": "cliffilt/1", "kind": "filtration", "n": "x"}',
    ]
    for text in cases:
        with pytest.raises(SerializeError):
            loads(text)


@pytest.mark.parametrize("kind", ["filtration", "offshell_rep", "bifiltered_module",
                                  "bigraded_rep"])
def test_negative_dimensions_rejected(kind):
    # data over Cl(0) whose (1|0) component is made -1-dimensional: with no
    # generators, no map shape contradicts the negative dimension
    point = trivial_filtration(CliffordSupermodule(CliffordAlgebra(0), [], [], 1, 0))
    if kind == "filtration":
        doc = encode(point)
        doc["dim_even"] = -1
        doc["even_flags"][0] = {"ambient": -1, "rows": []}
    elif kind == "offshell_rep":
        doc = encode(deform(point))
        doc["dims"][0] = -1
    else:
        bf = tensor_module(point, point)
        doc = encode(bf if kind == "bifiltered_module" else bideform(bf))
        doc["dims"][0][0] = -1
        if kind == "bifiltered_module":
            doc["biflags"][0][0] = {"ambient": -1, "rows": []}
    with pytest.raises(SerializeError):
        decode(doc)


def _wrong_gamma_shape(family):
    def defect(doc):
        doc[family][0][0][0] = {"shape": [1, 1], "rows": [["1"]]}
    return defect


def _flag_in_wrong_component(doc):
    doc["biflags"][0][1] = doc["biflags"][0][0]


def _one_row_grid(doc):
    doc["biflags"] = doc["biflags"][:1]


def _ragged_grid(doc):
    doc["biflags"][-1] = doc["biflags"][-1][:-1]


@pytest.mark.parametrize("defect", [
    _wrong_gamma_shape("gamma_plus"), _wrong_gamma_shape("gamma_minus"),
    _flag_in_wrong_component, _one_row_grid, _ragged_grid,
], ids=["gamma_plus shape", "gamma_minus shape", "flag ambient", "one-row grid",
        "ragged grid"])
def test_malformed_bifiltered_documents_rejected(defect, tmp_path):
    # ext2 tensor ext1 has two generator families; ext2 tensor the (1|0)
    # point has components of dimensions 2, 0, 2, 0, so a flag in the wrong
    # component shows there
    point = trivial_filtration(CliffordSupermodule(CliffordAlgebra(0), [], [], 1, 0))
    minus = point if defect is _flag_in_wrong_component else degree_filtration(exterior_module(1))
    doc = encode(tensor_module(degree_filtration(exterior_module(2)), minus))
    assert check_bifiltered_module(decode(doc))
    defect(doc)
    with pytest.raises(SerializeError):
        decode(doc)
    path = tmp_path / "bf.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path), "-o", str(tmp_path / "out.json")]) == 2


def test_bad_rational_rejected():
    doc = encode(degree_filtration(exterior_module(1)))
    doc["even_flags"][0]["rows"][0][0] = "1/0"
    with pytest.raises(SerializeError):
        decode(doc)


def _check_exit(doc, tmp_path) -> int:
    """Exit code of an in-process `cliffilt check` on the document."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return cli.main(["check", str(path), "-o", str(tmp_path / "out.json")])


def _set_entry(value):
    def defect(doc):
        doc["gamma_eo"][0]["rows"][0][0] = value
    return defect


def _set_shape(doc):
    doc["gram"]["shape"] = [2.9, 2.2]


def _set_field(key, value):
    def defect(doc):
        doc[key] = value
    return defect


def _set_ambient(value):
    def defect(doc):
        doc["even_flags"][0]["ambient"] = value
    return defect


# each of these used to decode: 0.1 as 3602879701896397/36028797018963968,
# 1.0 and true as 1, the shape as 2 x 2, the dimensions and counts as ints
INEXACT = {
    "float entry 0.1": _set_entry(0.1),
    "float entry 1.0": _set_entry(1.0),
    "bool entry true": _set_entry(True),
    "int entry 1": _set_entry(1),
    "float shape": _set_shape,
    "float dim_even": _set_field("dim_even", 2.5),
    "bool dim_odd": _set_field("dim_odd", True),
    "numeric string n": _set_field("n", "2"),
    "float ambient": _set_ambient(2.0),
    "string ambient": _set_ambient("2"),
}


@pytest.mark.parametrize("defect", sorted(INEXACT))
def test_inexact_scalars_exit_two(defect, tmp_path, capsys):
    doc = encode(degree_filtration(exterior_module(2)))
    assert _check_exit(doc, tmp_path) == 0
    INEXACT[defect](doc)
    assert _check_exit(doc, tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _composite(kind) -> dict:
    """A valid document of a kind that nests filtrations or a module."""
    f = degree_filtration(exterior_module(2))
    return {"onshell_module": lambda: encode(quotient_at(deform(f), Fraction(2, 3))),
            "adinkra_graph": lambda: encode(to_graph(f)),
            "decomposition": lambda: encode_decomposition(decompose(f)),
            "search_results": lambda: encode_search_results([f])}[kind]()


def _nested(key, index=None, **fields):
    def defect(doc):
        (doc[key] if index is None else doc[key][index]).update(fields)
    return defect


# each of these but the summand's module used to decode: the nested
# document's schema, kind and type went unchecked, a status went through
# str() and the count was never read
NESTED = {
    "onshell filtration of kind garbage": ("onshell_module", _nested("filtration", kind="garbage")),
    "onshell filtration of schema nope/9": ("onshell_module",
                                            _nested("filtration", schema="nope/9")),
    "graph module a filtration": (
        "adinkra_graph", lambda doc: doc.update(module=encode(degree_filtration(exterior_module(2))))),
    "search filtration relabelled bigraded_rep": ("search_results",
                                                  _nested("filtrations", 0, kind="bigraded_rep")),
    "summand filtration a module": (
        "decomposition", _nested("summands", 0, filtration=encode(exterior_module(2)))),
    "summand status null": ("decomposition", _nested("summands", 0, status=None)),
    "summand status 5": ("decomposition", _nested("summands", 0, status=5)),
    "summand status None": ("decomposition", _nested("summands", 0, status="None")),
    "search count 7": ("search_results", lambda doc: doc.update(count=7)),
    "search count '1'": ("search_results", lambda doc: doc.update(count="1")),
}


@pytest.mark.parametrize("defect", sorted(NESTED))
def test_nested_documents_pass_the_gate(defect, tmp_path, capsys):
    kind, mutate = NESTED[defect]
    doc = _composite(kind)
    decode(doc)
    mutate(doc)
    with pytest.raises(SerializeError, match=f"^malformed {kind} document: "):
        decode(doc)
    assert _check_exit(doc, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed {kind} document: ") and err.count("\n") == 1


# strings Fraction reads although they are not what the encoder writes
NON_CANONICAL = ["2/4", "-0", "+3", " 7 ", "1.5", "1_000", "007"]
REJECTED = ["1/0", "abc", "", "1 / 2", "0x10", "-6/-3"]
# strings Fraction reads as exact rationals; "1e10000000" takes it seconds
EXPONENTS = ["1e2", "1E-3", "2.5e1", "1e10000000"]


def _kernel_built_matrices():
    """Products, scalings, eliminations and stacks: d != 1, negative
    entries, zero rows and 0 x n shapes."""
    rng = random.Random(63)
    for _ in range(150):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        den = rng.choice((1, 7, 10**6 + 3))
        grid = [[Fraction(rng.randint(-9, 9), rng.randint(1, den)) if rng.random() < 0.6 else 0
                 for _ in range(cols)] for _ in range(rows)]
        a = Matrix(rows, cols, grid)
        yield a * Matrix.identity(cols).scale(Fraction(-3, rng.choice((1, 4, 10**6))))
        yield a.scale(Fraction(5, 6)).stack(Matrix.zeros(rng.randint(0, 2), cols))
        yield Matrix.zeros(rng.randint(0, 2), cols).stack(-a)
        yield rref(-a)[0]  # kernel-built: rref returns a reduced input itself


def test_encoded_rows_match_rat_over_entries():
    for m in _kernel_built_matrices():
        got = serialize._enc_matrix(m)
        assert m._entries is None  # printed without building the Fraction grid
        assert got == {"shape": [m.rows, m.cols],
                       "rows": [[serialize._rat(x) for x in row] for row in m.entries]}
        space = Subspace.row_space(m)
        got = serialize._enc_flag(space)
        assert got["rows"] == [[serialize._rat(x) for x in row] for row in space.basis.entries]


def _oracle_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_unrat_rows_matches_fraction_oracle():
    # named for the Fraction-grid reader that `_read_rows` replaced
    rng = random.Random(61)
    pool = ["0", "1", "-1", *NON_CANONICAL]
    for _ in range(200):
        extra = [str(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
                 for _ in range(3)]
        cols = rng.randint(0, 6)
        rows = [[rng.choice(pool + extra) for _ in range(cols)] for _ in range(rng.randint(0, 6))]
        got = serialize._read_rows(rows, cols)
        assert [list(row) for row in got.entries] == _oracle_rows(rows)
        assert all(type(x) is Fraction for row in got.entries for x in row)


@pytest.mark.parametrize("text", REJECTED)
def test_unrat_rows_rejects_what_fraction_rejects(text, tmp_path):
    with pytest.raises((ValueError, ZeroDivisionError)):
        Fraction(text)
    # after the same text has been read as a good entry elsewhere in the call
    with pytest.raises(SerializeError):
        serialize._read_rows([["1", "2/4"], ["2/4", text]], 2)
    doc = encode(degree_filtration(exterior_module(2)))
    doc["even_flags"][0]["rows"][0][0] = text
    assert _check_exit(doc, tmp_path) == 2


@pytest.mark.parametrize("text", EXPONENTS)
def test_exponent_notation_rejected(text, tmp_path):
    with pytest.raises(ValueError, match="exponent"):
        rational(text)
    with pytest.raises(SerializeError):
        serialize._read_rows([["1", "2/4"], ["2/4", text]], 2)
    doc = encode(degree_filtration(exterior_module(2)))
    doc["even_flags"][0]["rows"][0][0] = text
    assert _check_exit(doc, tmp_path) == 2


@pytest.mark.parametrize("rows", [[["1", 1]], [["1"], [True]], [["0", 0.0]], [[["1"]]],
                                  "11", [("1",)], [{"1": 1}], None])
def test_unrat_rows_rejects_non_strings(rows):
    # the declared width is the first row's, so only the entries are wrong
    with pytest.raises(SerializeError):
        serialize._read_rows(rows, len(rows[0]) if isinstance(rows, list) else 0)


@pytest.mark.parametrize("rows, cols", [([["1", "0"], ["0"]], 2), ([["1"]], 2), ([[]], 1)])
def test_read_rows_rejects_wrong_width(rows, cols):
    with pytest.raises(SerializeError):
        serialize._read_rows(rows, cols)


def test_decoded_matrices_build_no_fraction_grid():
    doc = encode(degree_filtration(exterior_module(3)))
    for m in (*map(serialize._dec_matrix, doc["gamma_eo"] + doc["gamma_oe"]),
              *(serialize._dec_flag(s).basis for s in doc["even_flags"] + doc["odd_flags"])):
        assert m._entries is None
    m = serialize._read_rows([["1/2", "0"], ["-0", "+3"]], 2)
    assert m._entries is None and m._ints() == (2, (((0, 1),), ((1, 6),)))


def test_decoded_algebra_builds_no_fraction_grid():
    # a decoded Gram matrix stays in integer form through the algebra's
    # checks and the module relations, and no monomial table is built
    half = Fraction(1, 2)
    m = exterior_module(2)
    doc = encode(trivial_filtration(CliffordSupermodule(
        CliffordAlgebra(2, Matrix.identity(2).scale(half * half)),
        [g.scale(half) for g in m.gamma_eo], [g.scale(half) for g in m.gamma_oe])))
    f = serialize.decode(doc)
    assert check_filtration(f)
    assert f.module.algebra.gram._entries is None
    assert not {"monomials", "monomial_index"} & vars(f.module.algebra).keys()


def test_read_rows_matches_matrix_of_fractions():
    """The integer form and entries of a read matrix are those of the
    Matrix built from the same texts as Fractions: same least d, same
    nonzero pairs."""
    rng = random.Random(67)
    pool = ["0", "1", "-16", "16", "17", *NON_CANONICAL]
    for _ in range(200):
        extra = [f"{rng.randint(-10**6, 10**6)}/{rng.randint(1, 10**6)}" for _ in range(3)]
        cols = rng.randint(0, 6)
        rows = [[rng.choice(pool + extra) for _ in range(cols)] for _ in range(rng.randint(0, 6))]
        got = serialize._read_rows(rows, cols)
        want = Matrix(len(rows), cols, [[Fraction(x) for x in row] for row in rows])
        assert got._ints() == want._ints()
        assert got.entries == want.entries
        assert got == want and hash(got) == hash(want)


_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", '"\\"', "\x00\x1f\x7f", "\t\n\r", "é€😀", "\u2028", "\ud800"]),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(), _STRINGS,
    st.integers(), st.sampled_from([2**64, -(2**200), 10**40]),
)
_KEYS = st.one_of(_STRINGS, st.integers(), st.booleans(), st.none(), st.floats())
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_STRINGS, max_size=4),  # a matrix row
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tree=_TREES)
def test_emitter_matches_json_dumps(tree):
    assert serialize._text(tree, "") == json.dumps(tree, indent=2)
    doc = {"tree": tree, 7: [tree], None: (tree,)}
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    [[]], [[], []], [[[]]], [[], ["a"]], [["a"], []], {"rows": [[], [], []]},  # empty lists
    [["a", "b"], ["c", "d"]], [["a"], ("b",)], (["a"],), [("a", "b")],  # rows, tuples
    [["a"], [1]], [["a", None]], [["a"], "b"], ["a", ["b"]], [[], "a"], ["a", 1],  # mixed
    [[["a"]], ["b"]], [["a"], [["b"]]], [True, "a"], [[1.5, "a"], ["b"]],
])
def test_emitter_writes_rows_and_mixed_lists_as_json_does(value):
    assert serialize._text(value, "") == json.dumps(value, indent=2)
    nested = {"doc": [value, {"rows": value}]}
    assert dumps(nested) == json.dumps(nested, indent=2) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), object(), {1, 2}, b"1", ["1", object()],
                                   {"a": ["0", Fraction(1)]}, {(1, 2): "0"}, {"a": {b"k": 1}}])
def test_emitter_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as want:
        json.dumps({"doc": value}, indent=2)
    with pytest.raises(TypeError) as got:
        dumps({"doc": value})
    assert str(got.value) == str(want.value)


def test_unknown_object_rejected():
    with pytest.raises(SerializeError):
        encode(object())
