"""JSON encoding of every object the command line reads or writes.

The format is versioned by a top-level "schema" field (currently
"cliffilt/1") and dispatched by "kind".  Rational entries are strings
like "-3/2" so round-trips stay exact; matrices carry their shape
explicitly because zero-row maps are meaningful.  Encoding is
deterministic: equal objects produce byte-identical text.

Matrices travel in the kernel's integer form (d, rows) both ways.  A
matrix or flag is read straight into it: each distinct string among its
entries is parsed once, d is the lcm of their denominators, and no
`Fraction` grid is built.  A matrix is printed from it, each distinct
numerator formatted once.  The text is that of `json.dumps(doc,
indent=2)`, but built by joins over the document, with strings quoted
by json's C encoder, since an indent sends `json` to its pure-Python
encoder; a list of strings, or of rows of strings, is one join.

Decoding is strict about scalars: a rational must be a JSON string that
`exactalg.rational` accepts (what `Fraction` reads, without exponent
notation), and a shape, dimension, count or index must be a
JSON integer.  A JSON float, a bool or a numeric string in their place
is a `SerializeError`, as is any other malformed part.  The rows of a
matrix or a flag must be lists of the declared length.  Text that is
not JSON, or nests deeper than the JSON reader recurses, is a
`SerializeError` too.  A summand's status must be one of `invariants`'
two, and a search's count its number of filtrations.  A document nested
in another (an on-shell module's filtration, a graph's module, the
filtrations of a decomposition or a search) is decoded by `decode` and
must then pass `_expect`, the type gate the command line uses too.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import itemgetter

from .bifiltration import _COMPONENTS, BifilteredSupermodule, BiGradedRep
from .certificate import Certificate
from .clifford import CliffordAlgebra
from .deformation import GradedSpace, OffShellRep, OnShellModule
from .exactalg import Matrix, Subspace, rational
from .graph import AdinkraGraph, Edge, Vertex
from .invariants import CERTIFIED, EXHAUSTED, InvariantReport, Summand
from .supermodule import CliffordSupermodule, SuperFiltration

SCHEMA = "cliffilt/1"


class SerializeError(ValueError):
    """Input is not a well-formed document of the declared schema."""


def _rat(value) -> str:
    return str(value) if type(value) is Fraction else str(Fraction(value))


def _unrat(value) -> Fraction:
    if type(value) is not str:
        raise SerializeError(f"rational {value!r} is not a string")
    try:
        return rational(value)
    except ValueError as exc:
        raise SerializeError(f"bad rational {value!r}") from exc


# the texts of the integers most entries are, read without `rational`
_SMALL_TEXT = {str(c): c for c in range(-16, 17)}
_nonzero = itemgetter(1)


def _read_rows(rows, cols: int) -> Matrix:
    """The matrix whose rows are `rows`, lists of cols rational strings,
    read straight into its integer form (d, rows): each distinct string
    is parsed once, and d, the lcm of their denominators, is already the
    least."""
    if type(rows) is not list:
        raise SerializeError("rows must be a list")
    for row in rows:
        if type(row) is not list:
            raise SerializeError("each row must be a list")
        if len(row) != cols:
            raise SerializeError(f"a row has {len(row)} entries, not {cols}")
    try:
        values = dict.fromkeys(chain.from_iterable(rows))
    except TypeError as exc:  # an unhashable entry
        raise SerializeError(f"bad rational: {exc}") from exc
    for x in values:
        c = _SMALL_TEXT.get(x)
        values[x] = c if c is not None and type(x) is str else _unrat(x)
    d = lcm(*{v.denominator for v in values.values()})
    scaled = {x: v.numerator * (d // v.denominator) for x, v in values.items()}
    ints = tuple([tuple(filter(_nonzero, enumerate(map(scaled.__getitem__, row))))
                  for row in rows])
    return Matrix._built(len(rows), cols, (d, ints))


def _count(value) -> int:
    """A JSON integer; no bool, float or numeric string."""
    if type(value) is not int:
        raise SerializeError(f"expected an integer, got {value!r}")
    return value


def _enc_rows(m: Matrix) -> list[list[str]]:
    """The entries of m as rational strings, printed from its integer form
    (d, rows): column j of a row is c / d in lowest terms for its pair
    (j, c), and "0" where it has none.  Each distinct c is formatted once,
    so a matrix the kernel built never builds its Fraction entries."""
    d, rows = m._ints()
    text: dict[int, str] = {}
    out = []
    for row in rows:
        line = ["0"] * m.cols
        for j, c in row:
            s = text.get(c)
            if s is None:
                g = gcd(c, d)
                s = text[c] = str(c // g) if g == d else f"{c // g}/{d // g}"
            line[j] = s
        out.append(line)
    return out


def _enc_matrix(m: Matrix) -> dict:
    return {"shape": [m.rows, m.cols], "rows": _enc_rows(m)}


def _dec_matrix(obj) -> Matrix:
    rows, cols = obj["shape"]
    m = _read_rows(obj["rows"], _count(cols))
    if m.rows != _count(rows):
        raise SerializeError(f"{m.rows} rows, not {rows}")
    return m


def _enc_flag(s: Subspace) -> dict:
    return {"ambient": s.ambient, "rows": _enc_rows(s.basis)}


def _dec_flag(obj) -> Subspace:
    return Subspace.row_space(_read_rows(obj["rows"], _count(obj["ambient"])))


def _dec_algebra(obj, n_key="n", gram_key="gram") -> CliffordAlgebra:
    return CliffordAlgebra(_count(obj[n_key]), _dec_matrix(obj[gram_key]))


def _enc_module(m: CliffordSupermodule) -> dict:
    return {
        "n": m.algebra.n,
        "gram": _enc_matrix(m.algebra.gram),
        "dim_even": m.dim_even,
        "dim_odd": m.dim_odd,
        "gamma_eo": [_enc_matrix(g) for g in m.gamma_eo],
        "gamma_oe": [_enc_matrix(g) for g in m.gamma_oe],
    }


def _dec_module(obj) -> CliffordSupermodule:
    algebra = _dec_algebra(obj)
    gamma_eo = [_dec_matrix(g) for g in obj["gamma_eo"]]
    gamma_oe = [_dec_matrix(g) for g in obj["gamma_oe"]]
    return CliffordSupermodule(
        algebra, gamma_eo, gamma_oe,
        dim_even=_count(obj["dim_even"]), dim_odd=_count(obj["dim_odd"]),
    )


def _enc_filtration(f: SuperFiltration) -> dict:
    return {
        **_enc_module(f.module),
        "even_flags": [_enc_flag(s) for s in f.even_flags],
        "odd_flags": [_enc_flag(s) for s in f.odd_flags],
    }


def _dec_filtration(obj) -> SuperFiltration:
    module = _dec_module(obj)
    even = [_dec_flag(s) for s in obj["even_flags"]]
    odd = [_dec_flag(s) for s in obj["odd_flags"]]
    return SuperFiltration(module, even, odd)


def _enc_offshell(r: OffShellRep) -> dict:
    return {
        "n": r.algebra.n,
        "gram": _enc_matrix(r.algebra.gram),
        "dims": list(r.dims),
        "h_maps": [_enc_matrix(h) for h in r.h_maps],
        "q_maps": [[_enc_matrix(q) for q in per] for per in r.q_maps],
    }


def _dec_offshell(obj) -> OffShellRep:
    algebra = _dec_algebra(obj)
    dims = [_count(d) for d in obj["dims"]]
    h_maps = [_dec_matrix(h) for h in obj["h_maps"]]
    q_maps = [[_dec_matrix(q) for q in per] for per in obj["q_maps"]]
    return OffShellRep(algebra, dims, h_maps, q_maps)


def _enc_onshell(m: OnShellModule) -> dict:
    return {"shell": _rat(m.shell), "filtration": encode(m.filtration)}


def _dec_onshell(obj) -> OnShellModule:
    filtration = _expect(decode(obj["filtration"]), SuperFiltration)
    return OnShellModule(filtration.module, filtration, _unrat(obj["shell"]))


def _enc_bifiltered(bf: BifilteredSupermodule) -> dict:
    def grid(family):
        return [[[_enc_matrix(g[(a, b)]) for b in (0, 1)] for a in (0, 1)] for g in family]

    return {
        "p": bf.plus_algebra.n,
        "q": bf.minus_algebra.n,
        "gram_plus": _enc_matrix(bf.plus_algebra.gram),
        "gram_minus": _enc_matrix(bf.minus_algebra.gram),
        "dims": [[bf.dims[(a, b)] for b in (0, 1)] for a in (0, 1)],
        "gamma_plus": grid(bf.gamma_plus),
        "gamma_minus": grid(bf.gamma_minus),
        "biflags": [[_enc_flag(s) for s in row] for row in bf.biflags],
    }


def _dec_bifiltered(obj) -> BifilteredSupermodule:
    plus = _dec_algebra(obj, "p", "gram_plus")
    minus = _dec_algebra(obj, "q", "gram_minus")
    dims = {(a, b): _count(obj["dims"][a][b]) for (a, b) in _COMPONENTS}

    def grid(encoded):
        return [{(a, b): _dec_matrix(per[a][b]) for (a, b) in _COMPONENTS} for per in encoded]

    biflags = [[_dec_flag(s) for s in row] for row in obj["biflags"]]
    return BifilteredSupermodule(
        plus, minus, dims, grid(obj["gamma_plus"]), grid(obj["gamma_minus"]), biflags
    )


def _enc_bigraded(r: BiGradedRep) -> dict:
    def grid(stored):  # None where no map is stored: the shifts' top two rows
        return [[_enc_matrix(stored[(m, n)]) if (m, n) in stored else None
                 for n in range(r.top_minus + 1)] for m in range(r.top_plus + 1)]

    return {
        "p": r.plus_algebra.n,
        "q": r.minus_algebra.n,
        "gram_plus": _enc_matrix(r.plus_algebra.gram),
        "gram_minus": _enc_matrix(r.minus_algebra.gram),
        "dims": [list(row) for row in r.dims],
        "shift_plus": grid(r.sp),
        "shift_minus": grid(r.sm),
        "q_plus": [grid(per) for per in r.qp],
        "q_minus": [grid(per) for per in r.qm],
    }


def _dec_bigraded(obj) -> BiGradedRep:
    plus = _dec_algebra(obj, "p", "gram_plus")
    minus = _dec_algebra(obj, "q", "gram_minus")
    dims = [[_count(d) for d in row] for row in obj["dims"]]

    def grid(encoded):  # a None cell stores no map; GradedRep checks which must be stored
        return {(m, n): _dec_matrix(cell) for m, row in enumerate(encoded)
                for n, cell in enumerate(row) if cell is not None}

    return BiGradedRep(
        plus, minus, dims, grid(obj["shift_plus"]), grid(obj["shift_minus"]),
        [grid(per) for per in obj["q_plus"]], [grid(per) for per in obj["q_minus"]],
    )


def _dec_certificate(obj) -> Certificate:
    check, passed, witness = obj["check"], obj["pass"], obj.get("witness")
    if type(check) is not str or type(passed) is not bool:
        raise SerializeError("a certificate needs a string check and a boolean pass")
    if witness is not None and type(witness) is not dict:
        raise SerializeError("a certificate witness must be an object or null")
    return Certificate(check, passed, witness)


def _enc_graph(g: AdinkraGraph) -> dict:
    return {
        "module": encode(g.module),
        "vertices": [
            {"parity": v.parity, "height": v.height, "vector": [_rat(x) for x in v.vector]}
            for v in g.vertices
        ],
        "edges": [[e.source, e.target, e.generator, e.sign] for e in g.edges],
    }


def _dec_graph(obj) -> AdinkraGraph:
    module = _expect(decode(obj["module"]), CliffordSupermodule)
    vertices = [
        Vertex(_count(v["parity"]), _count(v["height"]), tuple(_unrat(x) for x in v["vector"]))
        for v in obj["vertices"]
    ]
    edges = [Edge(*map(_count, (s, t, i, sign))) for s, t, i, sign in obj["edges"]]
    return AdinkraGraph(module, vertices, edges)


def _enc_report(r: InvariantReport) -> dict:
    return {
        "gr_dims": list(r.gr_dims),
        "source_dims": list(r.source_dims),
        "summand_reports": [[list(gr), list(src)] for gr, src in r.summand_reports],
    }


def _dec_report(obj) -> InvariantReport:
    return InvariantReport(
        tuple(_count(x) for x in obj["gr_dims"]),
        tuple(_count(x) for x in obj["source_dims"]),
        tuple(
            (tuple(_count(x) for x in gr), tuple(_count(x) for x in src))
            for gr, src in obj["summand_reports"]
        ),
    )


def _enc_decomposition(summands) -> dict:
    return {"summands": [{"status": s.status, "embed_even": _enc_matrix(s.embed_even),
                          "embed_odd": _enc_matrix(s.embed_odd), "filtration": encode(s.filtration)}
                         for s in summands]}


def _dec_summand(obj) -> Summand:
    status = obj["status"]
    if status not in (CERTIFIED, EXHAUSTED):
        raise SerializeError(f"unknown summand status {status!r}")
    return Summand(_expect(decode(obj["filtration"]), SuperFiltration),
                   _dec_matrix(obj["embed_even"]), _dec_matrix(obj["embed_odd"]), status)


def _enc_search_results(filtrations) -> dict:
    return {"count": len(filtrations), "filtrations": [encode(f) for f in filtrations]}


def _dec_search_results(obj) -> list:
    found = [_expect(decode(f), SuperFiltration) for f in obj["filtrations"]]
    if _count(obj["count"]) != len(found):
        raise SerializeError(f"count {obj['count']} for {len(found)} filtrations")
    return found


# Every document kind: its type, the encoder of its fields but "schema" and
# "kind", and its decoder.  `encode` takes the first kind whose type the
# object is; the two list kinds have no type, and have encoders of their own.
_KINDS = {
    "filtration": (SuperFiltration, _enc_filtration, _dec_filtration),
    "module": (CliffordSupermodule, _enc_module, _dec_module),
    "offshell_rep": (OffShellRep, _enc_offshell, _dec_offshell),
    "graded_space": (GradedSpace, lambda s: {"dims": list(s.dims)},
                     lambda obj: GradedSpace(tuple(_count(d) for d in obj["dims"]))),
    "onshell_module": (OnShellModule, _enc_onshell, _dec_onshell),
    "bifiltered_module": (BifilteredSupermodule, _enc_bifiltered, _dec_bifiltered),
    "bigraded_rep": (BiGradedRep, _enc_bigraded, _dec_bigraded),
    "certificate": (Certificate, Certificate.to_json_obj, _dec_certificate),
    "adinkra_graph": (AdinkraGraph, _enc_graph, _dec_graph),
    "invariant_report": (InvariantReport, _enc_report, _dec_report),
    "decomposition": (None, _enc_decomposition,
                      lambda obj: [_dec_summand(s) for s in obj["summands"]]),
    "search_results": (None, _enc_search_results, _dec_search_results),
}


def _document(kind: str, obj) -> dict:
    return {"schema": SCHEMA, "kind": kind, **_KINDS[kind][1](obj)}


def encode(obj) -> dict:
    """JSON-compatible dict for any supported object."""
    for kind, (cls, _, _) in _KINDS.items():
        if cls is not None and isinstance(obj, cls):
            return _document(kind, obj)
    raise SerializeError(f"cannot encode {type(obj).__name__}")


def encode_decomposition(summands) -> dict:
    """Document for a list of decomposition summands."""
    return _document("decomposition", summands)


def encode_search_results(filtrations) -> dict:
    """Document for a list of found filtrations."""
    return _document("search_results", filtrations)


def decode(obj):
    """Typed object from a JSON-compatible dict; SerializeError if malformed."""
    if not isinstance(obj, dict):
        raise SerializeError("document must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise SerializeError(f"unsupported schema {obj.get('schema')!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SerializeError(f"unknown kind {kind!r}")
    try:
        return _KINDS[kind][2](obj)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SerializeError(f"malformed {kind} document: {exc}") from exc


def _expect(value, *types):
    """value, if it is one of `types`: the type gate of every document read."""
    if not isinstance(value, types):
        names = " or ".join(t.__name__ for t in types)
        raise SerializeError(f"expected {names}, got {type(value).__name__}")
    return value


# the element types of a list of strings, and of a list of rows
_STR, _LIST = {str}, {list}
# how json writes the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _text(value, indent: str) -> str:
    """`json.dumps(value, indent=2)` for a value nested at `indent`,
    built by joins; a list of strings is quoted in one C pass."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        kinds = set(map(type, value))
        if kinds == _STR:
            body = sep.join(map(_quote, value))
        elif kinds == _LIST and set(map(type, chain.from_iterable(value))) <= _STR:
            deeper, close = sep + "  ", "\n" + inner + "]"
            body = sep.join([f"[\n{inner}  {deeper.join(map(_quote, row))}{close}" if row else "[]"
                             for row in value])
        else:
            body = sep.join([_text(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([
            _quote(k if isinstance(k, str) else _key(k)) + ": " + _text(v, inner)
            for k, v in value.items()
        ])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key that is not a string, written as json writes it."""
    if key is None or isinstance(key, (int, float)):
        return _text(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text, the bytes of `json.dumps(doc, indent=2)`;
    accepts typed objects or plain dicts."""
    if not isinstance(obj, dict):
        obj = encode(obj)
    return _text(obj, "") + "\n"


def loads(text: str):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, a bad byte encoding
        raise SerializeError(f"not JSON: {exc}") from exc
    try:
        return decode(obj)
    except RecursionError as exc:  # documents nested in documents, each decoded in turn
        raise SerializeError(f"documents nest too deep: {exc}") from exc
