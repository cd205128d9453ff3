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
encoder.

Decoding is strict about scalars: a rational must be a JSON string that
`exactalg.rational` accepts (what `Fraction` reads, without exponent
notation), and a shape, dimension, count or index must be a
JSON integer.  A JSON float, a bool or a numeric string in their place
is a `SerializeError`, as is any other malformed part.  The rows of a
matrix or a flag must be lists of the declared length.  Text that is
not JSON, or nests deeper than the JSON reader recurses, is a
`SerializeError` too.
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
from .invariants import InvariantReport, Summand
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
        "schema": SCHEMA,
        "kind": "module",
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
    out = _enc_module(f.module)
    out["kind"] = "filtration"
    out["even_flags"] = [_enc_flag(s) for s in f.even_flags]
    out["odd_flags"] = [_enc_flag(s) for s in f.odd_flags]
    return out


def _dec_filtration(obj) -> SuperFiltration:
    module = _dec_module(obj)
    even = [_dec_flag(s) for s in obj["even_flags"]]
    odd = [_dec_flag(s) for s in obj["odd_flags"]]
    return SuperFiltration(module, even, odd)


def _enc_offshell(r: OffShellRep) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "offshell_rep",
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


def _enc_graded_space(s: GradedSpace) -> dict:
    return {"schema": SCHEMA, "kind": "graded_space", "dims": list(s.dims)}


def _enc_onshell(m: OnShellModule) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "onshell_module",
        "shell": _rat(m.shell),
        "filtration": _enc_filtration(m.filtration),
    }


def _dec_onshell(obj) -> OnShellModule:
    filtration = _dec_filtration(obj["filtration"])
    return OnShellModule(filtration.module, filtration, _unrat(obj["shell"]))


def _enc_bifiltered(bf: BifilteredSupermodule) -> dict:
    def grid(family):
        return [[[_enc_matrix(g[(a, b)]) for b in (0, 1)] for a in (0, 1)] for g in family]

    return {
        "schema": SCHEMA,
        "kind": "bifiltered_module",
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
        "schema": SCHEMA,
        "kind": "bigraded_rep",
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


def _enc_certificate(c: Certificate) -> dict:
    out = c.to_json_obj()
    out = {"schema": SCHEMA, "kind": "certificate", **out}
    return out


def _dec_certificate(obj) -> Certificate:
    check, passed, witness = obj["check"], obj["pass"], obj.get("witness")
    if type(check) is not str or type(passed) is not bool:
        raise SerializeError("a certificate needs a string check and a boolean pass")
    if witness is not None and type(witness) is not dict:
        raise SerializeError("a certificate witness must be an object or null")
    return Certificate(check, passed, witness)


def _enc_graph(g: AdinkraGraph) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "adinkra_graph",
        "module": _enc_module(g.module),
        "vertices": [
            {"parity": v.parity, "height": v.height, "vector": [_rat(x) for x in v.vector]}
            for v in g.vertices
        ],
        "edges": [[e.source, e.target, e.generator, e.sign] for e in g.edges],
    }


def _dec_graph(obj) -> AdinkraGraph:
    module = _dec_module(obj["module"])
    vertices = [
        Vertex(_count(v["parity"]), _count(v["height"]), tuple(_unrat(x) for x in v["vector"]))
        for v in obj["vertices"]
    ]
    edges = [Edge(*map(_count, (s, t, i, sign))) for s, t, i, sign in obj["edges"]]
    return AdinkraGraph(module, vertices, edges)


def _enc_report(r: InvariantReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "invariant_report",
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


def encode_decomposition(summands) -> dict:
    """Document for a list of decomposition summands."""
    return {
        "schema": SCHEMA,
        "kind": "decomposition",
        "summands": [
            {
                "status": s.status,
                "embed_even": _enc_matrix(s.embed_even),
                "embed_odd": _enc_matrix(s.embed_odd),
                "filtration": _enc_filtration(s.filtration),
            }
            for s in summands
        ],
    }


def _dec_decomposition(obj) -> list:
    return [
        Summand(
            _dec_filtration(s["filtration"]),
            _dec_matrix(s["embed_even"]),
            _dec_matrix(s["embed_odd"]),
            str(s["status"]),
        )
        for s in obj["summands"]
    ]


def encode_search_results(filtrations) -> dict:
    """Document for a list of found filtrations."""
    return {
        "schema": SCHEMA,
        "kind": "search_results",
        "count": len(filtrations),
        "filtrations": [_enc_filtration(f) for f in filtrations],
    }


def _dec_search_results(obj) -> list:
    return [_dec_filtration(f) for f in obj["filtrations"]]


_ENCODERS = [
    (SuperFiltration, _enc_filtration),
    (CliffordSupermodule, _enc_module),
    (OffShellRep, _enc_offshell),
    (GradedSpace, _enc_graded_space),
    (OnShellModule, _enc_onshell),
    (BifilteredSupermodule, _enc_bifiltered),
    (BiGradedRep, _enc_bigraded),
    (Certificate, _enc_certificate),
    (AdinkraGraph, _enc_graph),
    (InvariantReport, _enc_report),
]

_DECODERS = {
    "module": _dec_module,
    "filtration": _dec_filtration,
    "offshell_rep": _dec_offshell,
    "graded_space": lambda obj: GradedSpace(tuple(_count(d) for d in obj["dims"])),
    "onshell_module": _dec_onshell,
    "bifiltered_module": _dec_bifiltered,
    "bigraded_rep": _dec_bigraded,
    "certificate": _dec_certificate,
    "adinkra_graph": _dec_graph,
    "invariant_report": _dec_report,
    "decomposition": _dec_decomposition,
    "search_results": _dec_search_results,
}


def encode(obj) -> dict:
    """JSON-compatible dict for any supported object."""
    for cls, encoder in _ENCODERS:
        if isinstance(obj, cls):
            return encoder(obj)
    raise SerializeError(f"cannot encode {type(obj).__name__}")


def decode(obj):
    """Typed object from a JSON-compatible dict; SerializeError if malformed."""
    if not isinstance(obj, dict):
        raise SerializeError("document must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise SerializeError(f"unsupported schema {obj.get('schema')!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _DECODERS:
        raise SerializeError(f"unknown kind {kind!r}")
    try:
        return _DECODERS[kind](obj)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SerializeError(f"malformed {kind} document: {exc}") from exc


# how json writes the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _text(value, indent: str) -> str:
    """`json.dumps(value, indent=2)` for a value nested at `indent`,
    built by joins; a list of strings is quoted in one C pass."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        try:
            body = (",\n" + inner).join(map(_quote, value))
        except TypeError:  # not all strings
            body = (",\n" + inner).join([_text(v, inner) for v in value])
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
    return decode(obj)
