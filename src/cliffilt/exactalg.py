"""Exact linear algebra over the rationals.

Conventions used throughout the package:

* every scalar that crosses a public boundary (a matrix entry, a
  coordinate) is a `fractions.Fraction`, always reduced with
  a positive denominator,
* vectors are rows, and a linear map is a matrix acting on the right,
  so applying `m` to `v` computes ``v * m`` and composition "first f
  then g" is the product ``f * g``,
* a subspace is stored by the reduced row-echelon basis of its row
  span, with zero rows dropped.  Two subspaces are equal iff their
  stored bases are identical, so equality is a syntactic check.

Inside the kernel a matrix also has an integer form ``(d, rows)``: the
matrix equals ``rows / d``, where ``d`` is the least common denominator
of its entries, and each row lists its nonzero ``(column, int)`` pairs,
in no promised order: `__eq__` and `__hash__` ignore the order of the
pairs in a row, and every other reader treats a row as a map from
columns to ints.  A matrix the kernel builds, or a document decodes,
keeps only this form, and builds its `Fraction` entries on their first
read; a matrix built from entries gets the form on first use.  `rref`
of an input already in reduced row-echelon form is that input, with
whatever entries it has already built.  Both are
kept on the matrix, which is immutable, so they live exactly as long as
the matrix does.  Products, Kronecker products (`kron`), block matrices
(`_block_matrix`, which `Matrix.stack` calls with two blocks), linear
combinations (`_combination`, which sums, differences and the invariants'
combinations of endomorphisms all call), scalings, transposes,
comparisons and eliminations read only this form, so their inner loops
add and multiply `int`s, and a result nobody reads entrywise never
builds a `Fraction`.  Each of these operations is defined here and only
here.

A row of a product is a relabel when no two of its terms can land in one
column: when the row of the left factor has at most one entry, or when
every row of the right factor has at most one entry and no two of those
share a column, as in an identity, a signed permutation (the gammas of
every built-in module) or one cut at pivot columns.  The row is then its
terms, ``(j, a * b)`` for the entry a at column k of the left row and
each entry b at column j of row k on the right, with no accumulator over
the columns.  `Matrix.__mul__` decides this row by row from the two
integer forms, reading the right factor's rows once, on the first row
that needs them, and keeps nothing on the matrix.
A product that is only compared is never built at all: `_vanishes`
decides whether a sum of products minus a scaled target is zero row by
row over one common denominator, and every relation check and span
membership test goes through it.  A row is summed in a list, or in a dict
when the result is wider than 48 columns and no row of a factor or of the
target has more than one entry, as for Cl(n) acting on itself.

Membership has one path, and a vector is a one-row matrix to it:
`Subspace.contains` and `Subspace.coordinates` are one-row calls to
`_contains_rows` and `coordinate_matrix`.

Every elimination (spans, sums, images, intersections and kernels, but
the two-term kernels below) goes through one `rref`.  It is sparse,
incremental and fraction-free: a row is reduced only where it is
nonzero, against basis rows kept as dicts of their nonzero integer
entries, and rows that reduce to zero cost no more than that.  Its
output is the unique reduced row-echelon form, whatever the order of
elimination, which is what makes subspace equality syntactic; so an
input that one pass over its entries shows is already in that form is
returned as it is, with no elimination.  Its two steps, `_reduced` and
`_insert`, also serve callers that keep an echelon basis of their own.

One kind of kernel needs no elimination: a system whose equations have
at most two terms each, such as the graded commutant of a module whose
gammas are signed permutations, is solved by `_two_term_null_space`,
one connected component of its unknowns at a time, and skips `rref`.
The basis it returns is the unique reduced row-echelon basis of the
solutions, so it is the one `rref` would give.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import gcd, lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)
# the integers that most entries of kernel-built matrices are, built once
_SMALL = {c: Fraction(c) for c in range(-16, 17)}

_set = object.__setattr__


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '5', and Fractions to Fraction.

    This is the one reader of rational text.  It reads what `Fraction`
    reads from a string except exponent notation, which raises
    ValueError: from "1e10000000" `Fraction` would build 10**10000000
    exactly, which takes seconds.  So does a zero denominator ("1/0",
    "1/0_0"), where `Fraction` raises ZeroDivisionError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation in rational {value!r}")
        if "/" in value:
            den = value.partition("/")[2].strip().replace("_", "")
            if den.isdecimal() and int(den) == 0:
                raise ValueError(f"zero denominator in rational {value!r}")
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _freeze_row(row: Iterable) -> tuple:
    return tuple(x if type(x) is Fraction else rational(x) for x in row)


def _least(d: int, rows: Iterable[Sequence[tuple[int, int]]]) -> tuple[int, tuple]:
    """The integer form of ``rows / d`` with the least d, which is d
    divided by its gcd with every entry."""
    rows = tuple(rows)
    if d != 1:
        g = gcd(d, *[c for row in rows for _, c in row])
        if g != 1:
            return d // g, tuple([(j, c // g) for j, c in row] for row in rows)
    return d, rows


class Matrix:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "cols", "_entries", "_int")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        entries = tuple(_freeze_row(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_entries", entries)
        _set(self, "_int", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _built(rows: int, cols: int, ints: tuple) -> "Matrix":
        """A matrix the kernel has just built, from its integer form with
        the least d; its entries are built on first read."""
        m = object.__new__(Matrix)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "_entries", None)
        _set(m, "_int", ints)
        return m

    @staticmethod
    def _from_ints(cols: int, d: int, rows: Sequence[Sequence[tuple[int, int]]]) -> "Matrix":
        """The matrix ``rows / d``, for rows of nonzero (column, int) pairs."""
        ints = _least(d, rows)
        return Matrix._built(len(ints[1]), cols, ints)

    @property
    def entries(self) -> tuple:
        """The rows as tuples of Fractions: built on first read, then kept."""
        entries = self._entries
        if entries is None:
            d, rows = self._int
            out = []
            for row in rows:
                full = [_ZERO] * self.cols
                if d == 1:
                    for j, c in row:
                        x = _SMALL.get(c)
                        full[j] = Fraction(c) if x is None else x
                else:
                    for j, c in row:
                        full[j] = Fraction(c, d)
                out.append(tuple(full))
            entries = tuple(out)
            _set(self, "_entries", entries)
        return entries

    def _ints(self) -> tuple[int, tuple]:
        """The integer form (d, rows): built on first use, then kept."""
        form = self._int
        if form is None:
            d = lcm(*{x.denominator for row in self._entries for x in row})
            form = (d, tuple(
                tuple([(j, x.numerator * (d // x.denominator)) for j, x in enumerate(row) if x])
                for row in self._entries
            ))
            _set(self, "_int", form)
        return form

    @staticmethod
    def from_rows(entries: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        entries = [list(r) for r in entries]
        if entries:
            cols = len(entries[0])
        elif cols is None:
            raise ValueError("column count required for a matrix with no rows")
        return Matrix(len(entries), cols, entries)

    @staticmethod
    @lru_cache(maxsize=64)
    def identity(n: int) -> "Matrix":
        return Matrix._from_ints(n, 1, [((i, 1),) for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix._built(rows, cols, (1, ((),) * rows))

    def transpose(self) -> "Matrix":
        d, rows = self._ints()
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(rows):
            for j, c in row:
                cols[j].append((i, c))
        return Matrix._built(self.cols, self.rows, (d, tuple(cols)))

    def is_zero(self) -> bool:
        return not any(self._ints()[1])

    def __eq__(self, other) -> bool:
        # equal matrices have the same integer form with the least d, up
        # to the order of the pairs in each row
        if not (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols):
            return False
        da, arows = self._ints()
        db, brows = other._ints()
        return da == db and all(
            a == b or dict(a) == dict(b) for a, b in zip(arows, brows)
        )

    def __hash__(self):
        # the integer form with the least d, each row's pairs sorted, is
        # the same for equal matrices however they were built
        d, rows = self._ints()
        return hash((self.rows, self.cols, d, tuple(tuple(sorted(r)) for r in rows)))

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return _combination([(1, self), (1, other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return _combination([(1, self), (-1, other)])

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = rational(c)
        if c == 1:  # the matrix is immutable, so it is its own multiple by 1
            return self
        d, rows = self._ints()
        p = c.numerator
        rows = [[(j, x * p) for j, x in row] for row in rows] if p else [()] * self.rows
        return Matrix._from_ints(self.cols, d * c.denominator, rows)

    def __rmul__(self, c) -> "Matrix":
        return self.scale(c)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        da, arows = self._ints()
        db, brows = other._ints()
        cols = other.cols
        relabel = None  # whether other's rows relabel any row: read on first need
        out = []
        for arow in arows:
            if len(arow) > 1:
                if relabel is None:
                    relabel = _injective(brows)
                if not relabel:
                    acc = [0] * cols
                    for k, a in arow:
                        for j, b in brows[k]:
                            acc[j] += a * b
                    out.append([(j, c) for j, c in enumerate(acc) if c])
                    continue
            out.append([(j, a * b) for k, a in arow for j, b in brows[k]])
        return Matrix._from_ints(cols, da * db, out)

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("cannot stack matrices with different column counts")
        return _block_matrix([self.rows, other.rows], [self.cols], {(0, 0): self, (1, 0): other})

    def _columns(self, keep: Sequence[int]) -> "Matrix":
        """The columns `keep` of this matrix, in that order."""
        d, rows = self._ints()
        at = {j: i for i, j in enumerate(keep)}
        kept = _least(d, ([(at[j], c) for j, c in row if j in at] for row in rows))
        return Matrix._built(self.rows, len(keep), kept)

    def rank(self) -> int:
        return rref(self)[0].rows

    def __repr__(self):
        body = "; ".join(" ".join(map(str, r)) for r in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _combination(terms: Sequence[tuple[int, Matrix]], d: int = 1) -> Matrix:
    """The sum of (c / d) * m over the terms (c, m), for ints c and d and
    matrices of one shape, the first term's; terms with c = 0 are skipped.
    Summed in integers over d times the lcm of the matrices' denominators."""
    shape = terms[0][1]
    forms = [(c, m._ints()) for c, m in terms if c]
    common = lcm(*[dm for _, (dm, _) in forms])
    acc = [{} for _ in range(shape.rows)]
    for c, (dm, mrows) in forms:
        w = c * (common // dm)
        for row, mrow in zip(acc, mrows):
            for j, x in mrow:
                row[j] = row.get(j, 0) + w * x
    return Matrix._from_ints(shape.cols, d * common,
                             [[(j, x) for j, x in row.items() if x] for row in acc])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row (i, k) and column (j, l) ordered i-major.
    In integer forms: one pair (j * b.cols + l, x * y) per product of
    nonzero entries, over da * db."""
    da, arows = a._ints()
    db, brows = b._ints()
    w = b.cols
    rows = [[(j * w + l, x * y) for j, x in ra for l, y in rb] for ra in arows for rb in brows]
    return Matrix._from_ints(a.cols * w, da * db, rows)


def _block_matrix(row_dims, col_dims, blocks) -> Matrix:
    """Assemble a matrix from a {(row_block, col_block): Matrix} dict, one
    band of block rows at a time, in integer form over the lcm of the
    blocks' denominators.  Each block's form has its least d, so that lcm
    is the least d of the whole: a prime power dividing it exactly divides
    some block's d, which has an entry the prime does not divide, left so
    by the scaling."""
    col_off = [0, *accumulate(col_dims)]
    d = lcm(*[mat._ints()[0] for mat in blocks.values()])
    rows = []
    for bi, height in enumerate(row_dims):
        band = [()] * height
        for bj, width in enumerate(col_dims):
            mat = blocks.get((bi, bj))
            if mat is None:
                continue
            if mat.rows != height or mat.cols != width:
                raise ValueError("block shape mismatch")
            dm, mrows = mat._ints()
            off = col_off[bj]
            if dm != d or off:
                w = d // dm
                mrows = [[(off + j, c * w) for j, c in row] for row in mrows]
            band = [[*x, *y] for x, y in zip(band, mrows)] if any(band) else mrows
        rows += band
    return Matrix._built(len(rows), col_off[-1], (d, tuple(rows)))


def _injective(rows) -> bool:
    """Whether every row has at most one entry and no two of those entries
    share a column, so that a product by these rows is a relabel."""
    if max(map(len, rows), default=0) > 1:
        return False
    hit = [row[0][0] for row in rows if row]
    return len(set(hit)) == len(hit)


# `_vanishes` sums in a dict the rows of a result wider than this whose
# factors and target have at most one entry per row
_WIDE = 48


def _vanishes(terms: Sequence[tuple[int, Matrix, Matrix]], target: Matrix | None = None,
              s=0) -> bool:
    """Whether the sum of c * A * B over the terms (c, A, B), minus s times
    `target`, is zero.  The integer c and the rational s are exact.

    Nothing is built: with A = ai / da and B = bi / db, each term is
    weighted by c * D / (da * db) over one common denominator D, and
    `target` = ti / dt by s * D / dt; row r of the weighted sum of ai * bi
    minus ti is summed in integers and read before the next row, so the
    first nonzero row ends the check.  Shapes that do not match raise
    ValueError, as the products would.  A result with no rows or no
    columns is zero, so nothing is read; an inner dimension of 0 is not
    such a case, since -s * target may still be nonzero.

    A row is summed into a list of `cols` zeros and scanned, or into a
    dict of the columns it reaches when the result is wider than `_WIDE`
    columns and no row of a factor or of the target has more than one
    entry, as for Cl(n) acting on itself (2^(n-1) columns, gammas that
    are signed permutations).  A row then reaches at most len(terms) + 1
    columns, so the dict stays small while the list grows with the width.
    Timed on anticommutators of m x m signed permutations (best of 5,
    Python 3.11 on a shared 2-core host), the dict takes 1.2 times the
    list's time at m = 24, breaks even at about 48, and 0.85 at 64 and
    0.31 at 256; on rows a quarter full it takes 1.5 to 2 times the
    list's time at every width from 8 to 256, so such rows stay in the
    list whatever the width.
    """
    if type(s) is not int:  # an int has its numerator and denominator too
        s = rational(s)
    shape = None if target is None else (target.rows, target.cols)
    for c, a, b in terms:
        if a.cols != b.rows or shape not in (None, (a.rows, b.cols)):
            raise ValueError(f"shape mismatch: {a.rows}x{a.cols} * {b.rows}x{b.cols}")
        shape = (a.rows, b.cols)
    if shape is None or not shape[0] or not shape[1]:
        return True
    forms = [(c, a._ints(), b._ints()) for c, a, b in terms]
    t = ((1, ((),) * shape[0]) if target is None or not s else target._ints())
    d = lcm(s.denominator * t[0], *[da * db for _, (da, _), (db, _) in forms])
    weighted = [(c * (d // (da * db)), arows, brows) for c, (da, arows), (db, brows) in forms]
    f = s.numerator * (d // (s.denominator * t[0]))
    in_dict = shape[1] > _WIDE and all(
        max(map(len, rows), default=0) <= 1
        for rows in chain((t[1],), *[(arows, brows) for _, arows, brows in weighted]))
    for r, trow in enumerate(t[1]):
        acc = defaultdict(int) if in_dict else [0] * shape[1]
        for w, arows, brows in weighted:
            for k, a in arows[r]:
                a *= w
                for j, b in brows[k]:
                    acc[j] += a * b
        for j, x in trow:
            acc[j] -= f * x
        if any(acc.values() if in_dict else acc):
            return False
    return True


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form with zero rows dropped, plus pivot columns.

    The elimination is sparse, incremental and fraction-free.  It reads
    the integer form of `m`, since scaling a row does not change its
    span.  Each basis row is kept as a {column: int} dict of its nonzero
    entries, under its pivot column; it is zero at every other pivot
    column, its entries have no common factor, and its pivot entry is
    positive.  An input row is reduced only at the pivot columns where it
    is nonzero, each time as ``s * row - f * basis_row`` with the least
    integer multipliers that clear that column; a row that reduces to
    zero is dropped, and otherwise it is divided by the gcd of its entries
    and its leading column is cleared from the basis rows already kept the
    same way.  Rows past full rank are not read.

    Each basis row is then a multiple of a row of the unique reduced
    row-echelon basis of the row span: every pivot 1 and the only nonzero
    entry in its column, pivot columns strictly increasing.  The division
    by the pivot happens only when the result is written out, as
    Fractions.  The result does not depend on the order of elimination,
    so two spans are equal iff their results are.

    An input already in that form is returned as it is, with its pivots,
    when one pass over its entries (`_echelon_pivots`) shows it: no zero
    row, each row's leading entry 1, the leading columns strictly
    increasing, and each of them zero in every other row.  Such rows are
    independent, since each is the only one nonzero at its leading column,
    so they are a reduced row-echelon basis of their span, and by the
    uniqueness of that basis the one elimination would return; the input
    is immutable, so it can stand for that result.
    """
    d, rows = m._ints()
    pivots = _echelon_pivots(d, rows)
    if pivots is not None:
        return m, pivots
    basis: dict[int, dict[int, int]] = {}
    for pairs in rows:
        row = _reduced(basis, dict(pairs))
        if row:
            _insert(basis, row)
            if len(basis) == m.cols:
                break
    pivots = tuple(sorted(basis))
    d = lcm(*[basis[p][p] for p in pivots])
    rows = []
    for p in pivots:
        f = d // basis[p][p]
        rows.append(tuple([(j, x * f) for j, x in basis[p].items()]))
    return Matrix._from_ints(m.cols, d, rows), pivots


def _echelon_pivots(d: int, rows) -> tuple[int, ...] | None:
    """The leading columns of ``rows / d`` if it is in reduced row-echelon
    form with no zero row, else None."""
    leads = []
    for row in rows:
        if not row:
            return None
        lead, c = min(row)
        if c != d or (leads and lead <= leads[-1]):
            return None
        leads.append(lead)
    if len(leads) > 1:
        at = set(leads)
        for row, lead in zip(rows, leads):
            if len(row) > 1 and any(j in at and j != lead for j, _ in row):
                return None
    return tuple(leads)


def _reduced(basis: dict, row: dict) -> dict:
    """The row reduced at every pivot of `basis` where it is nonzero.
    `row` may be updated in place; use the returned dict."""
    # basis rows vanish at each other's pivots, so reducing at one pivot
    # only scales the row's entries at the others
    for p in [j for j in row if j in basis]:
        row = _combine(row, p, basis[p])
    return row


def _insert(basis: dict, row: dict) -> None:
    """Add a nonzero row that `_reduced` returned to `basis`, under its
    leading column, and clear that column from the other basis rows."""
    lead = min(row)
    row = _primitive(row, lead)
    for q, other in basis.items():
        if lead in other:
            basis[q] = _primitive(_combine(other, lead, row), q)
    basis[lead] = row


def _combine(row: dict, p: int, other: dict) -> dict:
    """``s * row - f * other`` with the least integers s > 0 and f that
    clear column p, on rows stored as dicts of their nonzero entries.
    `row` may be updated in place; use the returned dict."""
    a, b = row[p], other[p]
    g = gcd(a, b)
    s, f = b // g, a // g
    if s != 1:
        row = {j: x * s for j, x in row.items()}
    for j, y in other.items():
        x = row.get(j, 0) - f * y
        if x:
            row[j] = x
        else:
            del row[j]
    return row


def _primitive(row: dict, lead: int) -> dict:
    """The row divided by the gcd of its entries, signed so row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g == 1:
        return row
    return {j: x // g for j, x in row.items()}


def kernel(m: Matrix) -> Matrix:
    """Canonical basis (as rows) of the row kernel {v : v * m = 0}."""
    return _null_space(m.transpose())


def _null_space(e: Matrix) -> Matrix:
    """Canonical basis (as rows) of {v : e * v^T = 0}, the solutions of the
    equations that are the rows of `e`: `kernel` of e's transpose, for
    callers that build their equations as rows.

    When no equation has more than two terms the system is solved by
    `_two_term_null_space`, without elimination; otherwise by `rref`.
    Both return the unique reduced row-echelon basis of the solutions.
    """
    equations = e._ints()[1]
    if all(len(row) <= 2 for row in equations):
        return _two_term_null_space(e.cols, equations)
    reduced, pivots = rref(e)
    d, rows = reduced._ints()
    pivot_set = set(pivots)
    by_pivot = [dict(row) for row in rows]
    # the kernel vector of free column f, times d: d at f, and minus
    # column f of the reduced rows at their pivots
    vectors = [
        ((f, d), *[(p, -row[f]) for p, row in zip(pivots, by_pivot) if f in row])
        for f in range(e.cols)
        if f not in pivot_set
    ]
    basis, _ = rref(Matrix._from_ints(e.cols, d, vectors))
    return basis


def _two_term_null_space(cols: int, rows: Sequence[Sequence[tuple[int, int]]]) -> Matrix:
    """The solutions of equations with at most two terms each, given as
    rows of nonzero (unknown, int) pairs, as `_null_space` returns them.

    The equations are a graph on the unknowns: a one-term row forces its
    unknown to 0, a two-term row a * x_u + b * x_v = 0 ties x_v to x_u by
    the ratio -a / b, and an empty row says nothing.  Equations of two
    connected components share no unknown, so the solution space is the
    direct sum of the components' spaces.  On a component, propagating
    the nonzero ratios along a spanning tree determines a solution from
    its value at one unknown, so its space has dimension at most 1.  With
    1 at the component's least unknown the propagated values solve every
    equation exactly when no unknown in it is forced and the ratios agree
    around every cycle, that is on every edge that is not in the tree;
    then that vector spans the space, and otherwise the space is 0.

    The spanning vectors have disjoint supports, all of whose entries are
    nonzero, and each is 1 at its least unknown, so listed in increasing
    order of that unknown they are a reduced row-echelon basis: each
    leading entry is 1, leads strictly increase, and every other vector
    is 0 in a lead's column.  The reduced row-echelon basis of a space is
    unique, so this is the basis `rref` would give.

    Each value is kept as a pair (num, den) of integers in lowest terms
    with den > 0 (den 0 marks an unknown not yet reached), and values are
    compared by cross-multiplication.
    """
    edges: list[list[tuple[int, int, int]]] = [[] for _ in range(cols)]
    forced = [False] * cols
    for row in rows:
        if len(row) == 2:
            (u, a), (v, b) = row
            edges[u].append((v, -a, b))  # x_v = (-a / b) x_u
            edges[v].append((u, -b, a))
        elif row:
            forced[row[0][0]] = True
    num = [0] * cols
    den = [0] * cols
    components = []
    for start in range(cols):
        if den[start]:
            continue
        num[start] = den[start] = 1
        component = [start]
        solved = not forced[start]
        for u in component:  # grows as the search reaches new unknowns
            p, q = num[u], den[u]
            for v, a, b in edges[u]:
                x, y = a * p, b * q
                if den[v]:
                    if x * den[v] != y * num[v]:
                        solved = False
                    continue
                g = gcd(x, y)
                if y < 0:
                    g = -g
                num[v], den[v] = x // g, y // g
                component.append(v)
                if forced[v]:
                    solved = False
        if solved:
            components.append(component)
    d = lcm(*[den[u] for component in components for u in component])
    return Matrix._from_ints(cols, d, [
        [(u, num[u] * (d // den[u])) for u in component] for component in components])


class Subspace:
    """Subspace of Q^ambient stored by its reduced row-echelon basis."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis: Matrix, pivots: tuple[int, ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def span(ambient: int, rows: Iterable[Sequence]) -> "Subspace":
        m = Matrix.from_rows(list(rows), cols=ambient)
        if m.cols != ambient:
            raise ValueError("row length does not match ambient dimension")
        return Subspace.row_space(m)

    @staticmethod
    def row_space(m: Matrix) -> "Subspace":
        basis, pivots = rref(m)
        return Subspace(m.cols, basis, pivots)

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.zeros(0, ambient), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.identity(ambient), tuple(range(ambient)))

    @staticmethod
    def _units(ambient: int, columns: Iterable[int]) -> "Subspace":
        """The span of the unit vectors at increasing `columns`: those rows
        are already its reduced row-echelon basis, so nothing is eliminated."""
        columns = tuple(columns)
        return Subspace(ambient, Matrix._from_ints(ambient, 1, [((k, 1),) for k in columns]),
                        columns)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def _row(self, v: Sequence) -> Matrix:
        """The vector v as a one-row matrix of the ambient width."""
        v = _freeze_row(v)
        if len(v) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return Matrix(1, self.ambient, [v])

    def contains(self, v: Sequence) -> bool:
        return self._contains_rows(self._row(v))

    def coordinates(self, v: Sequence) -> tuple:
        return self.coordinate_matrix(self._row(v)).entries[0]

    def coordinate_matrix(self, vectors: Matrix) -> Matrix:
        """Coordinates of each row of `vectors` with respect to this basis.

        The basis is the identity at its pivot columns, so the coordinates
        of a row are its entries there; one `_vanishes` checks that every
        row lies in the span.
        """
        if vectors.cols != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        coords = vectors._columns(self.pivots)
        if not _vanishes([(1, coords, self.basis)], vectors, 1):
            raise ValueError("vector is not in the subspace")
        return coords

    def _contains_rows(self, rows: Matrix) -> bool:
        """Whether every row of `rows` lies in this subspace: as in
        coordinate_matrix, each row is its entries at the pivots times the
        basis, and that product is only compared, never built."""
        return _vanishes([(1, rows._columns(self.pivots), self.basis)], rows, 1)

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return self._contains_rows(other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return Subspace.row_space(self.basis.stack(other.basis))

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection, computed from the kernel of the stacked bases."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        a, b = self.basis, other.basis
        if a.rows == 0 or b.rows == 0:
            return Subspace.zero(self.ambient)
        coeffs = kernel(a.stack(b))
        return Subspace.row_space(coeffs._columns(range(a.rows)) * a)

    def image(self, m: Matrix) -> "Subspace":
        """Image of this subspace under the right-action map v -> v * m."""
        if m.rows != self.ambient:
            raise ValueError("map domain does not match ambient dimension")
        return Subspace.row_space(self.basis * m)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"
