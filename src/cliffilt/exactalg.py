"""Exact linear algebra over the rationals.

Conventions used throughout the package:

* scalars are `fractions.Fraction` values (always reduced, positive
  denominator),
* vectors are rows, and a linear map is a matrix acting on the right,
  so applying `m` to `v` computes ``v * m`` and composition "first f
  then g" is the product ``f * g``,
* a subspace is stored by the reduced row-echelon basis of its row
  span, with zero rows dropped.  Two subspaces are equal iff their
  stored bases are identical, so equality is a syntactic check.

Every elimination (spans, sums, images, intersections, kernels and
solves) goes through one `rref`.  It is sparse and incremental: a row is
reduced only where it is nonzero, against basis rows kept as dicts of
their nonzero entries, and rows that reduce to zero cost no more than
that.  Its output is the unique reduced row-echelon form, whatever the
order of elimination, which is what makes subspace equality syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/4' or '5', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render as 'p/q', or just 'p' when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _freeze_row(row: Iterable) -> tuple:
    return tuple(x if type(x) is Fraction else rational(x) for x in row)


class Matrix:
    """Immutable dense rational matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]):
        entries = tuple(_freeze_row(r) for r in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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
        return Matrix(n, n, [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [[_ZERO] * cols for _ in range(rows)])

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, [self.column(j) for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [[-a for a in r] for r in self.entries])

    def scale(self, c) -> "Matrix":
        c = rational(c)
        return Matrix(self.rows, self.cols, [[c * a for a in r] for r in self.entries])

    def __rmul__(self, c) -> "Matrix":
        return self.scale(c)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        orows = other.entries
        out = []
        for row in self.entries:
            acc = [_ZERO] * other.cols
            for k, a in enumerate(row):
                if a:
                    orow = orows[k]
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix(self.rows, other.cols, out)

    def apply(self, v: Sequence) -> tuple:
        """Row vector times matrix: v (length rows) -> v * self (length cols)."""
        v = _freeze_row(v)
        if len(v) != self.rows:
            raise ValueError("vector length does not match matrix rows")
        acc = [_ZERO] * self.cols
        for a, row in zip(v, self.entries):
            if a:
                for j, b in enumerate(row):
                    if b:
                        acc[j] = acc[j] + a * b
        return tuple(acc)

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("cannot stack matrices with different column counts")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def rank(self) -> int:
        return rref(self)[0].rows

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in r) for r in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form with zero rows dropped, plus pivot columns.

    The elimination is sparse and incremental.  Each basis row is kept
    as a {column: value} dict of its nonzero entries, under its pivot
    column.  An input row is reduced only at the pivot columns where it
    is nonzero; a row that reduces to zero is dropped, and otherwise it
    is scaled so its leading entry is 1 and that column is cleared from
    the basis rows already kept.  Rows past full rank are not read.

    The result is the unique reduced row-echelon basis of the row span:
    every pivot is 1 and is the only nonzero entry in its column, and
    pivot columns increase strictly.  It does not depend on the order of
    elimination, so two spans are equal iff their results are.
    """
    basis: dict[int, dict[int, Fraction]] = {}
    for entries in m.entries:
        row = {j: x for j, x in enumerate(entries) if x}
        # basis rows vanish at each other's pivots, so reducing at one
        # pivot leaves the row's entries at the others unchanged
        for p in [j for j in row if j in basis]:
            _subtract(row, row[p], basis[p])
        if not row:
            continue
        lead = min(row)
        inv = row[lead] ** -1
        if inv != 1:
            row = {j: x * inv for j, x in row.items()}
        for other in basis.values():
            if lead in other:
                _subtract(other, other[lead], row)
        basis[lead] = row
        if len(basis) == m.cols:
            break
    pivots = tuple(sorted(basis))
    dense = []
    for p in pivots:
        out = [_ZERO] * m.cols
        for j, x in basis[p].items():
            out[j] = x
        dense.append(out)
    return Matrix(len(dense), m.cols, dense), pivots


def _subtract(row: dict, f: Fraction, other: dict) -> None:
    """row -= f * other, on rows stored as dicts of their nonzero entries."""
    for j, y in other.items():
        x = row.get(j, _ZERO) - f * y
        if x:
            row[j] = x
        else:
            del row[j]


def kernel(m: Matrix) -> Matrix:
    """Canonical basis (as rows) of the row kernel {v : v * m = 0}."""
    reduced, pivots = rref(m.transpose())
    pivot_set = set(pivots)
    free = [j for j in range(m.rows) if j not in pivot_set]
    rows = []
    for f in free:
        v = [_ZERO] * m.rows
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced.entries[i][f]
        rows.append(v)
    basis, _ = rref(Matrix(len(rows), m.rows, rows))
    return basis


def solve(m: Matrix, target: Sequence) -> tuple | None:
    """One solution v of v * m = target, or None if the system is inconsistent."""
    target = _freeze_row(target)
    if len(target) != m.cols:
        raise ValueError("target length does not match matrix columns")
    # Solve m^T x^T = target^T by reducing the augmented transpose.
    aug = [list(m.column(j)) + [target[j]] for j in range(m.cols)]
    reduced, pivots = rref(Matrix(m.cols, m.rows + 1, aug))
    if m.rows in pivots:
        return None
    v = [_ZERO] * m.rows
    for i, p in enumerate(pivots):
        v[p] = reduced.entries[i][m.rows]
    return tuple(v)


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
        basis, pivots = rref(m)
        return Subspace(ambient, basis, pivots)

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.zeros(0, ambient), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.identity(ambient), tuple(range(ambient)))

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

    def contains(self, v: Sequence) -> bool:
        return self._reduce(v) is not None

    def _reduce(self, v: Sequence) -> tuple | None:
        """Coordinates of v in the basis rows, or None if v lies outside."""
        v = list(_freeze_row(v))
        if len(v) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        coords = []
        for row, p in zip(self.basis.entries, self.pivots):
            c = v[p]
            coords.append(c)
            if c:
                for j, y in enumerate(row):
                    if y:
                        v[j] -= c * y
        if any(v):
            return None
        return tuple(coords)

    def coordinates(self, v: Sequence) -> tuple:
        coords = self._reduce(v)
        if coords is None:
            raise ValueError("vector is not in the subspace")
        return coords

    def coordinate_matrix(self, vectors: Matrix) -> Matrix:
        """Coordinates of each row of `vectors` with respect to this basis."""
        return Matrix.from_rows(
            [self.coordinates(r) for r in vectors.entries], cols=self.dim
        )

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return all(self.contains(r) for r in other.basis.entries)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        stacked = self.basis.stack(other.basis)
        basis, pivots = rref(stacked)
        return Subspace(self.ambient, basis, pivots)

    def __and__(self, other: "Subspace") -> "Subspace":
        """Intersection, computed from the kernel of the stacked bases."""
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        a, b = self.basis, other.basis
        if a.rows == 0 or b.rows == 0:
            return Subspace.zero(self.ambient)
        coeffs = kernel(a.stack(b))
        rows = [a.apply(c[: a.rows]) for c in coeffs.entries]
        return Subspace.span(self.ambient, rows)

    def image(self, m: Matrix) -> "Subspace":
        """Image of this subspace under the right-action map v -> v * m."""
        if m.rows != self.ambient:
            raise ValueError("map domain does not match ambient dimension")
        return Subspace.span(m.cols, (self.basis * m).entries)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"

