"""Clifford algebras over the rationals.

The algebra on generators g_0 .. g_{n-1} with symmetric positive
definite Gram matrix G is the quotient of the free algebra by

    g_i g_j + g_j g_i = 2 G[i][j].

Basis monomials are indexed by strictly increasing tuples of generator
indices, ordered by length and then lexicographically.  The level F_p
of the standard filtration is spanned by the monomials with |I| <= p
and |I| = p (mod 2), and F_p * F_q lands in F_{p+q}.

No product is formed to certify that: `deformation._algebra_certificate`
does it at any k on Cl(N) acting on itself, `enveloping_quotient_check`
on `exterior_module(n)` and `check_twisted_tensor` on the bifiltered
regular module of Cl(p) (x)^ Cl(q), certified as Cl(p + q).
`CliffordElement` is a reference arithmetic for tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .exactalg import Matrix, rational

_ZERO = Fraction(0)

# The algebra has 2**n basis monomials, built on first use; the bound is
# checked before anything else, so input naming a larger n is rejected
# without allocating.
MAX_GENERATORS = 16


def _is_positive_definite(gram: Matrix) -> bool:
    """Sylvester criterion with exact leading principal minors, decided
    fraction-free on the integer form rows / d: d > 0 does not change the
    signs, and Bareiss elimination leaves the k-th leading principal
    minor of the rows in the k-th diagonal entry, each step dividing
    exactly by the previous pivot."""
    n = gram.rows
    work = [[0] * n for _ in range(n)]
    for i, row in enumerate(gram._ints()[1]):
        for j, c in row:
            work[i][j] = c
    prev = 1
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            wi, f = work[i], work[i][k]
            for j in range(k + 1, n):
                wi[j] = (pivot * wi[j] - f * work[k][j]) // prev
        prev = pivot
    return True


class CliffordAlgebra:
    """Finite dimensional Clifford algebra: its generator count and Gram
    matrix, with the monomial products of the reference arithmetic."""

    def __init__(self, n: int, gram: Matrix | None = None):
        if n > MAX_GENERATORS:
            raise ValueError(f"generator count {n} exceeds the limit of {MAX_GENERATORS}")
        if n < 0:
            raise ValueError("generator count must be nonnegative")
        if gram is None:
            gram = Matrix.identity(n)
        if gram.rows != n or gram.cols != n:
            raise ValueError("Gram matrix shape does not match generator count")
        if gram != gram.transpose():
            raise ValueError("Gram matrix must be symmetric")
        if not _is_positive_definite(gram):
            raise ValueError("Gram matrix must be positive definite")
        self.n = n
        self.gram = gram

    @cached_property
    def _twice_gram(self) -> tuple[tuple, ...]:
        """2 G[i][j] for each pair of generators, read once from the Gram
        matrix's integer form: an int 0 where G vanishes, a Fraction
        elsewhere.  Every relations check on the algebra reads this table."""
        d, rows = self.gram._ints()
        table = [[0] * self.n for _ in range(self.n)]
        for i, row in enumerate(rows):
            for j, c in row:
                table[i][j] = Fraction(2 * c, d)
        return tuple(map(tuple, table))

    @cached_property
    def monomials(self) -> tuple[tuple[int, ...], ...]:
        """The 2**n basis monomials in canonical order: built on first use."""
        return tuple(m for size in range(self.n + 1) for m in combinations(range(self.n), size))

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def monomial_index(self) -> dict[tuple[int, ...], int]:
        return {m: i for i, m in enumerate(self.monomials)}

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CliffordAlgebra)
            and self.n == other.n
            and self.gram == other.gram
        )

    def __hash__(self):
        return hash((self.n, self.gram))

    def __repr__(self):
        tag = "" if self.gram == Matrix.identity(self.n) else ", gram"
        return f"CliffordAlgebra({self.n}{tag})"

    def element(self, terms: dict) -> "CliffordElement":
        return CliffordElement(self, terms)

    def zero(self) -> "CliffordElement":
        return CliffordElement(self, {})

    def one(self) -> "CliffordElement":
        return CliffordElement(self, {(): Fraction(1)})

    def gamma(self, i: int) -> "CliffordElement":
        if not 0 <= i < self.n:
            raise ValueError(f"no generator {i}")
        return CliffordElement(self, {(i,): Fraction(1)})

    def basis_element(self, mono: tuple[int, ...]) -> "CliffordElement":
        if mono not in self.monomial_index:
            raise ValueError(f"not a basis monomial: {mono}")
        return CliffordElement(self, {mono: Fraction(1)})

    def monomial_product(self, a: tuple[int, ...], b: tuple[int, ...]) -> dict:
        """Product of two basis monomials as {monomial: coefficient}."""
        gram = self.gram.entries
        terms: dict[tuple[int, ...], Fraction] = {}
        stack = [(list(a) + list(b), Fraction(1))]
        while stack:
            word, coeff = stack.pop()
            for k in range(len(word) - 1):
                x, y = word[k], word[k + 1]
                if x < y:
                    continue
                rest = word[:k] + word[k + 2 :]
                if x == y:
                    g = gram[x][x]
                    if g:
                        stack.append((rest, coeff * g))
                else:
                    g = 2 * gram[x][y]
                    if g:
                        stack.append((rest, coeff * g))
                    stack.append((word[:k] + [y, x] + word[k + 2 :], -coeff))
                break
            else:
                mono = tuple(word)
                acc = terms.get(mono, _ZERO) + coeff
                if acc:
                    terms[mono] = acc
                elif mono in terms:
                    del terms[mono]
        return terms


class CliffordElement:
    """Sparse element of a `CliffordAlgebra`: {basis monomial: rational
    coefficient}, a monomial being an increasing index tuple."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: CliffordAlgebra, terms: dict):
        clean = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if mono not in algebra.monomial_index:
                raise ValueError(f"not a basis monomial: {mono}")
            coeff = rational(coeff)
            if coeff:
                clean[mono] = coeff
        self.algebra = algebra
        self.terms = clean

    def _check_same_algebra(self, other: "CliffordElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements live in different algebras")

    def __eq__(self, other):
        return (
            isinstance(other, CliffordElement)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check_same_algebra(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, _ZERO) + coeff
        return CliffordElement(self.algebra, terms)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "CliffordElement":
        c = rational(c)
        return CliffordElement(self.algebra, {m: c * x for m, x in self.terms.items()})

    def __rmul__(self, c) -> "CliffordElement":
        return self.scale(c)

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check_same_algebra(other)
        alg = self.algebra
        terms: dict[tuple[int, ...], Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                c = ca * cb
                for mono, coeff in alg.monomial_product(ma, mb).items():
                    acc = terms.get(mono, _ZERO) + c * coeff
                    if acc:
                        terms[mono] = acc
                    elif mono in terms:
                        del terms[mono]
        return CliffordElement(alg, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            c = self.terms[mono]
            name = "*".join(f"g{i}" for i in mono) or "1"
            bits.append(f"({c})*{name}")
        return " + ".join(bits)

