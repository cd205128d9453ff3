"""Clifford algebra products against an independent sign oracle."""

import random
from fractions import Fraction

import pytest

from cliffilt.clifford import (
    MAX_GENERATORS,
    CliffordAlgebra,
    _is_positive_definite,
)
from cliffilt.exactalg import Matrix


def oracle_product(I, J):
    """Closed formula for e_I * e_J in the identity-Gram algebra.

    Sign counts the transpositions moving J's generators past I's larger
    ones; coincident indices square to 1 and drop out.
    """
    sign = (-1) ** sum(1 for a in I for b in J if a > b)
    sym = tuple(sorted(set(I) ^ set(J)))
    return sign, sym


def test_products_match_oracle_exhaustive_n4():
    alg = CliffordAlgebra(4)
    for I in alg.monomials:
        for J in alg.monomials:
            got = alg.basis_element(I) * alg.basis_element(J)
            sign, sym = oracle_product(I, J)
            assert got.terms == {sym: Fraction(sign)}, (I, J)


def test_generator_count_bounded():
    # one past the bound, so a missing bound costs one Cl(17) and no more
    with pytest.raises(ValueError, match="limit of 16"):
        CliffordAlgebra(MAX_GENERATORS + 1)


def test_hand_cases():
    alg = CliffordAlgebra(3)
    g = [alg.gamma(i) for i in range(3)]
    one = alg.one()
    assert g[0] * g[0] == one
    assert g[1] * g[0] == -(g[0] * g[1])
    # (g0 g1)(g1 g2) = g0 g2
    left = g[0] * g[1] * (g[1] * g[2])
    assert left == g[0] * g[2]


def test_relations_all_pairs():
    gram = Matrix(2, 2, [[2, 1], [1, 3]])
    for alg in (CliffordAlgebra(3), CliffordAlgebra(2, gram)):
        for i in range(alg.n):
            for j in range(alg.n):
                anti = alg.gamma(i) * alg.gamma(j) + alg.gamma(j) * alg.gamma(i)
                assert anti == alg.one().scale(2 * alg.gram.entries[i][j])


def test_associativity_random_triples():
    rng = random.Random(19)
    for n in range(1, 6):
        alg = CliffordAlgebra(n)
        for _ in range(12):
            def rand_elem():
                e = alg.zero()
                for _ in range(rng.randint(1, 3)):
                    mono = alg.monomials[rng.randrange(len(alg.monomials))]
                    e = e + alg.basis_element(mono).scale(rng.randint(-3, 3))
                return e

            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)


def test_z2_grading_of_products():
    # products are graded and filtered: every term of e_I * e_J has the
    # parity of |I| + |J| and length at most |I| + |J|, also where an
    # off-diagonal Gram entry contracts a pair of distinct generators
    rng = random.Random(4)
    gram = Matrix(3, 3, [[1, Fraction(1, 2), 0], [Fraction(1, 2), 2, 1], [0, 1, 3]])
    for alg in (CliffordAlgebra(4), CliffordAlgebra(3, gram)):
        contracted = False
        for _ in range(40):
            I = alg.monomials[rng.randrange(len(alg.monomials))]
            J = alg.monomials[rng.randrange(len(alg.monomials))]
            prod = alg.basis_element(I) * alg.basis_element(J)
            for mono, coeff in prod.terms.items():
                assert coeff
                assert len(mono) % 2 == (len(I) + len(J)) % 2
                assert len(mono) <= len(I) + len(J)
            contracted |= len(prod.terms) > 1
        assert contracted == (alg.n == 3)


def test_gram_must_be_positive_definite():
    with pytest.raises(ValueError):
        CliffordAlgebra(2, Matrix(2, 2, [[1, 2], [2, 1]]))
    with pytest.raises(ValueError):
        CliffordAlgebra(1, Matrix(1, 1, [[0]]))
    with pytest.raises(ValueError):
        CliffordAlgebra(2, Matrix(2, 2, [[1, 1], [0, 1]]))  # not symmetric


def _sylvester_oracle(m: Matrix) -> bool:
    """Every leading principal minor positive, each minor a Fraction
    determinant by cofactor expansion."""
    def det(rows):
        if not rows:
            return Fraction(1)
        return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j in range(len(rows)))

    rows = [list(r) for r in m.entries]
    return all(det([r[:k] for r in rows[:k]]) > 0 for k in range(1, m.rows + 1))


def test_positive_definite_matches_sylvester_oracle():
    # symmetric matrices with large denominators, about half of them
    # positive definite (a random B B^T plus a shift)
    rng = random.Random(131)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(0, 4)
        b = Matrix(n, n, [[Fraction(rng.randint(-9, 9), rng.randint(1, 10**6)) for _ in range(n)]
                          for _ in range(n)])
        shift = Fraction(rng.randint(-3, 3), rng.randint(1, 1000))
        m = b * b.transpose() + Matrix.identity(n).scale(shift)
        got = _is_positive_definite(m)
        assert got == _sylvester_oracle(m), m
        outcomes.add(got)
    assert outcomes == {True, False}


def test_algebra_builds_monomials_on_first_use():
    alg = CliffordAlgebra(MAX_GENERATORS)
    assert not {"monomials", "monomial_index"} & vars(alg).keys()
    assert alg.dim == 2 ** MAX_GENERATORS
    small = CliffordAlgebra(3)
    assert small.monomial_index[(0, 2)] == small.monomials.index((0, 2)) == 5
    assert small.dim == len(small.monomials)


def test_monomial_order_cardinality_then_lex():
    alg = CliffordAlgebra(3)
    assert alg.monomials == ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def test_general_gram_contraction():
    # u*v + v*u = 2<u,v> for the off-diagonal pair
    gram = Matrix(2, 2, [[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    alg = CliffordAlgebra(2, gram)
    u, v = alg.gamma(0), alg.gamma(1)
    assert u * v + v * u == alg.one()
    assert u * u == alg.one()


def test_algebra_equality_is_by_value():
    a = CliffordAlgebra(2)
    b = CliffordAlgebra(2, Matrix.from_rows([[1, 0], [0, 1]]))
    other = CliffordAlgebra(2, Matrix.from_rows([[2, 1], [1, 1]]))
    assert a == a and a is not b and a == b and hash(a) == hash(b)
    assert a != other and other != b and a != CliffordAlgebra(3)
    # elements of equal algebras combine; of different algebras do not
    assert a.gamma(0) + b.gamma(1) == b.gamma(1) + a.gamma(0)
    with pytest.raises(ValueError, match="different algebras"):
        a.gamma(0) + other.gamma(0)
