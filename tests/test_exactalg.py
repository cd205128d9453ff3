"""Exact linear algebra: canonical forms, subspace lattice, no rounding."""

import collections
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle
from cliffilt import exactalg
from cliffilt.exactalg import Matrix, Subspace, _null_space, _vanishes, kernel, rational, rref
from oracle import grid


def test_rational_normalization():
    assert rational("3/6") == Fraction(1, 2)
    assert rational(-4) == Fraction(-4)
    with pytest.raises(ValueError):
        rational("1.5.2")
    # Fraction raises ZeroDivisionError on these; every digit form of 0 is
    # a ValueError naming the text
    for text in ("1/0", "-3/00", " 2/0_0 ", "0/0", "1/\u0660"):
        with pytest.raises(ValueError, match="zero denominator"):
            rational(text)
    for text in ("1/0x", "1/", "/0"):
        with pytest.raises(ValueError):
            rational(text)
    assert rational("0/5") == 0 and rational("10/10") == 1
    assert rational(" 1/1_0 ") == Fraction(1, 10)


def test_rref_hand_cases():
    # rank-1 dependent rows
    m, pivots = rref(Matrix(2, 2, [[2, 4], [1, 2]]))
    assert m.entries == ((1, 2),) and pivots == (0,)

    m, pivots = rref(Matrix.identity(3))
    assert m == Matrix.identity(3) and pivots == (0, 1, 2)

    # hand Gaussian elimination over the rationals
    m, pivots = rref(Matrix(2, 2, [[Fraction(1, 2), Fraction(1, 3)],
                                   [Fraction(1, 4), Fraction(1, 6)]]))
    assert m.entries == ((1, Fraction(2, 3)),) and pivots == (0,)


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(rows, cols, [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                 for _ in range(cols)] for _ in range(rows)])
        r1, p1 = rref(m)
        r2, p2 = rref(Matrix(r1.rows, r1.cols, [list(row) for row in r1.entries]))
        assert r1 == r2 and p1 == p2


def test_subspace_canonical_under_change_of_basis():
    rng = random.Random(23)
    for _ in range(40):
        ambient = rng.randint(2, 6)
        count = rng.randint(1, ambient)
        rows = [[rng.randint(-5, 5) for _ in range(ambient)] for _ in range(count)]
        s = Subspace.span(ambient, rows)
        # random invertible recombination of the same spanning set
        mixed = []
        for _ in range(count + 1):
            combo = [0] * ambient
            for row in rows:
                c = rng.randint(-3, 3)
                combo = [a + c * b for a, b in zip(combo, row)]
            mixed.append(combo)
        t = Subspace.span(ambient, mixed)
        if t.dim == s.dim:
            assert t.basis.entries == s.basis.entries
        assert all(s.contains(v) for v in mixed)


def test_modular_law_random_triples():
    rng = random.Random(5)
    for _ in range(50):
        ambient = rng.randint(2, 6)

        def rand_space():
            rows = [[rng.randint(-3, 3) for _ in range(ambient)]
                    for _ in range(rng.randint(0, ambient))]
            return Subspace.span(ambient, rows)

        a, b = rand_space(), rand_space()
        assert (a + b).dim == a.dim + b.dim - (a & b).dim


def test_subspace_hand_cases():
    e1 = [1, 0, 0]
    e2 = [0, 1, 0]
    s = Subspace.span(3, [e1]) + Subspace.span(3, [e2])
    assert s == Subspace.span(3, [e1, e2])
    full = Subspace.full(2)
    assert Subspace.span(2, [[1, 1]]) + Subspace.span(2, [[1, -1]]) == full
    assert (full & Subspace.zero(2)).dim == 0
    inter = Subspace.span(3, [e1, e2]) & Subspace.span(3, [e2, [0, 0, 1]])
    assert inter == Subspace.span(3, [e2])
    sub = Subspace.span(2, [[1, 1]])
    assert (sub & Subspace.full(2)) == sub
    assert not Subspace.span(3, [e1]).contains([1, 1, 0])
    assert Subspace.full(3).is_full


def test_image_and_coordinates():
    s = Subspace.span(2, [[1, 0]])
    assert s.image(Matrix.identity(2)) == s
    rot = Matrix(2, 2, [[0, 1], [-1, 0]])
    assert s.image(rot) == Subspace.span(2, [[0, 1]])
    # coordinates of vectors of a sub-flag in the containing flag basis
    big = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    coords = big.coordinate_matrix(Matrix(1, 3, [[2, -3, 0]]))
    assert coords.entries == ((2, -3),)


def test_kernel_consistency():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix(rows, cols, [[rng.randint(-4, 4) for _ in range(cols)]
                                for _ in range(rows)])
        k = kernel(m)
        assert k.rows == rows - m.rank()
        for row in k.entries:
            assert (Matrix(1, rows, [list(row)]) * m).is_zero()


def test_composed_operations_match_recomputation():
    # (A*B)+C entrywise over fresh Fractions equals the library result
    rng = random.Random(3)
    a = Matrix(3, 3, [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(3)] for _ in range(3)])
    b = Matrix(3, 3, [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(3)] for _ in range(3)])
    c = Matrix(3, 3, [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(3)] for _ in range(3)])
    lib = a * b + c
    for i in range(3):
        for j in range(3):
            manual = sum((a.entries[i][k] * b.entries[k][j] for k in range(3)),
                         Fraction(0)) + c.entries[i][j]
            assert lib.entries[i][j] == manual


def test_zero_row_matrices_keep_shape():
    z = Matrix.zeros(0, 3)
    assert z.rows == 0 and z.cols == 3
    assert (z * Matrix.identity(3)).cols == 3
    assert Subspace.span(3, []).dim == 0


BIG_PRIMES = (999983, 999979, 999961, 999959, 999953, 999931)


def _oracle_matrices():
    """About 300 seeded matrices of the shapes the package eliminates."""
    rng = random.Random(2027)
    out = [Matrix.zeros(0, 0), Matrix.zeros(0, 4), Matrix.zeros(3, 0),
           Matrix.zeros(1, 1), Matrix.zeros(4, 3)]

    def sparse_pm1(rows, cols, density):
        return [[rng.choice((-1, 1)) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows)]

    # tall sparse +-1 systems with mostly dependent rows, like the
    # commutant systems (512 x 64) scaled down
    for _ in range(60):
        cols = rng.randint(4, 12)
        rank = rng.randint(1, cols)
        basis = sparse_pm1(rank, cols, 0.3)
        rows = []
        for _ in range(rng.randint(3 * cols, 6 * cols)):
            if rng.random() < 0.3:
                rows.append([rng.choice((-1, 1)) if rng.random() < 0.15 else 0
                             for _ in range(cols)])
                continue
            row = [0] * cols
            for b in rng.sample(basis, min(len(basis), rng.randint(1, 3))):
                c = rng.choice((-1, 1))
                row = [x + c * y for x, y in zip(row, b)]
            rows.append(row)
        out.append(Matrix.from_rows(rows))
    # rank-deficient inputs with duplicate and zero rows
    for _ in range(80):
        cols = rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(cols)]
                for _ in range(rng.randint(1, 4))]
        rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
        rows += [[0] * cols for _ in range(rng.randint(0, 2))]
        rows.append([a - b for a, b in zip(rows[0], rows[-1])])
        rng.shuffle(rows)
        out.append(Matrix.from_rows(rows))
    # Fraction entries with denominators, wide and square
    for _ in range(100):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        out.append(Matrix(rows, cols, [
            [Fraction(rng.randint(-7, 7), rng.randint(1, 9)) if rng.random() < 0.7 else 0
             for _ in range(cols)] for _ in range(rows)]))
    # full rank reached before the last row, and a zero column
    for _ in range(55):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n + rng.randint(0, 5))]
        if rng.random() < 0.5:
            rows = [row[:-1] + [0] for row in rows]
        out.append(Matrix.from_rows(rows))
    # large denominators (a prime near 10**6, times 1 or 7), with a
    # dependent row
    big = random.Random(2029)
    for _ in range(30):
        cols = big.randint(1, 6)
        rows = [[Fraction(big.randint(-10**6, 10**6), big.choice(BIG_PRIMES) * big.choice((1, 7)))
                 if big.random() < 0.7 else 0 for _ in range(cols)]
                for _ in range(big.randint(1, 5))]
        rows.append([Fraction(3, 999983) * a - Fraction(5, 999979) * b
                     for a, b in zip(rows[0], rows[-1])])
        big.shuffle(rows)
        out.append(Matrix.from_rows(rows))
    return out


ORACLE = _oracle_matrices()


def test_rref_matches_dense_oracle():
    assert len(ORACLE) >= 300
    for m in ORACLE:
        reduced, pivots = rref(m)
        rows, want_pivots = oracle.rref(grid(m), m.cols)
        assert pivots == want_pivots
        assert reduced.rows == len(rows) and reduced.cols == m.cols
        assert reduced.entries == tuple(map(tuple, rows))
        assert all(type(x) is Fraction for row in reduced.entries for x in row)


def test_kernel_on_oracle_matrices():
    for m in ORACLE:
        k = kernel(m)
        assert k.rows == m.rows - oracle.rank(grid(m), m.cols) and k.cols == m.rows
        for row in k.entries:
            assert (Matrix(1, m.rows, [list(row)]) * m).is_zero()
        # the same solutions, from the equations as rows
        assert _null_space(m.transpose()) == k


def _two_term_system(rng, unknowns: int) -> Matrix:
    """Seeded equations of at most two terms each: empty, one-term and
    repeated rows, ±1 and rational coefficients.  Half the systems are
    built to be solved by a hidden vector with no zero entry, so their
    two-term rows agree around every cycle; in the others the ratios are
    drawn freely, so many cycles do not."""
    hidden = ([Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 1, 5)))
               for _ in range(unknowns)] if rng.random() < 0.5 else None)

    def coefficient():
        if rng.random() < 0.5:
            return Fraction(rng.choice((1, -1)))
        return Fraction(rng.choice((-7, -2, 1, 3, 4)), rng.randint(1, 6))

    rows = []
    for _ in range(rng.randint(0, 2 * unknowns + 2)):
        row = [Fraction(0)] * unknowns
        kind = rng.random()
        if rows and kind < 0.1:
            row = list(rng.choice(rows))
        elif unknowns and kind < 0.25:
            row[rng.randrange(unknowns)] = coefficient()
        elif unknowns >= 2 and kind > 0.3:
            u, v = rng.sample(range(unknowns), 2)
            row[u] = coefficient()
            # a x_u + b x_v = 0 holds at the hidden vector when b = -a w_u / w_v
            row[v] = -row[u] * hidden[u] / hidden[v] if hidden else coefficient()
        rows.append(row)
    return Matrix.from_rows(rows, cols=unknowns)


def test_two_term_null_space_matches_dense_oracle(eliminations):
    """Systems whose equations have at most two terms are solved without
    `rref`, to the dense oracle's basis entry for entry: components forced
    to zero, inconsistent cycles, unknowns no equation names and systems
    with no unknowns included."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    # x0 = 2 x1, x1 = 3 x2 and x2 = x0 / 6 agree around the cycle; x2 = x0 / 5 does not
    consistent = Matrix(3, 4, [[1, -2, 0, 0], [0, 1, -3, 0], [-third, 0, 2, 0]])
    inconsistent = Matrix(3, 4, [[1, -2, 0, 0], [0, 1, -3, 0], [-half, 0, Fraction(5, 2), 0]])
    systems = [consistent, inconsistent, Matrix.zeros(3, 0), Matrix.zeros(0, 0),
               Matrix.zeros(2, 3), Matrix(2, 2, [[1, 1], [1, -1]])]
    rng = random.Random(29)
    systems += [_two_term_system(rng, rng.randint(0, 9)) for _ in range(400)]
    dims = []
    for e in systems:
        basis = _null_space(e)
        assert basis.cols == e.cols
        assert basis.entries == tuple(map(tuple, oracle.null_space(grid(e), e.cols)))
        dims.append(basis.rows)
    assert eliminations == []
    assert dims[:6] == [2, 1, 0, 0, 3, 0]
    # the random systems reach bases of several sizes, the empty one included
    assert {0, 1, 2, 3} <= set(dims[6:])


def test_two_term_null_space_stays_exact_on_a_long_chain():
    # 2 x_i - 3 x_{i+1} = 0 makes x_i = (2/3)^i x_0, whose denominators reach 3^199
    e = Matrix(199, 200, [[2 if j == i else -3 if j == i + 1 else 0 for j in range(200)]
                          for i in range(199)])
    assert _null_space(e).entries == (tuple(Fraction(2, 3) ** i for i in range(200)),)
    # a one-term row anywhere on the chain forces all of it to zero
    assert _null_space(e.stack(Matrix(1, 200, [[int(j == 150) for j in range(200)]]))).rows == 0


def test_every_elimination_goes_through_rref(monkeypatch):
    """Subspace spans, sums and images, and kernels whose equations include
    a row of three or more terms, all eliminate through `rref`, so a
    counter on it sees every elimination; a system of two-term equations
    is solved without it."""
    calls = []
    original = exactalg.rref

    def counting(m):
        calls.append((m.rows, m.cols))
        return original(m)

    monkeypatch.setattr(exactalg, "rref", counting)
    a = Subspace.span(3, [[1, 2, 0], [2, 4, 0]])
    b = Subspace.span(3, [[0, 1, 1]])
    m = Matrix(3, 2, [[1, 0], [0, 1], [1, 1]])
    three_terms = Matrix(2, 3, [[1, 2, 3], [0, 1, 0]])
    for operation in (lambda: Subspace.span(3, [[1, 0, 1]]), lambda: a + b,
                      lambda: a.image(m), lambda: kernel(three_terms.transpose()),
                      lambda: _null_space(three_terms)):
        before = len(calls)
        operation()
        assert len(calls) > before
    # the rows of m, and of its transpose, have at most two terms each
    before = len(calls)
    assert kernel(m).entries == ((1, 1, -1),)
    assert _null_space(m).rows == 0
    assert len(calls) == before


def _random_matrix(rng, rows, cols, max_den):
    """Negative entries, denominators up to max_den, about a third zeros."""
    return Matrix(rows, cols, [
        [Fraction(rng.randint(-9, 9), rng.randint(1, max_den)) if rng.random() < 0.7 else 0
         for _ in range(cols)] for _ in range(rows)])


def test_product_matches_naive_oracle():
    rng = random.Random(41)
    for _ in range(300):
        rows, inner, cols = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a = _random_matrix(rng, rows, inner, rng.choice((1, 9, 10**6)))
        b = _random_matrix(rng, inner, cols, rng.choice((1, 9, 10**6)))
        got = a * b
        assert (got.rows, got.cols) == (rows, cols)
        assert got.entries == tuple(map(tuple, oracle.product(grid(a), grid(b), cols)))


_ENTRY = st.one_of(st.sampled_from((1, -1)),
                   st.builds(lambda n, d, s: Fraction(s * n, d), st.integers(1, 6),
                             st.integers(1, 5), st.sampled_from((1, -1))))


@st.composite
def _factor(draw, rows: int, cols: int) -> Matrix:
    """A rows x cols matrix: a partial signed permutation (zero rows, and
    one entry in each other row, in distinct columns or with columns
    repeated), a dense one, or one of those with the pairs of its integer
    rows reversed; entries are +-1 or rationals with denominators up to 5."""
    kind = draw(st.sampled_from(("distinct", "repeated", "dense")))
    grid = [[0] * cols for _ in range(rows)]
    free = list(range(cols))
    for row in grid:
        if kind == "dense":
            row[:] = [draw(st.one_of(st.just(0), _ENTRY)) for _ in range(cols)]
        elif free and draw(st.integers(0, 3)):
            j = draw(st.sampled_from(free))
            if kind == "distinct":
                free.remove(j)
            row[j] = draw(_ENTRY)
    m = Matrix(rows, cols, grid)
    if draw(st.booleans()):
        d, ints = m._ints()
        m = Matrix._built(rows, cols, (d, tuple(tuple(reversed(r)) for r in ints)))
    return m


@settings(max_examples=400)
@given(st.data())
def test_relabel_product_matches_the_accumulator(data):
    rows, inner, cols = (data.draw(st.integers(0, 6)) for _ in range(3))
    a, b = data.draw(_factor(rows, inner)), data.draw(_factor(inner, cols))
    dense_rows = sum(len(row) > 1 for row in a._ints()[1])
    event("accumulate" if dense_rows and not exactalg._injective(b._ints()[1])
          else "relabel with dense left rows" if dense_rows else "relabel")
    _same(a * b, _product(a, b))


def test_which_right_factors_relabel():
    gamma = Matrix(3, 3, [[0, -1, 0], [0, 0, 1], [Fraction(1, 2), 0, 0]])
    dense = Matrix(3, 3, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    repeated = Matrix(3, 2, [[1, 0], [0, 2], [-1, 0]])  # column 0 twice
    cut = Matrix(3, 3, [[1, 0, 5], [0, 1, 7], [0, 0, 0]])._columns((0, 1))
    for b, injective in ((Matrix.identity(3), True), (gamma, True), (cut, True),
                         (Matrix.zeros(3, 2), True), (repeated, False), (dense, False)):
        assert exactalg._injective(b._ints()[1]) == injective
        for a in (dense, gamma, Matrix.identity(3), Matrix(2, 3, [[1, 0, 0], [1, 1, 1]])):
            _same(a * b, _product(a, b))


def _product(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.rows, b.cols, oracle.product(grid(a), grid(b), b.cols))


def _sum(terms, shape: Matrix) -> Matrix:
    """The sum of c * m over the terms (c, m), entry by entry."""
    return Matrix(shape.rows, shape.cols, oracle.combination(
        [(c, grid(m)) for c, m in terms], shape.rows, shape.cols))


def _same(got: Matrix, want: Matrix) -> None:
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got == want and hash(got) == hash(want)
    assert got._ints()[0] == want._ints()[0] and got.entries == want.entries


@settings(max_examples=300)
@given(st.data())
def test_combination_and_stack_match_the_oracle(data):
    rows, more, cols = (data.draw(st.integers(0, 5)) for _ in range(3))
    a, b = data.draw(_factor(rows, cols)), data.draw(_factor(rows, cols))
    below = data.draw(_factor(more, cols))
    _same(a + b, _sum([(1, a), (1, b)], a))
    _same(a - b, _sum([(1, a), (-1, b)], a))
    _same(a.stack(below), Matrix(rows + more, cols, grid(a) + grid(below)))
    _same(below.stack(a), Matrix(rows + more, cols, grid(below) + grid(a)))
    # integer weights over a rational d, with a term and its negative
    cs = [data.draw(st.integers(-3, 3)) for _ in range(3)]
    d = data.draw(st.integers(1, 6))
    terms = [(cs[0], a), (cs[1], b), (cs[2], a), (-cs[2], a)]
    want = _sum([(Fraction(cs[0], d), a), (Fraction(cs[1], d), b)], a)
    event("cancels to zero" if want.is_zero() else "nonzero")
    _same(exactalg._combination(terms, d), want)
    _same(exactalg._combination([(1, a), (-1, a)]), Matrix.zeros(rows, cols))
    _same(exactalg._combination([(0, b)], d), Matrix.zeros(rows, cols))


def test_block_matrix_places_every_block():
    # any subset of the blocks of a grid, several in one block row included,
    # against the matrix written entry by entry; the least d comes with it
    rng = random.Random(53)
    for _ in range(200):
        row_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        col_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        max_den = rng.choice((1, 6, 10**6))
        blocks = {(i, j): _random_matrix(rng, r, c, max_den)
                  for i, r in enumerate(row_dims) for j, c in enumerate(col_dims)
                  if rng.random() < 0.7}
        grid = [[0] * sum(col_dims) for _ in range(sum(row_dims))]
        for (i, j), m in blocks.items():
            for r, row in enumerate(m.entries):
                for c, x in enumerate(row):
                    grid[sum(row_dims[:i]) + r][sum(col_dims[:j]) + c] = x
        got = exactalg._block_matrix(row_dims, col_dims, blocks)
        _same(got, Matrix(sum(row_dims), sum(col_dims), grid))
    with pytest.raises(ValueError, match="block shape"):
        exactalg._block_matrix([1, 2], [2], {(1, 0): Matrix.zeros(1, 2)})


def test_scale_by_one_is_the_matrix_itself():
    a = Matrix(2, 2, [[Fraction(1, 3), 0], [2, -1]])
    assert a.scale(1) is a and a.scale(Fraction(4, 4)) is a and a.scale("1") is a
    assert a.scale(-1) == -a and a.scale(-1) is not a


def _vanishing_cases():
    """(terms, target, s, shape): 0 to 3 terms with c in {-1, 1, 2}, 0-row
    and 0-column shapes, denominators up to 10**6 + 3, factors from the
    kernel, and targets that the sum is or is one entry away from, or None."""
    rng = random.Random(47)
    for _ in range(400):
        rows, inner, cols = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        max_den = rng.choice((1, 6, 10**6 + 3))
        terms = []
        for _ in range(rng.randint(0, 3)):
            a = _random_matrix(rng, rows, inner, max_den)
            if rng.random() < 0.3:  # a product, whose integer form comes with it
                a = a * Matrix.identity(inner).scale(Fraction(1, rng.choice((3, 10**6))))
            terms.append((rng.choice((-1, 1, 2)), a, _random_matrix(rng, inner, cols, max_den)))
        s = rng.choice((0, 1, -2, Fraction(1, 2), Fraction(-4, 10**6 + 3)))
        yield terms, None, s, (rows, cols)
        yield terms, _random_matrix(rng, rows, cols, max_den), s, (rows, cols)
        if s:
            total = sum(((a * b).scale(c) for c, a, b in terms), Matrix.zeros(rows, cols))
            target = total.scale(1 / Fraction(s))
            yield terms, target, s, (rows, cols)
            if rows and cols:
                bump = [[Fraction(1, max_den) if (i, j) == (rows - 1, 0) else 0
                         for j in range(cols)] for i in range(rows)]
                yield terms, target + Matrix(rows, cols, bump), s, (rows, cols)


def test_vanishes_matches_matrix_arithmetic():
    outcomes = set()
    for terms, target, s, shape in _vanishing_cases():
        zero = Matrix.zeros(*shape)
        total = sum(((a * b).scale(c) for c, a, b in terms), zero)
        want = total == (zero if target is None else target.scale(s))
        got = _vanishes(terms, target, s)
        assert got == want, (terms, target, s)
        outcomes.add((got, len(terms), target is None))
    assert {(got, n) for got, n, _ in outcomes} == {(g, n) for g in (True, False) for n in range(4)}
    assert {none for *_, none in outcomes} == {True, False}


def test_vanishes_rejects_shape_mismatch():
    a, b = Matrix.zeros(2, 3), Matrix.zeros(3, 2)
    for terms, target in [([(1, a, a)], None), ([(1, a, b), (1, b, a)], None),
                          ([(1, a, b)], Matrix.zeros(2, 3)), ([(1, a, b)], Matrix.zeros(3, 2))]:
        with pytest.raises(ValueError):
            _vanishes(terms, target, 0)
    assert _vanishes([], None) and _vanishes([], a, 0) and _vanishes([(2, a, b)], None, 5)


def test_vanishes_on_empty_results():
    # a result with no rows or no columns is zero, but its shapes are still
    # checked; an inner dimension of 0 leaves -s * target to compare
    empty_rows, empty_cols = Matrix.zeros(0, 2), Matrix.zeros(2, 0)
    mixed = [(1, empty_cols, Matrix.zeros(0, 1)), (1, empty_rows, Matrix.zeros(2, 0))]
    for terms, target in [([(1, empty_rows, Matrix.zeros(3, 2))], None),
                          ([(1, empty_rows, Matrix.zeros(2, 2))], Matrix.zeros(0, 3)),
                          (mixed, None)]:
        with pytest.raises(ValueError):
            _vanishes(terms, target, 1)
    assert _vanishes([(1, empty_rows, Matrix.identity(2))], Matrix.zeros(0, 2), 3)
    unread = Matrix(0, 2, []), Matrix(2, 2, [[1, 2], [3, 4]])
    assert _vanishes([(1, *unread)]) and all(m._int is None for m in unread)
    assert _vanishes([(2, Matrix.identity(2), empty_cols)], None)
    inner = [(1, Matrix.zeros(2, 0), Matrix.zeros(0, 2))]
    assert not _vanishes(inner, Matrix.identity(2), 1)
    assert _vanishes(inner, Matrix.identity(2), 0) and _vanishes(inner, Matrix.zeros(2, 2), 1)


def _kernel_results():
    """(operation, result) for every kernel operation on seeded inputs:
    negative entries, denominators up to 10**6, 0 x k and k x 0 shapes.
    `rref` of an already-reduced input is that input, built from entries
    here, so its result is named "rref kept" and not "rref"."""
    rng = random.Random(43)
    for _ in range(80):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        max_den = rng.choice((1, 10**6))
        a = _random_matrix(rng, rows, cols, max_den)
        c = _random_matrix(rng, rows, cols, max_den)
        yield "product", a * _random_matrix(rng, cols, rng.randint(0, 5), max_den)
        reduced = rref(a)[0]
        yield ("rref kept" if reduced is a else "rref"), reduced
        yield "kernel", kernel(a)
        yield "transpose", a.transpose()
        yield "scale", a.scale(Fraction(-7, 10**6 - 1))
        yield "add", a + c
        yield "sub", a - c
        yield "neg", -a
        yield "stack", a.stack(c)
        combo = Matrix(2, rows, [[rng.randint(-3, 3) for _ in range(rows)] for _ in range(2)])
        inside = combo * a
        yield "coordinate_matrix", Subspace.row_space(a).coordinate_matrix(inside)


def test_kernel_results_are_fractions():
    """Only Fractions leave the kernel, whatever it computed in."""
    for name, result in _kernel_results():
        assert all(type(x) is Fraction for row in result.entries for x in row), name


def test_integer_form_matches_entries():
    """A matrix equals rows / d of its integer form, d the least common
    denominator of its entries."""
    for name, m in _kernel_results():
        d, rows = m._ints()
        assert d == lcm(*[x.denominator for row in m.entries for x in row]), name
        dense = [[Fraction(0)] * m.cols for _ in range(m.rows)]
        for i, row in enumerate(rows):
            for j, c in row:
                assert c, name
                dense[i][j] = Fraction(c, d)
        assert tuple(map(tuple, dense)) == m.entries, name


def test_kernel_results_build_entries_on_first_read():
    """A matrix the kernel builds keeps only its integer form until its
    entries are read; they are then rows / d as Fractions, and kept.  An
    input `rref` returns as it is keeps the entries it was built from."""
    for name, m in _kernel_results():
        assert (m._entries is not None) is (name == "rref kept"), name
        d, rows = m._ints()
        grid = [[Fraction(0)] * m.cols for _ in range(m.rows)]
        for i, row in enumerate(rows):
            for j, c in row:
                grid[i][j] = Fraction(c, d)
        assert m.entries == tuple(map(tuple, grid)), name
        assert m.entries is m.entries, name


def test_rref_basis_rows_stay_primitive(monkeypatch):
    """The elimination keeps each basis row with no common factor and a
    positive pivot, so its integers stay as small as the RREF allows."""
    kept = []
    original = exactalg._combine

    def recording(row, p, other):
        kept.append((p, dict(other)))
        return original(row, p, other)

    monkeypatch.setattr(exactalg, "_combine", recording)
    for m in ORACLE:
        rref(m)
    assert kept
    for p, other in kept:
        assert other[p] > 0 and gcd(*other.values()) == 1


def test_coordinate_matrix_rejects_rows_outside_span():
    s = Subspace.span(3, [[1, 0, 2], [0, 1, -1]])
    assert s.coordinate_matrix(Matrix(2, 3, [[2, -3, 7], [0, 0, 0]])).entries == ((2, -3), (0, 0))
    with pytest.raises(ValueError, match="not in the subspace"):
        s.coordinate_matrix(Matrix(2, 3, [[2, -3, 7], [1, 1, 0]]))
    rng = random.Random(47)
    for m in ORACLE[:120]:
        space = Subspace.row_space(m)
        free = [j for j in range(m.cols) if j not in space.pivots]
        if not free:
            continue
        e = [0] * m.cols
        e[rng.choice(free)] = Fraction(1, rng.randint(1, 10**6))
        combo = [rng.randint(-2, 2) for _ in range(m.rows)]
        row = [x + y for x, y in zip((Matrix(1, m.rows, [combo]) * m).entries[0], e)]
        assert not space.contains(row)
        with pytest.raises(ValueError, match="not in the subspace"):
            space.coordinate_matrix(Matrix(1, m.cols, [row]))


def test_contains_subspace_matches_sum():
    rng = random.Random(53)
    for m in ORACLE[:150]:
        space = Subspace.row_space(m)
        rows = [(Matrix(1, m.rows, [[rng.randint(-2, 2) for _ in range(m.rows)]]) * m).entries[0]
                for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            rows.append([Fraction(rng.randint(-5, 5), rng.randint(1, 10**6)) for _ in range(m.cols)])
        other = Subspace.span(m.cols, rows)
        assert space.contains_subspace(other) == (space + other == space)


def _equal_builds(rng, a: Matrix):
    """Matrices equal to `a`, each built another way, so their integer
    forms come from another path (and rref rows from dict order)."""
    rows, cols = a.rows, a.cols
    fresh = Matrix(rows, cols, [[Fraction(x.numerator, x.denominator) for x in row]
                                for row in a.entries])
    yield fresh
    yield a * Matrix.identity(cols)
    yield Matrix.identity(rows) * a
    yield a.transpose().transpose()
    yield a.stack(Matrix.zeros(0, cols))
    yield Matrix.zeros(0, cols).stack(a)
    yield a._columns(range(cols))
    c = Fraction(rng.randint(1, 9), rng.randint(1, 10**6))
    yield a.scale(c).scale(1 / c)
    yield a + Matrix.zeros(rows, cols)


def test_equal_matrices_hash_equal():
    """Equal matrices hash equal, whichever way each was built."""
    rng = random.Random(71)
    for _ in range(120):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = _random_matrix(rng, rows, cols, rng.choice((1, 9, 10**6)))
        # an invertible (unit lower triangular) mix of the rows keeps the
        # span, so both sides have the same rref
        mix = Matrix(rows, rows, [[rng.randint(-3, 3) if j < i else int(i == j)
                                   for j in range(rows)] for i in range(rows)])
        pairs = [(rref(a)[0], rref(mix * a)[0]), (kernel(a), kernel(a.scale(3)))]
        pairs += [(a, other) for other in _equal_builds(rng, a)]
        # the same integer form with each row's pairs in another order
        d, ints = a._ints()
        shuffled = [list(row) for row in ints]
        for row in shuffled:
            rng.shuffle(row)
        pairs.append((a, Matrix._built(rows, cols, (d, tuple(tuple(reversed(r)) for r in ints)))))
        pairs.append((a, Matrix._built(rows, cols, (d, tuple(shuffled)))))
        for x, y in [*pairs, *[(p, q) for p, _ in pairs for q in _equal_builds(rng, p)]]:
            assert x == y and hash(x) == hash(y), (x, y)
        assert len({a, *_equal_builds(rng, a)}) == 1
        if not a.is_zero():
            assert a != a.scale(2) and a != a.transpose().transpose().scale(-1)


def test_membership_and_apply_match_the_oracle():
    rng = random.Random(59)
    outside = 0
    for m in ORACLE:
        space = Subspace.row_space(m)
        combo = [Fraction(rng.randint(-3, 3), rng.randint(1, 9)) for _ in range(m.rows)]
        inside = oracle.product([combo], grid(m), m.cols)[0]
        stray = [Fraction(rng.randint(-5, 5), rng.randint(1, 10**6)) for _ in range(m.cols)]
        for v in (inside, stray, [0] * m.cols):
            want = oracle.solve(grid(space.basis), v)
            assert space.contains(v) == (want is not None)
            if want is None:
                outside += 1
                with pytest.raises(ValueError, match="vector is not in the subspace"):
                    space.coordinates(v)
            else:
                assert space.coordinates(v) == tuple(want)
    assert outside >= 100
    space = Subspace.span(3, [[1, 0, 2]])
    for call in (space.contains, space.coordinates):
        with pytest.raises(ValueError, match="vector length does not match ambient dimension"):
            call([1, 0])


def test_rref_returns_an_already_reduced_input_itself():
    # every reduced form is returned as it is, with its pivots; so is a
    # reduced matrix built from entries, denominators away from the pivots
    for m in ORACLE:
        reduced, pivots = rref(m)
        assert rref(reduced)[0] is reduced and rref(reduced)[1] == pivots
    for rows, pivots in [([[1, Fraction(1, 2), 0, Fraction(-3, 7)], [0, 0, 1, 5]], (0, 2)),
                         ([[0, 1, 0], [0, 0, 1]], (1, 2)), ([[0, 0, 0, 1]], (3,))]:
        m = Matrix.from_rows(rows)
        assert rref(m) == (m, pivots) and rref(m)[0] is m
    empty = Matrix.zeros(0, 3)
    assert rref(empty)[0] is empty and rref(empty)[1] == ()


@pytest.mark.parametrize("rows", [
    [[2, 0], [0, 1]],  # a pivot of 2
    [[1, 3, 0], [0, 1, 0]],  # a pivot column nonzero in another row
    [[0, 1], [1, 0]],  # leading columns out of order
    [[1, 0, 0], [0, 0, 0], [0, 0, 1]],  # a zero row
    [[1, 0], [1, 0]],  # two rows leading at one column
    [[Fraction(1, 2), 1], [0, Fraction(2, 3)]],  # leading entries with denominators
    [[1, Fraction(1, 2), 0], [0, 1, Fraction(5, 3)]],  # reduced but for column 1
])
def test_rref_eliminates_a_near_miss(rows):
    m = Matrix.from_rows(rows)
    reduced, pivots = rref(m)
    want, want_pivots = oracle.rref(grid(m), m.cols)
    assert reduced is not m and pivots == want_pivots
    assert reduced.entries == tuple(map(tuple, want))


def _one_per_row(rng, rows, cols, den):
    """Rows of at most one entry each, rational, some of them empty."""
    grid = [[0] * cols for _ in range(rows)]
    for row in grid:
        if rng.random() < 0.8:
            row[rng.randrange(cols)] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, den))
    return Matrix(rows, cols, grid)


def _summed_in_dict(terms, target, cols):
    """Whether `_vanishes` sums these rows in a dict: a result wider than
    `_WIDE`, and no row of a factor or of the target with two entries."""
    ms = [target, *[m for _, a, b in terms for m in (a, b)]]
    return cols > exactalg._WIDE and all(sum(map(bool, row)) <= 1
                                         for m in ms for row in m.entries)


@pytest.mark.parametrize("one_per_row", [False, True])
@pytest.mark.parametrize("cols", [3, 8, 48, 49, 128])
def test_wide_and_narrow_vanishes_match_the_oracle(cols, one_per_row, monkeypatch):
    # both accumulators decide what the dense oracle does, with rational s
    # and a target that is the sum, or the sum with one entry changed; rows
    # of one entry are summed in a dict past `_WIDE` columns, with a pair of
    # terms that cancel, and every other result in a list
    dicts = []
    monkeypatch.setattr(exactalg, "defaultdict",
                        lambda f: dicts.append(f) or collections.defaultdict(f))
    rng, outcomes, routes = random.Random(cols), set(), set()
    for _ in range(40):
        rows, inner = rng.randint(1, 4), rng.randint(int(one_per_row), 6)
        den = rng.choice((1, 5, 10**6))
        if one_per_row:
            a, b = _one_per_row(rng, rows, inner, den), _one_per_row(rng, inner, cols, den)
            a2, b2 = _one_per_row(rng, rows, inner, den), _one_per_row(rng, inner, cols, den)
            terms = [(2, a, b)] + ([(3, a2, b2), (-3, a2, b2)] if rng.random() < 0.5 else [])
        else:
            terms = []
            for _ in range(rng.randint(1, 3)):
                a = _random_matrix(rng, rows, inner, den)
                b = Matrix(inner, cols, [[Fraction(rng.randint(-3, 3), rng.randint(1, den))
                                          if rng.random() < 0.1 else 0 for _ in range(cols)]
                                         for _ in range(inner)])
                terms.append((rng.randint(-3, 3), a, b))
        total = oracle.combination([(c, oracle.product(grid(a), grid(b), cols))
                                    for c, a, b in terms], rows, cols)
        s = Fraction(rng.choice((1, -2, 3)), rng.choice((1, 7)))
        target = [[x / s for x in row] for row in total]
        if rng.random() < 0.5:
            row = target[rng.randrange(rows)]
            j = next((j for j, x in enumerate(row) if x), rng.randrange(cols))
            row[j] += Fraction(1, rng.choice((1, 3)))
        target = Matrix(rows, cols, target)
        before = len(dicts)
        got = _vanishes(terms, target, s)
        want = not any(x - s * y for row, trow in zip(total, target.entries)
                       for x, y in zip(row, trow))
        assert got == want
        assert (len(dicts) > before) is _summed_in_dict(terms, target, cols)
        routes.add(len(dicts) > before)
        outcomes.add(got)
        assert _vanishes(terms, None) == (not any(map(any, total)))
    assert outcomes == {True, False}
    assert (one_per_row and cols > exactalg._WIDE) in routes
