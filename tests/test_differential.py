"""The package against `oracle`, input by input (differential testing).

Inputs: the README examples; seeded inputs of the kinds the bench pools
run (random filtrations of exterior_module(0..5), irreducible_module(1..5)
and direct sums, tensor modules with p + q <= 4, seeded searches); and a
seeded single-entry mutant of a gamma and of a flag of each.  The package
gives the oracle's verdict, with the first broken condition as witness,
and its products, spans, End, minimal polynomials, graphs, reports and
kept source dimensions are the oracle's.  The algebra case's two
certificates, on Cl(n) (n <= 4) and Cl(p) (x)^ Cl(q) (p + q <= 4) acting on
themselves and seeded mutants of each, pass where the oracle's definition
of a regular module holds.
"""

import ast
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import oracle
from cliffilt import bifiltration, cli, deformation, supermodule
from cliffilt.bifiltration import bideform, canonical_biroundtrip_iso, check_bifiltered_module
from cliffilt.bifiltration import check_twisted_tensor, tensor_module, twisted_tensor
from cliffilt.clifford import CliffordAlgebra
from cliffilt.deformation import canonical_roundtrip_iso, deform
from cliffilt.exactalg import Matrix, Subspace, _vanishes
from cliffilt.graph import to_graph
from cliffilt.invariants import (_minimal_polynomial, decompose, filtered_endomorphisms,
                                 filtration_search, invariant_report, random_filtration)
from cliffilt.supermodule import (CliffordSupermodule, FilteredModule, SuperFiltration,
                                  check_filtration, check_supermodule, degree_filtration,
                                  direct_sum, direct_sum_filtration, exterior_module,
                                  irreducible_module, trivial_filtration)
from oracle import bumped, first, flat, grid, text


@lru_cache(maxsize=None)
def _inputs():
    rng = random.Random(31)
    modules = [exterior_module(n) for n in range(6)] + [irreducible_module(n) for n in range(1, 6)]
    return ([build() for build in cli._EXAMPLES.values()]
            + [random_filtration(m, rng) for m in modules]
            + [direct_sum_filtration(random_filtration(m, rng), random_filtration(m, rng))
               for m in (exterior_module(1), exterior_module(2), irreducible_module(2))]
            + [tensor_module(random_filtration(exterior_module(p), rng),
                             random_filtration(exterior_module(q), rng))
               for p, q in ((0, 2), (1, 1), (2, 1), (1, 3), (2, 2))])


def _agree(v):
    """The check, and on a pass the deformation's relations and the roundtrip."""
    module = isinstance(v, CliffordSupermodule)
    check = (check_supermodule if module else
             check_filtration if len(v.tops) == 1 else check_bifiltered_module)(v)
    assert text(check) == text(first(oracle.module_failures(v),
                                     v._words.relations if module else v._words.flags))
    if check and not module:
        r = deform(v) if len(v.tops) == 1 else bideform(v)
        assert text(deformation._verify(r)) == text(first(oracle.rep_failures(r), r._words.relations))
        iso = (canonical_roundtrip_iso if len(v.tops) == 1 else canonical_biroundtrip_iso)(v)
        assert iso.certificate and not list(oracle.roundtrip_failures(v, r))


def _mutant(v, gammas, flags):
    out = type(v).__new__(type(v))
    FilteredModule.__init__(out, v.algebras, v.dims, gammas, flags)
    return out


@pytest.mark.parametrize("index", range(len(_inputs())))
def test_checks_and_deformations_agree(index):
    v, rng = _inputs()[index], random.Random(index)
    _agree(v)
    gammas = [[dict(g) for g in family] for family in v.gammas]
    held = [(g, c) for family in gammas for g in family for c, m in g.items() if m.rows and m.cols]
    if held:
        g, c = rng.choice(held)
        g[c] = bumped(g[c], rng.randrange(g[c].rows), rng.randrange(g[c].cols), 1)
        _agree(_mutant(v, gammas, v.flags))
    flags = dict(v.flags)
    x = rng.choice([x for x, flag in flags.items() if flag.dim])
    flags[x] = Subspace.row_space(bumped(flags[x].basis, rng.randrange(flags[x].dim),
                                         rng.randrange(flags[x].ambient), 1))
    _agree(_mutant(v, v.gammas, flags))


def _report_agrees(f):
    """invariant_report against dimensions read off the levels and the
    reports of summands that re-sum to f."""
    summands = decompose(f)
    assert oracle.resums(f, summands)
    report = invariant_report(f)
    assert (report.gr_dims, report.source_dims, report.summand_reports) == (
        oracle.gr_dimensions(f), oracle.source_dimensions(f), oracle.summand_reports(summands))


@pytest.mark.parametrize("index", range(len(_inputs())))
def test_products_spans_and_invariants_agree(index):
    v = _inputs()[index]
    for (x, flag), family in [(item, family) for item in v.flags.items() for family in v.gammas]:
        for m in (g[oracle.parity(x)] for g in family):
            want = oracle.product(grid(flag.basis), grid(m), m.cols)
            assert (flag.basis * m).entries == tuple(map(tuple, want))
            space, (rows, pivots) = Subspace.row_space(flag.basis * m), oracle.rref(want, m.cols)
            assert space.basis.entries == tuple(map(tuple, rows)) and space.pivots == pivots
    if isinstance(v, SuperFiltration):
        try:
            assert oracle.graph(v) == oracle.graph_key(to_graph(v))
        except ValueError as exc:
            assert str(exc) == oracle.graph(v)[0]
    if isinstance(v, SuperFiltration) and sum(v.dims.values()) <= 16:
        endos = filtered_endomorphisms(v)
        assert oracle.span_equal([flat(p) for p in endos], oracle.endomorphisms(v),
                                 v.dims[(0,)] ** 2 + v.dims[(1,)] ** 2)
        for pair in endos:
            assert _minimal_polynomial(v.module, pair) == oracle.minimal_polynomial(pair)
        _report_agrees(v)


@pytest.mark.parametrize("module, target", [
    (lambda: irreducible_module(5), (2, 8, 6)),
    (lambda: exterior_module(3), (2, 4, 2)),
    (lambda: direct_sum(irreducible_module(2), irreducible_module(2)), (1, 4, 3)),
])
def test_search_finds_agree(module, target):
    # each find meets the target and keeps the oracle's source dimensions;
    # the certificate then kept on the module leaves reports as the oracle's
    m = module()
    found = filtration_search(m, target, 8, seed=7)
    assert found and all(oracle.gr_dimensions(f) == target
                         and f._sources == oracle.source_dimensions(f) for f in found)
    for f in found + [trivial_filtration(m), random_filtration(m, random.Random(7))]:
        assert not list(oracle.module_failures(f))
        _report_agrees(f)


def test_no_test_file_keeps_a_copy_of_former_code():
    # a shortcut's reference is the oracle, not a copy of what it replaced
    for path in Path(__file__).parent.glob("*.py"):
        if path.name != "oracle.py":
            names = [node.name for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.FunctionDef)]
            assert not [n for n in names if n.startswith(
                ("_former_", "_naive_", "_reference_", "_dense_"))], path.name


def test_roundtrip_of_another_rep_fails_where_the_oracle_does():
    # f against the deformation of a g on its module and grid: another
    # filtration, or f's flags on the negated gammas
    rng, failures = random.Random(41), set()
    for m in (exterior_module(3), irreducible_module(3)):
        negated = CliffordSupermodule(m.algebra, [-x for x in m.gamma_eo], [-x for x in m.gamma_oe])
        pool = [random_filtration(m, rng) for _ in range(12)]
        for f, g in [(f, g) for f in pool for g in pool if g.tops == f.tops and g is not f] + [
                (f, SuperFiltration(negated, f.even_flags, f.odd_flags)) for f in pool]:
            source = SuperFiltration(m, f.even_flags, f.odd_flags)
            want = list(oracle.roundtrip_failures(source, deform(g)))
            try:
                deformation._roundtrip(source, deform(g))
                assert not want
            except RuntimeError as exc:
                assert want and str(want[0].witness) in str(exc)
                failures.add(want[0].witness["kind"])
    assert failures == {"flag", "intertwine"}


_REGULAR = ([lambda n=n: degree_filtration(exterior_module(n)) for n in range(1, 5)]
            + [lambda p=p, q=q: twisted_tensor(CliffordAlgebra(p), CliffordAlgebra(q)).module
               for p, q in ((1, 0), (0, 2), (1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3))])


def _algebra_case(v, monkeypatch):
    """`enveloping_quotient_check` (k = 1) or `check_twisted_tensor` (k = 2)
    on v, in place of the module each builds."""
    if len(v.tops) == 1:
        monkeypatch.setattr(deformation, "degree_filtration", lambda m: v)
        return deformation.enveloping_quotient_check(v.algebras[0].n, 6)
    monkeypatch.setattr(bifiltration, "tensor_module", lambda *factors: v)
    return check_twisted_tensor(twisted_tensor(*(CliffordAlgebra(a.n) for a in v.algebras)))


def _regular_mutants(v, rng):
    """Seeded mutants of a regular module: one gamma entry negated, one
    moved within its row, one unit vector of a flag swapped for another,
    and one generator negated on every component."""
    held = [(d, i, c) for d, family in enumerate(v.gammas) for i, g in enumerate(family)
            for c, m in g.items() if m.rows]
    wide = [(d, i, c) for d, i, c in held if v.gammas[d][i][c].cols > 1]
    for kind, pool in (("sign", held), ("moved", wide), ("negated", held)):
        if not pool:
            continue
        gammas = [[dict(g) for g in family] for family in v.gammas]
        d, i, c = rng.choice(pool)
        m = gammas[d][i][c]
        r = rng.randrange(m.rows)
        j, x = next((j, x) for j, x in enumerate(m.entries[r]) if x)
        if kind == "sign":
            gammas[d][i][c] = bumped(m, r, j, -2 * x)
        elif kind == "moved":
            gammas[d][i][c] = bumped(bumped(m, r, j, -x), r, rng.choice(
                [k for k in range(m.cols) if k != j]), x)
        else:
            gammas[d][i] = {c: -g for c, g in gammas[d][i].items()}
        yield _mutant(v, gammas, v.flags)
    proper = [x for x, flag in v.flags.items() if 0 < flag.dim < flag.ambient]
    if not proper:
        return
    x = rng.choice(proper)
    flag = v.flags[x]
    rows = [list(row) for row in flag.basis.entries]
    spare = rng.choice([k for k in range(flag.ambient) if k not in flag.pivots])
    rows[rng.randrange(flag.dim)] = [int(k == spare) for k in range(flag.ambient)]
    yield _mutant(v, v.gammas, {**v.flags, x: Subspace.span(flag.ambient, rows)})


@pytest.mark.parametrize("index", range(len(_REGULAR)))
def test_algebra_case_agrees_with_the_oracle(monkeypatch, index):
    # both algebra-case certificates pass exactly where the oracle finds
    # Cl(N) acting on itself, filtered by word length in each family
    v, rng, stages = _REGULAR[index](), random.Random(index), set()
    mutants = [w for _ in range(3) for w in _regular_mutants(v, random.Random(rng.random()))]
    for w in [v] + mutants:
        cert = _algebra_case(w, monkeypatch)
        assert bool(cert) == oracle.regular_module(w), cert.witness
        stages.add(cert.witness and cert.witness["stage"])
    assert "regular_module" in stages


def _relations_agree(v):
    """`_module_relations` gives the oracle's full-scan verdict and witness."""
    want = first(oracle.relation_failures(v), v._words.relations)
    assert text(supermodule._module_relations(v)) == text(want)
    return want


@pytest.mark.parametrize("index", range(len(_inputs())))
def test_relations_from_the_even_half_keep_every_witness(index):
    # every gamma of every input, on each component where it has entries,
    # with one seeded entry changed by an integer or a fraction: the
    # generating set decides the verdict and the full scan the witness
    v, rng = _inputs()[index], random.Random(100 + index)
    assert _relations_agree(v)
    for d, family in enumerate(v.gammas):
        for i, g in enumerate(family):
            for c, m in g.items():
                if not (m.rows and m.cols):
                    continue
                gammas = [[dict(h) for h in fam] for fam in v.gammas]
                gammas[d][i][c] = bumped(m, rng.randrange(m.rows), rng.randrange(m.cols),
                                         rng.choice((1, -2, Fraction(1, 3))))
                assert not _relations_agree(_mutant(v, gammas, v.flags))


def test_relations_need_the_odd_half():
    # (1|2) with g_0 g_0 = 1 and the other relations on the even part, but
    # g_0 g_0 of rank 1 on the odd part: only {g, g} there rejects it
    gamma_eo = [Matrix.from_rows([[1, 0]]), Matrix.from_rows([[0, 1]])]
    gamma_oe = [Matrix.from_rows([[1], [0]]), Matrix.from_rows([[0], [1]])]
    m = CliffordSupermodule(CliffordAlgebra(2), gamma_eo, gamma_oe)
    cert = _relations_agree(m)
    assert not cert and cert.witness == {"i": 0, "j": 0, "parity": 1}


@pytest.mark.parametrize("module, calls", [
    (lambda: irreducible_module(5), 5 * 6 // 2 + 1),
    (lambda: exterior_module(3), 3 * 4 // 2 + 1),
    (lambda: tensor_module(degree_filtration(exterior_module(2)),
                           degree_filtration(exterior_module(1))), 2 * (3 + 1 + 2) + 2),
])
def test_a_passing_module_checks_the_generating_set_only(monkeypatch, module, calls):
    # one `_vanishes` per relation of the generating set, where the full
    # scan makes one per relation on every component: 16 at Cl(5), not 30
    v, made = module(), []
    monkeypatch.setattr(supermodule, "_vanishes", lambda *a: made.append(a) or _vanishes(*a))
    assert supermodule._module_relations(v)
    assert len(made) == calls
