"""Acceptance gate: one test per numbered release criterion.

Every comparison is exact; there are no tolerances anywhere.  Each test
prints a single CRITERION line so a verbose run reads as a checklist,
and the stated runtime budgets are asserted, not just observed.
"""

import hashlib
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cliffilt.bifiltration import (
    bideform,
    canonical_biroundtrip_iso,
    check_bifiltered_module,
    check_twisted_tensor,
    tensor_module,
    total_module,
    twisted_tensor,
    verify_2d,
)
from cliffilt.clifford import CliffordAlgebra
from cliffilt.deformation import (
    canonical_roundtrip_iso,
    deform,
    enveloping_quotient_check,
    verify_offshell,
    OffShellRep,
)
from cliffilt.exactalg import Matrix
from cliffilt.graph import enumerate_heights, rebuild_filtration, to_graph
from cliffilt.invariants import (
    decompose,
    filtration_search,
    gr_dimensions,
    random_filtration,
    source_dimensions,
)
from cliffilt.serialize import dumps, encode_search_results
from cliffilt.supermodule import (
    check_filtration,
    check_supermodule,
    degree_filtration,
    exterior_module,
    hodge_filtration,
    irreducible_cl5,
    irreducible_module,
)


def conclude(number, elapsed, detail=""):
    note = f" {detail}" if detail else ""
    print(f"CRITERION {number}: PASS ({elapsed:.2f}s){note}")


@pytest.fixture(scope="module")
def roundtrip_suite():
    """100 seeded random valid filtrations plus their graded deformations."""
    rng = random.Random(2026)
    pool = [exterior_module(n) for n in (1, 2, 3)]
    pool += [irreducible_module(n) for n in (1, 2, 3, 4)]
    suite = []
    for i in range(100):
        f = random_filtration(pool[i % len(pool)], rng)
        assert check_filtration(f)
        suite.append((f, deform(f)))
    return suite


def test_criterion_01_clifford_relations():
    start = time.monotonic()
    for n in (1, 2, 3, 4, 5):
        assert check_supermodule(exterior_module(n))
    assert check_supermodule(irreducible_cl5())
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    conclude(1, elapsed, "exterior 1..5 and irreducible Cl(5)")


def test_criterion_02_named_invariants():
    start = time.monotonic()
    degree = degree_filtration(exterior_module(4))
    hodge = hodge_filtration(exterior_module(4))
    assert gr_dimensions(degree) == (1, 4, 6, 4, 1)
    assert gr_dimensions(hodge) == (1, 4, 6, 4, 1)
    assert source_dimensions(degree) == (1, 0, 0, 0, 0)
    assert source_dimensions(hodge) == (1, 0, 3, 0, 0)
    conclude(2, time.monotonic() - start, "gr and source dims exact")


def test_criterion_03_decomposition():
    start = time.monotonic()
    hodge = decompose(hodge_filtration(exterior_module(4)))
    assert len(hodge) == 2
    parts = sorted(gr_dimensions(s.filtration) for s in hodge)
    assert parts == [(0, 0, 3, 4, 1), (1, 4, 3, 0, 0)]
    degree = decompose(degree_filtration(exterior_module(4)))
    assert len(degree) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    conclude(3, elapsed, "hodge splits in two, degree stays whole")


def test_criterion_04_roundtrip(roundtrip_suite):
    start = time.monotonic()
    for f in (degree_filtration(exterior_module(4)),
              hodge_filtration(exterior_module(4))):
        assert canonical_roundtrip_iso(f).certificate
    for f, _ in roundtrip_suite:
        assert canonical_roundtrip_iso(f).certificate
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    conclude(4, elapsed, "both named plus 100 random filtrations")


def test_criterion_05_offshell_and_mutants(roundtrip_suite):
    start = time.monotonic()
    for _, rep in roundtrip_suite:
        assert verify_offshell(rep)

    rng = random.Random(41)
    bases = [rep for _, rep in roundtrip_suite if any(d > 0 for d in rep.dims)]
    rejected = 0
    attempts = 0
    while rejected < 50 and attempts < 400:
        attempts += 1
        base = bases[rng.randrange(len(bases))]
        h_maps = [Matrix(h.rows, h.cols, [list(r) for r in h.entries])
                  for h in base.h_maps]
        q_maps = [[Matrix(q.rows, q.cols, [list(r) for r in q.entries])
                   for q in per] for per in base.q_maps]
        flat = [m for m in h_maps if m.rows and m.cols]
        flat += [m for per in q_maps for m in per if m.rows and m.cols]
        if not flat:
            continue
        target = flat[rng.randrange(len(flat))]
        rows = [list(r) for r in target.entries]
        rows[rng.randrange(target.rows)][rng.randrange(target.cols)] += \
            rng.choice([1, -1, 2])
        mutated = Matrix(target.rows, target.cols, rows)
        h_maps = [mutated if m is target else m for m in h_maps]
        q_maps = [[mutated if m is target else m for m in per] for per in q_maps]
        cert = verify_offshell(OffShellRep(base.algebra, base.dims, h_maps, q_maps))
        assert not cert and cert.witness is not None
        rejected += 1
    assert rejected == 50
    conclude(5, time.monotonic() - start, "all reps verified, 50/50 mutants rejected")


def test_criterion_06_enveloping_quotient():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        assert enveloping_quotient_check(n, 6)
    conclude(6, time.monotonic() - start,
             "N = 1..4: the regular module's deformation and roundtrip, every degree")


def test_criterion_07_two_dimensional():
    start = time.monotonic()
    t = twisted_tensor(CliffordAlgebra(2), CliffordAlgebra(3))
    assert check_twisted_tensor(t)
    assert check_bifiltered_module(t.module)
    total = total_module(t.module)
    for i in range(5):
        for j in range(5):
            for c in (0, 1):
                anti = total.gamma(i, c) * total.gamma(j, 1 - c) + total.gamma(j, c) * total.gamma(i, 1 - c)
                assert anti == Matrix.identity(total.dim(c)).scale(2 if i == j else 0)

    rng = random.Random(314)
    checked = 0
    while checked < 50:
        p = rng.randint(0, 4)
        q = rng.randint(0, 4 - p)
        bf = tensor_module(random_filtration(exterior_module(p), rng),
                           random_filtration(exterior_module(q), rng))
        assert bf.total_dim() <= 16
        assert check_bifiltered_module(bf)
        assert verify_2d(bideform(bf))
        assert canonical_biroundtrip_iso(bf).certificate
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    conclude(7, elapsed, "Cl(2) x~ Cl(3) = Cl(5), 50 random bifiltered modules")


def test_criterion_08_cl5_search():
    start = time.monotonic()
    found = filtration_search(irreducible_cl5(), (2, 8, 6), 1000, seed=0)
    assert len(found) >= 1
    variants = set()
    for f in found:
        assert check_filtration(f)
        dims = source_dimensions(f)
        assert dims[0] == 2
        variants.add(dims)
    # the finds themselves, recorded before the sparse elimination: a
    # change that moves the random stream or the set of finds fails here
    assert len(found) == 2
    text = dumps(encode_search_results(found))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "835e5b2e133bd586600e8c28eac1c29c5235a26b077dee0c046d4eb8c0e1683b")
    detail = f"{len(found)} filtrations, source dims {sorted(variants)}"
    conclude(8, time.monotonic() - start, detail)


def test_criterion_09_graph_layer():
    start = time.monotonic()
    f = degree_filtration(exterior_module(4))
    g = to_graph(f)
    assert g.height_counts() == (1, 4, 6, 4, 1)
    back = rebuild_filtration(g)
    for p in range(f.top_degree + 1):
        assert f.level(p) == back.level(p)

    cl1 = to_graph(degree_filtration(exterior_module(1)))
    assert len(cl1.vertices) == 2
    assignments, exhausted = enumerate_heights(cl1, budget=100)
    assert not exhausted and len(assignments) == 2
    conclude(9, time.monotonic() - start, "heights, reconstruction, Cl(1) count")


def test_criterion_10_property_suites():
    start = time.monotonic()
    here = Path(__file__).parent
    files = sorted(str(p) for p in here.glob("test_*.py")
                   if p.name != "test_acceptance.py")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", *files],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    conclude(10, elapsed, f"{len(files)} property suites green")
