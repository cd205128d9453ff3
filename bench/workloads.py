"""Seeded inputs and jobs of the three benchmark workloads.

A workload builds a fixed, seeded pool of jobs in `setup`.  The driver
runs the pool in order, from the first job, cycling until the measuring
time is used up.  Each pool is a repeated cycle of job kinds in fixed
shares; only the inputs inside a kind come from the seed.  That keeps
the mix of cheap and expensive jobs the same on every seed, so the
figures move with the program and not with the luck of the draw.

The program receives only the generated documents (the CLI workloads)
or objects (`lib-2d`).  A job appends its outputs, as bytes, to the list
it is given; the driver digests them.  A job raises `Failure` when an
output is wrong, including checks the program does not make itself.
"""

from __future__ import annotations

import io
import json
import random
import sys
from fractions import Fraction

from cliffilt import bifiltration, cli, deformation, invariants, serialize, supermodule
from cliffilt.clifford import CliffordAlgebra


class Failure(Exception):
    """A job's output is wrong.

    `known_defect` marks the one documented defect at the workload's
    defining commit: `check` accepts a filtration whose module breaks the
    Clifford relations (a doubled gamma_eo[0]).
    """

    def __init__(self, message: str, known_defect: bool = False):
        super().__init__(message)
        self.known_defect = known_defect


class Job:
    def __init__(self, kind: str, run, search_attempts: int = 0):
        self.kind = kind
        self.run = run
        self.search_attempts = search_attempts


# ---------------------------------------------------------------------------
# Helpers shared by the CLI workloads


def run_cli(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """`cli.main` in-process, with stdin and stdout swapped for memory."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, io.StringIO()
    try:
        code = cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def recorded(record: list, argv: list[str], stdin_text: str) -> tuple[int, str]:
    """`run_cli`, appending the command, exit code and stdout to `record`."""
    code, out = run_cli(argv, stdin_text)
    record.append(f"{' '.join(argv)}\n{code}\n{out}".encode())
    return code, out


def step(record: list, argv: list[str], stdin_text: str, want_code: int) -> str:
    code, out = recorded(record, argv, stdin_text)
    if code != want_code:
        raise Failure(f"`{' '.join(argv)}` exited {code}, expected {want_code}")
    return out


def certificate(text: str, want_pass: bool) -> dict:
    cert = json.loads(text)
    if cert.get("kind") != "certificate" or cert.get("pass") is not want_pass:
        raise Failure(f"expected a certificate with pass={want_pass}, got {text[:120]!r}")
    if not want_pass and not cert.get("witness"):
        raise Failure(f"failing certificate without a witness: {text[:120]!r}")
    return cert


def level_dims(doc: dict) -> list[int]:
    """dim F_p for p = 0..top degree, read from a filtration document."""
    even, odd = doc["even_flags"], doc["odd_flags"]
    top = max(2 * (len(even) - 1), 2 * len(odd) - 1)
    dims = []
    for p in range(top + 1):
        flags = even if p % 2 == 0 else odd
        dims.append(len(flags[min(p // 2, len(flags) - 1)]["rows"]))
    return dims


def gr_dims(doc: dict) -> list[int]:
    dims = level_dims(doc)
    return [d - (dims[p - 2] if p >= 2 else 0) for p, d in enumerate(dims)]


def random_filtration(module, cycle: int, rng):
    """`invariants.random_filtration` with its top degree set by `cycle`.

    The generator draws the top degree first, uniformly from 1..n+2, and
    a job's cost grows steeply with it.  So each job gets its own seed,
    the first from `rng` whose generator draws the degree 1 + cycle mod
    (n+2).  Every workload seed then sees the same top degrees, and only
    the rest of each filtration varies with it.
    """
    top = 1 + cycle % (module.algebra.n + 2)
    while True:
        seed = rng.randrange(2**32)
        if random.Random(seed).randint(1, module.algebra.n + 2) == top:
            return invariants.random_filtration(module, random.Random(seed))


def scaled(entries, factor: int):
    return [[str(Fraction(x) * factor) for x in row] for row in entries]


# ---------------------------------------------------------------------------
# cli-1d: the README 1d chain on freshly decoded documents


def _modules_1d():
    mods = [("ext%d" % n, supermodule.exterior_module(n)) for n in range(1, 5)]
    mods += [("irr%d" % n, supermodule.irreducible_module(n)) for n in range(1, 5)]
    mods.append(("cl5", supermodule.irreducible_cl5()))
    return mods


def _named_1d():
    named = [("degree-ext%d" % n, supermodule.degree_filtration(supermodule.exterior_module(n)))
             for n in range(1, 5)]
    named.append(("hodge4", supermodule.hodge_filtration(supermodule.exterior_module(4))))
    return named


def _chain_1d(doc_text: str, shell: str, dot: str | None):
    """check, deform, check, quotient --k, check, roundtrip [, export-dot]."""
    doc = json.loads(doc_text)

    def run(record):
        certificate(step(record, ["check"], doc_text, 0), True)
        rep_text = step(record, ["deform"], doc_text, 0)
        if json.loads(rep_text)["dims"] != level_dims(doc):
            raise Failure("deform: graded dims differ from the input level dims")
        certificate(step(record, ["check"], rep_text, 0), True)
        onshell_text = step(record, ["quotient", "--k", shell], rep_text, 0)
        onshell = json.loads(onshell_text)
        back = onshell["filtration"]
        if Fraction(onshell["shell"]) != Fraction(shell) or \
                (back["dim_even"], back["dim_odd"]) != (doc["dim_even"], doc["dim_odd"]):
            raise Failure("quotient: shell or module dims differ from the input")
        if level_dims(back) != level_dims(doc):
            raise Failure("quotient: level dims differ from the input")
        certificate(step(record, ["check"], onshell_text, 0), True)
        certificate(step(record, ["roundtrip"], doc_text, 0), True)
        if dot == "graph":
            out = step(record, ["export-dot"], doc_text, 0)
            if "graph" not in out.split("{", 1)[0]:
                raise Failure("export-dot: output is not a DOT graph")
        elif dot == "adapted_basis":
            cert = certificate(step(record, ["export-dot"], doc_text, 1), False)
            if cert["check"] != "adapted_basis":
                raise Failure(f"export-dot: expected adapted_basis, got {cert['check']}")

    return run


def _expect_rejected(argv_list, doc_text: str, accepts, known_defect: bool = False):
    """Every command must exit 1 with a certificate that `accepts` approves."""

    def run(record):
        for argv in argv_list:
            code, out = recorded(record, argv, doc_text)
            if code == 0 and known_defect:
                raise Failure(f"`{' '.join(argv)}` accepted a doubled gamma_eo[0]",
                              known_defect=True)
            if code != 1:
                raise Failure(f"`{' '.join(argv)}` exited {code} on a mutant, expected 1")
            cert = certificate(out, False)
            if not accepts(cert):
                raise Failure(f"`{' '.join(argv)}` rejected the mutant with {cert}")

    return run


def _flag_mutant(f) -> str:
    """The top even flag loses its last row, so it is no longer full."""
    doc = serialize.encode(f)
    top = doc["even_flags"][-1]
    top["rows"] = top["rows"][:-1]
    return serialize.dumps(doc)


def _q_mutant(f) -> str:
    """A nonzero top-degree Q map of the deformed rep, doubled."""
    doc = serialize.encode(deformation.deform(f))
    for per in doc["q_maps"]:
        top = per[-1]
        if any(Fraction(x) for row in top["rows"] for x in row):
            top["rows"] = scaled(top["rows"], 2)
            return serialize.dumps(doc)
    raise RuntimeError("deformed rep has no nonzero top-degree Q map")


def _gamma_mutant(f) -> str:
    """gamma_eo[0] doubled inside a filtration document."""
    doc = serialize.encode(f)
    doc["gamma_eo"][0]["rows"] = scaled(doc["gamma_eo"][0]["rows"], 2)
    return serialize.dumps(doc)


def _is_filtration_witness(cert) -> bool:
    kind = cert["witness"].get("kind")
    return cert["check"] == "filtration" and kind in ("exhaustive", "nesting")


def _is_offshell_witness(cert) -> bool:
    return cert["check"] == "offshell_relations"


def _is_relations_witness(cert) -> bool:
    return "supermodule_relations" in (cert["check"], cert["witness"].get("kind"))


CLI_1D_CYCLES = 8


def setup_cli_1d(seed: int) -> list[Job]:
    """Cycles of 15 jobs: 9 random filtrations (one per module), 3 named
    filtrations, and 3 mutants (one of each kind), so mutants are one job
    in five and doubled-gamma mutants one in fifteen."""
    rng = random.Random(seed)
    modules = _modules_1d()
    named = _named_1d()
    jobs = []
    for cycle in range(CLI_1D_CYCLES):
        for name, module in modules:
            f = random_filtration(module, cycle, rng)
            shell = str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
            jobs.append(Job("chain:" + name, _chain_1d(serialize.dumps(f), shell, None)))
        for k in range(3):
            name, f = named[(3 * cycle + k) % len(named)]
            shell = str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
            dot = "adapted_basis" if name == "hodge4" else "graph"
            jobs.append(Job("chain:" + name, _chain_1d(serialize.dumps(f), shell, dot)))
        base = [random_filtration(modules[(3 * cycle + k) % len(modules)][1], cycle, rng)
                for k in range(3)]
        jobs.append(Job("mutant:top_flag", _expect_rejected(
            [["check"], ["roundtrip"]], _flag_mutant(base[0]), _is_filtration_witness)))
        jobs.append(Job("mutant:q_doubled", _expect_rejected(
            [["check"], ["quotient", "--k", "1"]], _q_mutant(base[1]), _is_offshell_witness)))
        jobs.append(Job("mutant:gamma_doubled", _expect_rejected(
            [["check"], ["roundtrip"]], _gamma_mutant(base[2]), _is_relations_witness,
            known_defect=True)))
    return jobs


# ---------------------------------------------------------------------------
# classify: invariants, decompose and search on the large modules


def _invariants_job(doc_text: str):
    want = gr_dims(json.loads(doc_text))

    def run(record):
        report = json.loads(step(record, ["invariants"], doc_text, 0))
        if report["gr_dims"] != want:
            raise Failure(f"invariants: gr_dims {report['gr_dims']} != flag dims {want}")

    return run


def _decompose_job(doc_text: str, seed: int, min_summands: int):
    doc = json.loads(doc_text)

    def run(record):
        out = json.loads(step(record, ["decompose", "--seed", str(seed)], doc_text, 0))
        summands = out["summands"]
        even = sum(s["filtration"]["dim_even"] for s in summands)
        odd = sum(s["filtration"]["dim_odd"] for s in summands)
        if (even, odd) != (doc["dim_even"], doc["dim_odd"]):
            raise Failure(f"decompose: summand dims ({even}|{odd}) do not add up to the module's")
        if len(summands) < min_summands:
            raise Failure(f"decompose: {len(summands)} summands on a direct sum")

    return run


SEARCH_TARGET = "2,8,6"
SEARCH_BUDGET = 8


def _search_job(module_text: str, seed: int):
    want = [int(x) for x in SEARCH_TARGET.split(",")]
    argv = ["search", "--target", SEARCH_TARGET, "--budget", str(SEARCH_BUDGET),
            "--seed", str(seed)]

    def run(record):
        out = json.loads(step(record, argv, module_text, 0))
        if out["count"] != len(out["filtrations"]):
            raise Failure("search: count does not match the filtrations listed")
        for found in out["filtrations"]:
            if gr_dims(found) != want:
                raise Failure(f"search: a find has gr_dims {gr_dims(found)}, target {want}")

    return run


CLASSIFY_CYCLES = 8


def setup_classify(seed: int) -> list[Job]:
    """Cycles of 8 jobs: invariants and decompose on random filtrations of
    ext4, Cl(5) irreducible and irreducible(4), decompose on a direct sum
    of two random irreducible(4) filtrations, and one Cl(5) search."""
    rng = random.Random(seed)
    modules = [("ext4", supermodule.exterior_module(4)),
               ("cl5", supermodule.irreducible_cl5()),
               ("irr4", supermodule.irreducible_module(4))]
    irr4 = modules[2][1]
    cl5_text = serialize.dumps(modules[1][1])
    jobs = []
    for cycle in range(CLASSIFY_CYCLES):
        for name, module in modules:
            text = serialize.dumps(random_filtration(module, cycle, rng))
            jobs.append(Job("invariants:" + name, _invariants_job(text)))
        for name, module in modules:
            text = serialize.dumps(random_filtration(module, cycle + 3, rng))
            jobs.append(Job("decompose:" + name, _decompose_job(text, rng.randrange(1000), 1)))
        pair = supermodule.direct_sum_filtration(random_filtration(irr4, cycle, rng),
                                                 random_filtration(irr4, cycle + 3, rng))
        jobs.append(Job("decompose:irr4+irr4",
                        _decompose_job(serialize.dumps(pair), rng.randrange(1000), 2)))
        jobs.append(Job("search:cl5", _search_job(cl5_text, rng.randrange(10**6)),
                        search_attempts=SEARCH_BUDGET))
    return jobs


# ---------------------------------------------------------------------------
# lib-2d: the library API on objects built once


def _chain_2d(f_plus, f_minus, shell_plus: Fraction, shell_minus: Fraction):
    def total(f):
        return f.module.dim_even + f.module.dim_odd

    def run(record):
        bf = bifiltration.tensor_module(f_plus, f_minus)
        if bf.total_dim() != total(f_plus) * total(f_minus):
            raise Failure("tensor_module: total dim is not the product of the factors'")
        checks = [bifiltration.check_bifiltered_module(bf)]
        r = bifiltration.bideform(bf)
        checks.append(bifiltration.verify_2d(r))
        s = bifiltration.biquotient(r, shell_plus, shell_minus)
        checks.append(bifiltration.canonical_biroundtrip_iso(bf).certificate)
        dims = sorted(s.dims.items())
        record.append(repr((checks, dims, s.plus_algebra.gram.entries,
                            s.minus_algebra.gram.entries)).encode())
        for cert in checks:
            if not cert:
                raise Failure(f"{cert.check} failed: {cert.witness}")
        if s.dims != bf.dims:
            raise Failure("biquotient: component dims differ from the bifiltered module's")
        if s.plus_algebra.gram != bf.plus_algebra.gram.scale(shell_plus) or \
                s.minus_algebra.gram != bf.minus_algebra.gram.scale(shell_minus):
            raise Failure("biquotient: Gram matrices are not scaled by the shells")

    return run


def _certificate_job(call):
    def run(record):
        cert = call()
        record.append(repr(cert).encode())
        if not cert:
            raise Failure(f"{cert.check} failed: {cert.witness}")

    return run


SHAPES_2D = [(p, q) for p in range(5) for q in range(5 - p)]
LIB_2D_CYCLES = 4


def _shell(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def setup_lib_2d(seed: int) -> list[Job]:
    """Cycles of 24 jobs: one 2d chain per shape (p, q) with p + q <= 4,
    so total dimension 2^(p+q) <= 16; five twisted-tensor checks; and
    `enveloping_quotient_check(n, 6)` for n = 1..4."""
    rng = random.Random(seed)
    exterior = [supermodule.exterior_module(n) for n in range(5)]
    products = {shape: bifiltration.twisted_tensor(CliffordAlgebra(shape[0]),
                                                   CliffordAlgebra(shape[1]))
                for shape in SHAPES_2D if shape[0] + shape[1] >= 2}
    twisted = sorted(products)
    jobs = []
    for cycle in range(LIB_2D_CYCLES):
        for p, q in SHAPES_2D:
            f_plus = random_filtration(exterior[p], cycle, rng)
            f_minus = random_filtration(exterior[q], cycle + 1, rng)
            jobs.append(Job("chain2d:%d,%d" % (p, q),
                            _chain_2d(f_plus, f_minus, _shell(rng), _shell(rng))))
        for k in range(5):
            shape = twisted[(5 * cycle + k) % len(twisted)]
            jobs.append(Job("twisted:%d,%d" % shape, _certificate_job(
                lambda t=products[shape]: bifiltration.check_twisted_tensor(t))))
        for n in range(1, 5):
            env_seed = rng.randrange(10**6)
            jobs.append(Job("envcheck:%d" % n, _certificate_job(
                lambda n=n, s=env_seed: deformation.enveloping_quotient_check(n, 6, seed=s))))
    return jobs


WORKLOADS = {
    "cli-1d": setup_cli_1d,
    "classify": setup_classify,
    "lib-2d": setup_lib_2d,
}

# Jobs of these workloads run CLI subcommands.  Each such job starts
# with an empty invariant_report cache, as a fresh `cliffilt` process would.
CLI_WORKLOADS = ("cli-1d", "classify")
