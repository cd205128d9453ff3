"""Command-line front end.

Every subcommand reads one JSON document (stdin when no input path is
given), writes one JSON document (stdout unless -o is given), and exits
0 on success, 1 when a verification fails, the command's check of its
input included (the failing certificate is the output), or 2 on
malformed input or arguments: `main` turns every ValueError, the
library's included, into that exit and one `error:` line.  One reader,
`_read_document`, gates the input types: a document of a kind the
command does not take is malformed input, and wherever a filtration is
taken, an on-shell module stands for its filtration.  The
randomized subcommands, decompose and search, take --seed and default
to seed 0, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bifiltration, deformation, graph, invariants, serialize, supermodule
from .certificate import Certificate, CheckFailed, failing, passing
from .serialize import SerializeError


def _read_text(path: str | None) -> str:
    """The text of the file at path, or of stdin."""
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _read_document(path: str | None, *types):
    """The document at path, which must be one of `types`, checked by the
    gate nested documents pass too.  Where a SuperFiltration is taken, an
    on-shell module (a quotient's output) stands for its filtration."""
    obj = serialize.loads(_read_text(path))
    if supermodule.SuperFiltration in types and isinstance(obj, deformation.OnShellModule):
        obj = obj.filtration
    return serialize._expect(obj, *types)


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _emit(obj, path: str | None) -> int:
    """Write obj's document; the exit status is 1 for a failing certificate."""
    _write(serialize.dumps(obj), path)
    return 1 if isinstance(obj, Certificate) and not obj.passed else 0


# --- subcommand bodies, each returning the process exit status ---


_EXAMPLES = {
    "exterior4-degree": lambda: supermodule.degree_filtration(supermodule.exterior_module(4)),
    "exterior4-hodge": lambda: supermodule.hodge_filtration(supermodule.exterior_module(4)),
    "cl5-irreducible": lambda: supermodule.irreducible_cl5(),
    "cl1-trivial": lambda: supermodule.trivial_filtration(supermodule.exterior_module(1)),
}


def _cmd_example(args) -> int:
    return _emit(_EXAMPLES[args.name](), args.output)


def _cmd_check(args) -> int:
    obj = _read_document(args.input, supermodule.SuperFiltration, supermodule.CliffordSupermodule,
                         deformation.OffShellRep, bifiltration.BifilteredSupermodule,
                         bifiltration.BiGradedRep)
    if isinstance(obj, supermodule.SuperFiltration):
        cert = supermodule.check_filtration(obj)
    elif isinstance(obj, supermodule.CliffordSupermodule):
        cert = supermodule.check_supermodule(obj)
    elif isinstance(obj, deformation.OffShellRep):
        cert = deformation.verify_offshell(obj)
    elif isinstance(obj, bifiltration.BifilteredSupermodule):
        cert = bifiltration.check_bifiltered_module(obj)
    else:
        cert = bifiltration.verify_2d(obj)
    return _emit(cert, args.output)


def _cmd_deform(args) -> int:
    v = _read_document(args.input, supermodule.SuperFiltration, bifiltration.BifilteredSupermodule)
    if isinstance(v, bifiltration.BifilteredSupermodule):
        return _emit(bifiltration.bideform(v), args.output)
    return _emit(deformation.deform(v), args.output)


def _cmd_quotient(args) -> int:
    r = _read_document(args.input, deformation.OffShellRep, bifiltration.BiGradedRep)
    shells = args.k.split(",")
    if len(shells) != len(r.tops):
        raise ValueError(f"expected one shell value per direction, {len(r.tops)} for "
                         f"{type(r).__name__}, got {len(shells)}")
    if isinstance(r, bifiltration.BiGradedRep):
        return _emit(bifiltration.biquotient(r, *shells), args.output)
    return _emit(deformation.quotient_at(r, *shells), args.output)


def _cmd_roundtrip(args) -> int:
    f = _read_document(args.input, supermodule.SuperFiltration)
    try:
        deformation.canonical_roundtrip_iso(f)
    except RuntimeError as exc:
        return _emit(failing("roundtrip", reason=str(exc)), args.output)
    return _emit(passing("roundtrip"), args.output)


def _cmd_invariants(args) -> int:
    f = _read_document(args.input, supermodule.SuperFiltration)
    return _emit(invariants.invariant_report(f), args.output)


def _cmd_decompose(args) -> int:
    f = _read_document(args.input, supermodule.SuperFiltration)
    summands = invariants.decompose(f, candidates=args.candidates, seed=args.seed)
    return _emit(serialize.encode_decomposition(summands), args.output)


def _cmd_search(args) -> int:
    obj = _read_document(args.input, supermodule.SuperFiltration, supermodule.CliffordSupermodule)
    module = obj.module if isinstance(obj, supermodule.SuperFiltration) else obj
    target = tuple(int(part) for part in args.target.split(","))
    found = invariants.filtration_search(module, target, args.budget, seed=args.seed)
    return _emit(serialize.encode_search_results(found), args.output)


def _cmd_tensor(args) -> int:
    f_plus = _read_document(args.p, supermodule.SuperFiltration)
    f_minus = _read_document(args.q, supermodule.SuperFiltration)
    return _emit(bifiltration.tensor_module(f_plus, f_minus), args.output)


def _load_basis(path: str):
    try:
        obj = json.loads(_read_text(path))
        parts = [obj[key] for key in ("even", "odd")]
        return tuple(serialize._read_rows(rows, len(rows[0]) if rows else 0) for rows in parts)
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SerializeError(f"bad basis file: {exc}")


def _cmd_export_dot(args) -> int:
    f = _read_document(args.input, supermodule.SuperFiltration)
    basis_even = basis_odd = None
    if args.basis:
        basis_even, basis_odd = _load_basis(args.basis)
    try:
        g = graph.to_graph(f, basis_even=basis_even, basis_odd=basis_odd)
    except CheckFailed:
        raise
    except ValueError as exc:
        return _emit(failing("adapted_basis", reason=str(exc)), args.output)
    _write(graph.to_dot(g), args.output)
    return 0


def _cmd_envcheck(args) -> int:
    return _emit(deformation.enveloping_quotient_check(args.n, 3), args.output)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, so in-process callers of `main` share one."""
    parser = argparse.ArgumentParser(
        prog="cliffilt",
        description="Filtered Clifford supermodules and graded supersymmetry representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, with_input=True):
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", nargs="?", default=None,
                           help="input JSON path (default: stdin)")
        p.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
        p.set_defaults(fn=fn)
        return p

    p = add("example", _cmd_example, "emit a named example construction", with_input=False)
    p.add_argument("name", choices=list(_EXAMPLES))

    add("check", _cmd_check, "validate a filtration (or onshell_module), module, offshell_rep, "
                             "bifiltered_module or bigraded_rep, emitting a certificate")
    add("deform", _cmd_deform, "filtration or bifiltered module to its graded representation")

    p = add("quotient", _cmd_quotient, "evaluate a graded representation at shell values")
    p.add_argument("--k", required=True,
                   help="one shell value per direction, comma-separated: 2/3 for an off-shell "
                        "representation, 2,1/3 for a bigraded one")

    add("roundtrip", _cmd_roundtrip, "verify deform-then-quotient returns the input filtration")
    add("invariants", _cmd_invariants, "gr and source dimensions plus summand invariants")

    p = add("decompose", _cmd_decompose, "split into indecomposable filtered summands")
    p.add_argument("--candidates", type=int, default=16,
                   help="splitting attempts per level (default 16)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p = add("search", _cmd_search, "search for filtrations with given gr dimensions")
    p.add_argument("--target", required=True, help="comma-separated gr dims, e.g. 2,8,6")
    p.add_argument("--budget", type=int, default=1000, help="random attempts (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    p = add("tensor", _cmd_tensor, "twisted tensor of two filtrations into a bifiltered module",
            with_input=False)
    p.add_argument("--p", required=True, help="plus-side filtration JSON path")
    p.add_argument("--q", required=True, help="minus-side filtration JSON path")

    p = add("export-dot", _cmd_export_dot, "render a filtration's generator graph as DOT")
    p.add_argument("--basis", default=None,
                   help='adapted basis JSON path: {"even": [[...]], "odd": [[...]]}')

    p = add("envcheck", _cmd_envcheck,
            "certify Cl(n), filtered by word length, as its graded deformation at H = 1",
            with_input=False)
    p.add_argument("--n", type=int, required=True, help="number of Clifford generators")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CheckFailed as exc:
        return _emit(exc.certificate, args.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
