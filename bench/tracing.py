"""In-memory spans and counters around the public entry points of cliffilt.

`Probes` rebinds each traced function to a wrapper in every cliffilt
module that holds it, because modules import names directly (for
example `from .supermodule import check_filtration`); rebinding only the
defining module would leave those internal calls unseen.  Methods are
wrapped on their class, which every caller shares.

A span records its name, start, end, parent span and job.  Self time is
a span's duration minus the durations of its child spans; it is summed
per name as spans close, and the spans themselves are kept in flat
arrays until `write_spans` dumps them at the end of a run.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    """Spans, per-name self times and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.job = -1

    def begin(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append([sid, 0.0])
        self.span_start.append(time.perf_counter())

    def end(self) -> None:
        now = time.perf_counter()
        sid, child = self._stack.pop()
        self.span_end[sid] = now
        duration = now - self.span_start[sid]
        self.self_s[self.names[self.span_name[sid]]] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def write_spans(self, path) -> int:
        """Tab-separated spans, one per line, times relative to the first."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as handle:
            handle.write("id\tparent\tjob\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                handle.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.span_job[sid]}\t"
                    f"{self.names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid] - origin:.9f}\t{self.span_end[sid] - origin:.9f}\n"
                )
        return len(self.span_start)


def _wrap(probes: "Probes", name: str, fn, before=None, after=None):
    calls = name + ".calls"

    def traced(*args, **kwargs):
        tracer = probes.tracer
        tracer.counts[calls] += 1
        if before is not None:
            before(tracer.counts, args, kwargs)
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(tracer.counts, result)
        return result

    return traced


# --- count hooks, each reading the arguments or result of one call ---


def _rref_cells(counts, args, kwargs):
    m = args[0]
    counts["exactalg.rref.cells"] += m.rows * m.cols


def _commutant_solve(counts, args, kwargs):
    # graded_commutant caches its basis on the module; an empty cache
    # means this call solves the linear system.
    if args[0]._commutant is None:
        counts["supermodule.commutant.solves"] += 1


def _decompose_summands(counts, result):
    counts["invariants.decompose.summands"] += len(result)


def _search_attempts(counts, args, kwargs):
    budget = kwargs["budget"] if "budget" in kwargs else args[2]
    counts["invariants.search.attempts"] += budget


def _search_finds(counts, result):
    counts["invariants.search.finds"] += len(result)


def _bytes_in(counts, args, kwargs):
    text = kwargs["text"] if "text" in kwargs else args[0]
    counts["serialize.bytes_in"] += len(text.encode())


def _bytes_out(counts, result):
    counts["serialize.bytes_out"] += len(result.encode())


class Probes:
    """Wrappers around every traced entry point, bound to one tracer at a time.

    Build after cliffilt is imported.  `attach` puts the wrappers in place
    of the originals; `detach` restores the originals, so untraced runs
    execute the program exactly as it is.
    """

    def __init__(self):
        import sympy

        from cliffilt import (
            bifiltration,
            cli,
            clifford,
            deformation,
            exactalg,
            graph,
            invariants,
            serialize,
            supermodule,
        )

        self.tracer: Tracer | None = None
        self._sites: list[tuple] = []  # (owner, attribute, original, wrapper)
        functions = [
            (exactalg, "rref", "exactalg.rref", _rref_cells, None),
            (supermodule, "check_supermodule", "supermodule.check_supermodule", None, None),
            (supermodule, "check_filtration", "supermodule.check_filtration", None, None),
            (deformation, "deform", "deformation.deform", None, None),
            (deformation, "verify_offshell", "deformation.verify_offshell", None, None),
            (deformation, "quotient_at", "deformation.quotient_at", None, None),
            (deformation, "canonical_roundtrip_iso", "deformation.roundtrip", None, None),
            (deformation, "enveloping_quotient_check", "deformation.envcheck", None, None),
            (bifiltration, "tensor_module", "bifiltration.tensor_module", None, None),
            (bifiltration, "check_bifiltered_module", "bifiltration.check", None, None),
            (bifiltration, "bideform", "bifiltration.bideform", None, None),
            (bifiltration, "verify_2d", "bifiltration.verify_2d", None, None),
            (bifiltration, "biquotient", "bifiltration.biquotient", None, None),
            (bifiltration, "canonical_biroundtrip_iso", "bifiltration.biroundtrip", None, None),
            (bifiltration, "check_twisted_tensor", "bifiltration.check_twisted_tensor",
             None, None),
            (invariants, "decompose", "invariants.decompose", None, _decompose_summands),
            (invariants, "filtered_endomorphisms", "invariants.endomorphisms", None, None),
            (invariants, "filtration_search", "invariants.search", _search_attempts,
             _search_finds),
            (graph, "to_graph", "graph.to_graph", None, None),
            (graph, "to_dot", "graph.to_dot", None, None),
            (serialize, "loads", "serialize.loads", _bytes_in, None),
            (serialize, "dumps", "serialize.dumps", None, _bytes_out),
            (cli, "main", "cli.main", None, None),
        ]
        for module, attr, name, before, after in functions:
            original = getattr(module, attr)
            wrapper = _wrap(self, name, original, before, after)
            holders = _holders(original)
            if not holders:
                raise RuntimeError(f"{module.__name__}.{attr} is not bound in any module")
            self._sites += [(holder, key, original, wrapper) for holder, key in holders]

        methods = [
            (exactalg.Matrix, "__mul__", "exactalg.matmul", None),
            (exactalg.Subspace, "contains", "exactalg.coords", None),
            (exactalg.Subspace, "coordinates", "exactalg.coords", None),
            (exactalg.Subspace, "coordinate_matrix", "exactalg.coords", None),
            (clifford.CliffordAlgebra, "__init__", "clifford.algebra_init", None),
            (clifford.CliffordElement, "__mul__", "clifford.element_mul", None),
            (supermodule.CliffordSupermodule, "graded_commutant", "supermodule.commutant",
             _commutant_solve),
            (sympy.Poly, "factor_list", "invariants.factor", None),
        ]
        for cls, attr, name, before in methods:
            original = cls.__dict__[attr]
            self._sites.append((cls, attr, original, _wrap(self, name, original, before)))

    def attach(self, tracer: Tracer) -> None:
        self.tracer = tracer
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def detach(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)
        self.tracer = None


def _holders(original) -> list[tuple]:
    """Every (cliffilt module, name) bound to `original`."""
    out = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "cliffilt" or modname.startswith("cliffilt.")):
            continue
        out += [(module, key) for key, value in vars(module).items() if value is original]
    return out
