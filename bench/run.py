"""cliffilt benchmark: three seeded closed-loop workloads, one client.

    python3 bench/run.py --workload cli-1d --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  Workloads and metrics are described in NOTES.md.

With `--trace 0` the run sets up (import, build modules, generate the
seeded inputs), then runs the workload's job pool in a timed closed loop.
Fresh-interpreter imports and set-ups, and the reference loop of
`reference.py`, run at intervals inside it with the clock paused.  Job
times are reported in wall time and in reference time.

With `--trace 1` it runs every job of the pool once untraced and twice
traced, back to back; it reports per-layer counts and self times, checks
that every count repeats exactly between the two traced passes, and
writes the spans of the first traced pass under `.bench_out/`.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  `attempted`
and `failed` count the distinct jobs of the pool, each run at least once;
every further run of a job must repeat its first output.  Exit code
2 means the run could not start (no package source found).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

IMPORT_RUNS = 3
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 60

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cliffilt; print(time.perf_counter() - t)"
)

# Gated in BENCHMARK.json.  Set-up and job times are in reference time
# (reference.py); the wall-clock figures are printed beside them.
END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_ref_s", "1/ref_s"),
    ("job_ref_ms_p50", "ref_ms"),
    ("job_ref_ms_p90", "ref_ms"),
    ("peak_rss_mb", "MB"),
]
WINDOW_S = 1.0

_SPANS = [
    "exactalg.rref", "exactalg.matmul", "exactalg.coords",
    "clifford.algebra_init", "clifford.element_mul",
    "supermodule.check_supermodule", "supermodule.check_filtration",
    "deformation.deform", "deformation.verify_offshell", "deformation.quotient_at",
    "deformation.roundtrip", "deformation.envcheck",
    "bifiltration.tensor_module", "bifiltration.check", "bifiltration.bideform",
    "bifiltration.verify_2d", "bifiltration.biquotient", "bifiltration.biroundtrip",
    "bifiltration.check_twisted_tensor",
    "invariants.decompose", "invariants.factor", "invariants.search",
]
# Count metrics: each must repeat exactly between two traced passes.
COUNTS = [span + ".calls" for span in _SPANS] + [
    "exactalg.rref.cells",
    "supermodule.commutant.solves",
    "invariants.decompose.summands",
    "invariants.search.attempts",
    "invariants.search.finds",
    "invariants.report_cache.hits",
    "invariants.report_cache.misses",
    "invariants.report_cache.currsize",
    "serialize.bytes_in",
    "serialize.bytes_out",
    "cli.main.calls",
]
SELF_TIMES = {span + ".self_s": span for span in _SPANS} | {
    "supermodule.commutant.self_s": "supermodule.commutant",
    "invariants.endomorphisms.self_s": "invariants.endomorphisms",
    "graph.to_graph.self_s": "graph.to_graph",
    "graph.to_dot.self_s": "graph.to_dot",
    "serialize.loads.self_s": "serialize.loads",
    "serialize.dumps.self_s": "serialize.dumps",
    "cli.self_s": "cli.main",
}


def count_unit(name: str) -> str:
    return "B" if name.startswith("serialize.bytes") else "count"


# ---------------------------------------------------------------------------


class Pool:
    """Runs a workload's jobs in order, cycling, and checks their outputs."""

    def __init__(self, name: str, jobs):
        # Imported here, not at the top: set-up time includes these imports.
        from cliffilt import invariants
        from workloads import CLI_WORKLOADS, Failure

        self.jobs = jobs
        self.report = invariants.invariant_report if name in CLI_WORKLOADS else None
        self.failure = Failure
        self.slot_digests: list[str | None] = [None] * len(jobs)
        # Slot -> whether its failure is the known defect.  The result
        # line counts distinct jobs of the pool, not executions: how many
        # executions fit in the measuring time varies from run to run,
        # while which jobs fail depends only on the seed.
        self.failures: dict[int, bool] = {}
        self.executions = 0
        self.unexpected: list[str] = []

    def run(self, slot: int, cache: dict | None = None) -> None:
        """Run one job; add its invariant_report cache statistics to `cache`."""
        job = self.jobs[slot]
        record: list[bytes] = []
        error = None
        known = False
        try:
            job.run(record)
        except self.failure as exc:
            error, known = str(exc), exc.known_defect
        except Exception as exc:  # a job that raises is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        if self.report is not None:
            if cache is not None:
                info = self.report.cache_info()
                cache["hits"] += info.hits
                cache["misses"] += info.misses
                cache["currsize"] = max(cache["currsize"], info.currsize)
            self.report.cache_clear()
        digest = hashlib.sha256(b"\0".join(record)).hexdigest()
        if self.slot_digests[slot] is None:
            self.slot_digests[slot] = digest
        elif self.slot_digests[slot] != digest and error is None:
            error = "output differs from the first run of this job"
        self.executions += 1
        if error is not None:
            self.failures.setdefault(slot, known)
            if not known:
                self.unexpected.append(f"job {slot} ({job.kind}): {error}")

    @property
    def attempted(self) -> int:
        return sum(d is not None for d in self.slot_digests)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def known_defect(self) -> int:
        return sum(self.failures.values())

    def digest(self) -> str:
        return hashlib.sha256("".join(d or "-" for d in self.slot_digests).encode()).hexdigest()

    def timed_pass(self, slots, cache: dict | None = None) -> float:
        start = time.perf_counter()
        for slot in slots:
            self.run(slot, cache)
        return time.perf_counter() - start


def timed_setup(workload: str, seed: int):
    """Import the package, build modules and generate the seeded inputs.

    Returns the jobs and the time taken, in wall seconds and in reference
    seconds (from the reference loop timed right after, in this process).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    jobs = workloads.WORKLOADS[workload](seed)
    wall = time.perf_counter() - start
    return jobs, (wall, wall / (reference.loop_seconds() * reference.REF_LOOPS_PER_S))


def child_floats(argv: list[str]) -> tuple[float, ...]:
    """The numbers a child process prints on its last line."""
    run = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if run.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} failed: {run.stderr.strip()[-500:]}")
    return tuple(float(x) for x in run.stdout.strip().splitlines()[-1].split())


def tail_note(values: list[float], p90: float) -> str:
    beyond = sum(1 for x in values if x > p90)
    return f"{beyond} beyond" + ("" if beyond >= 10 else " (fewer than 10: indicative only)")


def percentile(values: list[float], k: int) -> float:
    """k-th percentile (k in 1..99) by statistics.quantiles, exclusive method."""
    return statistics.quantiles(values, n=100)[k - 1]


def emit(pool: Pool, metrics: dict, units: dict) -> None:
    correct = not pool.unexpected
    for line in pool.unexpected[:20]:
        print("unexpected failure:", line, file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": pool.attempted,
        "failed": pool.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def run_untraced(args) -> int:
    import_probe = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    setup_child = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-only"]
    jobs, own_setup = timed_setup(args.workload, args.seed)
    pool = Pool(args.workload, jobs)
    if args.workload == "lib-2d":
        pool.timed_pass(range(len(jobs)))  # warm the objects' caches; untimed

    # The fresh-interpreter imports and set-ups run at even intervals
    # through the timed phase, with its clock paused, so that their
    # medians sample the same stretch of machine time as the jobs.  The
    # reference loop runs at the end of every window of about a second,
    # also with the clock paused.
    side = ["import", "setup"] * SETUP_CHILDREN + ["import"] * (IMPORT_RUNS - SETUP_CHILDREN)
    imports, setups = [], [own_setup]
    latencies = []  # (ms, window)
    window_walls = []
    loops = [reference.loop_seconds()]
    search_s = 0.0
    search_attempts = 0
    paused = 0.0
    window_start = 0.0
    start = time.perf_counter()
    slot = 0
    while (elapsed := time.perf_counter() - start - paused) < args.seconds \
            or len(latencies) < 2:
        if elapsed - window_start >= WINDOW_S:
            t0 = time.perf_counter()
            loops.append(reference.loop_seconds())
            paused += time.perf_counter() - t0
            window_walls.append(elapsed - window_start)
            window_start = elapsed
            continue
        done = len(imports) + len(setups) - 1
        if done < len(side) and elapsed >= (done + 0.5) * args.seconds / len(side):
            t0 = time.perf_counter()
            if side[done] == "import":
                imports.append(child_floats(import_probe)[0])
            else:
                setups.append(child_floats(setup_child))
            paused += time.perf_counter() - t0
            continue
        job = jobs[slot % len(jobs)]
        t0 = time.perf_counter()
        pool.run(slot % len(jobs))
        dt = time.perf_counter() - t0
        latencies.append((dt * 1000.0, len(window_walls)))
        if job.search_attempts:
            search_s += dt
            search_attempts += job.search_attempts
        slot += 1
    wall = elapsed
    loops.append(reference.loop_seconds())
    window_walls.append(wall - window_start)
    for kind in side[len(imports) + len(setups) - 1:]:  # a last long job ran past them
        if kind == "import":
            imports.append(child_floats(import_probe)[0])
        else:
            setups.append(child_floats(setup_child))
    for rest in range(slot, len(jobs)):  # every job runs once, for the digest
        pool.run(rest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Reference seconds per wall second in each window, from the loops
    # timed at its two ends.
    scale = [2.0 / (reference.REF_LOOPS_PER_S * (a + b)) for a, b in zip(loops, loops[1:])]
    wall_ms = [ms for ms, _ in latencies]
    ref_ms = [ms * scale[w] for ms, w in latencies]
    ref_wall = sum(t * k for t, k in zip(window_walls, scale))
    n = len(latencies)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "jobs_per_ref_s": n / ref_wall,
        "job_ref_ms_p50": percentile(ref_ms, 50),
        "job_ref_ms_p90": percentile(ref_ms, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    shown = {
        "setup_s": (metrics["setup_s"], "s", f"median of {len(setups)} set-ups, in reference "
                    f"seconds; wall-clock median {statistics.median(w for w, _ in setups):.3f} s"),
        "import_s": (statistics.median(imports), "s",
                     f"median of {len(imports)} fresh interpreters"),
        "jobs_per_s": (n / wall, "1/s", f"{n} jobs in {wall:.3f} s"),
        "job_ms_p50": (percentile(wall_ms, 50), "ms", f"{n} jobs"),
        "job_ms_p90": (percentile(wall_ms, 90), "ms", f"{n} jobs, "
                       + tail_note(wall_ms, percentile(wall_ms, 90))),
        "error_rate": (pool.failed / pool.attempted, "ratio",
                       f"{pool.failed} of the pool's {pool.attempted} jobs, run "
                       f"{pool.executions} times in all; {pool.known_defect} are "
                       "the known doubled-gamma defect"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
    }
    if search_attempts:
        shown["search_attempts_per_s"] = (
            search_attempts / search_s, "1/s",
            f"{search_attempts} attempts in {search_s:.3f} s of search jobs")
    shown.update({
        "jobs_per_ref_s": (metrics["jobs_per_ref_s"], "1/ref_s",
                           f"{n} jobs in {ref_wall:.3f} ref_s"),
        "job_ref_ms_p50": (metrics["job_ref_ms_p50"], "ref_ms", f"{n} jobs"),
        "job_ref_ms_p90": (metrics["job_ref_ms_p90"], "ref_ms", f"{n} jobs, "
                           + tail_note(ref_ms, metrics["job_ref_ms_p90"])),
        "reference_loop_ms": (1000.0 * statistics.median(loops), "ms",
                              f"median of {len(loops)} timings, {reference.REPEATS} loops each"),
    })
    units = dict(END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"pool {len(jobs)} jobs")
    for name, (value, unit, note) in shown.items():
        print(f"  {name:<24} {value:>14.6f} {unit:<7} ({note})")
    print(f"  output digest {pool.digest()}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "shown": {name: value for name, (value, _, _) in shown.items()},
        "digest": pool.digest(), "latencies_ms": wall_ms, "reference_loop_s": loops,
    }))
    emit(pool, metrics, units)
    return 0


def run_traced(args) -> int:
    from tracing import Probes, Tracer

    jobs, _ = timed_setup(args.workload, args.seed)
    pool = Pool(args.workload, jobs)
    if args.workload == "lib-2d":
        pool.timed_pass(range(len(jobs)))  # warm the objects' caches, as in the timed run
    probes = Probes()
    tracers = [Tracer(), Tracer()]
    caches = [{"hits": 0, "misses": 0, "currsize": 0} for _ in tracers]
    untraced_s = 0.0
    traced_s = 0.0
    # Each job runs untraced and then twice traced, back to back, so the
    # overhead compares runs made under the same machine conditions.
    for slot in range(len(jobs)):
        untraced_s += pool.timed_pass([slot])
        for tracer, cache in zip(tracers, caches):
            probes.attach(tracer)
            tracer.job = slot
            traced_s += pool.timed_pass([slot], cache)
            probes.detach()

    counts = [dict(t.counts) for t in tracers]
    for c, cache in zip(counts, caches):
        c.update({"invariants.report_cache." + k: v for k, v in cache.items()})
    for k in COUNTS:
        if counts[0].get(k, 0) != counts[1].get(k, 0):
            pool.unexpected.append(f"count {k} differs between traced passes: "
                                   f"{counts[0].get(k, 0)} vs {counts[1].get(k, 0)}")
    counts, self_s = counts[0], tracers[0].self_s
    OUT.mkdir(exist_ok=True)
    spans = tracers[0].write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.tsv")

    metrics = {k: counts.get(k, 0) for k in COUNTS}
    units = {k: count_unit(k) for k in COUNTS}
    for name, span in SELF_TIMES.items():
        metrics[name] = self_s.get(span, 0.0)
        units[name] = "s"
    attempts = counts.get("invariants.search.attempts", 0)
    metrics["invariants.search.finds_per_attempt"] = (
        counts.get("invariants.search.finds", 0) / attempts if attempts else 0.0)
    units["invariants.search.finds_per_attempt"] = "ratio"
    untraced_rate = len(jobs) / untraced_s
    traced_rate = 2 * len(jobs) / traced_s
    metrics["trace.jobs_per_s_untraced"] = untraced_rate
    metrics["trace.jobs_per_s_traced"] = traced_rate
    metrics["trace.overhead"] = untraced_rate / traced_rate - 1.0
    units.update({"trace.jobs_per_s_untraced": "1/s", "trace.jobs_per_s_traced": "1/s",
                  "trace.overhead": "ratio"})

    print(f"workload {args.workload}  seed {args.seed}  traced  pool {len(jobs)} jobs  "
          f"{spans} spans written")
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:>16.6f} {units[name]}")
    print(f"  output digest {pool.digest()}")
    emit(pool, metrics, units)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cli-1d", "classify", "lib-2d"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (used internally)")
    args = parser.parse_args(argv)
    if not (SRC / "cliffilt" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cliffilt'}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(*timed_setup(args.workload, args.seed)[1])
        return 0
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
