"""The benchmark binds to the program as it is.

`bench/tracing.py` rebinds traced functions and methods by name; `Probes()`
raises, or fails on a missing attribute, when one of them is no longer
bound.  Loading the file as it stands catches that here rather than in a
bench run.  Each seed-7 job pool, run once untimed through `bench/run.py`'s
`Pool`, must reproduce its recorded output digest, so a change that keeps
the outputs is checked without a bench run.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"

# workload -> (jobs attempted, output digest of one pass at seed 7); no job fails
SEED_7 = {
    "cli-1d": (120, "565ea0dd147150ec438602dbad8709a4071a846557f9dcb09ce6885074567076"),
    "classify": (64, "f66901e7c51c754a5a5e0125e906dd2169b52ce84b867ebf651ba1f9a2bb096b"),
    "lib-2d": (96, "5b0da72767431279f2554b31384f23b219c88c51bd3323a797a5904ac0b9dfe5"),
}


def test_probes_construct_and_restore():
    spec = importlib.util.spec_from_file_location("cliffilt_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    probes = tracing.Probes()
    originals = [(owner, attr, original) for owner, attr, original, _ in probes._sites]
    probes.attach(tracing.Tracer())
    probes.detach()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


@pytest.mark.parametrize("workload", sorted(SEED_7))
def test_seed_7_pool_reproduces_its_digest(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("cliffilt_bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import workloads

    pool = run.Pool(workload, workloads.WORKLOADS[workload](7))
    pool.timed_pass(range(len(pool.jobs)))
    assert pool.unexpected == []
    assert (pool.attempted, pool.failed, pool.digest()) == (SEED_7[workload][0], 0,
                                                            SEED_7[workload][1])
