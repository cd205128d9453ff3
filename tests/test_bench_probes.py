"""The benchmark's tracer binds to the program as it is.

`bench/tracing.py` rebinds traced functions and methods by name; `Probes()`
raises, or fails on a missing attribute, when one of them is no longer
bound.  Loading the file as it stands catches that here rather than in a
bench run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
