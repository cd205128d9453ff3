"""Settings for the whole suite.

hypothesis draws the same examples on every run (`derandomize`), keeps
no example database, and sets no per-example deadline, since exact
arithmetic on a slow host may take longer than the default.  Its other
caches go to the system temporary directory, so a test run writes no
`.hypothesis/` directory into the checkout.

The fixtures `products` and `eliminations` record the matrix products and
eliminations a test makes, for tests that pin how much work a step does.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cliffilt import exactalg
from cliffilt.exactalg import Matrix

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cliffilt-hypothesis")
settings.register_profile("cliffilt", derandomize=True, database=None, deadline=None)
settings.load_profile("cliffilt")


@pytest.fixture
def products(monkeypatch):
    """The left factor of every `Matrix.__mul__` call, in order."""
    calls = []
    original = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: calls.append(a) or original(a, b))
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    """The argument of every `rref` call, `Matrix.rank`'s included."""
    calls = []
    original = exactalg.rref
    monkeypatch.setattr(exactalg, "rref", lambda m: calls.append(m) or original(m))
    return calls
