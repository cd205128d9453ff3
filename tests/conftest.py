"""Settings for the whole suite.

hypothesis draws the same examples on every run (`derandomize`), keeps
no example database, and sets no per-example deadline, since exact
arithmetic on a slow host may take longer than the default.  Its other
caches go to the system temporary directory, so a test run writes no
`.hypothesis/` directory into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "cliffilt-hypothesis")
settings.register_profile("cliffilt", derandomize=True, database=None, deadline=None)
settings.load_profile("cliffilt")
