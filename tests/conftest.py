"""One Hypothesis policy for every property test: derandomized, so each run
draws the same examples, and with no example database.  Hypothesis still
caches the constants it reads from local source files; that cache lives in
the system temporary directory, so a run writes nothing into the checkout."""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("lcslab", derandomize=True, database=None)
settings.load_profile("lcslab")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "lcslab-hypothesis")
