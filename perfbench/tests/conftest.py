"""Import paths for the benchmark's self-tests.

    python -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    """No test reads or writes the user's artifact cache."""
    for key in ("REPRO_ENGINE", "REPRO_PROFILE", "REPRO_NO_CACHE"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
