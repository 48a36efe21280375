"""Suite-wide fixtures: the test run is hermetic.

Every test reads and writes a per-session artifact cache in a temporary
directory, never the user's ``~/.cache/repro``.  Tests that need their
own cache still override ``REPRO_CACHE_DIR`` or pass ``--cache-dir``.
"""

import pytest

from repro.sim import CACHE_ENV_VAR, reset_session


@pytest.fixture(scope="session", autouse=True)
def hermetic_artifact_cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENV_VAR, str(root))
        # a session created while collecting would still point at the
        # user's cache; the next get_session() rebuilds it from the env
        reset_session()
        yield root
    reset_session()
