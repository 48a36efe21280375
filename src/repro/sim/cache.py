"""On-disk artifact cache with an in-memory first level.

Memoizes expensive simulation artifacts — trained BNN models, completed
experiment results — keyed by namespace + content hash.  Artifacts are
pickled under ``<root>/<namespace>/<key>.pkl``, behind a one-line
:data:`CACHE_HEADER` naming the cache format version; the root defaults
to ``~/.cache/repro`` and is overridable with ``REPRO_CACHE_DIR``.

Writes are atomic (temp file + ``os.replace``) so parallel experiment
workers can share one cache directory.  Every filesystem error degrades
to a cache miss, and so does every file that cannot be read back — a
missing or different format header, a truncated or corrupt pickle, or a
pickle naming code that no longer exists — so the cache can never make
a run fail, only slower; a missed artifact is rebuilt and rewritten.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.logutil import get_logger
from repro.sim.config import CACHE_ENV_VAR, DEFAULT_CACHE_DIR

logger = get_logger("cache")

_MISS = object()

#: version of the on-disk format; bump it when what the cache stores
#: changes shape, so files written by older code are rebuilt
CACHE_FORMAT_VERSION = 1

#: first line of every cache file
CACHE_HEADER = f"repro-artifact-cache/{CACHE_FORMAT_VERSION}\n".encode()


class ArtifactCache:
    """Two-level (memory + disk) artifact store."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 enabled: bool = True):
        if root is None:
            root = os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_DIR)
        self.root = Path(root).expanduser()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._memory: Dict[Tuple[str, str], Any] = {}

    # -- paths ----------------------------------------------------------
    def path_for(self, namespace: str, key: str) -> Path:
        return self.root / namespace / f"{key}.pkl"

    # -- lookup ---------------------------------------------------------
    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        value = self._lookup(namespace, key)
        if value is _MISS:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def has(self, namespace: str, key: str) -> bool:
        return self._lookup(namespace, key) is not _MISS

    def _lookup(self, namespace: str, key: str) -> Any:
        if not self.enabled:
            return _MISS
        memory_key = (namespace, key)
        if memory_key in self._memory:
            return self._memory[memory_key]
        path = self.path_for(namespace, key)
        try:
            with open(path, "rb") as handle:
                if handle.read(len(CACHE_HEADER)) != CACHE_HEADER:
                    logger.debug("cache file %s has another format; "
                                 "rebuilding", path)
                    return _MISS
                value = pickle.load(handle)
        except OSError:
            return _MISS
        except Exception as error:  # unpickling can raise almost anything
            logger.warning("unreadable cache file %s (%s: %s); rebuilding",
                           path, type(error).__name__, error)
            return _MISS
        self._memory[memory_key] = value
        return value

    # -- storage --------------------------------------------------------
    def put(self, namespace: str, key: str, value: Any) -> None:
        if not self.enabled:
            return
        self._memory[(namespace, key)] = value
        path = self.path_for(namespace, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(dir=str(path.parent),
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(CACHE_HEADER)
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(temp_name, path)
            except BaseException:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
            self.stores += 1
        except (OSError, pickle.PickleError, AttributeError, TypeError):
            # unwritable/unpicklable: stay memory-only for this artifact
            pass

    def fetch(self, namespace: str, key: str,
              builder: Callable[[], Any]) -> Any:
        """Return the cached artifact or build, store, and return it."""
        value = self._lookup(namespace, key)
        if value is not _MISS:
            self.hits += 1
            return value
        self.misses += 1
        value = builder()
        self.put(namespace, key, value)
        return value

    # -- maintenance ----------------------------------------------------
    def clear(self, namespace: Optional[str] = None) -> None:
        """Drop cached artifacts (one namespace, or everything)."""
        if namespace is None:
            self._memory.clear()
            target = self.root
        else:
            self._memory = {mk: v for mk, v in self._memory.items()
                            if mk[0] != namespace}
            target = self.root / namespace
        shutil.rmtree(target, ignore_errors=True)

    def clear_memory(self) -> None:
        """Drop only the in-memory level (keeps on-disk artifacts)."""
        self._memory.clear()

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}
