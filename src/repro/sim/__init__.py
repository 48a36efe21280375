"""Unified simulation session layer.

Every simulator stack in the reproduction — the CPU simulators
(:mod:`repro.cpu`), the BNN accelerator (:mod:`repro.bnn.accelerator`)
and the SoC discrete-event timeline (:mod:`repro.core.events`) — reports into
one shared :class:`StatsRegistry`, and every expensive artifact (trained BNN
models, completed experiment results) is memoized through one on-disk
:class:`ArtifactCache`.  A :class:`SimSession` bundles the two together with a
deterministic :class:`SimConfig`; :func:`get_session` returns the process-wide
current session.
"""

from repro.sim.cache import ArtifactCache
from repro.sim.config import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    DEFAULT_DEVICE_PROFILE,
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    NO_CACHE_ENV_VAR,
    PROFILE_ENV_VAR,
    SimConfig,
    config_hash,
    source_fingerprint,
)
from repro.sim.instrument import (
    ALL_EVENTS,
    PROBE_ERROR_COUNTER,
    STRICT_PROBES_ENV_VAR,
    StatsRegistry,
    StatsScope,
)
from repro.sim.session import (
    SimSession,
    current_engine,
    current_profile,
    get_session,
    reset_session,
    set_session,
    use_session,
)

__all__ = [
    "ALL_EVENTS",
    "ArtifactCache",
    "CACHE_ENV_VAR",
    "DEFAULT_DEVICE_PROFILE",
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "PROFILE_ENV_VAR",
    "PROBE_ERROR_COUNTER",
    "STRICT_PROBES_ENV_VAR",
    "DEFAULT_CACHE_DIR",
    "NO_CACHE_ENV_VAR",
    "SimConfig",
    "SimSession",
    "StatsRegistry",
    "StatsScope",
    "config_hash",
    "current_engine",
    "current_profile",
    "get_session",
    "reset_session",
    "set_session",
    "source_fingerprint",
    "use_session",
]
