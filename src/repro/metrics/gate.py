"""Regression gate: compare a BENCH document against a committed baseline.

``benchmarks/baseline.json`` pins every gated metric with a value, a
relative tolerance, and a direction (``higher``/``lower`` is better).
Wall-time metrics carry generous tolerances (machines differ); the
deterministic paper-anchor experiment metrics carry tight ones (they are
simulation outputs and must not drift between PRs).

:func:`compare` returns per-metric :class:`Delta` rows;
:func:`render_delta_table` prints them as markdown and
``tools/check_regression.py`` turns them into an exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

#: schema tag of the committed baseline document
BASELINE_SCHEMA = "repro-baseline/1"

#: default relative tolerance when a baseline entry does not set one
DEFAULT_TOLERANCE = 0.25

#: delta statuses
OK = "ok"
IMPROVED = "improved"
REGRESSION = "regression"
MISSING = "missing"


@dataclass
class Delta:
    """One gated metric: baseline vs candidate."""

    name: str
    baseline: float
    current: Optional[float]
    tolerance: float
    direction: str  # "higher" or "lower" is better
    status: str

    @property
    def rel_change(self) -> Optional[float]:
        if self.current is None or self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline)


def extract_metrics(bench_doc: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten a BENCH document into gateable ``name -> value`` pairs."""
    metrics: Dict[str, float] = {}
    for name, result in sorted(bench_doc.get("benchmarks", {}).items()):
        wall = result.get("wall_s", {})
        if "median" in wall:
            metrics[f"bench:{name}:wall_s"] = float(wall["median"])
        throughput = result.get("throughput", {})
        if "median" in throughput:
            metrics[f"bench:{name}:throughput"] = float(throughput["median"])
        # per-phase cycle fractions are simulation outputs (deterministic
        # across machines), so they gate like experiment anchors
        attribution = result.get("attribution") or {}
        fractions = attribution.get("cycle_fractions") or {}
        for phase in sorted(fractions):
            metrics[f"bench:{name}:cycle_fraction:{phase}"] = \
                float(fractions[phase])
        # serve benches carry an SLO block: latency quantiles, throughput
        # and budget attainment gate as ``serve:*`` metrics
        slo = result.get("slo") or {}
        short = name[len("serve."):] if name.startswith("serve.") else name
        for key in sorted(slo):
            value = slo[key]
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                continue
            metrics[f"serve:{short}:{key}"] = float(value)
    for key, value in sorted(bench_doc.get("experiments", {}).items()):
        metrics[f"experiment:{key}"] = float(value)
    return metrics


def validate_bench_doc(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Schema check for BENCH files; raises ``ValueError`` on problems."""
    from repro.metrics.bench import BENCH_SCHEMA

    if not isinstance(doc, Mapping):
        raise ValueError("BENCH document must be a JSON object")
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"unknown BENCH schema {doc.get('schema')!r}")
    manifest = doc.get("manifest")
    if not isinstance(manifest, Mapping):
        raise ValueError("BENCH document missing its run manifest")
    for key in ("config_hash", "git_sha", "version", "python", "platform",
                "seed"):
        if key not in manifest:
            raise ValueError(f"BENCH manifest missing {key!r}")
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, Mapping):
        raise ValueError("BENCH document missing 'benchmarks'")
    for name, result in benchmarks.items():
        for key in ("wall_s", "throughput", "work"):
            if key not in result:
                raise ValueError(f"benchmark {name!r} missing {key!r}")
        for stat in ("median", "min", "iqr"):
            if stat not in result["wall_s"]:
                raise ValueError(f"benchmark {name!r} wall_s missing "
                                 f"{stat!r}")
        if not isinstance(result["wall_s"].get("samples"), list):
            raise ValueError(f"benchmark {name!r} wall_s missing its raw "
                             "per-repeat 'samples'")
        attribution = result.get("attribution")
        if attribution is not None:
            from repro.errors import ObservabilityError
            from repro.obs import validate_attribution_dict

            try:
                validate_attribution_dict(attribution)
            except ObservabilityError as exc:
                raise ValueError(f"benchmark {name!r}: {exc}") from exc
        slo = result.get("slo")
        if slo is not None:
            if not isinstance(slo, Mapping):
                raise ValueError(f"benchmark {name!r}: 'slo' must be an "
                                 "object")
            for key, value in slo.items():
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    raise ValueError(f"benchmark {name!r}: slo[{key!r}] "
                                     "must be numeric")
            if "attainment" in slo and not 0.0 <= slo["attainment"] <= 1.0:
                raise ValueError(f"benchmark {name!r}: slo attainment "
                                 f"{slo['attainment']!r} outside [0, 1]")
    return {"benchmarks": len(benchmarks),
            "experiments": len(doc.get("experiments", {}))}


def load_baseline(path) -> Dict[str, Any]:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"unknown baseline schema {doc.get('schema')!r}")
    if not isinstance(doc.get("metrics"), Mapping):
        raise ValueError("baseline document missing 'metrics'")
    return doc


def compare(candidate: Mapping[str, float],
            baseline_doc: Mapping[str, Any]) -> List[Delta]:
    """Gate every baseline metric against the candidate values."""
    deltas: List[Delta] = []
    for name, entry in sorted(baseline_doc["metrics"].items()):
        base = float(entry["value"])
        tolerance = float(entry.get("tolerance", DEFAULT_TOLERANCE))
        direction = entry.get("direction", "higher")
        if direction not in ("higher", "lower", "near"):
            raise ValueError(f"baseline metric {name!r}: bad direction "
                             f"{direction!r}")
        current = candidate.get(name)
        if current is None:
            deltas.append(Delta(name, base, None, tolerance, direction,
                                MISSING))
            continue
        rel = (current - base) / abs(base) if base else current - base
        if direction == "higher":
            worse, better = rel < -tolerance, rel > tolerance
        elif direction == "lower":
            worse, better = rel > tolerance, rel < -tolerance
        else:  # "near": deterministic value, any drift is a regression
            worse, better = abs(rel) > tolerance, False
        status = REGRESSION if worse else IMPROVED if better else OK
        deltas.append(Delta(name, base, float(current), tolerance,
                            direction, status))
    return deltas


def regressions(deltas: List[Delta], strict: bool = False) -> List[Delta]:
    """The failing rows (``strict`` also fails on missing metrics)."""
    bad = [delta for delta in deltas if delta.status == REGRESSION]
    if strict:
        bad += [delta for delta in deltas if delta.status == MISSING]
    return bad


def render_delta_table(deltas: List[Delta]) -> str:
    """Markdown delta table (what CI prints and PRs can paste)."""
    lines = ["| metric | baseline | current | change | tolerance | status |",
             "|---|---|---|---|---|---|"]
    for delta in deltas:
        current = "-" if delta.current is None else f"{delta.current:.6g}"
        rel = delta.rel_change
        change = "-" if rel is None else f"{rel * 100:+.1f}%"
        arrow = {"higher": "higher=better", "lower": "lower=better",
                 "near": "exact"}[delta.direction]
        flag = {REGRESSION: "**REGRESSION**", MISSING: "missing",
                IMPROVED: "improved", OK: "ok"}[delta.status]
        lines.append(f"| {delta.name} | {delta.baseline:.6g} | {current} "
                     f"| {change} | ±{delta.tolerance * 100:g}% "
                     f"({arrow}) | {flag} |")
    return "\n".join(lines)


def baseline_from_bench(bench_doc: Mapping[str, Any], *,
                        wall_tolerance: float = 1.0,
                        throughput_tolerance: float = 0.6,
                        experiment_tolerance: float = 0.001
                        ) -> Dict[str, Any]:
    """Seed a baseline document from a measured BENCH document.

    Used to (re)generate ``benchmarks/baseline.json``: wall/throughput
    metrics get machine-variance tolerances; simulation outputs
    (experiment anchors, cycle fractions, ``serve:*``) get tight ones.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, value in extract_metrics(bench_doc).items():
        if name.endswith(":wall_s"):
            entry = {"value": value, "tolerance": wall_tolerance,
                     "direction": "lower"}
        elif name.endswith(":throughput"):
            entry = {"value": value, "tolerance": throughput_tolerance,
                     "direction": "higher"}
        else:
            # experiment anchors, cycle fractions and the serve SLO block
            # (served on a virtual clock) are simulation outputs
            entry = {"value": value, "tolerance": experiment_tolerance,
                     "direction": "near"}
        metrics[name] = entry
    return {
        "schema": BASELINE_SCHEMA,
        "source_manifest": dict(bench_doc.get("manifest", {})),
        "metrics": metrics,
    }
