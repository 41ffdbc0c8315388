"""Output checks: per-job digests against recorded ones, plus invariants.

A job's digest is the sha256 of its semantic outputs -- the registry
counters with cost metrics removed (the ``semantic_snapshot`` surface),
the sorted message curves, the per-file statistics and the overlay
statistics.  ``digests.json`` records the digest of every job in each
workload's scenario-seed pool (written by ``run.py --record``), keyed by
workload and job label.  A job fails if it breaks an invariant, if its
digest differs from its record, or if it has no record.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Optional

import numpy as np

from repro.obs.compare import is_cost_key
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import RunResult

__all__ = [
    "DIGESTS_PATH",
    "check_job",
    "digest",
    "invariant_errors",
    "job_label",
    "load_digests",
    "save_digests",
]

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def job_label(config: ScenarioConfig) -> str:
    """Key of a job inside its workload: algorithm and scenario seed."""
    return f"{config.algorithm}/{config.seed}"


def _num(value):
    """JSON-stable number: NaN, inf and None (an archived NaN) as strings."""
    if value is None:
        return "nan"
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def digest(result: RunResult) -> str:
    """sha256 of the run's semantic outputs (cost and wall metrics excluded)."""
    doc = {
        "counters": {
            k: _num(v) for k, v in result.counters.items() if not is_cost_key(k)
        },
        "curves": {k: [int(x) for x in v] for k, v in result.sorted_received.items()},
        "file_stats": [
            [s.file_id, s.queries, s.answered, _num(s.avg_answers),
             _num(s.avg_min_p2p_hops), _num(s.avg_min_adhoc_hops)]
            for s in result.file_stats
        ],
        "overlay_stats": {k: _num(v) for k, v in result.overlay_stats.items()},
        "num_queries": result.num_queries,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def invariant_errors(result: RunResult) -> List[str]:
    """Broken output invariants of one run (empty when all hold)."""
    errors = []
    answered = sum(s.answered for s in result.file_stats)
    issued = sum(s.queries for s in result.file_stats)
    if answered > issued or issued > result.num_queries:
        errors.append(f"answered {answered} > issued {issued} (num_queries {result.num_queries})")
    for fam, curve in result.sorted_received.items():
        if len(curve) > 1 and np.any(np.diff(np.asarray(curve)) > 0):
            errors.append(f"curve {fam} not non-increasing")
    energy = np.asarray(result.energy, dtype=float)
    if np.any(energy < 0):
        errors.append("negative energy")
    capacity = result.config.energy_capacity
    # a charge that crosses the threshold lands in full: a node may end at
    # most one frame's cost (< 1 mJ) above its battery
    if math.isfinite(capacity) and np.any(energy > capacity + 1e-3):
        errors.append(f"energy above capacity {capacity}")
    return errors


def load_digests(path: str = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    """Recorded digests: workload -> job label -> digest."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save_digests(digests: Dict[str, Dict[str, str]], path: str = DIGESTS_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_job(
    workload: str,
    result: RunResult,
    recorded: Optional[Dict[str, Dict[str, str]]],
) -> Optional[str]:
    """Why the job failed its check, or None.

    ``recorded=None`` (while recording) checks the invariants only.
    """
    errors = invariant_errors(result)
    if errors:
        return "; ".join(errors)
    if recorded is None:
        return None
    label = job_label(result.config)
    want = recorded.get(workload, {}).get(label)
    if want is None:
        return f"no recorded digest for {label}"
    if want != digest(result):
        return f"digest mismatch for {label}"
    return None
