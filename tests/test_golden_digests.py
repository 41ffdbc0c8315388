"""Golden digests: short seeded runs must reproduce recorded outputs.

Each case is a short scenario (40-120 nodes, <= 30 simulated seconds)
covering both topology backends, every routing protocol, churn and a
finite battery.  Its digest is a sha256 over the run's semantic
outputs -- the registry counters with cost metrics dropped
(:func:`repro.obs.compare.is_cost_key`), the sorted message curves, the
per-file query statistics and the final overlay statistics.  The digests
in ``data/golden_digests.json`` were recorded from a known-good
revision, so any change to what a simulation computes shows up here,
whatever the change was meant to speed up.

Re-record (only when a change is *meant* to alter simulation outputs)::

    PYTHONPATH=src python tests/test_golden_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

from repro.core.query import QueryConfig
from repro.obs.compare import is_cost_key
from repro.scenarios.builder import build_scenario
from repro.scenarios.churn import ChurnProcess
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import RunResult, harvest

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_digests.json")

#: Queries start after 10 s so a 30 s run answers some of them.
_FAST_QUERIES = QueryConfig(warmup=10.0, response_wait=5.0, gap_min=4.0, gap_max=8.0)

#: name -> (config, churn death rate per second or None)
CASES = {
    "dense-aodv-regular-50": (
        ScenarioConfig(num_nodes=50, duration=30.0, seed=1, query=_FAST_QUERIES),
        None,
    ),
    "sparse-aodv-random-60": (
        ScenarioConfig(
            num_nodes=60, algorithm="random", topology="sparse", duration=30.0,
            seed=2, query=_FAST_QUERIES,
        ),
        None,
    ),
    "dense-dsr-hybrid-40": (
        ScenarioConfig(
            num_nodes=40, algorithm="hybrid", routing="dsr", duration=30.0,
            seed=3, query=_FAST_QUERIES,
        ),
        None,
    ),
    "sparse-dsdv-basic-40": (
        ScenarioConfig(
            num_nodes=40, algorithm="basic", routing="dsdv", topology="sparse",
            duration=30.0, seed=4, query=_FAST_QUERIES,
        ),
        None,
    ),
    "dense-oracle-random-120": (
        ScenarioConfig(
            num_nodes=120, algorithm="random", routing="oracle", duration=30.0,
            seed=5, query=_FAST_QUERIES,
        ),
        None,
    ),
    "sparse-oracle-hybrid-120": (
        ScenarioConfig(
            num_nodes=120, algorithm="hybrid", routing="oracle", topology="sparse",
            area_width=155.0, area_height=155.0, duration=30.0, seed=6,
            query=_FAST_QUERIES,
        ),
        None,
    ),
    "dense-aodv-regular-churn-40": (
        ScenarioConfig(num_nodes=40, duration=30.0, seed=7, query=_FAST_QUERIES),
        0.4,
    ),
    "sparse-aodv-random-energy-40": (
        ScenarioConfig(
            num_nodes=40, algorithm="random", topology="sparse", duration=30.0,
            seed=8, energy_capacity=0.006, query=_FAST_QUERIES,
        ),
        None,
    ),
}


def run_case(name: str) -> RunResult:
    cfg, death_rate = CASES[name]
    simulation = build_scenario(cfg)
    if death_rate is not None:
        ChurnProcess(
            simulation.sim,
            simulation.world,
            np.random.default_rng(10_000 + cfg.seed),
            death_rate=death_rate,
            mean_downtime=8.0,
        ).start()
    simulation.run()
    return harvest(simulation)


def _num(value):
    """JSON-stable number: NaN, inf and None as strings."""
    if value is None:
        return "nan"
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def digest(result: RunResult) -> str:
    """sha256 of the run's semantic outputs (cost metrics excluded)."""
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


def _recorded():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def test_every_case_is_recorded():
    assert sorted(_recorded()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_digest(name):
    assert digest(run_case(name)) == _recorded()[name]


if __name__ == "__main__":  # pragma: no cover - recording entry point
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden_digests.py --record")
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump({n: digest(run_case(n)) for n in sorted(CASES)}, fh, indent=1, sort_keys=True)
        fh.write("\n")
