"""The benchmark's workloads: scenario configs generated from a seed.

A workload run is a fixed number of *passes*; each pass is one closed-loop
job batch (plan -> run -> harvest -> cache write-back -> figure
aggregation) through :class:`~repro.experiments.executor.ExperimentExecutor`.
A workload is a fixed pool of ``Workload.passes`` scenario seeds, one per
pass; a run of the default length makes one pass of each, starting at
the entry ``--seed`` picks.  A job's cost varies by about 20 % with its
random topology, so every run covering the same topologies keeps that
variation out of the run-to-run spread, and every job a run can make has
a recorded output digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.experiments.figures import figure_configs
from repro.scenarios.config import ScenarioConfig

__all__ = [
    "END_TO_END",
    "RUN_SECONDS",
    "Pass",
    "WORKLOADS",
    "Workload",
    "paper_cpu_hours",
    "passes_for",
    "scenario_seed",
]

#: default ``--seconds``.  A run makes ``Workload.passes`` passes at this
#: length (scaled for other lengths); on a 2-core x86 VM a run measures
#: 20-50 s (about 5 s per 150-node job, 7 s per metro job, 3 s per fig-5
#: batch), and 22 runs of every gated workload fit in an hour
RUN_SECONDS = 45

#: paper-scale ``reproduce``: per node count, algorithms x reps x seconds
PAPER_ALGORITHMS = 4
PAPER_REPS = 33
PAPER_DURATION = 3600.0
#: the workload whose cpu_per_sim_s stands for each paper node count
PAPER_COST_WORKLOADS = {"fig5_pass50": 50, "fig6_random150": 150}

#: fig-6 horizon: queries start at U(0.5, 1) x 60 s, so 65 s runs every
#: member's query process
FIG6_HORIZON = 65.0
#: fig-5/7/9/11 plan: horizon and repetitions
FIG5_HORIZON = 150.0
FIG5_REPS = 2
FIG5_FIGURES = ("fig5", "fig7", "fig9", "fig11")
#: depletion150 battery: near the median per-node consumption of the
#: flood scenario over FIG6_HORIZON (0.76-0.84 J on seeds 1-3)
DEPLETION_CAPACITY = 0.8
METRO_NODES = 10_000
METRO_HORIZON = 5.0

#: end-to-end metrics: name, unit, better, bound (share of the parent's median)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("total_s", "s", "lower", 0.25),
    ("cpu_per_sim_s", "cpu_s/sim_s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)


@dataclass(frozen=True)
class Pass:
    """One job batch: the requested configs and the figures harvested from them."""

    configs: List[ScenarioConfig]
    #: figure ids aggregated after the batch, with their run_figure settings
    figures: Tuple[str, ...] = ()
    figure_settings: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: passes a run of RUN_SECONDS makes, and the size of the scenario-seed
    #: pool: enough jobs that run-to-run spread stays inside the bounds
    passes: int
    plan: Callable[[int], Pass]
    #: listed in BENCHMARK.json; the others run by name (and in --all), as
    #: their run-to-run spread reached the largest bound (25 %) on a 2-vCPU
    #: VM whose speed shifts by 20-30 % from minute to minute
    gated: bool = True


def scenario_seed(workload: Workload, seed: int, pass_index: int) -> int:
    """Base scenario seed of pass ``pass_index`` of a run with ``seed``.

    Entry ``(seed + pass_index) mod passes`` of the workload's pool; the
    entries are 10 apart, so the reps of a figure plan (base, base + 1)
    stay inside their entry.
    """
    return 1000 + 10 * ((int(seed) + int(pass_index)) % workload.passes)


def passes_for(workload: Workload, seconds: float) -> int:
    """Passes a run of ``seconds`` makes (scaled from RUN_SECONDS, at least one)."""
    return max(1, int(round(workload.passes * seconds / RUN_SECONDS)))


def paper_cpu_hours(cpu_per_sim_s: float) -> float:
    """Derived CPU-hours of one node count of a paper-scale ``reproduce``.

    Linear in the measured cost per simulated second, which rises with the
    horizon as the query plane fills, so this is a lower bound; not gated.
    """
    return cpu_per_sim_s * PAPER_ALGORITHMS * PAPER_REPS * PAPER_DURATION / 3600.0


def _fig6(base: int) -> Pass:
    return Pass([ScenarioConfig(num_nodes=150, algorithm="random", duration=FIG6_HORIZON, seed=base)])


def _depletion(base: int) -> Pass:
    cfg = ScenarioConfig(
        num_nodes=150,
        algorithm="random",
        duration=FIG6_HORIZON,
        seed=base,
        energy_capacity=DEPLETION_CAPACITY,
        rebroadcast="counter:2",
    )
    return Pass([cfg])


def _fig5(base: int) -> Pass:
    settings = {"duration": FIG5_HORIZON, "reps": FIG5_REPS, "seed": base}
    configs = [c for fid in FIG5_FIGURES for c in figure_configs(fid, **settings)]
    return Pass(configs, FIG5_FIGURES, settings)


def _metro(base: int) -> Pass:
    side = 100.0 * math.sqrt(METRO_NODES / 50.0)  # the 50-node paper density
    cfg = ScenarioConfig(
        num_nodes=METRO_NODES,
        area_width=side,
        area_height=side,
        topology="sparse",
        duration=METRO_HORIZON,
        seed=base,
    )
    return Pass([cfg])


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig6_random150",
            "150 nodes, Random, AODV, flood, 65 s: the per-receiver chain radio -> energy -> AODV RREQ with the query plane running",
            8,
            _fig6,
        ),
        Workload(
            "metro10k",
            "10 000 nodes at paper density, sparse topology, 5 s: setup, observability and harvest dominate; the broadcast chain is minor",
            3,
            _metro,
        ),
        Workload(
            "fig5_pass50",
            "figs 5/7/9/11 plan at 50 nodes, 4 algorithms x 2 reps, cold cache: 32 requested jobs dedup to 8, exercising the experiments layer",
            8,
            _fig5,
            gated=False,
        ),
        Workload(
            "depletion150",
            "fig6 shape with finite batteries and counter:2 suppression: depletion checks, dying receivers, route repair, cancelled rebroadcasts",
            6,
            _depletion,
            gated=False,
        ),
    )
}
