"""Timed passes of a workload.

One pass executes a workload's job batch through an
:class:`~repro.experiments.executor.ExperimentExecutor` (``processes=1``)
with a cold :class:`~repro.experiments.cache.RunCache` in a scratch
directory, aggregates the pass's figures, and then -- outside the timed
window -- replays the same plan against the now-warm cache.  The replay
must give byte-identical figure JSON (or, without figures, identical job
digests).
"""

from __future__ import annotations

import os
import resource
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional

from repro.experiments.cache import RunCache
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.export import figure_result_to_json
from repro.experiments.figures import run_figure
from repro.obs.registry import Registry
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import RunResult, run_scenario

from .checks import check_job, digest, job_label
from .workloads import Pass

__all__ = ["PassResult", "pass_summary", "peak_rss_mb", "run_pass", "warm_up"]


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: seconds inside build_scenario, summed over the executed jobs
    setup_s: float = 0.0
    sim_s: float = 0.0
    requested: int = 0
    #: the executed jobs, one result per distinct config, in plan order
    results: List[RunResult] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    figures: Dict[str, str] = field(default_factory=dict)
    replay_s: float = 0.0
    replay_hit_frac: float = 0.0
    #: distinct jobs in the plan
    jobs: int = 0
    #: job label (or "pass", which fails every job of the pass) -> why it failed
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        if "pass" in self.failures:
            return self.jobs
        return len(self.failures)


def pass_summary(out: PassResult) -> dict:
    """JSON-safe record of a pass: timings, check outcome and job digests."""
    return {
        "wall_s": out.wall_s,
        "cpu_s": out.cpu_s,
        "setup_s": out.setup_s,
        "sim_s": out.sim_s,
        "replay_s": out.replay_s,
        "replay_hit_frac": out.replay_hit_frac,
        "peak_rss_mb": peak_rss_mb(),
        "jobs": out.jobs,
        "failed": out.failed,
        "failures": out.failures,
        "digests": {job_label(r.config): digest(r) for r in out.results},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up() -> None:
    """Pay lazy first-use costs once, as a long-lived worker would."""
    run_scenario(ScenarioConfig(num_nodes=20, duration=2.0, seed=0))


def _unique(results: List[RunResult]) -> List[RunResult]:
    seen, out = set(), []
    for r in results:
        if id(r) not in seen:
            seen.add(id(r))
            out.append(r)
    return out


def _execute(plan: Pass, cache: RunCache, registry: Registry):
    executor = ExperimentExecutor(processes=1, cache=cache, registry=registry)
    results = executor.run_configs(plan.configs)
    figures = {
        fid: figure_result_to_json(run_figure(fid, executor=executor, **plan.figure_settings))
        for fid in plan.figures
    }
    return executor, results, figures


def run_pass(
    workload: str,
    plan: Pass,
    work_dir: str,
    recorded: Optional[Dict[str, Dict[str, str]]],
) -> PassResult:
    """Time one pass, replay it warm, and check every job.

    ``recorded=None`` checks invariants only (see ``checks.check_job``).
    """
    out = PassResult(
        requested=len(plan.configs), jobs=len({job_label(c) for c in plan.configs})
    )
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        store = os.path.join(tmp, "runs.ndjson")
        try:
            w0, c0 = perf_counter(), process_time()
            registry = Registry()
            executor, results, figures = _execute(plan, RunCache(store, registry=registry), registry)
            out.cpu_s = process_time() - c0
            out.wall_s = perf_counter() - w0
        except Exception:  # a job that raises fails, the run goes on
            traceback.print_exc()
            out.failures = {job_label(c): "raised" for c in plan.configs}
            return out
        out.results = _unique(results)
        out.figures = figures
        out.stats = executor.stats()
        out.setup_s = sum(r.wall["scenario.build"][0] for r in out.results)
        out.sim_s = sum(r.config.duration for r in out.results)
        for r in out.results:
            why = check_job(workload, r, recorded)
            if why is not None:
                out.failures[job_label(r.config)] = why

        replay_registry = Registry()
        t0 = perf_counter()
        try:
            replay, replayed, replay_figures = _execute(
                plan, RunCache(store, registry=replay_registry), replay_registry
            )
        except Exception:
            traceback.print_exc()
            out.failures["pass"] = "replay raised"
            return out
        out.replay_s = perf_counter() - t0
        rstats = replay.stats()
        lookups = rstats.get("cache_hits", 0.0) + rstats.get("cache_misses", 0.0)
        out.replay_hit_frac = rstats.get("cache_hits", 0.0) / lookups if lookups else 0.0
        if replay_figures != figures:
            bad = sorted(f for f in figures if replay_figures.get(f) != figures[f])
            out.failures["pass"] = f"warm replay figure JSON differs: {bad}"
        cold = {job_label(r.config): digest(r) for r in out.results}
        warm = {job_label(r.config): digest(r) for r in _unique(replayed)}
        if cold != warm:
            out.failures["pass"] = "warm replay digests differ from the cold pass"
    return out
