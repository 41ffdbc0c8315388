"""Self-tests of the benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q

They run the benchmark's own pass, check and trace machinery on small
scenarios, so they take seconds rather than the minutes a workload does.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from perfbench import run as bench_run
from perfbench.bench import pass_summary, run_pass
from perfbench.checks import digest, invariant_errors, job_label, load_digests
from perfbench.workloads import END_TO_END, RUN_SECONDS, WORKLOADS, Pass, scenario_seed
from repro.experiments.figures import figure_configs
from repro.scenarios.config import ScenarioConfig


def _small(seed: int) -> Pass:
    """A 40-node fig-6 shape past the query warm-up: cheap, queries on."""
    return Pass([ScenarioConfig(num_nodes=40, algorithm="random", duration=70.0, seed=seed)])


def _small_figures(seed: int) -> Pass:
    settings = {"duration": 20.0, "reps": 2, "seed": seed}
    figs = ("fig5", "fig7")
    return Pass([c for f in figs for c in figure_configs(f, **settings)], figs, settings)


def test_same_seed_gives_identical_counts_and_digests(tmp_path):
    a = run_pass("small", _small(3), str(tmp_path), None)
    b = run_pass("small", _small(3), str(tmp_path), None)
    assert a.failures == {} and b.failures == {}
    assert [digest(r) for r in a.results] == [digest(r) for r in b.results]
    assert [r.events for r in a.results] == [r.events for r in b.results]
    assert a.results[0].counters == b.results[0].counters


def test_another_seed_fails_the_digest_check(tmp_path):
    seed3 = run_pass("small", _small(3), str(tmp_path), None)
    label = job_label(_small(4).configs[0])
    # the record for the seed-4 job holds the seed-3 outputs
    recorded = {"small": {label: digest(seed3.results[0])}}
    changed = run_pass("small", _small(4), str(tmp_path), recorded)
    assert changed.failures == {label: f"digest mismatch for {label}"}
    assert changed.failed == 1 and changed.jobs == 1


def test_a_job_without_a_recorded_digest_fails(tmp_path):
    out = run_pass("small", _small(3), str(tmp_path), {})
    label = job_label(_small(3).configs[0])
    assert out.failures == {label: f"no recorded digest for {label}"}


def test_broken_invariants_are_reported(tmp_path):
    result = run_pass("small", _small(3), str(tmp_path), None).results[0]
    assert invariant_errors(result) == []
    curves = dict(result.sorted_received)
    curves["ping"] = np.array(list(curves["ping"])[::-1] + [1])
    capped = dataclasses.replace(result.config, energy_capacity=1e-6)
    broken = dataclasses.replace(result, sorted_received=curves, config=capped)
    errors = invariant_errors(broken)
    assert any("curve ping" in e for e in errors)
    assert any("energy above capacity" in e for e in errors)


def test_figure_pass_dedups_and_replays_identically(tmp_path):
    out = run_pass("small", _small_figures(5), str(tmp_path), None)
    assert out.failures == {}
    assert out.requested == 16 and len(out.results) == 8
    assert out.stats["jobs_deduped"] == 8 and out.replay_hit_frac == 1.0
    assert set(out.figures) == {"fig5", "fig7"}


@pytest.mark.parametrize("plan", [_small, _small_figures], ids=["job", "figures"])
def test_traced_run_reports_every_per_layer_metric(tmp_path, plan):
    base = pass_summary(run_pass("small", plan(6), str(tmp_path), None))
    traced, (metrics, notes, na) = bench_run.run_traced("small", plan(6), None, base, str(tmp_path))
    names = [m["name"] for m in bench_run._layers()]
    assert list(metrics) == names
    assert base["failures"] == {} and traced.failures == {}
    assert notes == []  # every wrapper saw every call it should
    assert set(na) <= set(names)
    for name in na:
        assert metrics[name]["value"] == 0.0
    assert metrics["sim.events"]["value"] > 0
    assert metrics["radio.copies_delivered"]["value"] == metrics["energy.charges"]["value"] - metrics["radio.frames_sent"]["value"]
    assert os.path.exists(tmp_path / "trace-small.npz")


def test_self_time_is_duration_minus_child_coverage():
    from perfbench.spans import Tracer

    t = Tracer()
    outer, inner = t.name_id_for("outer"), t.name_id_for("inner")
    t.open(outer)
    t.open(inner)
    t.close()
    t.open(inner)
    t.close()
    t.close()
    dur = np.frombuffer(t.end) - np.frombuffer(t.start)
    self_s = t.self_seconds()
    assert self_s["inner"] == pytest.approx(dur[1] + dur[2])
    assert self_s["outer"] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert list(t.parent) == [-1, 0, 0]


def test_benchmark_json_matches_the_definitions():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    gated = [w for w in WORKLOADS.values() if w.gated]
    assert [w["name"] for w in doc["workloads"]] == [w.name for w in gated]
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in gated]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == [m["name"] for m in bench_run._layers()]
    assert doc["run_seconds"] == RUN_SECONDS
    only_ungated = {
        "energy.depleted",
        "flood.suppressed",
        "experiments.jobs_requested",
        "experiments.jobs_executed",
        "experiments.dedup_frac",
    }
    for m in bench_run._layers():
        assert set(m["on"]) <= set(WORKLOADS), m["name"]
        if m["name"] not in only_ungated:
            assert any(WORKLOADS[w].gated for w in m["on"]), m["name"]


def test_workload_plans_are_deterministic_and_seeded():
    for w in WORKLOADS.values():
        a, b = w.plan(scenario_seed(w, 7, 0)), w.plan(scenario_seed(w, 7, 0))
        assert a == b
        assert w.plan(scenario_seed(w, 8, 0)) != a
        # a run of the default length covers the whole pool
        bases = {scenario_seed(w, 7, p) for p in range(w.passes)}
        assert bases == {scenario_seed(w, 0, p) for p in range(w.passes)}
    fig5 = WORKLOADS["fig5_pass50"]
    plan = fig5.plan(scenario_seed(fig5, 1, 0))
    assert len(plan.configs) == 32 and len({job_label(c) for c in plan.configs}) == 8


def test_every_job_a_run_can_make_has_a_recorded_digest():
    recorded = load_digests()
    for w in WORKLOADS.values():
        for p in range(w.passes):
            for c in w.plan(scenario_seed(w, 0, p)).configs:
                assert job_label(c) in recorded.get(w.name, {}), (w.name, job_label(c))
