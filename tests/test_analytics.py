"""AnalyticsEngine: world-view semantics, API surface, pool sizing.

The engine is stateless: every call recomputes from the
:mod:`repro.metrics.graphfast` kernels.  These tests pin the legacy
component semantics against a networkx oracle (including a node dying
between calls), the one-CSR-per-call small-world bundle, the
legacy-module surface, the shared ``--processes`` sizing helpers, and
that archived runs carrying the retired lane knobs still load.
"""

import json

import networkx as nx
import numpy as np
import pytest

from repro.cli import build_parser
from repro.metrics import smallworld as smallworld_mod
from repro.metrics import connectivity as connectivity_mod
from repro.metrics.analytics import AnalyticsEngine
from repro.parallel import default_chunksize, resolve_processes
from repro.scenarios import ScenarioConfig, run_scenario
from repro.scenarios.runner import RunResult

from .helpers import line_positions, make_world


# ----------------------------------------------------------------------
# shared pool-sizing helpers (repro.parallel)
# ----------------------------------------------------------------------
class TestPoolHelpers:
    def test_resolve_default_is_cpu_count(self):
        assert resolve_processes(None) >= 1

    def test_resolve_explicit(self):
        assert resolve_processes(3) == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_resolve_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            resolve_processes(bad)

    def test_chunksize_policy(self):
        # ceil(jobs / 4p), floored at 1, capped at 32 -- the sweep policy.
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(1, 4) == 1
        assert default_chunksize(17, 4) == 2
        assert default_chunksize(10_000, 4) == 32

    def test_chunksize_rejects_negative_jobs(self):
        with pytest.raises(ValueError):
            default_chunksize(-1, 4)


def _rgg(n, radius, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * 100.0
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u in range(n):
        d = np.hypot(*(pts - pts[u]).T)
        for v in np.flatnonzero(d <= radius):
            if v > u:
                g.add_edge(u, int(v))
    return g


# ----------------------------------------------------------------------
# world views: legacy component semantics, down nodes
# ----------------------------------------------------------------------
def _nx_components_oracle(world):
    """Independent reimplementation of the historical component contract."""
    indptr, indices = world.topology.csr()
    down = world.down_mask()
    g = nx.Graph()
    g.add_nodes_from(range(world.n))
    for u in range(world.n):
        for v in indices[indptr[u] : indptr[u + 1]]:
            g.add_edge(u, int(v))
    comps = [
        sorted(c) for c in nx.connected_components(g) if not down[min(c)]
    ]
    empties = int(down.sum())
    return sorted(map(tuple, comps)), empties


def _engine_components_as_sets(engine, world):
    comps = engine.components(world)
    empties = sum(1 for c in comps if len(c) == 0)
    nonempty = sorted(tuple(int(i) for i in c) for c in comps if len(c))
    return nonempty, empties


class TestWorldAnalytics:
    def test_components_match_oracle(self):
        _, world, _ = make_world(
            line_positions(4, spacing=8.0) + [[700, 700], [708, 700], [300, 0]]
        )
        eng = AnalyticsEngine(registry=world.registry)
        assert _engine_components_as_sets(eng, world) == _nx_components_oracle(world)
        # largest-first ordering
        sizes = [len(c) for c in eng.components(world)]
        assert sizes == sorted(sizes, reverse=True)

    def test_down_node_mid_interval_regression(self):
        """A node dying between calls must show up in the components.

        ``set_down`` invalidates the topology snapshot; the next call
        must see the node's edges vanish -- including when the removal
        *splits* a component -- and see them return on revival.
        """
        _, world, _ = make_world(line_positions(6, spacing=8.0))
        eng = AnalyticsEngine(registry=world.registry)
        before = _engine_components_as_sets(eng, world)
        assert before == _nx_components_oracle(world)
        world.set_down(2)  # splits the line: {0,1} and {3,4,5}
        after = _engine_components_as_sets(eng, world)
        assert after == _nx_components_oracle(world)
        nonempty, empties = after
        assert empties == 1
        assert nonempty == [(0, 1), (3, 4, 5)]
        # ...and back up again (edges return, components merge)
        world.set_down(2, False)
        assert _engine_components_as_sets(eng, world) == _nx_components_oracle(world)


# ----------------------------------------------------------------------
# legacy modules: deprecation cycle elapsed, wrappers removed
# ----------------------------------------------------------------------
class TestLegacyModuleSurface:
    def test_smallworld_keeps_only_closed_forms(self):
        assert sorted(smallworld_mod.__all__) == [
            "random_graph_pathlength",
            "regular_graph_pathlength",
        ]
        for name in (
            "clustering_coefficient",
            "characteristic_path_length",
            "smallworld_stats",
        ):
            assert not hasattr(smallworld_mod, name)

    def test_connectivity_keeps_only_closed_form(self):
        assert connectivity_mod.__all__ == ["expected_mean_degree"]
        for name in ("components", "connectivity_stats", "reachable_pair_fraction"):
            assert not hasattr(connectivity_mod, name)
        assert connectivity_mod.expected_mean_degree(
            50, 100.0, 100.0, 10.0
        ) == pytest.approx(49 * np.pi / 100.0)


#: ScenarioConfig fields retired with the topology-refresh and
#: analytics lanes; archived runs still carry them.
RETIRED_CONFIG_KEYS = {
    "topology_refresh": "predictive",
    "topology_delta": True,
    "analytics_exec": "serial",
    "analytics_mode": "incremental",
    "analytics_processes": None,
}


class TestConfigAndCli:
    def test_old_config_dicts_still_load(self):
        cfg = ScenarioConfig(num_nodes=10, duration=5.0, seed=4)
        d = json.loads(json.dumps(run_scenario(cfg).to_dict()))
        assert not RETIRED_CONFIG_KEYS.keys() & d["config"].keys()
        d["config"].update(RETIRED_CONFIG_KEYS)
        loaded = RunResult.from_dict(d)
        assert loaded.config == cfg
        assert loaded.to_dict()["config"] == cfg.to_dict()

    def test_cli_run_flags(self):
        parser = build_parser()
        assert parser.parse_args(["run", "--seed", "3"]).seed == 3
        for retired in (
            ["--analytics", "parallel"],
            ["--analytics-mode", "full"],
            ["--topology-refresh", "full"],
            ["--processes", "2"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(["run", *retired])

    def test_cli_sweep_has_processes_flag(self):
        args = build_parser().parse_args(
            ["sweep", "nodes", "10", "20", "--processes", "3"]
        )
        assert args.processes == 3


def test_smallworld_stats_builds_one_csr_per_harvest():
    """The legacy module built the CSR once per metric; the engine once."""
    g = _rgg(40, 15.0, seed=13)
    eng = AnalyticsEngine()
    builds = []
    import repro.metrics.analytics as analytics_mod

    real = analytics_mod.graph_csr

    def counting(graph):
        builds.append(1)
        return real(graph)

    analytics_mod.graph_csr = counting
    try:
        eng.smallworld_stats(g)
    finally:
        analytics_mod.graph_csr = real
    assert len(builds) == 1
