"""The diffed topology refresh answers exactly like a fresh backend.

A refresh diffs positions against the previous snapshot, re-bins only
nodes whose grid cell changed, and keeps the distance cache (and, on
the sparse backend, the CSR) when nothing moved.  The oracle here is a
*freshly constructed* backend of the same class on the same world: it
has no history, so it computes every answer from scratch.  At each
checkpoint -- under random-waypoint mobility, churn and finite energy,
on dense and sparse backends, for several seeds -- ``neighbors``,
``link``, ``csr`` and ``hops_from`` must agree exactly.  Unit coverage
of the adjacency-epoch contract follows.
"""

import numpy as np
import pytest

from repro.mobility import Area, RandomWaypoint, Static
from repro.net import World
from repro.obs.compare import TOPOLOGY_COST_METRICS, is_cost_key
from repro.scenarios.builder import build_scenario
from repro.scenarios.churn import ChurnProcess
from repro.scenarios.config import ScenarioConfig
from repro.sim import Simulator

SEEDS = (1, 2, 3)


def advance(world, t):
    world.sim.schedule_at(t, lambda: None)
    world.sim.run(until=t)


def assert_matches_fresh_backend(world, sources=None):
    """Every query on ``world.topology`` equals a from-scratch backend's."""
    topo = world.topology
    fresh = type(topo)(world)
    n = world.n
    for i in range(n):
        np.testing.assert_array_equal(topo.neighbors(i), fresh.neighbors(i))
    for i in range(0, n, 3):
        for j in range(n):
            assert topo.link(i, j) == fresh.link(i, j)
    for got, want in zip(topo.csr(), fresh.csr()):
        np.testing.assert_array_equal(got, want)
    for src in sources if sources is not None else range(0, n, 4):
        np.testing.assert_array_equal(topo.hops_from(src), fresh.hops_from(src))


@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_refresh_matches_fresh_backend_in_scenarios(seed, topology):
    """Full scenarios with churn and finite energy, checked every 2 s."""
    cfg = ScenarioConfig(
        num_nodes=40,
        duration=40.0,
        seed=seed,
        energy_capacity=0.02,
        topology=topology,
        # Exact per-timestamp snapshots, so the fresh backend sees the
        # same positions as the refreshed one at every checkpoint.
        snapshot_interval=0.0,
    )
    simulation = build_scenario(cfg)
    churn = ChurnProcess(
        simulation.sim,
        simulation.world,
        np.random.default_rng(10_000 + seed),
        death_rate=0.05,
        mean_downtime=10.0,
    )
    churn.start()
    world = simulation.world
    checks = []

    def checkpoint():
        assert_matches_fresh_backend(world)
        checks.append(world.sim.now)

    for t in np.arange(2.0, cfg.duration, 2.0):
        simulation.sim.schedule_at(float(t), checkpoint)
    simulation.run()
    assert len(checks) == 19
    # The checkpoints saw diffed refreshes, churn deaths and depletion.
    assert world.topology.delta_rebuilds > 0
    assert churn.deaths > 0
    assert world.energy.depleted().any()


def test_topology_cost_keys_classified():
    for name in TOPOLOGY_COST_METRICS:
        assert is_cost_key(name)
    assert is_cost_key("topology.dist_cache_hits{backend=sparse,layer=topology}")
    assert is_cost_key("graphfast.bfs_sources{layer=metrics}")
    assert is_cost_key("kernel.heap_pushes")
    assert not is_cost_key("kernel.events_dispatched")
    assert not is_cost_key("radio.frames_delivered")


# ----------------------------------------------------------------------
# adjacency-epoch contract (unit level)
# ----------------------------------------------------------------------
def _static_world(n, topology, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * 60.0
    mobility = Static(n, Area(1000.0, 1000.0), rng, positions=pts)
    return World(Simulator(), mobility, radio_range=12.0, topology=topology)


def _waypoint_world(n, topology, seed=0):
    mobility = RandomWaypoint(
        n, Area(60.0, 60.0), np.random.default_rng(seed), max_speed=8.0, max_pause=1.0
    )
    return World(Simulator(), mobility, radio_range=12.0, topology=topology)


@pytest.mark.parametrize("topology", ["dense", "sparse"])
class TestAdjacencyEpoch:
    def test_epoch_stands_still_when_nothing_moves(self, topology):
        world = _static_world(12, topology)
        world.neighbors(0)
        e0 = world.adjacency_epoch
        for t in (1.0, 2.0, 3.0):
            advance(world, t)
            world.neighbors(0)
        # Static nodes: every refresh finds nothing moved.
        assert world.adjacency_epoch == e0
        assert world.topology.delta_rebuilds == 3

    def test_dist_cache_survives_static_refreshes(self, topology):
        world = _static_world(12, topology)
        world.hops_from(0)
        hits0 = world.topology.dist_cache_hits
        advance(world, 5.0)
        world.hops_from(0)  # same epoch: memoized vector must survive
        assert world.topology.dist_cache_hits == hits0 + 1

    def test_invalidate_advances_epoch(self, topology):
        world = _static_world(12, topology)
        world.neighbors(0)
        e0 = world.adjacency_epoch
        world.set_down(3)
        assert world.adjacency_epoch > e0

    def test_motion_that_changes_links_advances_epoch(self, topology):
        world = _waypoint_world(20, topology, seed=2)
        world.hops_from(0)
        e0 = world.adjacency_epoch
        # 10 s at up to 8 m/s across a 60 m square must flip some link.
        advance(world, 10.0)
        world.hops_from(0)
        assert world.adjacency_epoch > e0


class TestSparseDeltaInternals:
    def test_csr_survives_static_refreshes(self):
        world = _static_world(15, "sparse")
        world.degrees()  # forces a CSR build
        builds0 = world.topology.csr_builds
        for t in (1.0, 2.0):
            advance(world, t)
            world.degrees()
        assert world.topology.csr_builds == builds0

    def test_moved_nodes_counted(self):
        world = _waypoint_world(20, "sparse", seed=3)
        world.neighbors(0)
        advance(world, 5.0)
        world.neighbors(0)
        assert world.topology.moved_nodes > 0


@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_queries_identical_under_mobility(seed, topology):
    """Every query answer matches a fresh backend at every step."""
    world = _waypoint_world(25, topology, seed=seed)
    for t in np.linspace(0.5, 20.0, 14):
        advance(world, float(t))
        assert_matches_fresh_backend(world, sources=(0, 7, 19))
        np.testing.assert_array_equal(
            world.degrees(), type(world.topology)(world).degrees()
        )
    # A backwards clock (the kernel never rewinds; poke it directly)
    # is diffed like any other refresh and must stay exact.
    world.sim._now = 3.0
    assert_matches_fresh_backend(world, sources=(0, 7, 19))
