"""Topology answers under sustained motion do not depend on refresh history.

Every refresh diffs positions against the previous snapshot, so the
backend's state at time ``t`` is the product of all refreshes before
it.  Two worlds with the same mobility seed -- one refreshed at a fine
cadence (many small diffs), one only at coarse checkpoints (few large
diffs) -- must give identical answers at every checkpoint, and both
must match a freshly constructed backend that has no history at all.
"""

import numpy as np
import pytest

from repro.mobility import Area, RandomWaypoint
from repro.net import World
from repro.sim import Simulator

SEEDS = (1, 2, 3)


def advance(world, t):
    world.sim.schedule_at(t, lambda: None)
    world.sim.run(until=t)


def _waypoint_world(n, topology, seed):
    mobility = RandomWaypoint(
        n,
        Area(60.0, 60.0),
        np.random.default_rng(seed),
        max_speed=8.0,
        min_speed=2.0,
        max_pause=1.0,
    )
    return World(
        Simulator(), mobility, radio_range=12.0, topology=topology, snapshot_interval=0.0
    )


@pytest.mark.parametrize("topology", ["dense", "sparse"])
@pytest.mark.parametrize("seed", SEEDS)
def test_lockstep_queries_identical_under_mobility(seed, topology):
    """Fine- and coarse-cadence refreshes agree with each other and a fresh backend."""
    n = 25
    fine = _waypoint_world(n, topology, seed)
    coarse = _waypoint_world(n, topology, seed)
    checkpoints = np.linspace(2.0, 20.0, 10)
    previous = 0.0
    for t in checkpoints:
        # The fine world refreshes at every intermediate step.
        for s in np.linspace(previous, t, 8)[1:-1]:
            advance(fine, float(s))
            fine.neighbors(0)
            fine.hops_from(7)
        advance(fine, float(t))
        advance(coarse, float(t))
        previous = float(t)
        fresh = type(fine.topology)(fine)
        for i in range(n):
            np.testing.assert_array_equal(fine.neighbors(i), coarse.neighbors(i))
            np.testing.assert_array_equal(fine.neighbors(i), fresh.neighbors(i))
        for src in (0, 7, 19):
            np.testing.assert_array_equal(fine.hops_from(src), coarse.hops_from(src))
            np.testing.assert_array_equal(fine.hops_from(src), fresh.hops_from(src))
        np.testing.assert_array_equal(fine.degrees(), coarse.degrees())
        np.testing.assert_array_equal(fine.adjacency(), coarse.adjacency())
    # Nodes really moved between refreshes on both worlds.
    assert fine.topology.delta_rebuilds > coarse.topology.delta_rebuilds > 0
    assert coarse.topology.moved_nodes > 0
