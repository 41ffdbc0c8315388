"""Mobility model base class.

Positions are *functions of time*: each node follows a piecewise-linear
trajectory made of segments ``(t0, t1, origin, dest)``; within a segment
the node moves linearly from ``origin`` (at ``t0``) to ``dest`` (at
``t1``).  A pause is a segment with ``origin == dest``.

The base class stores all segments in flat numpy arrays so that
evaluating *every* node's position at a query time is a single
vectorized expression -- this is the hot path of the whole simulator
(the radio layer asks for all positions whenever a packet is sent).
Concrete models only implement :meth:`_next_segment`, which generates
the next segment for one node.

All models are deterministic given their ``numpy.random.Generator``.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

__all__ = ["Area", "MobilityModel", "NEVER_THRESHOLD"]

#: Segment end times at or beyond this are treated as "never expires"
#: (static nodes park on a pause of duration 1e12): their change
#: horizon is infinite instead of a bogus far-future wakeup.
NEVER_THRESHOLD = 1e10

#: Multiplicative slack applied to predicted cell-crossing offsets so
#: floating-point error can only *under*-estimate the true crossing
#: time.  An early horizon merely costs one spurious recompute; a late
#: one would leave a stale grid bin (wrong neighbor answers).
_CROSS_SLACK = 1.0 - 1e-9


class Area:
    """An axis-aligned rectangular deployment area ``[0,w] x [0,h]``.

    The paper deploys nodes on a 100 m x 100 m square.
    """

    __slots__ = ("width", "height")

    def __init__(self, width: float = 100.0, height: float = 100.0) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"area dimensions must be positive, got {width}x{height}")
        self.width = float(width)
        self.height = float(height)

    def contains(self, pts: np.ndarray, atol: float = 1e-9) -> np.ndarray:
        """Boolean mask: which rows of ``pts`` (n,2) lie inside the area."""
        pts = np.asarray(pts, dtype=float)
        return (
            (pts[..., 0] >= -atol)
            & (pts[..., 0] <= self.width + atol)
            & (pts[..., 1] >= -atol)
            & (pts[..., 1] <= self.height + atol)
        )

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Uniformly sample ``n`` points; returns an (n,2) array."""
        pts = rng.random((n, 2))
        pts[:, 0] *= self.width
        pts[:, 1] *= self.height
        return pts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Area({self.width}x{self.height})"


class MobilityModel(abc.ABC):
    """Piecewise-linear mobility with lazy, vectorized evaluation.

    Parameters
    ----------
    n:
        Number of nodes.
    area:
        Deployment area; initial positions are uniform over it.
    rng:
        Random stream (owned by this model).

    Subclasses implement :meth:`_next_segment` returning the duration and
    destination of a node's next movement segment.

    Notes
    -----
    Time must be queried non-decreasingly *per call site is not required*;
    the model keeps full history-free state and only supports forward
    queries (asking for a time before an already-generated segment start
    is fine; asking before a previous query is fine as long as it is not
    before the current segment's start, which cannot happen with a
    monotone simulation clock).
    """

    def __init__(self, n: int, area: Area, rng: np.random.Generator) -> None:
        if n <= 0:
            raise ValueError(f"need at least one node, got n={n}")
        self.n = int(n)
        self.area = area
        self.rng = rng
        init = area.sample(rng, self.n)
        # Each node draws from its own spawned stream so its trajectory is
        # a pure function of (seed, node) -- independent of how often or in
        # what order positions() is queried.
        self._rngs = rng.spawn(self.n)
        # Current segment per node.
        self._t0 = np.zeros(self.n)
        self._t1 = np.zeros(self.n)
        self._origin = init.copy()
        self._dest = init.copy()
        # Prime the first segment of every node so spans are positive.
        for i in range(self.n):
            dur, dest = self._next_segment(i, 0.0, init[i])
            if dur <= 0:
                raise ValueError(
                    f"{type(self).__name__}._next_segment returned duration {dur}"
                )
            self._t1[i] = dur
            self._dest[i] = dest

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _next_segment(
        self, i: int, t: float, pos: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Generate node ``i``'s next segment starting at time ``t``.

        Parameters
        ----------
        i: node index.
        t: segment start time.
        pos: node position at ``t`` (shape (2,)).

        Returns
        -------
        (duration, dest):
            Segment length in seconds (> 0) and destination point.  A
            pause returns ``(pause, pos)``.

        Implementations must draw randomness from ``self._rngs[i]`` only,
        so that node trajectories are independent of query order.
        """

    # ------------------------------------------------------------------
    def _refresh(self, t: float) -> None:
        """Roll expired segments forward so every segment covers ``t``."""
        expired = np.flatnonzero(self._t1 < t)
        for i in expired:
            # A node may complete several segments between queries.
            while self._t1[i] < t:
                start = self._t1[i]
                pos = self._dest[i]
                dur, dest = self._next_segment(int(i), float(start), pos)
                if dur <= 0:
                    raise ValueError(
                        f"{type(self).__name__}._next_segment returned duration {dur}"
                    )
                self._t0[i] = start
                self._t1[i] = start + dur
                self._origin[i] = pos
                self._dest[i] = dest

    def positions(self, t: float) -> np.ndarray:
        """All node positions at time ``t`` as an (n,2) float array.

        The returned array is freshly allocated; callers may mutate it.
        """
        self._refresh(t)
        span = self._t1 - self._t0
        # Pauses have span>0 too, so no division guard needed beyond this.
        frac = np.clip((t - self._t0) / span, 0.0, 1.0)[:, None]
        return self._origin + frac * (self._dest - self._origin)

    def position(self, i: int, t: float) -> np.ndarray:
        """Position of node ``i`` at time ``t`` (shape (2,))."""
        return self.positions(t)[i]

    def positions_of(self, ids: np.ndarray, t: float) -> np.ndarray:
        """Positions of the nodes in ``ids`` at time ``t``.

        Returns a freshly-allocated ``(len(ids), 2)`` array that is
        bitwise-identical to ``positions(t)[ids]``: the same elementwise
        IEEE operations are evaluated on the selected rows, so callers
        that track positions incrementally see exactly the floats the
        full evaluation would produce.
        """
        self._refresh(t)
        ids = np.asarray(ids, dtype=np.int64)
        t0 = self._t0[ids]
        span = self._t1[ids] - t0
        frac = np.clip((t - t0) / span, 0.0, 1.0)[:, None]
        origin = self._origin[ids]
        return origin + frac * (self._dest[ids] - origin)

    def current_segments(
        self, t: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the per-node segments ``(t0, t1, origin, dest)``.

        When ``t`` is given, expired segments are rolled forward first so
        every returned segment covers ``t``.  This is the contract
        surface the horizon math (and its invariant tests) rely on: within ``[t0, t1]`` the node is exactly at
        ``origin + clip((t - t0)/(t1 - t0), 0, 1) * (dest - origin)``.
        """
        if t is not None:
            self._refresh(t)
        return (
            self._t0.copy(),
            self._t1.copy(),
            self._origin.copy(),
            self._dest.copy(),
        )

    # ------------------------------------------------------------------
    # segment horizons
    # ------------------------------------------------------------------
    def next_change_horizon(
        self,
        t: float,
        pitch: Optional[float] = None,
        ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Earliest future time each node's state can change, closed form.

        Without ``pitch`` this is the **position-change horizon**: the
        earliest time strictly after ``t`` at which a node's position
        may differ from its position at ``t``.  Paused nodes (segment
        with ``origin == dest``) return their segment end ``t1`` -- the
        first instant a freshly-drawn segment could move them; parked
        nodes (``t1`` beyond :data:`NEVER_THRESHOLD`, e.g. the static
        model) return ``inf``; moving nodes return ``t`` itself (their
        position is changing continuously).

        With ``pitch`` this is the **cell-crossing horizon** for a
        uniform grid of that pitch: the earliest time after ``t`` at
        which ``floor(position / pitch)`` can change on either axis.
        For moving nodes the first grid-line crossing along the segment
        has a closed form from origin/velocity; the prediction is
        conservatively shrunk (it may only under-estimate the true
        crossing) and capped at the segment end ``t1``, past which the
        model re-randomizes and nothing can be predicted.  Paused nodes
        again return ``t1`` (or ``inf`` when parked forever).

        Horizons are *absolute* times and remain valid until the node's
        segment rolls over; callers may cache them and recompute only
        for nodes whose horizon has passed.  ``ids`` restricts the
        computation (and the returned array) to a subset of nodes.
        """
        self._refresh(t)
        t = float(t)
        if ids is None:
            t0, t1 = self._t0, self._t1
            origin, dest = self._origin, self._dest
        else:
            ids = np.asarray(ids, dtype=np.int64)
            t0, t1 = self._t0[ids], self._t1[ids]
            origin, dest = self._origin[ids], self._dest[ids]
        delta = dest - origin
        paused = (delta == 0.0).all(axis=1)
        horizon = np.where(paused & (t1 >= NEVER_THRESHOLD), np.inf, t1)
        moving = np.flatnonzero(~paused)
        if not moving.size:
            return horizon
        if pitch is None:
            horizon[moving] = t
            return horizon
        pitch = float(pitch)
        span = (t1 - t0)[moving]
        vel = delta[moving] / span[:, None]
        frac = np.clip((t - t0[moving]) / span, 0.0, 1.0)[:, None]
        pos = origin[moving] + frac * delta[moving]
        cell = np.floor(pos / pitch)
        # Per-axis time to the next grid line in the direction of travel.
        dt = np.full_like(pos, np.inf)
        fwd = vel > 0.0
        back = vel < 0.0
        dt[fwd] = ((cell + 1.0) * pitch - pos)[fwd] / vel[fwd]
        dt[back] = (pos - cell * pitch)[back] / -vel[back]
        cross = t + np.maximum(dt.min(axis=1), 0.0) * _CROSS_SLACK
        horizon[moving] = np.minimum(cross, t1[moving])
        return horizon
