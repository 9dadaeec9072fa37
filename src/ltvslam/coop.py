"""Multi-robot cooperative SLAM through a shared medium.

Each robot runs its own pair-filter map in its own coordinate frame, all
stepped at once by :func:`ltvslam.dunk.pair_tick`.  Because no global
information exists, every map is free to translate and rotate: applying
a common (v, Omega) drift to all states of one map changes nothing
observable.  The algorithms here spend that freedom to make all maps
converge to one shared frame: each tick :func:`coop_step` derives every
robot's null-space drift from the medium variables (averages over
robots) and hands them to the one fleet pair tick.  Three modes:

* ``full``: every robot sees every landmark; medium holds per-map
  centers and their consensus.
* ``partial``: robots see subsets; the medium averages per-landmark
  positions and nearest-neighbor feature vectors.
* ``robots_only``: no landmarks; robots observe each other and the
  "landmarks" are moving vehicles with communicated speeds, plus a self
  pair tying each robot to its own vehicle estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import heading_forward
from .dunk import DunkNetwork, Drift, RobotStep, pair_tick

#: 90-degree rotation used in every heading-error descent formula.
J = np.array([[0.0, 1.0], [-1.0, 0.0]])

MODES = ("full", "partial", "robots_only")

#: Saturation of each robot's null-space rotation rate (rad/s).
OMEGA_MAX = 2.0

#: Gains of the null-space translation and rotation inputs.
GAMMA_V = 1.0
GAMMA_OMEGA = 4.0


@dataclass
class RobotMap:
    """One robot's pair-filter map."""

    net: DunkNetwork

    def landmark_positions(self) -> dict[int, np.ndarray]:
        est = self.net.estimates()
        return dict(zip(est.ids, est.X))


@dataclass(frozen=True)
class MediumState:
    """Everything the central medium computed for one tick."""

    x_ic: dict          # robot id -> map center
    x_cc: np.ndarray | None
    x_ck: dict          # landmark id -> average position over observers
    rows: dict          # robot id -> its row of the stack (landmark_stack)
    X: np.ndarray       # (R, K, 2) the stack's positions
    seen: np.ndarray    # (R, K) which robot holds which landmark
    xck: np.ndarray     # (K, 2) x_ck by column
    kstar: np.ndarray   # (K,) k*'s column by column, -1 where none (partial mode only)
    agreeing: np.ndarray  # (R, K, 2) NN features agreeing with k*, else 0
    ck: np.ndarray      # (K, 2) c_k by column, 0 where none
    e_c: float = 0.0
    e_h: float = 0.0


@dataclass(frozen=True)
class RobotTick:
    """One robot's inputs and observations for one tick."""

    u: float
    omega_m: float
    observations: dict = field(default_factory=dict)   # id -> SensorBundle
    heading_diffs: dict = field(default_factory=dict)  # id -> theta_ij (robots_only)
    speeds: dict = field(default_factory=dict)         # id -> u_j (robots_only)


# ---------------------------------------------------------------------------
# Medium variables
# ---------------------------------------------------------------------------

def landmark_stack(maps: dict[int, RobotMap]
                   ) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Read each map once: ``(positions, ids, X, seen)``.

    ``positions`` maps each robot id, in sorted order, to its landmark
    positions.  The stack has one row per robot in that order and one
    column per mapped landmark: ``ids`` (K,) holds the landmark ids,
    sorted; ``X`` (R, K, 2) the positions, 0 where the robot lacks the
    landmark; and ``seen`` (R, K) marks which robot holds which landmark.
    """
    positions = {i: maps[i].landmark_positions() for i in sorted(maps)}
    ids = np.array(sorted(set().union(*positions.values())), dtype=int)
    X = np.zeros((len(positions), ids.size, 2))
    seen = np.zeros(X.shape[:2], dtype=bool)
    for r, pos in enumerate(positions.values()):
        if pos:
            cols = ids.searchsorted(list(pos))
            X[r, cols], seen[r, cols] = list(pos.values()), True
    return positions, ids, X, seen


def nn_features(X: np.ndarray, seen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of the stack, the column of the nearest other landmark in the
    same robot's map (ties to the lowest id) and the vector a to it.

    A cell has no feature, column -1 and a = 0, where its robot lacks the
    landmark or holds fewer than two.
    """
    K = X.shape[1]
    dist = np.linalg.norm(X[:, :, None] - X[:, None], axis=3)
    dist = np.where(seen[:, None, :] & ~np.eye(K, dtype=bool), dist, np.inf)
    nearest = dist.argmin(axis=2)
    has = seen & (seen.sum(axis=1) > 1)[:, None]
    a = X - np.take_along_axis(X, nearest[..., None], axis=1)
    return np.where(has, nearest, -1), np.where(has[..., None], a, 0.0)


def medium_update(maps: dict[int, RobotMap], mode: str) -> MediumState:
    """Recompute all medium variables from one read of each map's positions.

    Each is a masked reduction over the stack of :func:`landmark_stack`.
    The center error e_c and heading error e_h sum over all robot pairs.
    With partial visibility per-map centers differ even on a perfectly
    merged map (each robot averages a different landmark subset), so the
    partial-mode e_c compares commonly mapped landmarks instead; its e_h
    compares nearest-neighbor features only between robots agreeing on
    the neighbor, since the features are undefined otherwise.  The
    partial mode also rules on each landmark's nearest neighbor k*: among
    the robots with a feature for landmark k, the one with the smallest
    ||a_ik|| wins, ties to the lowest robot id; c_k averages the features
    that agree with it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    positions, ids, X, seen = landmark_stack(maps)
    n = seen.sum(axis=1)
    xic = X.sum(axis=1) / np.maximum(n, 1)[:, None]
    xck = X.sum(axis=0) / seen.sum(axis=0)[:, None]   # every column has an observer
    rows = {i: r for r, i in enumerate(positions)}
    x_ic = {i: xic[r] for i, r in rows.items() if n[r]}   # centers of non-empty maps
    x_cc = xic[n > 0].mean(axis=0) if n.any() else None
    row = np.arange(len(rows))
    a, b = np.nonzero(row[:, None] < row)   # robot pairs
    common = seen[a] & seen[b]
    e_c = e_h = 0.0
    kstar = np.full(ids.size, -1)   # read in partial mode only, as are these two
    agreeing, ck = np.zeros_like(X), np.zeros_like(xck)
    if mode != "partial":
        both = (n[a] > 0) & (n[b] > 0)
        e_c = float(np.sum((xic[a] - xic[b])[both] ** 2))
        D = X - xic[:, None]
        e_h = float(np.sum((D[a] - D[b])[common] ** 2))
    elif ids.size:   # the argmins need a landmark
        e_c = float(np.sum((X[a] - X[b])[common] ** 2))
        nearest, feat = nn_features(X, seen)
        has = nearest >= 0
        norm = np.where(has, np.linalg.norm(feat, axis=2), np.inf)
        kstar = np.take_along_axis(nearest, norm.argmin(axis=0)[None], axis=0)[0]
        agree = has & (nearest == kstar)
        agreeing = np.where(agree[..., None], feat, 0.0)
        ck = agreeing.sum(axis=0) / np.maximum(agree.sum(axis=0), 1)[:, None]
        same = has[a] & has[b] & (nearest[a] == nearest[b])
        e_h = float(np.sum((feat[a] - feat[b])[same] ** 2))
    return MediumState(x_ic=x_ic, x_cc=x_cc, x_ck=dict(zip(ids.tolist(), xck)),
                       rows=rows, X=X, seen=seen, xck=xck, kstar=kstar,
                       agreeing=agreeing, ck=ck, e_c=e_c, e_h=e_h)


# ---------------------------------------------------------------------------
# Null-space inputs
# ---------------------------------------------------------------------------

def _descent_rate(a: np.ndarray, c: np.ndarray) -> float:
    """GAMMA_OMEGA * Sum a^T J c / Sum ||a|| ||c|| over the rows of a and c; 0 if none."""
    moment = float(np.hypot(*a.T) @ np.hypot(*c.T))
    return GAMMA_OMEGA * float(np.sum((a @ J) * c)) / moment if moment > 0.0 else 0.0


def null_drift(i: int, medium: MediumState, mode: str) -> Drift:
    """Robot i's null-space input, read off its row of the medium's stack.

    The translation v_i pulls the map toward the medium: by x_cc - x_ic,
    or in the partial mode by Sum_k (x_ck - x_ik) over its landmarks.  The
    rotation rate descends the heading error: omega_i ~ Sum_k
    (x_ik - x_ic)^T J x_ck about the map center, or in the partial mode
    Sum_k a_ik^T J c_k over its features agreeing with k* (the row's other
    cells are 0 and add nothing) about the origin.  The raw torque scales
    with the squared map extent, so it is normalized by the moment
    Sum ||x_ik - x_ic|| ||x_ck|| (Sum ||a_ik|| ||c_k||): for a small
    misalignment angle delta the rate is about GAMMA_OMEGA * sin(delta),
    independent of map size (and stable for GAMMA_OMEGA * dt << 1).  It
    saturates at OMEGA_MAX.
    """
    r = medium.rows[i]
    s = medium.seen[r]
    center = medium.x_ic.get(i)
    if mode == "partial":
        v = np.sum(medium.xck[s] - medium.X[r, s], axis=0)
        w = _descent_rate(medium.agreeing[r], medium.ck)
        center = None
    elif center is None:   # an empty map
        v, w = np.zeros(2), 0.0
    else:
        v = medium.x_cc - center
        w = _descent_rate(medium.X[r, s] - center, medium.xck[s])
    return Drift(v=GAMMA_V * v, omega=min(max(w, -OMEGA_MAX), OMEGA_MAX),
                 center=center)


# ---------------------------------------------------------------------------
# The cooperative step
# ---------------------------------------------------------------------------

def coop_step(maps: dict[int, RobotMap], ticks: dict[int, RobotTick],
              mode: str, medium: MediumState | None = None) -> MediumState:
    """One synchronized tick for every robot, then a medium recomputation.

    The null-space drift v_i + Omega_i (x - x_ic) is applied uniformly to
    all states of robot i's map; with a single robot it vanishes and the
    step is exactly the plain pair-filter step.  A divergence names the
    robot and the landmark.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if medium is None:
        medium = medium_update(maps, mode)
    if maps:
        pair_tick(_robot_steps(maps, ticks, mode, medium))
    return medium_update(maps, mode)


def _robot_steps(maps: dict[int, RobotMap], ticks: dict[int, RobotTick], mode: str,
                 medium: MediumState) -> list[RobotStep]:
    """Each robot's share of the fleet tick, in robot id order."""
    steps, robots = [], mode == "robots_only"
    for i in sorted(maps):
        net, tick = maps[i].net, ticks[i]
        targets = ({k: tick.speeds[k] * heading_forward(net.beta_hat + tick.heading_diffs[k])
                    for k in tick.speeds if k in tick.heading_diffs} if robots else None)
        steps.append(RobotStep(net, tick.u, tick.omega_m, tick.observations,
                               null_drift(i, medium, mode) if len(maps) > 1 else None,
                               i if robots else None, targets, i))
    return steps
