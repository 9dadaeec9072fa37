"""Multi-robot cooperative SLAM through a shared medium.

Each robot runs its own pair-filter map in its own coordinate frame,
stepped by :func:`ltvslam.dunk.pair_tick`.  Because no global
information exists, every map is free to translate and rotate: applying
a common (v, Omega) drift to all states of one map changes nothing
observable.  The algorithms here spend that freedom to make all maps
converge to one shared frame: each tick :func:`coop_step` derives every
robot's null-space drift from the medium variables (averages over
robots) and hands it to the shared pair tick.  Three modes:

* ``full``: every robot sees every landmark; medium holds per-map
  centers and their consensus.
* ``partial``: robots see subsets; the medium averages per-landmark
  positions and nearest-neighbor feature vectors.
* ``robots_only``: no landmarks; robots observe each other and the
  "landmarks" are moving vehicles with communicated speeds, plus a self
  pair tying each robot to its own vehicle estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import heading_forward
from .dunk import DunkNetwork, Drift, pair_tick

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
class NNFeature:
    """Nearest-neighbor feature vector of landmark k in one robot's map."""

    neighbor: int
    a: np.ndarray


@dataclass(frozen=True)
class MediumState:
    """Everything the central medium computed for one tick."""

    positions: dict     # robot id -> its landmark positions
    x_ic: dict          # robot id -> map center
    x_cc: np.ndarray | None
    x_ck: dict          # landmark id -> average position over observers
    c_k: dict           # landmark id -> average NN feature over agreeing robots
    k_star: dict        # landmark id -> coordinated nearest-neighbor id
    features: dict = field(default_factory=dict)  # robot id -> its NN features
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

def nn_features(pos: dict[int, np.ndarray]) -> dict[int, NNFeature]:
    """Per landmark of one map's positions, the vector to its nearest neighbor."""
    if len(pos) < 2:
        return {}
    ids = sorted(pos)   # ties go to the lowest id
    X = np.array([pos[k] for k in ids])
    dist = np.linalg.norm(X[:, None] - X[None], axis=2)
    np.fill_diagonal(dist, np.inf)
    nearest = dict(zip(ids, np.argmin(dist, axis=1)))
    return {k: NNFeature(neighbor=ids[nearest[k]], a=x - X[nearest[k]])
            for k, x in pos.items()}


def coordinate_k_star(all_feats: dict[int, dict[int, NNFeature]]) -> dict[int, int]:
    """The medium's ruling on each landmark's true nearest neighbor.

    Among all robots reporting a feature for landmark k, the neighbor
    claimed by the robot with the smallest ||a_ik|| wins; ties break
    toward the lowest robot id.
    """
    k_star = {}
    claims: dict[int, list] = {}
    for i in sorted(all_feats):
        for k, f in all_feats[i].items():
            claims.setdefault(k, []).append((float(np.linalg.norm(f.a)), i, f.neighbor))
    for k, entries in claims.items():
        entries.sort()
        k_star[k] = entries[0][2]
    return k_star


def medium_update(maps: dict[int, RobotMap], mode: str) -> MediumState:
    """Recompute all medium variables from one read of each map's positions."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    positions = {i: m.landmark_positions() for i, m in maps.items()}
    x_ic = {i: np.mean(list(pos.values()), axis=0)   # centers of non-empty maps
            for i, pos in positions.items() if pos}
    x_cc = np.mean(list(x_ic.values()), axis=0) if x_ic else None
    observers: dict[int, list] = {}
    for pos in positions.values():
        for k, x in pos.items():
            observers.setdefault(k, []).append(x)
    x_ck = {k: np.mean(xs, axis=0) for k, xs in observers.items()}
    feats, k_star, c_k = {}, {}, {}   # read by the partial mode only
    if mode == "partial":
        feats = {i: nn_features(pos) for i, pos in positions.items()}
        k_star = coordinate_k_star(feats)
        for k, kstar in k_star.items():
            agreeing = [feats[i][k].a for i in sorted(feats)
                        if k in feats[i] and feats[i][k].neighbor == kstar]
            if agreeing:
                c_k[k] = np.mean(agreeing, axis=0)
    e_c, e_h = heading_errors(positions, x_ic, feats, mode)
    return MediumState(positions=positions, x_ic=x_ic, x_cc=x_cc, x_ck=x_ck,
                       c_k=c_k, k_star=k_star, features=feats, e_c=e_c, e_h=e_h)


def heading_errors(pos: dict, x_ic: dict, feats: dict,
                   mode: str) -> tuple[float, float]:
    """Center error e_c and heading error e_h over all robot pairs.

    Takes per-robot landmark positions, map centers and NN features.
    With partial visibility per-map centers differ even on a perfectly
    merged map (each robot averages a different landmark subset), so the
    partial-mode e_c compares commonly mapped landmarks instead; its e_h
    compares nearest-neighbor features only between robots agreeing on
    the neighbor, since the features are undefined otherwise.
    """
    e_c = e_h = 0.0
    for i, j in itertools.combinations(sorted(pos), 2):
        if mode == "partial":
            for k in set(pos[i]) & set(pos[j]):
                e_c += float(np.sum((pos[i][k] - pos[j][k]) ** 2))
            for k in set(feats[i]) & set(feats[j]):
                fi, fj = feats[i][k], feats[j][k]
                if fi.neighbor == fj.neighbor:
                    e_h += float(np.sum((fi.a - fj.a) ** 2))
        elif i in x_ic and j in x_ic:
            e_c += float(np.sum((x_ic[i] - x_ic[j]) ** 2))
            for k in set(pos[i]) & set(pos[j]):
                di = pos[i][k] - x_ic[i]
                dj = pos[j][k] - x_ic[j]
                e_h += float(np.sum((di - dj) ** 2))
    return e_c, e_h


# ---------------------------------------------------------------------------
# Null-space inputs
# ---------------------------------------------------------------------------

def null_translation(i: int, medium: MediumState, mode: str) -> np.ndarray:
    """Translation input pulling robot i's map toward the medium."""
    if mode in ("full", "robots_only"):
        if medium.x_cc is None or i not in medium.x_ic:
            return np.zeros(2)
        return GAMMA_V * (medium.x_cc - medium.x_ic[i])
    v = np.zeros(2)
    for k, x_ik in medium.positions[i].items():
        if k in medium.x_ck:
            v += medium.x_ck[k] - x_ik
    return GAMMA_V * v


def _descent_rate(pairs) -> float:
    """GAMMA_OMEGA * Sum a^T J c / Sum ||a|| ||c|| over (a, c) pairs; 0 if none."""
    w, moment = 0.0, 0.0
    for a, c in pairs:
        w += float(a @ J @ c)
        moment += float(np.linalg.norm(a) * np.linalg.norm(c))
    return GAMMA_OMEGA * w / moment if moment > 0.0 else 0.0


def null_rotation_full(i: int, medium: MediumState) -> float:
    """Heading-error descent omega_i ~ Sum_k (x_ik - x_ic)^T J x_ck.

    The raw torque scales with the squared map extent, so it is
    normalized by the moment Sum ||x_ik - x_ic|| ||x_ck||: for a small
    misalignment angle delta the result is about GAMMA_OMEGA * sin(delta),
    an angular rate independent of map size (and stable for
    GAMMA_OMEGA * dt << 1).
    """
    if i not in medium.x_ic:
        return 0.0
    x_ic = medium.x_ic[i]
    return _descent_rate([
        (x_ik - x_ic, medium.x_ck[k])
        for k, x_ik in medium.positions[i].items() if k in medium.x_ck])


def null_rotation_partial(i: int, medium: MediumState) -> float:
    """omega_i ~ Sum_k a_ik^T J c_k over features agreeing with k*.

    Uses the features the medium computed for robot i's map.  Normalized by
    Sum ||a_ik|| ||c_k|| for the same scale-free angular rate as
    :func:`null_rotation_full`.
    """
    return _descent_rate([
        (f.a, medium.c_k[k])
        for k, f in medium.features.get(i, {}).items()
        if medium.k_star.get(k) == f.neighbor and k in medium.c_k])


def null_drift(i: int, medium: MediumState, mode: str) -> Drift:
    """Robot i's null-space input: v_i, saturated omega_i and the rotation center."""
    if mode == "partial":
        w = null_rotation_partial(i, medium)
        center = None   # partial-information rotation acts about the origin
    else:
        w = null_rotation_full(i, medium)
        center = medium.x_ic.get(i)
    return Drift(v=null_translation(i, medium, mode),
                 omega=float(np.clip(w, -OMEGA_MAX, OMEGA_MAX)),
                 center=center)


# ---------------------------------------------------------------------------
# The cooperative step
# ---------------------------------------------------------------------------

def coop_step(maps: dict[int, RobotMap], ticks: dict[int, RobotTick],
              mode: str, medium: MediumState | None = None) -> MediumState:
    """One synchronized tick for every robot, then a medium recomputation.

    The null-space drift v_i + Omega_i (x - x_ic) is applied uniformly to
    all states of robot i's map; with a single robot it vanishes and the
    step is exactly the plain pair-filter step.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if medium is None:
        medium = medium_update(maps, mode)
    multi = len(maps) > 1

    for i in sorted(maps):
        m, tick = maps[i], ticks[i]
        drift = null_drift(i, medium, mode) if multi else None
        if mode == "robots_only":
            targets = {k: tick.speeds[k] * heading_forward(
                           m.net.beta_hat + tick.heading_diffs[k])
                       for k in tick.speeds if k in tick.heading_diffs}
            pair_tick(m.net, tick.u, tick.omega_m, tick.observations, drift,
                      self_id=i, target_velocities=targets)
        else:
            pair_tick(m.net, tick.u, tick.omega_m, tick.observations, drift)

    return medium_update(maps, mode)
