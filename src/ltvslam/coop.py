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
import json
from dataclasses import dataclass, field

import numpy as np

from .core import heading_forward
from .dunk import DunkNetwork, Drift, pair_tick

#: 90-degree rotation used in every heading-error descent formula.
J = np.array([[0.0, 1.0], [-1.0, 0.0]])

MODES = ("full", "partial", "robots_only")


@dataclass
class RobotMap:
    """One robot's map and its null-space gains."""

    robot_id: int
    net: DunkNetwork
    gamma_v: float = 1.0
    gamma_omega: float = 4.0
    omega_max: float = 2.0

    def center(self) -> np.ndarray | None:
        """Mean landmark position in this robot's frame (None if map empty)."""
        if not self.net.pairs:
            return None
        return np.mean([p.x_landmark for p in self.net.pairs.values()], axis=0)

    def landmark_positions(self) -> dict[int, np.ndarray]:
        return {k: p.x_landmark for k, p in self.net.pairs.items()}


@dataclass(frozen=True)
class NNFeature:
    """Nearest-neighbor feature vector of landmark k in one robot's map."""

    landmark: int
    neighbor: int
    a: np.ndarray


@dataclass(frozen=True)
class MediumState:
    """Everything the central medium computed for one tick."""

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

def centers(maps: dict[int, RobotMap]) -> dict[int, np.ndarray]:
    """Per-map landmark centers x_ic of the non-empty maps."""
    x_ic = {}
    for i, m in maps.items():
        c = m.center()
        if c is not None:
            x_ic[i] = c
    return x_ic


def nn_features(m: RobotMap) -> dict[int, NNFeature]:
    """Per observed landmark, the vector to its nearest observed neighbor."""
    pos = m.landmark_positions()
    feats = {}
    if len(pos) < 2:
        return feats
    for k, xk in pos.items():
        best, best_d = None, np.inf
        for kp in sorted(pos):
            if kp == k:
                continue
            d = float(np.linalg.norm(xk - pos[kp]))
            if d < best_d:
                best, best_d = kp, d
        feats[k] = NNFeature(landmark=k, neighbor=best, a=xk - pos[best])
    return feats


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


def _medium_core(x_ic: dict, positions: dict, feats: dict) -> tuple:
    """x_cc, x_ck, k_star and c_k from per-robot centers, positions and NN features."""
    x_cc = np.mean(list(x_ic.values()), axis=0) if x_ic else None
    observers: dict[int, list] = {}
    for pos in positions.values():
        for k, x in pos.items():
            observers.setdefault(k, []).append(x)
    x_ck = {k: np.mean(xs, axis=0) for k, xs in observers.items()}
    k_star = coordinate_k_star(feats)
    c_k: dict[int, np.ndarray] = {}
    for k, kstar in k_star.items():
        agreeing = [feats[i][k].a for i in sorted(feats)
                    if k in feats[i] and feats[i][k].neighbor == kstar]
        if agreeing:
            c_k[k] = np.mean(agreeing, axis=0)
    return x_cc, x_ck, k_star, c_k


def medium_update(maps: dict[int, RobotMap], mode: str) -> MediumState:
    """Recompute all medium variables from the current maps."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    x_ic = centers(maps)
    positions = {i: m.landmark_positions() for i, m in maps.items()}
    feats = {i: nn_features(m) for i, m in maps.items()}
    x_cc, x_ck, k_star, c_k = _medium_core(x_ic, positions, feats)
    e_c, e_h = heading_errors(positions, x_ic, feats, mode)
    return MediumState(x_ic=x_ic, x_cc=x_cc, x_ck=x_ck, c_k=c_k,
                       k_star=k_star, features=feats, e_c=e_c, e_h=e_h)


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

def null_translation(m: RobotMap, medium: MediumState, mode: str) -> np.ndarray:
    """Translation input pulling this map toward the medium."""
    if mode in ("full", "robots_only"):
        if medium.x_cc is None or m.robot_id not in medium.x_ic:
            return np.zeros(2)
        return m.gamma_v * (medium.x_cc - medium.x_ic[m.robot_id])
    v = np.zeros(2)
    for k, x_ik in m.landmark_positions().items():
        if k in medium.x_ck:
            v += medium.x_ck[k] - x_ik
    return m.gamma_v * v


def null_rotation_full(m: RobotMap, medium: MediumState) -> float:
    """Heading-error descent omega_i ~ Sum_k (x_ik - x_ic)^T J x_ck.

    The raw torque scales with the squared map extent, so it is
    normalized by the moment Sum ||x_ik - x_ic|| ||x_ck||: for a small
    misalignment angle delta the result is about gamma * sin(delta), an
    angular rate independent of map size (and stable for gamma * dt << 1).
    """
    if m.robot_id not in medium.x_ic:
        return 0.0
    x_ic = medium.x_ic[m.robot_id]
    w, moment = 0.0, 0.0
    for k, x_ik in m.landmark_positions().items():
        if k in medium.x_ck:
            w += float((x_ik - x_ic) @ J @ medium.x_ck[k])
            moment += float(np.linalg.norm(x_ik - x_ic)
                            * np.linalg.norm(medium.x_ck[k]))
    if moment <= 0.0:
        return 0.0
    return m.gamma_omega * w / moment


def null_rotation_partial(m: RobotMap, medium: MediumState) -> float:
    """omega_i ~ Sum_k a_ik^T J c_k over features agreeing with k*.

    Uses the features the medium computed for this map.  Normalized by
    Sum ||a_ik|| ||c_k|| for the same scale-free angular rate as
    :func:`null_rotation_full`.
    """
    w, moment = 0.0, 0.0
    for k, f in medium.features.get(m.robot_id, {}).items():
        if medium.k_star.get(k) == f.neighbor and k in medium.c_k:
            w += float(f.a @ J @ medium.c_k[k])
            moment += float(np.linalg.norm(f.a) * np.linalg.norm(medium.c_k[k]))
    if moment <= 0.0:
        return 0.0
    return m.gamma_omega * w / moment


def null_drift(m: RobotMap, medium: MediumState, mode: str) -> Drift:
    """Robot i's null-space input: v_i, saturated omega_i and the rotation center."""
    if mode == "partial":
        w = null_rotation_partial(m, medium)
        center = None   # partial-information rotation acts about the origin
    else:
        w = null_rotation_full(m, medium)
        center = medium.x_ic.get(m.robot_id)
        if center is None:
            center = m.center()
    return Drift(v=null_translation(m, medium, mode),
                 omega=float(np.clip(w, -m.omega_max, m.omega_max)),
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
        drift = null_drift(m, medium, mode) if multi else None
        if mode == "robots_only":
            targets = {k: tick.speeds[k] * heading_forward(
                           m.net.beta_hat + tick.heading_diffs[k])
                       for k in tick.speeds if k in tick.heading_diffs}
            pair_tick(m.net, tick.u, tick.omega_m, tick.observations, drift,
                      self_id=i, target_velocities=targets)
        else:
            pair_tick(m.net, tick.u, tick.omega_m, tick.observations, drift)

    return medium_update(maps, mode)


# ---------------------------------------------------------------------------
# Medium message-passing interface
# ---------------------------------------------------------------------------

def _xy(v) -> list[float]:
    return [float(v[0]), float(v[1])]


def medium_request(m: RobotMap, tick: int) -> str:
    """Serialize one robot's map summary for the medium (JSON line)."""
    feats = nn_features(m)
    center = m.center()
    return json.dumps({
        "robot_id": m.robot_id,
        "tick": tick,
        "map_summary": [[int(k), *_xy(x)]
                        for k, x in sorted(m.landmark_positions().items())],
        "center": None if center is None else _xy(center),
        "nn_features": [[int(k), int(f.neighbor), _xy(f.a)]
                        for k, f in sorted(feats.items())],
    })


def medium_response(requests: list[str]) -> str:
    """Compute the medium variables from serialized map summaries (JSON)."""
    parsed = [json.loads(r) for r in requests]
    if len({p["robot_id"] for p in parsed}) != len(parsed):
        raise ValueError("one request per robot_id expected")
    x_ic = {p["robot_id"]: np.array(p["center"]) for p in parsed
            if p["center"] is not None}
    positions = {p["robot_id"]: {k: np.array([x, y])
                                 for k, x, y in p["map_summary"]}
                 for p in parsed}
    feats = {p["robot_id"]: {k: NNFeature(k, kp, np.array(a))
                             for k, kp, a in p["nn_features"]}
             for p in parsed}
    x_cc, x_ck, k_star, c_k = _medium_core(x_ic, positions, feats)
    return json.dumps({
        "x_cc": None if x_cc is None else _xy(x_cc),
        "x_ck": {str(k): _xy(v) for k, v in x_ck.items()},
        "c_k": {str(k): _xy(v) for k, v in c_k.items()},
        "k_star": {str(k): int(v) for k, v in k_star.items()},
    })
