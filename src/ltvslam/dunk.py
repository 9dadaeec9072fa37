"""Decoupled full-state SLAM with per-landmark virtual vehicles.

Every landmark is paired with its own copy of the vehicle estimate, so
each pair is a small constant-size filter and the per-tick cost is
linear in the number of landmarks.  The pairs are tied together by an
information-weighted consensus over the virtual vehicles, fed back to
every pair as one extra virtual measurement (leader-follower coupling).

:func:`pair_tick` is the one place pair filters are stepped, every robot's
in one stack: :func:`dunk_step` is a fleet of one map with no drift, and
:mod:`ltvslam.coop` steps all its robots at once, each with its drift.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import vmeas
from .core import (Estimates, FilterState, RobotInputs, heading_forward, run_sums,
                   skew)
from .kalman import DivergenceError, FilterConfig, ode_step
from .slam_global import (beta_d_closed_form_2d, body_from_global,
                          first_sighting_offset, track_heading)
from .vmeas import SensorBundle, build_measurement

#: Tikhonov term added before inverting a virtual-vehicle covariance.
REG = 1e-9

#: Rows (std 1e-2) forcing a robot's planar self pair onto its vehicle estimate.
SELF_TIE = vmeas.VirtualMeasurement(np.zeros(2), np.hstack([np.eye(2), -np.eye(2)]),
                                    1e-2**2 * np.eye(2))


@dataclass(frozen=True)
class LandmarkPairState:
    """A pair's row of its map: (landmark, virtual vehicle) estimate, 2d x 2d P."""

    state: FilterState  # x = [x_i; x_vi]


@dataclass(frozen=True)
class Consensus:
    """Information-weighted average of the virtual vehicles."""

    x_vc: np.ndarray
    covariance: np.ndarray   # (sum of Sigma_vi^-1 over the observed set)^-1


def consensus(nets: list[DunkNetwork], observed: list) -> list[Consensus | None]:
    """Per map, x_vc = (sum Sigma_vi^-1)^-1 sum Sigma_vi^-1 x_vi over its observed
    set, read off its stack in sorted-id order (None if it holds none of it).
    Every map's rows are inverted at once and summed map by map, each map's
    sums those of a call on it alone."""
    rows = {j: r for j, (net, seen) in enumerate(zip(nets, observed))
            if (r := [net.ids[lid] for lid in sorted(net.ids.keys() & set(seen))])}
    if not rows:
        return [None] * len(nets)
    d = nets[0].state.dim // 2
    x = np.concatenate([nets[j].state.x[r, d:] for j, r in rows.items()])
    W = np.linalg.inv(np.concatenate([nets[j].state.P[r, d:, d:] for j, r in rows.items()])
                      + REG * np.eye(d))
    n = [len(r) for r in rows.values()]
    info = run_sums(W, n)
    cov = np.linalg.inv(info)
    x_vc = np.linalg.solve(info, run_sums(W @ x[:, :, None], n))[..., 0]
    made = dict(zip(rows, map(Consensus, x_vc, 0.5 * (cov + cov.swapaxes(-1, -2)))))
    return [made.get(j) for j in range(len(nets))]


def feedback_measurement(c: Consensus | None) -> vmeas.VirtualMeasurement | None:
    """Leader-follower rows [0 I] pulling each virtual vehicle toward x_vc."""
    if c is None:
        return None
    d = c.x_vc.size
    H = np.hstack([np.zeros((d, d)), np.eye(d)])
    return vmeas.VirtualMeasurement._derived(c.x_vc, H, c.covariance)


def pair_measurement(builds: list[tuple], T: np.ndarray, r_hints=None
                     ) -> vmeas.VirtualMeasurement | None:
    """A fleet tick's case rows: one build per robot, ``(case, bundles, inputs)``
    with its sightings' ``r_hints``, then every sighting's rows lifted at once
    by its robot's rotation T[j] (M becomes [M T, -M T]) and padded with
    zero-information rows to the widest build's; None if no build gives rows."""
    n = [len(bundles) for _, bundles, _ in builds]
    body = vmeas.place_rows(sum(n), *((slice(e - k, e), build_measurement(
        *b, None if r_hints is None else r_hints[e - k:e])) for b, k, e in zip(
            builds, n, accumulate(n))))
    # T per row, laid out as body_from_global's transposed view, so each
    # product M T is the one a one-map lift forms
    T = np.repeat(np.swapaxes(T, -1, -2), n, axis=0).swapaxes(-1, -2)
    return None if body is None else vmeas._lift(body, T, 2 * T.shape[-1], 0, 1)


def init_pair(bundle: SensorBundle, prior: tuple[np.ndarray, np.ndarray],
              beta_hat: float) -> FilterState:
    """New pair's row: virtual vehicle at the ``prior`` (x, P), landmark offset by the obs."""
    x_v0, P_v0 = prior
    d = x_v0.size
    offset = first_sighting_offset(bundle, beta_hat)
    x = np.concatenate([x_v0 + offset, x_v0])
    P = np.zeros((2 * d, 2 * d))
    P[:d, :d] = 100.0 * np.eye(d)
    P[d:, d:] = P_v0
    return FilterState(x, P)


@dataclass
class DunkNetwork:
    """A map's pair filters as one stack, plus the shared heading and last consensus.

    Row ``ids[lid]`` of ``state`` (x (N, 4), P (N, 4, 4), at the map's time
    t) is landmark lid's pair, the rows in first-sighting order.
    """

    case: int = 2
    cfg: FilterConfig = field(default_factory=FilterConfig)
    beta_hat: float = 0.0
    vehicle_prior_x: np.ndarray = field(default_factory=lambda: np.zeros(2))
    vehicle_prior_P: np.ndarray = field(default_factory=lambda: 100.0 * np.eye(2))
    last_consensus: Consensus | None = None
    ids: dict[int, int] = field(init=False, default_factory=dict)
    state: FilterState = field(init=False, default_factory=lambda: FilterState._derived(
        np.zeros((0, 4)), np.zeros((0, 4, 4)), 0.0))

    @property
    def pairs(self) -> dict[int, LandmarkPairState]:
        """Each pair as a record over its row of the stack, built on each read."""
        x, P, t = self.state.x, self.state.P, self.state.t
        return {lid: LandmarkPairState(FilterState._derived(x[i], P[i], t))
                for lid, i in self.ids.items()}

    def estimates(self) -> Estimates:
        """Landmark blocks of every pair; the vehicle is the last consensus."""
        d, c = self.state.dim // 2, self.last_consensus
        return Estimates(self.state.t, list(self.ids), self.state.x[:, :d],
                         self.state.P[:, :d, :d],
                         None if c is None else (c.x_vc, c.covariance))


@dataclass(frozen=True)
class Drift:
    """Null-space input of one map: every state x moves with v + Omega (x - center).

    Applied alike to all states of a map it changes nothing observable;
    ``center`` None rotates about the origin.
    """

    v: np.ndarray
    omega: float = 0.0
    center: np.ndarray | None = None


def _self_pair(prior: tuple[np.ndarray, np.ndarray]) -> FilterState:
    """A robot's own row: both blocks at the ``prior`` (x, P), 0.9 correlated."""
    x_v0, P_v0 = prior
    P0 = np.block([[P_v0, 0.9 * P_v0], [0.9 * P_v0, P_v0]])
    return FilterState(np.concatenate([x_v0, x_v0]), P0)


#: One robot's share of a fleet tick (:func:`pair_tick`): its map, forward speed,
#: yaw rate and sightings, then its Drift, self pair id, moving landmarks'
#: velocities ({id: v}) and robot id (named in a divergence), each None by default.
RobotStep = namedtuple("RobotStep", "net u_speed omega observations drift self_id "
                       "target_velocities robot", defaults=(None,) * 4)


def pair_tick(robots: list[RobotStep]) -> list[Consensus | None]:
    """One tick of a fleet of pair-filter maps sharing dt and time: new pairs,
    each from its map's one prior (its pairs' consensus, else its vehicle
    prior); one step of every robot's pairs as one stack, each with [case
    rows; rows toward its map's last consensus] (zero-information where it is
    unseen or there is none), following its map's null-space ``drift`` (the
    vehicle block also moves with u * forward(beta_hat)); then each map's
    consensus (returned) and heading.  ``self_id`` names the robot's own pair
    (:func:`_self_pair`: tie rows, landmark block moving with the vehicle);
    ``target_velocities`` the global velocity of landmarks that are moving
    robots.  A divergence names the landmark; ``row`` is its row in its map.
    """
    for net, _, _, obs, _, self_id, *_ in robots:
        new = [lid for lid in [*obs, self_id] if lid is not None and lid not in net.ids]
        if new:
            c, = consensus([net], [net.ids])
            prior = ((c.x_vc, c.covariance) if c is not None else
                     (np.asarray(net.vehicle_prior_x, float),
                      np.asarray(net.vehicle_prior_P, float)))
            made = [_self_pair(prior) if lid == self_id else
                    init_pair(obs[lid], prior, net.beta_hat) for lid in new]
            net.ids.update({lid: len(net.ids) + i for i, lid in enumerate(new)})
            net.state = FilterState._derived(
                np.concatenate([net.state.x, [s.x for s in made]]),
                np.concatenate([net.state.P, [s.P for s in made]]), net.state.t)

    nets = [step.net for step in robots]
    cfg, t, counts = nets[0].cfg, nets[0].state.t, [len(net.ids) for net in nets]
    start = [0, *accumulate(counts[:-1])]   # each map's first row in the fleet's stack
    x, d = np.concatenate([net.state.x for net in nets]), nets[0].state.dim // 2
    at, seen, thetas, runs, mine, builds, A, b, moving = [], [], [], [], [], [], [], [], {}
    for step, net, s0 in zip(robots, nets, start):
        obs, self_id, k0 = step.observations, step.self_id, len(at)
        at += [s0 + net.ids[lid] for lid in obs]
        seen += [k0 + i for i, bd in enumerate(obs.values()) if bd.bearing is not None]
        thetas += [bd.bearing.theta for bd in obs.values() if bd.bearing is not None]
        runs.append(len(seen) - sum(runs))
        mine += [k0 + i for i, lid in enumerate(obs) if lid != self_id]
        builds.append((net.case, [bd for lid, bd in obs.items() if lid != self_id],
                       RobotInputs(u=np.array([0.0, step.u_speed]), omega=skew(step.omega))))
        own_v = step.u_speed * heading_forward(net.beta_hat)
        drift = step.drift or Drift(np.zeros(d))
        A.append(skew(drift.omega).matrix)   # turns both blocks of every pair
        base = drift.v - (A[-1] @ drift.center if drift.center is not None else 0.0)
        b.append(np.concatenate([base, base + own_v]))
        for lid, v in {**(step.target_velocities or {}), self_id: own_v}.items():
            if lid in net.ids:   # a moving landmark, or the self pair's own vehicle
                moving[s0 + net.ids[lid]] = v
    A, b = np.repeat(A, counts, axis=0), np.repeat(b, counts, axis=0)
    for row, v in moving.items():
        b[row, :d] += v

    # heading residue and range hints read offsets at the sample instant
    offsets = x[at, :d] - x[at, d:]
    beta_d = beta_d_closed_form_2d(offsets[seen], np.zeros(d), thetas,
                                   [net.beta_hat for net in nets], counts=runs)
    T = np.array([body_from_global(net.beta_hat) for net in nets])   # one per robot
    rows = pair_measurement(builds, T, vmeas.range_hints(offsets[mine]))
    self_rows = [s0 + net.ids[st.self_id] for st, net, s0 in zip(robots, nets, start)
                 if st.self_id is not None]
    vm = vmeas.stack_measurements(
        vmeas.place_rows(len(x), ([at[i] for i in mine], rows),
                         (self_rows or None, SELF_TIE)),
        vmeas.place_rows(len(x), *((slice(s0, s0 + k), feedback_measurement(
            net.last_consensus)) for net, s0, k in zip(nets, start, counts))))
    P = np.concatenate([net.state.P for net in nets])
    try:
        fleet = ode_step(FilterState._derived(x, P, t), A, b, vm, None, cfg)
    except DivergenceError as err:   # the row at fault is a landmark id's in robot r's map
        r = max(j for j, s0 in enumerate(start) if s0 <= err.row)
        row, who = err.row - start[r], robots[r].robot
        raise DivergenceError(f"{'' if who is None else f'robot {who}: '}landmark "
                              f"{list(nets[r].ids)[row]} diverged at t={t + cfg.dt:g}",
                              row) from None
    for net, s0, k in zip(nets, start, counts):
        net.state = FilterState._derived(fleet.x[s0:s0 + k], fleet.P[s0:s0 + k], fleet.t)
    cs = consensus(nets, [{*step.observations, step.self_id} for step in robots])
    for step, net, c, beta in zip(robots, nets, cs, beta_d):
        net.last_consensus = c
        omega = step.omega + (step.drift.omega if step.drift else 0.0)
        net.beta_hat = track_heading(net.beta_hat, omega, beta, cfg.dt)
    return cs


def dunk_step(net: DunkNetwork, u_speed: float, omega: float,
              observations: dict[int, SensorBundle]) -> Consensus | None:
    """One tick of the single-vehicle pair network: a :func:`pair_tick` fleet of one."""
    return pair_tick([RobotStep(net, u_speed, omega, observations)])[0]
