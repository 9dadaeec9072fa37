"""Decoupled full-state SLAM with per-landmark virtual vehicles.

Every landmark is paired with its own copy of the vehicle estimate, so
each pair is a small constant-size filter and the per-tick cost is
linear in the number of landmarks.  The pairs are tied together by an
information-weighted consensus over the virtual vehicles, fed back to
every pair as one extra virtual measurement (leader-follower coupling).

:func:`pair_tick` is the one place pair filters are stepped.  The
single-vehicle :func:`dunk_step` calls it with no drift; each robot of
:mod:`ltvslam.coop` calls it with its map's null-space drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import vmeas
from .core import Estimates, FilterState, RobotInputs, heading_forward, skew
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


def consensus(net: DunkNetwork, observed) -> Consensus | None:
    """x_vc = (sum Sigma_vi^-1)^-1 sum Sigma_vi^-1 x_vi over the observed set,
    whose rows are read off the map's stack in sorted-id order."""
    rows = [net.ids[lid] for lid in sorted(net.ids.keys() & set(observed))]
    if not rows:
        return None
    x = net.state.x[rows]
    d = x.shape[1] // 2
    W = np.linalg.inv(net.state.P[rows, d:, d:] + REG * np.eye(d))
    info = W.sum(axis=0)
    cov = np.linalg.inv(info)
    weighted = (W @ x[:, d:, None]).sum(axis=0)[:, 0]
    return Consensus(x_vc=np.linalg.solve(info, weighted),
                     covariance=0.5 * (cov + cov.T))


def feedback_measurement(c: Consensus | None) -> vmeas.VirtualMeasurement | None:
    """Leader-follower rows [0 I] pulling each virtual vehicle toward x_vc."""
    if c is None:
        return None
    d = c.x_vc.size
    H = np.hstack([np.zeros((d, d)), np.eye(d)])
    return vmeas.VirtualMeasurement._derived(c.x_vc, H, c.covariance)


def pair_measurement(case: int, bundles: list[SensorBundle], T: np.ndarray,
                     inputs: RobotInputs, r_hints=None
                     ) -> vmeas.VirtualMeasurement | None:
    """A tick's case rows, built and lifted by its rotation T at once: M becomes
    [M T, -M T], one stack of rows per sighting; None if the case gives none."""
    body = build_measurement(case, bundles, inputs, r_hints)
    return None if body is None else vmeas._lift(body, T, 2 * T.shape[1], 0, 1)


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


def pair_tick(net: DunkNetwork, u_speed: float, omega: float,
              observations: dict[int, SensorBundle], drift: Drift | None = None,
              self_id: int | None = None,
              target_velocities: dict[int, np.ndarray] | None = None
              ) -> Consensus | None:
    """One two-level tick of a pair-filter map: pair steps, then consensus and heading.

    The map's stack steps at once with [case rows; feedback rows] (an
    unobserved pair's case rows carry zero information); the feedback is
    the consensus computed at the end of the previous tick.  Both blocks
    of every pair follow the map's null-space ``drift`` (none by default);
    the vehicle block also moves with u * forward(beta_hat).

    Every pair the tick creates starts from one prior: the consensus of
    the pairs the tick began with, else the map's vehicle prior; its row
    goes at the end of the stack.

    ``self_id`` names the pair whose "landmark" is the robot itself: it
    starts from :func:`_self_pair`, is measured by tie rows instead of
    case rows, and its landmark block moves with the vehicle.
    ``target_velocities`` gives the global velocity of landmarks that
    are moving robots.  A divergence names the landmark at fault.
    """
    ids = net.ids
    new = [lid for lid in observations if lid not in ids]
    new_self = self_id is not None and self_id not in ids
    if new or new_self:
        c = consensus(net, ids)
        prior = ((c.x_vc, c.covariance) if c is not None else
                 (np.asarray(net.vehicle_prior_x, float),
                  np.asarray(net.vehicle_prior_P, float)))
        made = [init_pair(observations[lid], prior, net.beta_hat) for lid in new]
        if new_self:
            new, made = [*new, self_id], [*made, _self_pair(prior)]
        ids.update({lid: len(ids) + i for i, lid in enumerate(new)})
        net.state = FilterState._derived(
            np.concatenate([net.state.x, [s.x for s in made]]),
            np.concatenate([net.state.P, [s.P for s in made]]), net.state.t)

    inputs = RobotInputs(u=np.array([0.0, u_speed]), omega=skew(omega))
    fb = feedback_measurement(net.last_consensus)
    own_v = u_speed * heading_forward(net.beta_hat)
    d = own_v.size

    # heading residue and range hints read offsets at the sample instant
    bundles, at = list(observations.values()), [ids[lid] for lid in observations]
    offsets = net.state.x[at, :d] - net.state.x[at, d:]
    seen = [i for i, b in enumerate(bundles) if b.bearing is not None]
    beta_d = beta_d_closed_form_2d(offsets[seen], np.zeros(2),
                                   [bundles[i].bearing.theta for i in seen], net.beta_hat)
    measured = [i for i, lid in enumerate(observations) if lid != self_id]
    rows = pair_measurement(net.case, [bundles[i] for i in measured],   # one build
                            body_from_global(net.beta_hat), inputs,
                            vmeas.range_hints(offsets[measured]))

    drift = drift or Drift(np.zeros(d))
    Om = skew(drift.omega).matrix   # turns both blocks of every pair
    base = drift.v - (Om @ drift.center if drift.center is not None else 0.0)
    b = np.tile(np.concatenate([base, base + own_v]), (len(ids), 1))
    for lid, v in {**(target_velocities or {}), self_id: own_v}.items():
        if lid in ids:   # a moving landmark, or the self pair's own vehicle
            b[ids[lid], :d] += v
    vm = vmeas.stack_measurements(vmeas.place_rows(
        len(ids), ([at[i] for i in measured], rows), (ids.get(self_id), SELF_TIE)), fb)
    try:
        net.state = ode_step(net.state, Om, b, vm, None, net.cfg)
    except DivergenceError as err:   # the row at fault is a landmark id's
        raise DivergenceError(f"landmark {list(ids)[err.row]} diverged at "
                              f"t={net.state.t + net.cfg.dt:g}", err.row) from None

    c = consensus(net, {*observations, self_id})   # self_id None: no pair
    net.last_consensus = c
    net.beta_hat = track_heading(net.beta_hat, omega + drift.omega, beta_d,
                                 net.cfg.dt)
    return c


def dunk_step(net: DunkNetwork, u_speed: float, omega: float,
              observations: dict[int, SensorBundle]) -> Consensus | None:
    """One tick of the single-vehicle pair network: :func:`pair_tick` with no drift."""
    return pair_tick(net, u_speed, omega, observations)
