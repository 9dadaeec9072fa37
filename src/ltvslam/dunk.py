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
from .kalman import FilterConfig, ode_step
from .slam_global import (beta_d_closed_form_2d, body_from_global,
                          first_sighting_offset, track_heading)
from .vmeas import SensorBundle, build_measurement

#: Tikhonov term added before inverting a virtual-vehicle covariance.
REG = 1e-9

#: Measurement std tying a robot's self pair to its own vehicle estimate.
SELF_TIE_SIGMA = 1e-2


@dataclass(frozen=True)
class LandmarkPairState:
    """Joint (landmark, virtual vehicle) estimate with 2d x 2d block covariance."""

    state: FilterState  # x = [x_i; x_vi]

    def __post_init__(self):
        if self.state.dim % 2:
            raise ValueError("pair state must stack two equal-size blocks")

    @property
    def dim(self) -> int:
        return self.state.dim // 2

    @property
    def x_landmark(self) -> np.ndarray:
        return self.state.x[:self.dim]

    @property
    def x_vehicle(self) -> np.ndarray:
        return self.state.x[self.dim:]

    @property
    def sigma_vehicle(self) -> np.ndarray:
        return self.state.P[self.dim:, self.dim:]


@dataclass(frozen=True)
class Consensus:
    """Information-weighted average of the virtual vehicles."""

    x_vc: np.ndarray
    covariance: np.ndarray   # (sum of Sigma_vi^-1 over the observed set)^-1


def consensus(pairs: dict[int, LandmarkPairState],
              observed) -> Consensus | None:
    """x_vc = (sum Sigma_vi^-1)^-1 sum Sigma_vi^-1 x_vi over the observed set."""
    observed = frozenset(observed) & set(pairs)
    if not observed:
        return None
    d = next(iter(pairs.values())).dim
    info, weighted, reg = np.zeros((d, d)), np.zeros(d), REG * np.eye(d)
    for lid in sorted(observed):
        p = pairs[lid]
        w = np.linalg.inv(p.sigma_vehicle + reg)
        info += w
        weighted += w @ p.x_vehicle
    cov = np.linalg.inv(info)
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
                     ) -> list[vmeas.VirtualMeasurement] | None:
    """A tick's case rows, built and lifted by its rotation T at once: M becomes
    [M T, -M T]; one measurement per sighting, or None if the case gives none.

    A sighting that drops a row (a Case IV fallback) is lifted on its kept
    rows alone: the last bit of a row of H T depends on H's row count.
    """
    body = build_measurement(case, bundles, inputs, r_hints)
    if body is None:
        return None
    n = 2 * T.shape[1]
    rows = vmeas.sighting_rows(vmeas._lift(body, T, n, 0, 1))
    partial = np.flatnonzero(~vmeas.kept_rows(body).all(axis=-1))
    if partial.size:
        own = vmeas.sighting_rows(body)
        for i in partial:
            rows[i] = vmeas._lift(own[i], T, n, 0, 1)
    return rows


def init_pair(bundle: SensorBundle, prior: tuple[np.ndarray, np.ndarray],
              beta_hat: float, t: float = 0.0) -> LandmarkPairState:
    """New pair: virtual vehicle at the ``prior`` (x, P), landmark offset by the obs."""
    x_v0, P_v0 = prior
    d = x_v0.size
    offset = first_sighting_offset(bundle, beta_hat)
    x = np.concatenate([x_v0 + offset, x_v0])
    P = np.zeros((2 * d, 2 * d))
    P[:d, :d] = 100.0 * np.eye(d)
    P[d:, d:] = P_v0
    return LandmarkPairState(FilterState(x, P, t))


@dataclass
class DunkNetwork:
    """All pair filters plus the shared heading and last consensus."""

    case: int = 2
    cfg: FilterConfig = field(default_factory=FilterConfig)
    beta_hat: float = 0.0
    vehicle_prior_x: np.ndarray = field(default_factory=lambda: np.zeros(2))
    vehicle_prior_P: np.ndarray = field(default_factory=lambda: 100.0 * np.eye(2))
    pairs: dict[int, LandmarkPairState] = field(default_factory=dict)
    last_consensus: Consensus | None = None
    t: float = 0.0

    def estimates(self) -> Estimates:
        """Landmark blocks of every pair; the vehicle is the last consensus."""
        pairs = self.pairs.values()
        c = self.last_consensus
        return Estimates.stack(
            self.t, self.pairs, [p.x_landmark for p in pairs],
            [p.state.P[:p.dim, :p.dim] for p in pairs], len(self.vehicle_prior_x),
            vehicle=None if c is None else (c.x_vc, c.covariance))


@dataclass(frozen=True)
class Drift:
    """Null-space input of one map: every state x moves with v + Omega (x - center).

    Applied alike to all states of a map it changes nothing observable;
    ``center`` None rotates about the origin.
    """

    v: np.ndarray
    omega: float = 0.0
    center: np.ndarray | None = None


def _self_pair(prior: tuple[np.ndarray, np.ndarray], t: float) -> LandmarkPairState:
    """A robot's own entry: both blocks at the ``prior`` (x, P), 0.9 correlated."""
    x_v0, P_v0 = prior
    P0 = np.block([[P_v0, 0.9 * P_v0], [0.9 * P_v0, P_v0]])
    return LandmarkPairState(FilterState(np.concatenate([x_v0, x_v0]), P0, t))


def _self_tie_measurement(dim: int) -> vmeas.VirtualMeasurement:
    """Identity rows forcing a robot's self pair onto its vehicle estimate."""
    H = np.hstack([np.eye(dim), -np.eye(dim)])
    return vmeas.VirtualMeasurement._derived(np.zeros(dim), H,
                                             SELF_TIE_SIGMA**2 * np.eye(dim))


def pair_tick(net: DunkNetwork, u_speed: float, omega: float,
              observations: dict[int, SensorBundle], drift: Drift | None = None,
              self_id: int | None = None,
              target_velocities: dict[int, np.ndarray] | None = None
              ) -> Consensus | None:
    """One two-level tick of a pair-filter map: pair steps, then consensus and heading.

    Observed pairs get [case rows; feedback rows]; unobserved pairs get
    feedback-only (or prediction-only) steps.  The feedback uses the
    consensus computed at the end of the previous tick.  Both blocks of
    every pair follow the map's null-space ``drift`` (none by default);
    the vehicle block also moves with u * forward(beta_hat).

    Every pair the tick creates starts from one prior: the consensus of
    the pairs the tick began with, else the map's vehicle prior.

    ``self_id`` names the pair whose "landmark" is the robot itself: it
    starts from :func:`_self_pair`, is measured by tie rows instead of
    case rows, and its landmark block moves with the vehicle.
    ``target_velocities`` gives the global velocity of landmarks that
    are moving robots.
    """
    new = [lid for lid in observations if lid not in net.pairs]
    new_self = self_id is not None and self_id not in net.pairs
    if new or new_self:
        c = consensus(net.pairs, net.pairs.keys())
        prior = ((c.x_vc, c.covariance) if c is not None else
                 (np.asarray(net.vehicle_prior_x, float),
                  np.asarray(net.vehicle_prior_P, float)))
        for lid in new:
            net.pairs[lid] = init_pair(observations[lid], prior, net.beta_hat, net.t)
        if new_self:
            net.pairs[self_id] = _self_pair(prior, net.t)

    inputs = RobotInputs(u=np.array([0.0, u_speed]), omega=skew(omega))
    fb = feedback_measurement(net.last_consensus)

    # heading residue and range hints read offsets at the sample instant
    offsets = {lid: net.pairs[lid].x_landmark - net.pairs[lid].x_vehicle
               for lid in observations}
    visible = [(lid, b) for lid, b in observations.items() if b.bearing is not None]
    beta_d = beta_d_closed_form_2d(
        [offsets[lid] for lid, _ in visible],
        np.zeros(2), [b.bearing.theta for _, b in visible], net.beta_hat)

    measured = [lid for lid in observations if lid != self_id]   # one build for all
    rows = pair_measurement(net.case, [observations[lid] for lid in measured],
                            body_from_global(net.beta_hat), inputs,
                            vmeas.range_hints([offsets[lid] for lid in measured]))
    case_rows = dict(zip(measured, rows or ()))

    own_v = u_speed * heading_forward(net.beta_hat)
    d = own_v.size
    if drift is None:
        drift = Drift(np.zeros(d))
    Om = skew(drift.omega).matrix   # turns both blocks of every pair
    base = drift.v - (Om @ drift.center if drift.center is not None else 0.0)
    b = np.concatenate([base, base + own_v])
    targets = target_velocities or {}
    for lid in sorted(net.pairs):
        pair = net.pairs[lid]
        vm = vmeas.stack_measurements(_self_tie_measurement(d) if lid == self_id
                                      else case_rows.get(lid), fb)
        extra = own_v if lid == self_id else targets.get(lid)
        b_lid = b if extra is None else np.concatenate([base + extra, b[d:]])
        new_state = ode_step(pair.state, Om, b_lid, vm, None, net.cfg)
        net.pairs[lid] = LandmarkPairState(new_state)
    net.t += net.cfg.dt

    observed = set(observations)
    if self_id is not None:
        observed.add(self_id)
    c = consensus(net.pairs, observed)
    net.last_consensus = c
    net.beta_hat = track_heading(net.beta_hat, omega + drift.omega, beta_d,
                                 net.cfg.dt)
    return c


def dunk_step(net: DunkNetwork, u_speed: float, omega: float,
              observations: dict[int, SensorBundle]) -> Consensus | None:
    """One tick of the single-vehicle pair network: :func:`pair_tick` with no drift."""
    return pair_tick(net, u_speed, omega, observations)
