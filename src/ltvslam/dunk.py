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
from scipy.stats import chi2

from . import vmeas
from .core import FilterState, RobotInputs, heading_forward, skew
from .kalman import FilterConfig, ode_step
from .slam_global import (beta_d_closed_form_2d, body_from_global,
                          first_sighting_offset, track_heading)
from .slam_local import SensorBundle, build_measurement

#: Tikhonov term added before inverting a virtual-vehicle covariance.
REG = 1e-9

#: Measurement std tying a robot's self pair to its own vehicle estimate.
SELF_TIE_SIGMA = 1e-2


@dataclass(frozen=True)
class LandmarkPairState:
    """Joint (landmark, virtual vehicle) estimate with 2d x 2d block covariance."""

    landmark_id: int
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
    information: np.ndarray   # sum of Sigma_vi^-1 over the observed set
    observed: frozenset

    @property
    def covariance(self) -> np.ndarray:
        return np.linalg.inv(self.information)


def _info(sigma: np.ndarray) -> np.ndarray:
    return np.linalg.inv(sigma + REG * np.eye(sigma.shape[0]))


def consensus(pairs: dict[int, LandmarkPairState],
              observed) -> Consensus | None:
    """x_vc = (sum Sigma_vi^-1)^-1 sum Sigma_vi^-1 x_vi over the observed set."""
    observed = frozenset(observed) & set(pairs)
    if not observed:
        return None
    d = next(iter(pairs.values())).dim
    info = np.zeros((d, d))
    weighted = np.zeros(d)
    for lid in sorted(observed):
        p = pairs[lid]
        w = _info(p.sigma_vehicle)
        info += w
        weighted += w @ p.x_vehicle
    return Consensus(x_vc=np.linalg.solve(info, weighted),
                     information=info, observed=observed)


def feedback_measurement(c: Consensus | None) -> vmeas.VirtualMeasurement | None:
    """Leader-follower rows [0 I] pulling each virtual vehicle toward x_vc."""
    if c is None:
        return None
    d = c.x_vc.size
    H = np.hstack([np.zeros((d, d)), np.eye(d)])
    return vmeas.VirtualMeasurement(y=c.x_vc, H=H, R=c.covariance)


def pair_measurement(case: int, bundle: SensorBundle, beta_hat: float,
                     inputs: RobotInputs, r_max: float = vmeas.DEFAULT_R_MAX,
                     r_hint: float | None = None
                     ) -> vmeas.VirtualMeasurement | None:
    """Case rows lifted to the pair state: body rows M become [M T, -M T]."""
    body_vm = build_measurement(case, bundle, inputs, r_max, r_hint)
    if body_vm is None:
        return None
    M = body_vm.H @ body_from_global(beta_hat)
    return vmeas.VirtualMeasurement(y=body_vm.y, H=np.hstack([M, -M]),
                                    R=body_vm.R)


def init_pair(landmark_id: int, bundle: SensorBundle,
              pairs: dict[int, LandmarkPairState], beta_hat: float,
              vehicle_prior: tuple[np.ndarray, np.ndarray],
              r_max: float = vmeas.DEFAULT_R_MAX, t: float = 0.0
              ) -> LandmarkPairState:
    """New pair: virtual vehicle at the all-pairs consensus, landmark offset by the obs."""
    c = consensus(pairs, pairs.keys()) if pairs else None
    if c is not None:
        x_v0, P_v0 = c.x_vc, c.covariance
    else:
        x_v0, P_v0 = np.asarray(vehicle_prior[0], float), np.asarray(vehicle_prior[1], float)
    d = x_v0.size
    offset = first_sighting_offset(bundle, beta_hat, r_max, d)
    x = np.concatenate([x_v0 + offset, x_v0])
    P = np.zeros((2 * d, 2 * d))
    P[:d, :d] = 100.0 * np.eye(d)
    P[d:, d:] = P_v0
    return LandmarkPairState(landmark_id, FilterState(x, P, t))


def associate(case: int, bundle: SensorBundle, beta_hat: float,
              inputs: RobotInputs, pairs: dict[int, LandmarkPairState],
              gate_p: float = 0.95, r_max: float = vmeas.DEFAULT_R_MAX
              ) -> int | None:
    """Nearest pair by Mahalanobis distance of the case residual, or None if new."""
    vm = pair_measurement(case, bundle, beta_hat, inputs, r_max)
    if vm is None or not pairs:
        return None
    best_id, best_d2 = None, np.inf
    for lid in sorted(pairs):
        p = pairs[lid]
        z = vm.residual(p.state.x)
        S = vm.H @ p.state.P @ vm.H.T + vm.R
        d2 = float(z @ np.linalg.solve(S, z))
        if d2 < best_d2:
            best_id, best_d2 = lid, d2
    if best_d2 > chi2.ppf(gate_p, df=vm.rows):
        return None
    return best_id


@dataclass
class DunkNetwork:
    """All pair filters plus the shared heading and last consensus."""

    case: int = 2
    cfg: FilterConfig = field(default_factory=FilterConfig)
    r_max: float = vmeas.DEFAULT_R_MAX
    gamma_beta: float = 1.0
    beta_hat: float = 0.0
    vehicle_prior_x: np.ndarray = field(default_factory=lambda: np.zeros(2))
    vehicle_prior_P: np.ndarray = field(default_factory=lambda: 100.0 * np.eye(2))
    pairs: dict[int, LandmarkPairState] = field(default_factory=dict)
    last_consensus: Consensus | None = None
    t: float = 0.0


@dataclass(frozen=True)
class Drift:
    """Null-space input of one map: every state x moves with v + Omega (x - center).

    Applied alike to all states of a map it changes nothing observable;
    ``center`` None rotates about the origin.
    """

    v: np.ndarray
    omega: float = 0.0
    center: np.ndarray | None = None


def _self_pair(net: DunkNetwork, robot_id: int) -> LandmarkPairState:
    """A robot's own entry: both blocks at the vehicle prior, 0.9 correlated."""
    x_v0 = np.asarray(net.vehicle_prior_x, float)
    P_v0 = np.asarray(net.vehicle_prior_P, float)
    P0 = np.block([[P_v0, 0.9 * P_v0], [0.9 * P_v0, P_v0]])
    return LandmarkPairState(
        robot_id, FilterState(np.concatenate([x_v0, x_v0]), P0, net.t))


def _self_tie_measurement(dim: int) -> vmeas.VirtualMeasurement:
    """Identity rows forcing a robot's self pair onto its vehicle estimate."""
    H = np.hstack([np.eye(dim), -np.eye(dim)])
    return vmeas.VirtualMeasurement(y=np.zeros(dim), H=H,
                                    R=SELF_TIE_SIGMA**2 * np.eye(dim))


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

    ``self_id`` names the pair whose "landmark" is the robot itself: it
    starts from :func:`_self_pair`, is measured by tie rows instead of
    case rows, and its landmark block moves with the vehicle.
    ``target_velocities`` gives the global velocity of landmarks that
    are moving robots.
    """
    for lid, bundle in observations.items():
        if lid not in net.pairs:
            net.pairs[lid] = init_pair(
                lid, bundle, net.pairs, net.beta_hat,
                (net.vehicle_prior_x, net.vehicle_prior_P), net.r_max, net.t)
    if self_id is not None and self_id not in net.pairs:
        net.pairs[self_id] = _self_pair(net, self_id)

    inputs = RobotInputs(u=np.array([0.0, u_speed]), omega=skew(omega))
    fb = feedback_measurement(net.last_consensus)

    # heading residue uses offsets at the sample instant, before the updates
    visible = [(lid, b) for lid, b in observations.items() if b.bearing is not None]
    beta_d = beta_d_closed_form_2d(
        [net.pairs[lid].x_landmark - net.pairs[lid].x_vehicle for lid, _ in visible],
        np.zeros(2), [b.bearing.theta for _, b in visible], net.beta_hat)

    own_v = u_speed * heading_forward(net.beta_hat)
    d = own_v.size
    if drift is None:
        drift = Drift(np.zeros(d))
    Om = skew(drift.omega).matrix
    A = np.kron(np.eye(2), Om)
    base = drift.v - (Om @ drift.center if drift.center is not None else 0.0)
    targets = target_velocities or {}
    for lid in sorted(net.pairs):
        pair = net.pairs[lid]
        bundle = observations.get(lid)
        if lid == self_id:
            case_vm = _self_tie_measurement(d)
        elif bundle is not None:
            r_hint = float(np.linalg.norm(pair.x_landmark - pair.x_vehicle)) or None
            case_vm = pair_measurement(net.case, bundle, net.beta_hat, inputs,
                                       net.r_max, r_hint)
        else:
            case_vm = None
        vm = vmeas.stack_measurements(case_vm, fb)
        b = np.concatenate([base, base + own_v])
        if lid == self_id:
            b[:d] += own_v
        elif lid in targets:
            b[:d] += targets[lid]
        new_state = ode_step(pair.state, A, b, vm, None, net.cfg)
        net.pairs[lid] = LandmarkPairState(lid, new_state)
    net.t += net.cfg.dt

    observed = set(observations)
    if self_id is not None:
        observed.add(self_id)
    c = consensus(net.pairs, observed)
    net.last_consensus = c
    net.beta_hat = track_heading(net.beta_hat, omega + drift.omega, beta_d,
                                 net.gamma_beta, net.cfg.dt)
    return c


def dunk_step(net: DunkNetwork, u_speed: float, omega: float,
              observations: dict[int, SensorBundle]) -> Consensus | None:
    """One tick of the single-vehicle pair network: :func:`pair_tick` with no drift."""
    return pair_tick(net, u_speed, omega, observations)
