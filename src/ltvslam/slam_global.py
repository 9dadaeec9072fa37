"""Full-state SLAM in global coordinates with heading side-estimation.

The stacked state holds every landmark's global position followed by
the vehicle's global position (and, in second-order mode, the vehicle's
global velocity).  The heading never enters the state vector: it is
estimated separately by minimizing the measurement residue and fed into
the measurement matrix as a rotation, which keeps the filter linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vmeas
from .core import (FilterState, RobotInputs, angle_diff, body_from_global,
                   heading_forward, rotation2d, skew, wrap_angle)
from .kalman import FilterConfig, ode_step
from .slam_local import SensorBundle, build_measurement

#: Offsets below this are ignored when estimating the heading.
EPS_OFFSET = 1e-9


@dataclass(frozen=True)
class VehicleKinematics:
    """Bicycle-model inputs: speed, axle distance, steering angle."""

    u: float
    L: float
    theta_s: float

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("axle distance must be > 0")
        if not abs(self.theta_s) < math.pi / 2:
            raise ValueError("steering angle must satisfy |theta_s| < pi/2")


def bicycle_omega(k: VehicleKinematics) -> float:
    """Yaw rate of the bicycle model: omega = (u / L) tan(theta_s)."""
    return (k.u / k.L) * math.tan(k.theta_s)


# ---------------------------------------------------------------------------
# Heading estimation
# ---------------------------------------------------------------------------

def _heading_residue(beta: float, offsets: np.ndarray, thetas: np.ndarray) -> float:
    T = body_from_global(beta)
    c, s = np.cos(thetas), np.sin(thetas)
    body = offsets @ T.T
    return float(np.sum((c * body[:, 0] - s * body[:, 1]) ** 2))


def _range_positivity(beta: float, offsets: np.ndarray, thetas: np.ndarray) -> float:
    """Sum of projected ranges h*(theta_i) T(beta) d_i; positive at the true heading."""
    T = body_from_global(beta)
    c, s = np.cos(thetas), np.sin(thetas)
    body = offsets @ T.T
    return float(np.sum(s * body[:, 0] + c * body[:, 1]))


def beta_d_closed_form_2d(landmark_estimates: np.ndarray,
                          vehicle_estimate: np.ndarray,
                          bearings: np.ndarray,
                          current_beta: float = 0.0) -> float:
    """Heading that minimizes the bearing-constraint residue.

    Solves d/d(beta) sum_i (h(theta_i) T(beta) (x_i - x_v))^2 = 0 in
    closed form.  The stationarity condition fixes 2*beta, leaving four
    candidates a quarter turn apart; the one with the smallest residue is
    returned.  Falls back to ``current_beta`` when there are no landmarks
    or every landmark offset is negligible.
    """
    xv = np.asarray(vehicle_estimate, dtype=float).ravel()
    lm = np.asarray(landmark_estimates, dtype=float).reshape(-1, xv.size)
    thetas = np.atleast_1d(np.asarray(bearings, dtype=float))
    if lm.shape[0] != thetas.size:
        raise ValueError("one bearing per landmark estimate is required")
    offsets = lm - xv
    keep = np.linalg.norm(offsets, axis=1) > EPS_OFFSET
    if not np.any(keep):
        return wrap_angle(current_beta)
    offsets, thetas = offsets[keep], thetas[keep]
    d1, d2 = offsets[:, 0], offsets[:, 1]
    two_t = 2.0 * thetas
    C = float(np.sum((d1**2 - d2**2) * np.cos(two_t) - 2 * d1 * d2 * np.sin(two_t)))
    S = float(np.sum((d1**2 - d2**2) * np.sin(two_t) + 2 * d1 * d2 * np.cos(two_t)))
    base = 0.5 * math.atan2(S, C)
    candidates = [wrap_angle(base + k * math.pi / 2.0) for k in range(4)]
    residues = [_heading_residue(b, offsets, thetas) for b in candidates]
    # The residue is pi-periodic, so the minimizer and its antipode tie.
    # Keep all near-minimal candidates and break the tie by requiring the
    # landmarks to sit at positive projected range, then by closeness to
    # the current heading.
    scale = float(np.sum(offsets ** 2))
    best = min(residues)
    tied = [b for b, r in zip(candidates, residues)
            if r <= best + 1e-9 * scale]
    positive = [b for b in tied if _range_positivity(b, offsets, thetas) > 0.0]
    pool = positive or tied
    return min(pool, key=lambda b: abs(angle_diff(b, current_beta)))


def track_heading(beta_hat: float, omega: float, beta_d: float,
                  gamma_beta: float = 1.0, dt: float = 0.01) -> float:
    """One Euler step of the heading tracker with shortest-arc error."""
    return wrap_angle(beta_hat + dt * (omega + gamma_beta * angle_diff(beta_d, beta_hat)))


# ---------------------------------------------------------------------------
# Full-state filter
# ---------------------------------------------------------------------------

@dataclass
class GlobalState:
    """Stacked landmark + vehicle estimate with full covariance and heading."""

    landmark_ids: list
    state: FilterState
    beta_hat: float
    second_order: bool = False
    dim: int = 2

    @property
    def n_landmarks(self) -> int:
        return len(self.landmark_ids)

    def _block(self, index: int) -> slice:
        return slice(self.dim * index, self.dim * (index + 1))

    def landmark(self, lid) -> np.ndarray:
        return self.state.x[self._block(self.landmark_ids.index(lid))]

    @property
    def vehicle(self) -> np.ndarray:
        return self.state.x[self._block(self.n_landmarks)]

    @property
    def vehicle_velocity(self) -> np.ndarray:
        if not self.second_order:
            raise ValueError("velocity sub-state exists only in second-order mode")
        return self.state.x[self._block(self.n_landmarks + 1)]


def init_global(x_v0: np.ndarray, P_v0: np.ndarray | None = None,
                beta0: float = 0.0, second_order: bool = False,
                v0: np.ndarray | None = None) -> GlobalState:
    x_v0 = np.asarray(x_v0, dtype=float).ravel()
    d = x_v0.size
    blocks = [x_v0]
    if second_order:
        blocks.append(np.zeros(d) if v0 is None else np.asarray(v0, float))
    x = np.concatenate(blocks)
    P = np.kron(np.eye(len(blocks)),
                np.eye(d) * 1e-6 if P_v0 is None else P_v0)
    return GlobalState(landmark_ids=[], state=FilterState(x, P),
                       beta_hat=wrap_angle(beta0), second_order=second_order,
                       dim=d)


def first_sighting_offset(bundle: SensorBundle, beta_hat: float,
                          r_max: float, d: int) -> np.ndarray:
    """Global-frame offset of a first sighting: range (else r_max/2) along the bearing."""
    if bundle.bearing is None:
        return np.zeros(d)
    r0 = bundle.range.r if bundle.range is not None else 0.5 * r_max
    _, h_star = vmeas.bearing_vectors_2d(bundle.bearing.theta)
    return rotation2d(beta_hat).apply(r0 * h_star.ravel())


def _append_landmark(gs: GlobalState, lid, bundle: SensorBundle,
                     r_max: float) -> GlobalState:
    """Grow the state by one landmark with a wide prior at the back-projected obs."""
    d = gs.dim
    x_new = gs.vehicle + first_sighting_offset(bundle, gs.beta_hat, r_max, d)
    nv = gs.n_landmarks
    insert = d * nv  # new landmark goes just before the vehicle block
    x = np.concatenate([gs.state.x[:insert], x_new, gs.state.x[insert:]])
    old = gs.state.P
    P = np.zeros((x.size, x.size))
    P[:insert, :insert] = old[:insert, :insert]
    P[:insert, insert + d:] = old[:insert, insert:]
    P[insert + d:, :insert] = old[insert:, :insert]
    P[insert + d:, insert + d:] = old[insert:, insert:]
    P[insert:insert + d, insert:insert + d] = 100.0 * np.eye(d)
    return GlobalState(landmark_ids=gs.landmark_ids + [lid],
                       state=FilterState(x, P, gs.state.t),
                       beta_hat=gs.beta_hat, second_order=gs.second_order,
                       dim=d)


def _lift_rows(gs: GlobalState, index: int, vm: vmeas.VirtualMeasurement
               ) -> vmeas.VirtualMeasurement:
    """Place body-frame case rows into the stacked global state: [MT, -MT]."""
    T = body_from_global(gs.beta_hat)
    M = vm.H @ T
    rows = vm.rows
    H = np.zeros((rows, gs.state.dim))
    H[:, gs._block(index)] = M
    H[:, gs._block(gs.n_landmarks)] = -M
    return vmeas.VirtualMeasurement(y=vm.y, H=H, R=vm.R)


def _second_order_rows(gs: GlobalState, index: int, case: int,
                       bundle: SensorBundle, inputs: RobotInputs, r_max: float
                       ) -> vmeas.VirtualMeasurement:
    """Case I-IV rows with the vehicle velocity as a sub-state instead of an input.

    ``inputs.u`` is the body-frame velocity estimate T v.  The case
    builders give the rows and R; the velocity-dependent term of the last
    row moves from y into H columns c acting on the velocity block, where
    y = -c v.  Case V stays nonlinear in this mode and is rejected.
    """
    if case == 5:
        raise ValueError("Case V is unsupported with second-order dynamics")
    vm = _lift_rows(gs, index, build_measurement(case, bundle, inputs, r_max))
    h, h_star = vmeas.bearing_vectors_2d(bundle.bearing.theta)
    if case == 3:
        # y = -h u
        c = h
    elif case == 4 and vm.rows > h.shape[0]:
        # y = s tau h* u, s chosen so the range surrogate is positive at
        # the current estimate; the Case I fallback has no such row
        c = -math.copysign(bundle.ttc.tau, float((h_star @ inputs.u)[0])) * h_star
    else:
        return vm
    H, y = vm.H.copy(), vm.y.copy()
    H[-1:, gs._block(gs.n_landmarks + 1)] = c @ body_from_global(gs.beta_hat)
    y[-1] = 0.0
    return vmeas.VirtualMeasurement(y=y, H=H, R=vm.R)


def step_global(gs: GlobalState, u: float | np.ndarray, omega: float,
                observations: dict, case: int = 2,
                cfg: FilterConfig = FilterConfig(),
                gamma_beta: float = 1.0,
                r_max: float = vmeas.DEFAULT_R_MAX) -> GlobalState:
    """One tick of the full-state filter.

    ``u`` is the forward speed (first-order mode) or the global-frame
    acceleration vector (second-order mode); ``omega`` is the yaw rate.
    New landmark ids in ``observations`` are appended before the update.
    """
    for lid, bundle in observations.items():
        if lid not in gs.landmark_ids:
            gs = _append_landmark(gs, lid, bundle, r_max)

    # The measurement and drift use the heading at the sample instant;
    # the tracker advances it to t+dt for the next tick afterwards.
    beta_hat = gs.beta_hat
    seen = [(lid, b) for lid, b in observations.items() if b.bearing is not None]
    beta_d = beta_d_closed_form_2d([gs.landmark(lid) for lid, _ in seen],
                                   gs.vehicle,
                                   [b.bearing.theta for _, b in seen], beta_hat)
    # body-frame velocity for the velocity-dependent cases
    if gs.second_order:
        fwd_body = body_from_global(beta_hat) @ gs.vehicle_velocity
    else:
        fwd_body = np.array([0.0, float(u)])
    inputs = RobotInputs(u=fwd_body, omega=skew(omega))
    parts = []
    for lid, bundle in observations.items():
        index = gs.landmark_ids.index(lid)
        if gs.second_order:
            vm = _second_order_rows(gs, index, case, bundle, inputs, r_max)
        else:
            r_hint = float(np.linalg.norm(gs.landmark(lid) - gs.vehicle)) or None
            body_vm = build_measurement(case, bundle, inputs, r_max, r_hint)
            vm = None if body_vm is None else _lift_rows(gs, index, body_vm)
        parts.append(vm)
    vm_all = vmeas.stack_measurements(*parts)

    n = gs.state.dim
    d = gs.dim
    A = np.zeros((n, n))
    b = np.zeros(n)
    nv = gs.n_landmarks
    if gs.second_order:
        # vehicle position integrates the velocity sub-state; velocity
        # integrates the (global-frame) acceleration input
        A[d * nv:d * nv + d, d * (nv + 1):d * (nv + 2)] = np.eye(d)
        acc = np.asarray(u, dtype=float).ravel()
        b[d * (nv + 1):] = acc
    else:
        b[d * nv:d * nv + d] = float(u) * heading_forward(beta_hat)
    new_state = ode_step(gs.state, A, b, vm_all, None, cfg)
    beta_next = track_heading(beta_hat, omega, beta_d, gamma_beta, cfg.dt)
    return GlobalState(gs.landmark_ids, new_state, beta_next,
                       gs.second_order, gs.dim)
