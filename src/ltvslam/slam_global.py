"""Full-state SLAM in global coordinates with heading side-estimation.

The stacked state holds every landmark's planar global position
followed by the vehicle's.  The vehicle model is first order: its
position integrates the forward speed along the estimated heading.  The
heading never enters the state vector: it is estimated separately by
minimizing the measurement residue and fed into the measurement matrix
as a rotation, which keeps the filter linear.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import noisecal, vmeas
from .core import (Estimates, FilterState, RobotInputs, angle_diff,
                   body_from_global, heading_forward, rotation2d, run_sums,
                   skew, wrap_angle)
from .kalman import FilterConfig, info_correct, ode_step
from .vmeas import SensorBundle, build_measurement

#: Offsets below this are ignored when estimating the heading.
EPS_OFFSET = 1e-9

#: Gain of the heading tracker: beta_hat' = omega + GAMMA_BETA (beta_d - beta_hat).
GAMMA_BETA = 1.0


# ---------------------------------------------------------------------------
# Heading estimation
# ---------------------------------------------------------------------------

def _heading_residue(beta: float, offsets: np.ndarray, thetas: np.ndarray) -> float:
    """Sum of the squared tangential parts h(theta_i) T(beta) d_i."""
    body = offsets @ body_from_global(beta).T
    return float(np.sum((np.cos(thetas) * body[:, 0] - np.sin(thetas) * body[:, 1]) ** 2))


def beta_d_closed_form_2d(landmark_estimates: np.ndarray,
                          vehicle_estimate: np.ndarray,
                          bearings: np.ndarray,
                          current_beta=0.0, counts=None):
    """Heading that minimizes the bearing-constraint residue.

    With each offset d_i = x_i - x_v written as |d_i| e^{i psi_i}, its
    tangential part h(theta_i) T(beta) d_i is |d_i| cos(psi_i + theta_i -
    beta) and its projected range h* T(beta) d_i is |d_i| sin(psi_i +
    theta_i - beta).  The residue is therefore
    r(beta) = sum_i |d_i|^2 / 2 + |Z| cos(arg Z - 2 beta) / 2 with Z = C + iS:
    its maximum is at atan2(S, C) / 2 and its two minima a quarter turn
    either side, where the projected-range sums are negatives of each
    other.  The minimum that puts the landmarks at positive projected
    range (true at the true heading) is returned; on an exact tie the one
    closer to ``current_beta``.  Falls back to ``current_beta`` when there
    are no landmarks or every landmark offset is negligible.

    With ``counts`` the landmarks come in runs, counts[j] of map j, and
    one heading per map is returned, each from its own run's sums (those
    of a call on the run alone) and its ``current_beta[j]``.
    """
    xv = np.asarray(vehicle_estimate, dtype=float).ravel()
    lm = np.asarray(landmark_estimates, dtype=float).reshape(-1, xv.size)
    thetas = np.atleast_1d(np.asarray(bearings, dtype=float))
    runs = [lm.shape[0]] if counts is None else counts
    if lm.shape[0] != thetas.size or sum(runs) != thetas.size:
        raise ValueError("one bearing per landmark estimate is required")
    offsets = lm - xv
    keep = np.linalg.norm(offsets, axis=1) > EPS_OFFSET
    run = np.repeat(np.arange(len(runs)), runs)[keep]
    n = np.bincount(run, minlength=len(runs))
    offsets, thetas = offsets[keep], thetas[keep]
    d1, d2 = offsets[:, 0], offsets[:, 1]
    two_t = 2.0 * thetas
    C = run_sums((d1**2 - d2**2) * np.cos(two_t) - 2 * d1 * d2 * np.sin(two_t), n)
    S = run_sums((d1**2 - d2**2) * np.sin(two_t) + 2 * d1 * d2 * np.cos(two_t), n)
    base = [0.5 * math.atan2(s, c) for s, c in zip(S.tolist(), C.tolist())]
    b1, b3 = ([wrap_angle(b + k * math.pi / 2.0) for b in base] for k in (1, 3))
    phi = thetas - np.array(b1)[run]   # projected ranges at b1 sum to ahead
    ahead = run_sums(d1 * np.sin(phi) + d2 * np.cos(phi), n).tolist()
    betas = [wrap_angle(cur) if not m else (a if ah > 0.0 else b) if ah != 0.0 else
             min((a, b), key=lambda x: abs(angle_diff(x, cur))) for m, a, b, ah, cur
             in zip(n, b1, b3, ahead, [current_beta] if counts is None else current_beta)]
    return betas[0] if counts is None else betas


def track_heading(beta_hat: float, omega: float, beta_d: float, dt: float) -> float:
    """One Euler step of the heading tracker with shortest-arc error."""
    return wrap_angle(beta_hat + dt * (omega + GAMMA_BETA * angle_diff(beta_d, beta_hat)))


# ---------------------------------------------------------------------------
# Full-state filter
# ---------------------------------------------------------------------------

@dataclass
class GlobalState:
    """Stacked landmark + vehicle estimate with full covariance and heading.

    ``Y`` is the information matrix P^{-1} that `step_global` corrects
    through.  A state built without it forms it from P once, so P must
    then be positive definite (`ValueError` otherwise).
    """

    landmark_ids: list
    state: FilterState
    beta_hat: float
    Y: np.ndarray | None = field(default=None, repr=False)
    dim: ClassVar[int] = 2

    def __post_init__(self):
        if self.Y is None:
            P = self.state.P
            try:
                np.linalg.cholesky(P)
            except np.linalg.LinAlgError:
                raise ValueError("P must be positive definite to form Y = P^-1") from None
            Y = np.linalg.inv(P)
            self.Y = 0.5 * (Y + Y.T)

    @property
    def n_landmarks(self) -> int:
        return len(self.landmark_ids)

    @property
    def vehicle(self) -> np.ndarray:
        return self.state.x[self.dim * self.n_landmarks:]

    def estimates(self) -> Estimates:
        """Landmark and vehicle positions with their diagonal covariance blocks."""
        n, d = self.n_landmarks, self.dim
        i = np.arange(n + 1)
        blocks = self.state.P.reshape(n + 1, d, n + 1, d)[i, :, i]   # (n + 1, d, d)
        return Estimates(self.state.t, list(self.landmark_ids),
                         self.state.x[:d * n].reshape(n, d), blocks[:n],
                         (self.vehicle, blocks[n]))


def init_global(x_v0: np.ndarray, beta0: float = 0.0) -> GlobalState:
    """An empty map with the vehicle at the planar start ``x_v0``."""
    x_v0 = np.asarray(x_v0, dtype=float).ravel()
    if x_v0.shape != (GlobalState.dim,):
        raise ValueError(f"vehicle start must be a 2-vector, got shape {x_v0.shape}")
    return GlobalState(landmark_ids=[], state=FilterState(x_v0, np.eye(2) * 1e-6),
                       beta_hat=wrap_angle(beta0), Y=np.eye(2) / 1e-6)


def first_sighting_offset(bundle: SensorBundle, beta_hat: float) -> np.ndarray:
    """Global-frame offset of a first sighting: range (else R_MAX/2) along the bearing."""
    if bundle.bearing is None:
        return np.zeros(2)
    r0 = bundle.range.r if bundle.range is not None else 0.5 * noisecal.R_MAX
    _, h_star = vmeas.bearing_vectors_2d(bundle.bearing.theta)
    return rotation2d(beta_hat) @ (r0 * h_star.ravel())


def _append_landmarks(gs: GlobalState, new: dict) -> GlobalState:
    """Grow the state by ``new`` ({id: first bundle}) at their back-projected obs."""
    x_new = np.concatenate([gs.vehicle + first_sighting_offset(b, gs.beta_hat)
                            for b in new.values()])
    k, m = gs.dim * gs.n_landmarks, x_new.size

    def grow(M, var):   # PD M plus a PD block: no check
        M = np.insert(np.insert(M, [k] * m, 0.0, axis=0), [k] * m, 0.0, axis=1)
        M[k:k + m, k:k + m] = var * np.eye(m)
        return M

    return GlobalState(landmark_ids=gs.landmark_ids + list(new),
                       state=FilterState._derived(np.insert(gs.state.x, k, x_new),
                                                  grow(gs.state.P, 100.0), gs.state.t),
                       beta_hat=gs.beta_hat, Y=grow(gs.Y, 1 / 100.0))


def step_global(gs: GlobalState, u: float, omega: float,
                observations: dict, case: int = 2,
                cfg: FilterConfig = FilterConfig()) -> GlobalState:
    """One tick of the full-state filter.

    ``u`` is the forward speed and ``omega`` the yaw rate.  New landmark
    ids in ``observations`` are appended before the update.
    """
    block = {lid: i for i, lid in enumerate(gs.landmark_ids)}
    new = {lid: b for lid, b in observations.items() if lid not in block}
    if new:
        gs = _append_landmarks(gs, new)
        block.update(zip(new, itertools.count(len(block))))

    # The measurement and drift use the heading at the sample instant;
    # the tracker advances it to t+dt for the next tick afterwards.
    beta_hat, xv = gs.beta_hat, gs.vehicle
    bundles = list(observations.values())
    blocks = np.array([block[lid] for lid in observations], dtype=int)
    offsets = gs.state.x.reshape(-1, gs.dim)[blocks] - xv
    seen = [i for i, b in enumerate(bundles) if b.bearing is not None]
    beta_d = beta_d_closed_form_2d(offsets[seen], np.zeros(gs.dim),
                                   [bundles[i].bearing.theta for i in seen],
                                   beta_hat)
    inputs = RobotInputs(u=np.array([0.0, float(u)]), omega=skew(omega))
    n, state, Y = gs.state.dim, gs.state, gs.Y
    body = build_measurement(case, bundles, inputs, vmeas.range_hints(offsets))
    if body is not None:   # the whole tick's body rows, placed by one lift
        rows, sighting = vmeas.flat_rows(body)
        vm_all = vmeas._lift(rows, body_from_global(beta_hat), n,
                             blocks[sighting], gs.n_landmarks)
        x, Y, P = info_correct(state.x, Y, vm_all, cfg.dt, state.t)
        state = FilterState._derived(x, P, state.t)

    # A = 0 and no Q: P is unchanged, and only the vehicle block (last)
    # moves, at u along the heading
    b = np.concatenate([np.zeros(n - gs.dim), float(u) * heading_forward(beta_hat)])
    new_state = ode_step(state, np.zeros((2, 2)), b, None, None, cfg)
    beta_next = track_heading(beta_hat, omega, beta_d, cfg.dt)
    return GlobalState(gs.landmark_ids, new_state, beta_next, Y)
