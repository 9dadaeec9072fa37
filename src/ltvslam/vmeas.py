"""Virtual measurement construction.

Each builder turns one instant's raw sensor readings into a linear
constraint triple ``y = H x + v`` on the relative landmark position in
the robot-fixed frame.  Five sensor menus are supported in both 2D and
3D, plus the pinhole camera and structure-from-motion constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noisecal
from .core import AngularVelocityMatrix, RobotInputs, Rotation2D

#: Below this radial/total speed (m/s) the time-to-contact and Doppler
#: constraints are unreliable and the affected row is dropped.
EPS_U = 1e-3

DEFAULT_R_MAX = 100.0


# ---------------------------------------------------------------------------
# Observation records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BearingObs:
    theta: float                 # rad, from the body forward axis
    phi: float | None = None     # rad, pitch (3D only)
    sigma_theta: float = 0.0
    sigma_phi: float = 0.0

    def __post_init__(self):
        if self.sigma_theta < 0 or self.sigma_phi < 0:
            raise ValueError("bearing noise std must be >= 0")

    @property
    def dim(self) -> int:
        return 2 if self.phi is None else 3


@dataclass(frozen=True)
class RangeObs:
    r: float
    sigma_r: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("range must be >= 0")


@dataclass(frozen=True)
class BearingRateObs:
    theta_dot: float             # rad/s
    phi_dot: float | None = None
    sigma_theta_dot: float = 0.0
    sigma_phi_dot: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.theta_dot):
            raise ValueError("non-finite bearing rate")


@dataclass(frozen=True)
class TimeToContactObs:
    tau: float                   # s
    alpha: float | None = None   # rad, visual angle the tau came from
    d: float | None = None       # m, feature size (simulation provenance)
    sigma_alpha: float = 0.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("time to contact must be > 0")


@dataclass(frozen=True)
class DopplerObs:
    r: float
    r_dot: float
    sigma_r: float = 0.0
    sigma_r_dot: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("range must be >= 0")


@dataclass(frozen=True)
class PinholeObs:
    f: float                     # focal length, image units
    y1: float
    y2: float
    sigma_img: float = 0.0

    def __post_init__(self):
        if self.f <= 0:
            raise ValueError("focal length must be > 0")


@dataclass(frozen=True)
class VirtualMeasurement:
    """One instant's linear constraint set y = H x + v, Cov(v) = R."""

    y: np.ndarray
    H: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if not (y.size == H.shape[0] == R.shape[0] == R.shape[1]):
            raise ValueError(
                f"row mismatch: y {y.size}, H {H.shape}, R {R.shape}")
        if np.abs(R - R.T).max() > 1e-12 * max(np.abs(R).max(), 1.0):
            raise ValueError("R must be symmetric")
        if np.linalg.eigvalsh(R).min() <= 0:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", 0.5 * (R + R.T))

    @property
    def rows(self) -> int:
        return self.y.size

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.y - self.H @ np.asarray(x, dtype=float)


def stack_measurements(*vms: "VirtualMeasurement | None") -> VirtualMeasurement | None:
    parts = [vm for vm in vms if vm is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    y = np.concatenate([vm.y for vm in parts])
    H = np.vstack([vm.H for vm in parts])
    R = noisecal.block_diag_R(*[vm.R for vm in parts])
    return VirtualMeasurement(y=y, H=H, R=R)


# ---------------------------------------------------------------------------
# Bearing geometry
# ---------------------------------------------------------------------------

def bearing_vectors_2d(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Tangential row h and radial row h* for a 2D bearing.

    h x = 0 and h* x = r hold for x = (r sin(theta), r cos(theta)).
    """
    c, s = math.cos(theta), math.sin(theta)
    h = np.array([[c, -s]])
    h_star = np.array([[s, c]])
    return h, h_star


def bearing_vectors_3d(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Tangential rows h (2x3) and radial row h* (1x3) for a 3D bearing.

    The three rows are orthonormal, h x = 0 and h* x = r for
    x = (r cos(phi) sin(theta), r cos(phi) cos(theta), r sin(phi)).
    """
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    h = np.array([
        [ct, -st, 0.0],
        [-sp * st, -sp * ct, cp],
    ])
    h_star = np.array([[cp * st, cp * ct, sp]])
    return h, h_star


def _bearing_rows(bearing: BearingObs) -> tuple[np.ndarray, np.ndarray]:
    if bearing.dim == 2:
        return bearing_vectors_2d(bearing.theta)
    return bearing_vectors_3d(bearing.theta, bearing.phi)


# ---------------------------------------------------------------------------
# Case builders
# ---------------------------------------------------------------------------

def case1(bearing: BearingObs, *, r_max: float = DEFAULT_R_MAX,
          r_star: float | None = None) -> VirtualMeasurement:
    """Bearing only: the angular error becomes a tangential position error."""
    h, _ = _bearing_rows(bearing)
    if r_star is None:
        r_star = noisecal.r_star(None, 0.0, r_max)
    R = noisecal.tangential_R(bearing, r_star)
    return VirtualMeasurement(y=np.zeros(h.shape[0]), H=h, R=R)


def case2(bearing: BearingObs, rng: RangeObs, *, r_max: float = DEFAULT_R_MAX
          ) -> VirtualMeasurement:
    """Bearing plus range: tangential rows and the radial constraint h* x = r."""
    h, h_star = _bearing_rows(bearing)
    rstar = noisecal.r_star(rng.r, rng.sigma_r, r_max)
    H = np.vstack([h, h_star])
    y = np.concatenate([np.zeros(h.shape[0]), [rng.r]])
    R = noisecal.block_diag_R(noisecal.tangential_R(bearing, rstar),
                              noisecal.range_row_R(rng))
    return VirtualMeasurement(y=y, H=H, R=R)


def case3(bearing: BearingObs, rate: BearingRateObs, inputs: RobotInputs,
          *, r_max: float = DEFAULT_R_MAX,
          r_hint: float | None = None) -> VirtualMeasurement:
    """Bearing plus bearing-rate: adds the tangential-velocity constraint.

    2D:  y2 = -h u with row  theta_dot h* + h Omega.
    3D:  rows D + h Omega with D = [theta_dot (sin, cos, 0); phi_dot h*].

    ``r_hint`` (e.g. the current range estimate) sharpens the rate-row
    noise calibration, whose residual scales with the true range; without
    it the conservative r_max bound applies.
    """
    h, h_star = _bearing_rows(bearing)
    Om = inputs.omega.matrix
    u = inputs.u
    if bearing.dim == 2:
        D = rate.theta_dot * h_star
    else:
        ct, st = math.cos(bearing.theta), math.sin(bearing.theta)
        D = np.vstack([
            rate.theta_dot * np.array([[st, ct, 0.0]]),
            (rate.phi_dot or 0.0) * h_star,
        ])
    H = np.vstack([h, D + h @ Om])
    y = np.concatenate([np.zeros(h.shape[0]), -(h @ u)])
    rstar = noisecal.r_star(None, 0.0, r_max)
    rate_rstar = noisecal.r_star(r_hint, 0.0, r_max) if r_hint else rstar
    R = noisecal.block_diag_R(
        noisecal.tangential_R(bearing, rstar),
        noisecal.rate_row_R(bearing, rate, inputs, rate_rstar),
    )
    return VirtualMeasurement(y=y, H=H, R=R)


def case4(bearing: BearingObs, ttc: TimeToContactObs, inputs: RobotInputs,
          *, r_max: float = DEFAULT_R_MAX) -> VirtualMeasurement:
    """Bearing plus time-to-contact: |tau h* u| estimates the radial distance.

    When the radial speed |h* u| is below EPS_U the time-to-contact
    reading is unreliable and the radial row is dropped (Case I fallback).
    """
    h, h_star = _bearing_rows(bearing)
    radial_speed = float((h_star @ inputs.u)[0])
    if abs(radial_speed) < EPS_U:
        return case1(bearing, r_max=r_max)
    y4 = abs(ttc.tau * radial_speed)
    rstar = noisecal.r_star(y4, 0.0, r_max)
    H = np.vstack([h, h_star])
    y = np.concatenate([np.zeros(h.shape[0]), [y4]])
    R = noisecal.block_diag_R(
        noisecal.tangential_R(bearing, rstar),
        noisecal.ttc_row_R(ttc, radial_speed),
    )
    return VirtualMeasurement(y=y, H=H, R=R)


def case5(doppler: DopplerObs, inputs: RobotInputs) -> VirtualMeasurement | None:
    """Range and range-rate only: r rdot = -u^T x.

    Returns None when the robot is (nearly) stationary; the constraint
    carries no information then.
    """
    if float(np.linalg.norm(inputs.u)) < EPS_U:
        return None
    H = -inputs.u[np.newaxis, :]
    y = np.array([doppler.r * doppler.r_dot])
    var = (doppler.r_dot * doppler.sigma_r)**2 \
        + (doppler.r * doppler.sigma_r_dot)**2 \
        + (doppler.sigma_r * doppler.sigma_r_dot)**2
    R = np.array([[max(var, noisecal.VAR_FLOOR)]])
    return VirtualMeasurement(y=y, H=H, R=R)


def pinhole(obs: PinholeObs, *, r_max: float = DEFAULT_R_MAX) -> VirtualMeasurement:
    """Pinhole projection (y1, y2) = -f/x3 (x1, x2) as two linear rows."""
    H = np.array([
        [obs.f, 0.0, obs.y1],
        [0.0, obs.f, obs.y2],
    ])
    var = max(obs.sigma_img**2, noisecal.VAR_FLOOR) * r_max**2
    return VirtualMeasurement(y=np.zeros(2), H=H, R=var * np.eye(2))


def _heading_matrix_3d(heading) -> np.ndarray:
    if isinstance(heading, Rotation2D):
        T = np.eye(3)
        T[:2, :2] = heading.matrix.T  # global -> camera for the planar part
        return T
    T = np.asarray(heading, dtype=float)
    if T.shape != (3, 3):
        raise ValueError("heading must be a Rotation2D or a 3x3 rotation matrix")
    return T


def sfm_constraint(obs: PinholeObs, heading, *, r_max: float = DEFAULT_R_MAX
                   ) -> VirtualMeasurement:
    """Structure-from-motion rows over the stacked (feature, camera) state.

    The pinhole rows act on T (x_feature - x_camera) with T the
    global-to-camera rotation, giving the block row [+HT, -HT].
    """
    vm = pinhole(obs, r_max=r_max)
    base = vm.H @ _heading_matrix_3d(heading)
    return VirtualMeasurement(y=vm.y, H=np.hstack([base, -base]), R=vm.R)


# ---------------------------------------------------------------------------
# Noise-free observation synthesis (shared by the simulator and the
# Monte Carlo noise calibration)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrueObservation:
    """Exact sensor values for a relative state x obeying xdot = -Omega x - u."""

    theta: float
    r: float
    theta_dot: float
    r_dot: float
    phi: float | None = None
    phi_dot: float | None = None
    alpha: float | None = None
    tau: float | None = None


def observe_true(x: np.ndarray, inputs: RobotInputs,
                 diameter: float | None = None) -> TrueObservation:
    """All noise-free observables of a static landmark at relative position x."""
    x = np.asarray(x, dtype=float).ravel()
    xdot = -inputs.omega.matrix @ x - inputs.u
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("landmark coincides with the robot")
    r_dot = float(x @ xdot) / r
    theta = math.atan2(x[0], x[1])
    rho2 = x[0]**2 + x[1]**2
    theta_dot = (xdot[0] * x[1] - x[0] * xdot[1]) / rho2
    phi = phi_dot = None
    if x.size == 3:
        rho = math.sqrt(rho2)
        phi = math.atan2(x[2], rho)
        rho_dot = (x[0] * xdot[0] + x[1] * xdot[1]) / rho
        phi_dot = (xdot[2] * rho - x[2] * rho_dot) / r**2
    alpha = tau = None
    if diameter is not None:
        # tau is the exact range-over-closing-speed ratio the radial
        # constraint needs; the visual angle alpha is what a camera
        # actually resolves (its ratio alpha/alphadot approximates tau)
        alpha = math.atan2(diameter, r)
        if abs(r_dot) > 1e-12:
            tau = abs(r / r_dot)
    return TrueObservation(theta=theta, r=r, theta_dot=theta_dot, r_dot=r_dot,
                           phi=phi, phi_dot=phi_dot, alpha=alpha, tau=tau)
