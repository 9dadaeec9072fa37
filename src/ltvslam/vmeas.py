"""Virtual measurement construction.

Each builder turns one instant's raw sensor readings into a linear
constraint triple ``y = H x + v`` on the relative landmark position in
the robot-fixed frame.  Five sensor menus are supported in both 2D and
3D, plus the pinhole camera constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noisecal
from .core import RobotInputs

#: Below this radial/total speed (m/s) the time-to-contact and Doppler
#: constraints are unreliable and the affected row is dropped.
EPS_U = 1e-3


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
class SensorBundle:
    """One landmark's raw readings for a single instant.

    Which fields are set determines nothing by itself; the consumer picks
    the rows for its configured case.
    """

    bearing: BearingObs | None = None
    range: RangeObs | None = None
    rate: BearingRateObs | None = None
    ttc: TimeToContactObs | None = None
    doppler: DopplerObs | None = None


@dataclass(frozen=True)
class VirtualMeasurement:
    """One instant's linear constraint set y = H x + v, Cov(v) = R.

    The constructor checks the row counts and that R is symmetric positive
    definite; the package's own rows, whose R is floored and symmetric where
    it is made, come from :meth:`_derived`.
    """

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
        R = 0.5 * (R + R.T)
        if np.linalg.eigvalsh(R).min() <= 0:
            raise ValueError("R must be positive definite")
        self.__dict__.update(y=y, H=H, R=R)

    @classmethod
    def _derived(cls, y, H, R) -> "VirtualMeasurement":
        """Unchecked; y, H and R are stored as given and shared, so never written."""
        vm = object.__new__(cls)
        vm.__dict__.update(y=y, H=H, R=R)
        return vm

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
    return VirtualMeasurement._derived(y, H, R)


# ---------------------------------------------------------------------------
# Bearing geometry
# ---------------------------------------------------------------------------

def _rows(*rows) -> np.ndarray:
    """(k, d) matrix of k rows; equal-shaped array entries add its leading axes."""
    a = np.array(rows)
    return a if a.ndim == 2 else np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1)))


def bearing_vectors_2d(theta) -> tuple[np.ndarray, np.ndarray]:
    """Tangential row h and radial row h* for a 2D bearing.

    h x = 0 and h* x = r hold for x = (r sin(theta), r cos(theta)).
    An array of bearings gives a stack of rows, one per bearing.
    """
    c, s = np.cos(theta), np.sin(theta)
    return _rows([c, -s]), _rows([s, c])


def bearing_vectors_3d(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Tangential rows h (2x3) and radial row h* (1x3) for a 3D bearing.

    The three rows are orthonormal, h x = 0 and h* x = r for
    x = (r cos(phi) sin(theta), r cos(phi) cos(theta), r sin(phi)).
    Equal-shaped arrays of angles give a stack of rows, one per pair.
    """
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    h = _rows([ct, -st, np.zeros_like(ct)], [-sp * st, -sp * ct, cp])
    return h, _rows([cp * st, cp * ct, sp])


def _bearing_rows(bearing: BearingObs) -> tuple[np.ndarray, np.ndarray]:
    if bearing.dim == 2:
        return bearing_vectors_2d(bearing.theta)
    return bearing_vectors_3d(bearing.theta, bearing.phi)


# ---------------------------------------------------------------------------
# Case builders
# ---------------------------------------------------------------------------

def case1(bearing: BearingObs) -> VirtualMeasurement:
    """Bearing only: the angular error becomes a tangential position error."""
    h, _ = _bearing_rows(bearing)
    R = noisecal.tangential_R(bearing, noisecal.R_MAX)
    return VirtualMeasurement._derived(np.zeros(h.shape[0]), h, R)


def case2(bearing: BearingObs, rng: RangeObs) -> VirtualMeasurement:
    """Bearing plus range: tangential rows and the radial constraint h* x = r."""
    h, h_star = _bearing_rows(bearing)
    rstar = noisecal.r_star(rng.r, rng.sigma_r)
    H = np.vstack([h, h_star])
    y = np.concatenate([np.zeros(h.shape[0]), [rng.r]])
    R = noisecal.block_diag_R(noisecal.tangential_R(bearing, rstar),
                              noisecal.range_row_R(rng))
    return VirtualMeasurement._derived(y, H, R)


def case3(bearing: BearingObs, rate: BearingRateObs, inputs: RobotInputs,
          *, r_hint: float | None = None) -> VirtualMeasurement:
    """Bearing plus bearing-rate: adds the tangential-velocity constraint.

    Its rows are [h; M] x = [0; -h u], with M from :func:`_rate_rows`.

    ``r_hint`` (e.g. the current range estimate) sharpens the rate-row
    noise calibration, whose residual scales with the true range; without
    it the conservative R_MAX bound applies.
    """
    h, y2, M = _rate_rows(bearing.theta, bearing.phi, rate.theta_dot,
                          rate.phi_dot or 0.0, inputs.u, inputs.omega.matrix)
    H = np.vstack([h, M])
    y = np.concatenate([np.zeros(h.shape[0]), y2])
    rate_rstar = noisecal.r_star(r_hint, 0.0) if r_hint else noisecal.R_MAX
    R = noisecal.block_diag_R(
        noisecal.tangential_R(bearing, noisecal.R_MAX),
        noisecal.rate_row_R(bearing, rate, inputs, rate_rstar),
    )
    return VirtualMeasurement._derived(y, H, R)


def _rate_rows(theta, phi, theta_dot, phi_dot, u: np.ndarray, Om: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Case III bearing rows h and velocity rows y = M x (phi None in 2D).

    y = -h u and M = D + h Omega, with D = theta_dot h* in 2D and
    D = [theta_dot (sin theta, cos theta, 0); phi_dot h*] in 3D.  Equal-shaped
    arrays of angles and rates give a stack of rows, one per sample, each
    the scalar call's; the rate-row noise calibration passes its samples so.
    """
    td = np.asarray(theta_dot)[..., None, None]
    if phi is None:
        h, h_star = bearing_vectors_2d(theta)
        D = td * h_star
    else:
        h, h_star = bearing_vectors_3d(theta, phi)
        ct, st = np.cos(theta), np.sin(theta)
        D = np.concatenate([td * _rows([st, ct, np.zeros_like(ct)]),
                            np.asarray(phi_dot)[..., None, None] * h_star], axis=-2)
    return h, -(h @ u), D + h @ Om


def case4(bearing: BearingObs, ttc: TimeToContactObs | None, inputs: RobotInputs
          ) -> VirtualMeasurement:
    """Bearing plus time-to-contact: |tau h* u| estimates the radial distance.

    When there is no time-to-contact reading (the range is not changing),
    or the radial speed |h* u| is below EPS_U so that the reading is
    unreliable, the radial row is dropped (Case I fallback).
    """
    h, h_star = _bearing_rows(bearing)
    radial_speed = float((h_star @ inputs.u)[0])
    if ttc is None or abs(radial_speed) < EPS_U:
        return case1(bearing)
    y4 = abs(ttc.tau * radial_speed)
    rstar = noisecal.r_star(y4, 0.0)
    H = np.vstack([h, h_star])
    y = np.concatenate([np.zeros(h.shape[0]), [y4]])
    R = noisecal.block_diag_R(
        noisecal.tangential_R(bearing, rstar),
        noisecal.ttc_row_R(ttc, radial_speed),
    )
    return VirtualMeasurement._derived(y, H, R)


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
    return VirtualMeasurement._derived(y, H, R)


def build_measurement(case: int, bundle: SensorBundle, inputs: RobotInputs,
                      r_hint: float | None = None) -> VirtualMeasurement | None:
    """Virtual measurement for the given sensor case, or None if unusable.

    ``r_hint`` is an optional current range estimate used to sharpen
    noise calibration in the range-free cases.
    """
    if case == 1:
        return case1(bundle.bearing)
    if case == 2:
        return case2(bundle.bearing, bundle.range)
    if case == 3:
        return case3(bundle.bearing, bundle.rate, inputs, r_hint=r_hint)
    if case == 4:
        return case4(bundle.bearing, bundle.ttc, inputs)
    if case == 5:
        return case5(bundle.doppler, inputs)
    raise ValueError(f"unknown case {case}")


def pinhole(obs: PinholeObs) -> VirtualMeasurement:
    """Pinhole projection (y1, y2) = -f/x3 (x1, x2) as two linear rows."""
    H = np.array([
        [obs.f, 0.0, obs.y1],
        [0.0, obs.f, obs.y2],
    ])
    var = max(obs.sigma_img**2, noisecal.VAR_FLOOR) * noisecal.R_MAX**2
    return VirtualMeasurement._derived(np.zeros(2), H, var * np.eye(2))


def _lift(vm: VirtualMeasurement, T: np.ndarray, n: int, landmark,
          vehicle: int) -> VirtualMeasurement:
    """Rows on T (x_landmark - x_vehicle), placed in an n-column state.

    M = H T fills the columns of block ``landmark`` (one for all rows, or a
    list of one per row) and -M those of block ``vehicle``; each block is as
    wide as T.
    """
    M = vm.H @ T
    k, d = M.shape
    H = np.zeros((k, n // d, d))
    H[np.arange(k), landmark] = M
    H[:, vehicle] = -M
    return VirtualMeasurement._derived(vm.y, H.reshape(k, n), vm.R)


# ---------------------------------------------------------------------------
# Observation synthesis (shared by the simulator and the Monte Carlo noise
# porting)
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


def noisy_bundle(true: TrueObservation, noise,
                 rng: np.random.Generator) -> SensorBundle:
    """Every reading of one sighting, drawn around ``true`` per ``noise``'s sigmas.

    One normal each, in this order: theta, phi (3D only), r, theta_dot,
    phi_dot (3D only), r_dot, alpha; the simulator's streams depend on it.
    ``true`` must come from :func:`observe_true` with a ``diameter``.
    The range is clipped at 0, and the visual-angle error enters tau
    multiplicatively (tau ~ alpha/alphadot).
    """
    is3d = true.phi is not None
    theta = true.theta + rng.normal(0.0, noise.sigma_theta)
    phi = true.phi + rng.normal(0.0, noise.sigma_phi) if is3d else None
    r = max(true.r + rng.normal(0.0, noise.sigma_r), 0.0)
    theta_dot = true.theta_dot + rng.normal(0.0, noise.sigma_theta_dot)
    phi_dot = true.phi_dot + rng.normal(0.0, noise.sigma_phi_dot) if is3d else None
    r_dot = true.r_dot + rng.normal(0.0, noise.sigma_r_dot)
    alpha = true.alpha + rng.normal(0.0, noise.sigma_alpha)
    tau = None
    if true.tau is not None and true.alpha and true.alpha > 0:
        tau = true.tau * max(alpha / true.alpha, 1e-9)
    return SensorBundle(
        bearing=BearingObs(theta=theta, phi=phi, sigma_theta=noise.sigma_theta,
                           sigma_phi=noise.sigma_phi),
        range=RangeObs(r=r, sigma_r=noise.sigma_r),
        rate=BearingRateObs(theta_dot=theta_dot, phi_dot=phi_dot,
                            sigma_theta_dot=noise.sigma_theta_dot,
                            sigma_phi_dot=noise.sigma_phi_dot),
        ttc=None if tau is None else TimeToContactObs(
            tau=max(tau, 1e-9), alpha=alpha, sigma_alpha=noise.sigma_alpha),
        doppler=DopplerObs(r=r, r_dot=r_dot, sigma_r=noise.sigma_r,
                           sigma_r_dot=noise.sigma_r_dot))
