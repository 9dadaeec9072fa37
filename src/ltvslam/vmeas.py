"""Virtual measurement construction.

Each builder turns one instant's raw sensor readings into a linear
constraint triple ``y = H x + v`` on the relative landmark position in
the robot-fixed frame.  Five sensor menus are supported in both 2D and
3D, plus the pinhole camera constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

import numpy as np

from . import noisecal
from .core import RobotInputs

#: Below this radial/total speed (m/s) the time-to-contact and Doppler
#: constraints are unreliable and the affected row is dropped.
EPS_U = 1e-3


# ---------------------------------------------------------------------------
# Observation records
# ---------------------------------------------------------------------------

class _Reading:
    """Checks that every set value is finite, each ``_NONNEG`` one >= 0 and
    each ``_POSITIVE`` one > 0 (None: unset)."""

    _NONNEG = _POSITIVE = ()

    def __post_init__(self):
        for name in self.__dataclass_fields__:   # getattr: vars() would add a dict
            value = getattr(self, name)
            if value is not None and not -math.inf < value < math.inf:
                self._reject(name, "finite")
        for name in self._NONNEG:
            if getattr(self, name) < 0:
                self._reject(name, ">= 0")
        for name in self._POSITIVE:
            if getattr(self, name) <= 0:
                self._reject(name, "> 0")

    def _reject(self, name, rule):
        raise ValueError(f"{type(self).__name__}.{name} must be {rule}, "
                         f"got {getattr(self, name)!r}")


@dataclass(frozen=True)
class BearingObs(_Reading):
    theta: float                 # rad, from the body forward axis
    phi: float | None = None     # rad, pitch (3D only)
    sigma_theta: float = 0.0
    sigma_phi: float = 0.0
    _NONNEG = ("sigma_theta", "sigma_phi")

    @property
    def dim(self) -> int:
        return 2 if self.phi is None else 3


@dataclass(frozen=True)
class RangeObs(_Reading):
    r: float
    sigma_r: float = 0.0
    _NONNEG = ("r", "sigma_r")


@dataclass(frozen=True)
class BearingRateObs(_Reading):
    theta_dot: float             # rad/s
    phi_dot: float | None = None
    sigma_theta_dot: float = 0.0
    sigma_phi_dot: float = 0.0
    _NONNEG = ("sigma_theta_dot", "sigma_phi_dot")


@dataclass(frozen=True)
class TimeToContactObs(_Reading):
    tau: float                   # s
    alpha: float | None = None   # rad, visual angle the tau came from
    sigma_alpha: float = 0.0
    _NONNEG = ("sigma_alpha",)
    _POSITIVE = ("tau",)


@dataclass(frozen=True)
class DopplerObs(_Reading):
    r: float
    r_dot: float
    sigma_r: float = 0.0
    sigma_r_dot: float = 0.0
    _NONNEG = ("r", "sigma_r", "sigma_r_dot")


@dataclass(frozen=True)
class PinholeObs(_Reading):
    f: float                     # focal length, image units
    y1: float
    y2: float
    sigma_img: float = 0.0
    _NONNEG = ("sigma_img",)
    _POSITIVE = ("f",)


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
    definite; the package's own rows (a tick's with a leading sighting
    axis), whose R is floored and symmetric where made, use :meth:`_derived`.
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
        return self.y.shape[-1]   # each filter's, for a stack of filters

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.y - self.H @ np.asarray(x, dtype=float)


def stack_measurements(*vms: "VirtualMeasurement | None") -> VirtualMeasurement | None:
    """The given row sets (None skipped) as one, with a block-diagonal R;
    sets with a leading filter axis (all alike) stack filter by filter."""
    parts = [vm for vm in vms if vm is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    y = np.concatenate([vm.y for vm in parts], -1)
    H = np.concatenate([vm.H for vm in parts], -2)
    R, k = np.zeros(y.shape + y.shape[-1:]), 0
    for vm in parts:
        R[..., k:k + vm.rows, k:k + vm.rows] = vm.R
        k += vm.rows
    return VirtualMeasurement._derived(y, H, R)


def place_rows(n: int, *placed) -> VirtualMeasurement | None:
    """The rows of an n-filter map: each ``(index, vm)`` (either None:
    skipped) gives filter index[j] the rows vm[j] (vm with no filter axis: vm itself).

    Every filter has as many rows as the widest vm; the rest are
    zero-information rows (H 0, y 0, R 1), which leave a filter as it is.
    One per-filter vm that gives every filter its rows in order is the result.
    """
    placed = [(i, vm) for i, vm in placed if i is not None and vm is not None]
    if not placed:
        return None
    if len(placed) == 1:
        (i, vm), order = placed[0], list(range(n))
        if vm.y.shape[:-1] == (n,) and (order[i] if isinstance(i, slice) else list(i)) == order:
            return vm
    k = max(vm.rows for _, vm in placed)
    y, H = np.zeros((n, k)), np.zeros((n, k, placed[0][1].H.shape[-1]))
    R = np.zeros((n, k, k)) + np.eye(k)
    for i, vm in placed:
        y[i, :vm.rows], H[i, :vm.rows], R[i, :vm.rows, :vm.rows] = vm.y, vm.H, vm.R
    return VirtualMeasurement._derived(y, H, R)


def flat_rows(vm: VirtualMeasurement) -> tuple[VirtualMeasurement, np.ndarray]:
    """A tick's rows (N, k) as one measurement of its N k rows, and each
    row's sighting."""
    (N, k), var = vm.y.shape, vm.R.diagonal(axis1=-2, axis2=-1)
    return (_measurement([vm.y.ravel()], [vm.H.reshape(N * k, -1)], [var.ravel()]),
            np.repeat(np.arange(N), k))


# ---------------------------------------------------------------------------
# Bearing geometry
# ---------------------------------------------------------------------------

def _rows(*rows) -> np.ndarray:
    """(k, d) matrix of k rows; equal-shaped array entries add its leading axes."""
    a = np.array(rows)   # the axes moved by transpose: np.moveaxis costs 3x as much
    return a if a.ndim == 2 else a.transpose(*range(2, a.ndim), 0, 1).copy()


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
# Case builders.  Records of N readings per field give y (N, k), H (N, k, d)
# and a diagonal R (N, k, k), sighting i's rows those of the scalar call.
# ---------------------------------------------------------------------------

def _measurement(y_parts, H_parts, var_parts) -> VirtualMeasurement:
    """Rows stacked along the row axis, with R the diagonal of the variances."""
    var = np.concatenate(var_parts, axis=-1)
    R = np.zeros(var.shape + var.shape[-1:])   # var on its diagonal
    R.reshape(var.shape[:-1] + (-1,))[..., ::var.shape[-1] + 1] = var
    return VirtualMeasurement._derived(np.concatenate(y_parts, axis=-1),
                                       np.concatenate(H_parts, axis=-2), R)


def case1(bearing: BearingObs) -> VirtualMeasurement:
    """Bearing only: the angular error becomes a tangential position error."""
    h, _ = _bearing_rows(bearing)
    return _measurement([np.zeros(h.shape[:-1])], [h],
                        [noisecal.tangential_R(bearing, noisecal.R_MAX)])


def case2(bearing: BearingObs, rng: RangeObs) -> VirtualMeasurement:
    """Bearing plus range: tangential rows and the radial constraint h* x = r."""
    h, h_star = _bearing_rows(bearing)
    rstar = noisecal.r_star(rng.r, rng.sigma_r)
    return _measurement([np.zeros(h.shape[:-1]), np.asarray(rng.r, float)[..., None]],
                        [h, h_star], [noisecal.tangential_R(bearing, rstar),
                                      noisecal.range_row_R(rng)])


def case3(bearing: BearingObs, rate: BearingRateObs, inputs: RobotInputs,
          *, r_hint=None) -> VirtualMeasurement:
    """Bearing plus bearing-rate: adds the tangential-velocity constraint.

    Its rows are [h; M] x = [0; -h u], with M from :func:`_rate_rows`.

    ``r_hint`` (the current range estimate, one per sighting; 0 for none)
    sharpens the rate-row noise calibration, whose residual scales with
    the true range; without it the conservative R_MAX bound applies.  The
    calibration is looked up once per sighting (:func:`noisecal.rate_row_R`).
    """
    phi_dot = 0.0 if rate.phi_dot is None else rate.phi_dot
    h, y2, M = _rate_rows(bearing.theta, bearing.phi, rate.theta_dot,
                          phi_dot, inputs.u, inputs.omega.matrix)
    shape = np.shape(bearing.theta)
    hints = np.zeros(shape) if r_hint is None else np.asarray(r_hint, dtype=float)
    rstars = np.where(hints > 0.0, noisecal.r_star(hints, 0.0), noisecal.R_MAX)
    sightings = zip(_each(bearing), _each(rate)) if shape else [(bearing, rate)]
    rate_var = np.array([noisecal.rate_row_R(b, r, inputs, rs) for (b, r), rs
                         in zip(sightings, rstars.ravel().tolist())]).reshape(shape + (-1,))
    return _measurement([np.zeros(h.shape[:-1]), y2], [h, M],
                        [noisecal.tangential_R(bearing, noisecal.R_MAX), rate_var])


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

    A sighting with no time-to-contact reading (``ttc`` None, or tau nan
    in a stack: the range is not changing), or with |h* u| < EPS_U (an
    unreliable reading), keeps only its Case I rows: all of them do, and
    the result is :func:`case1`'s, or its radial row is a zero-information
    row (H 0, y 0, R 1).
    """
    h, h_star = _bearing_rows(bearing)
    radial_speed = (h_star @ inputs.u)[..., 0]
    case1_only = np.abs(radial_speed) < EPS_U
    if ttc is None or (case1_only := case1_only | np.isnan(ttc.tau)).all():
        return case1(bearing)
    y4 = np.where(case1_only, 0.0, np.abs(ttc.tau * radial_speed))
    rstar = np.where(case1_only, noisecal.R_MAX, noisecal.r_star(y4, 0.0))
    radial_var = np.where(case1_only[..., None], 1.0, noisecal.ttc_row_R(ttc, radial_speed))
    return _measurement([np.zeros(h.shape[:-1]), y4[..., None]],
                        [h, np.where(case1_only[..., None, None], 0.0, h_star)],
                        [noisecal.tangential_R(bearing, rstar), radial_var])


def case5(doppler: DopplerObs, inputs: RobotInputs) -> VirtualMeasurement | None:
    """Range and range-rate only: r rdot = -u^T x.

    Returns None when the robot is (nearly) stationary; the constraint
    carries no information then.
    """
    if float(np.linalg.norm(inputs.u)) < EPS_U:
        return None
    y = np.asarray(doppler.r * doppler.r_dot)[..., None]
    H = np.tile(-inputs.u, y.shape + (1,))
    var = (doppler.r_dot * doppler.sigma_r)**2 \
        + (doppler.r * doppler.sigma_r_dot)**2 \
        + (doppler.sigma_r * doppler.sigma_r_dot)**2
    return _measurement([y], [H],
                        [np.maximum(var, noisecal.VAR_FLOOR)[..., None]])


def build_measurement(case: int, bundles: list[SensorBundle], inputs: RobotInputs,
                      r_hints=None) -> VirtualMeasurement | None:
    """Virtual measurement of one robot's N sightings of a tick, or None if unusable.

    Gives y (N, k), H (N, k, d) and a diagonal R (N, k, k), sighting i's
    rows those of the scalar case call.  ``r_hints`` holds an optional
    current range estimate per sighting (0 for none), used to sharpen noise
    calibration in the range-free cases.  A Case IV fallback sighting in a
    tick with full ones has a zero-information radial row (:func:`case4`).
    """
    if not bundles:
        return None

    def readings(name):   # one unchecked record: per field an array, nan if unset
        records = [getattr(b, name) for b in bundles]
        kind = next((type(r) for r in records if r is not None), None)
        if kind is None:
            return None
        names = list(kind.__dataclass_fields__)
        get, unset = attrgetter(*names), (None,) * len(names)
        cols = zip(*[unset if r is None else get(r) for r in records])
        return _record(kind, *[None if c.count(None) == len(c) else np.array(c, float)
                               for c in cols])

    if case == 1:
        return case1(readings("bearing"))
    if case == 2:
        return case2(readings("bearing"), readings("range"))
    if case == 3:
        return case3(readings("bearing"), readings("rate"), inputs, r_hint=r_hints)
    if case == 4:
        return case4(readings("bearing"), readings("ttc"), inputs)
    if case == 5:
        return case5(readings("doppler"), inputs)
    raise ValueError(f"unknown case {case}")


def _record(kind, *values):
    """A record of ``kind`` holding ``values`` in field order, unchecked.

    Set as the constructor sets them, so the record keeps no attribute dict.
    """
    rec = object.__new__(kind)
    for name, value in zip(kind.__dataclass_fields__, values):
        object.__setattr__(rec, name, value)
    return rec


def _each(record) -> list:
    """Each sighting's readings of a stacked record, as a record of the
    Python floats it was stacked from."""
    values = [getattr(record, name) for name in record.__dataclass_fields__]
    cols = [repeat(None) if v is None else v.tolist() for v in values]
    return [_record(type(record), *c) for c in zip(*cols)]


def range_hints(xs) -> np.ndarray:
    """|x| of each vector, as the float np.linalg.norm(x) gives (one dot each)."""
    X = np.array(xs, dtype=float, ndmin=2)
    return np.sqrt(X[:, None, :] @ X[:, :, None]).ravel()


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

    M = H T fills block ``landmark``'s columns (one block, or one per row)
    and -M block ``vehicle``'s, each as wide as T; leading axes are kept.
    """
    M = vm.H @ T
    *lead, k, d = M.shape
    H = np.zeros((*lead, k, n // d, d))
    H[..., np.arange(k), landmark, :] = M
    H[..., vehicle, :] = -M
    return VirtualMeasurement._derived(vm.y, H.reshape(*lead, k, n), vm.R)


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
    """All noise-free observables of a static landmark at relative position x.

    The geometry runs on Python floats with numpy's bits: in 2D each row of
    xdot = -Omega x - u is one product, and |x|^2 and x . xdot stay numpy
    dots (a two-element one is fma(x1, y1, x0 y0), which a float sum is not).
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 2:
        (w,), (u0, u1), (x0, x1) = inputs.omega.omega.tolist(), inputs.u.tolist(), x.tolist()
        xdot = [w * x1 - u0, -w * x0 - u1]
    else:
        xdot = (-inputs.omega.matrix @ x - inputs.u).tolist()
        x0, x1, x2 = x.tolist()
    r = math.sqrt(x.dot(x))   # as np.linalg.norm forms it
    if r == 0.0:
        raise ValueError("landmark coincides with the robot")
    r_dot = float(x.dot(xdot)) / r
    theta = math.atan2(x0, x1)
    rho2 = x0**2 + x1**2
    theta_dot = (xdot[0] * x1 - x0 * xdot[1]) / rho2
    phi = phi_dot = None
    if x.size == 3:
        rho = math.sqrt(rho2)
        phi = math.atan2(x2, rho)
        rho_dot = (x0 * xdot[0] + x1 * xdot[1]) / rho
        phi_dot = (xdot[2] * rho - x2 * rho_dot) / r**2
    alpha = tau = None
    if diameter is not None:
        # tau is the exact range-over-closing-speed ratio the radial
        # constraint needs; the visual angle alpha is what a camera
        # actually resolves (its ratio alpha/alphadot approximates tau)
        alpha = math.atan2(diameter, r)
        if abs(r_dot) > 1e-12:
            tau = abs(r / r_dot)
    return TrueObservation(theta, r, theta_dot, r_dot, phi, phi_dot, alpha, tau)


def noisy_bundle(true: TrueObservation, noise,
                 rng: np.random.Generator) -> SensorBundle:
    """Every reading of one sighting, drawn around ``true`` per ``noise``'s sigmas.

    One standard-normal block z per sighting, in this order: theta, phi (3D
    only), r, theta_dot, phi_dot (3D only), r_dot, alpha.  Each reading is
    true + (0.0 + sigma z), the draw and arithmetic of one
    ``rng.normal(0.0, sigma)`` per reading; the simulator's streams depend on it.
    ``true`` must come from :func:`observe_true` with a ``diameter``.
    The range is clipped at 0, and the visual-angle error enters tau
    multiplicatively (tau ~ alpha/alphadot).  Every value is checked by its
    record's rules in one pass; a value that breaks one raises the record's error.
    """
    is3d = true.phi is not None
    sigmas = (noise.sigma_theta, noise.sigma_phi, noise.sigma_theta_dot, noise.sigma_phi_dot,
              noise.sigma_r, noise.sigma_r_dot, noise.sigma_alpha)
    s_theta, s_phi, s_theta_dot, s_phi_dot, s_r, s_r_dot, s_alpha = sigmas
    z = iter(rng.standard_normal(7 if is3d else 5).tolist())
    theta = true.theta + (0.0 + s_theta * next(z))
    phi = true.phi + (0.0 + s_phi * next(z)) if is3d else None
    r = max(true.r + (0.0 + s_r * next(z)), 0.0)
    theta_dot = true.theta_dot + (0.0 + s_theta_dot * next(z))
    phi_dot = true.phi_dot + (0.0 + s_phi_dot * next(z)) if is3d else None
    r_dot = true.r_dot + (0.0 + s_r_dot * next(z))
    alpha = true.alpha + (0.0 + s_alpha * next(z))
    tau = None
    if true.tau is not None and true.alpha and true.alpha > 0:
        tau = max(true.tau * max(alpha / true.alpha, 1e-9), 1e-9)
    # Each record holds its values as its constructor stores them (unrolled: a
    # loop per record costs twice as much), and the five records' rules are
    # checked at once (a finite sum has no nan or inf term).  Where that fails,
    # or the sum overflows, each record checks itself and raises its own error.
    new, put = object.__new__, object.__setattr__
    bearing, range_, rate, doppler, bundle = map(new, (BearingObs, RangeObs, BearingRateObs,
                                                       DopplerObs, SensorBundle))
    put(bearing, "theta", theta), put(bearing, "phi", phi)
    put(bearing, "sigma_theta", s_theta), put(bearing, "sigma_phi", s_phi)
    put(range_, "r", r), put(range_, "sigma_r", s_r)
    put(rate, "theta_dot", theta_dot), put(rate, "phi_dot", phi_dot)
    put(rate, "sigma_theta_dot", s_theta_dot), put(rate, "sigma_phi_dot", s_phi_dot)
    ttc = None
    if tau is not None:
        ttc = new(TimeToContactObs)
        put(ttc, "tau", tau), put(ttc, "alpha", alpha), put(ttc, "sigma_alpha", s_alpha)
    put(doppler, "r", r), put(doppler, "r_dot", r_dot)
    put(doppler, "sigma_r", s_r), put(doppler, "sigma_r_dot", s_r_dot)
    put(bundle, "bearing", bearing), put(bundle, "range", range_), put(bundle, "rate", rate)
    put(bundle, "ttc", ttc), put(bundle, "doppler", doppler)
    total = theta + r + theta_dot + r_dot + alpha + sum(sigmas) + (tau or 0.0)
    if is3d:
        total += phi + phi_dot
    if not (math.isfinite(total) and min(r, *sigmas) >= 0.0 and (tau is None or tau > 0.0)):
        for rec in (bearing, range_, rate, ttc, doppler):
            if rec is not None:
                rec.__post_init__()
    return bundle
