"""Geometric primitives and shared state types.

Conventions used throughout the package:

* Heading ``beta`` is measured counterclockwise from the global +x2 axis,
  so the body forward axis expressed in global coordinates is
  ``(-sin(beta), cos(beta))``.
* ``rotation2d(beta)`` is the standard counterclockwise rotation;
  it maps body coordinates to global coordinates.  Its transpose maps
  global to body.
* Bearings theta are measured in the body frame from the forward (+x2)
  axis toward the +x1 axis, so a landmark at body position
  ``(r sin(theta), r cos(theta))`` has bearing theta.
* With these choices the relative position of a static landmark in the
  robot-fixed frame obeys ``xdot = -Omega x - u`` with
  ``Omega = skew(omega)`` and ``betadot = omega``.

All angles are radians; positions are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: Sentinel contraction rate for error series that have hit exact zero.
RATE_CONVERGED = math.inf


def wrap_angle(a: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (a + math.pi) % TWO_PI - math.pi


def angle_diff(a: float, b: float) -> float:
    """Shortest signed arc from b to a, in [-pi, pi)."""
    return wrap_angle(a - b)


def rotation2d(beta: float) -> np.ndarray:
    """Counterclockwise rotation matrix by beta, with the angle wrapped to [-pi, pi)."""
    b = wrap_angle(beta)
    c, s = math.cos(b), math.sin(b)
    return np.array([[c, -s], [s, c]])


def body_from_global(beta: float) -> np.ndarray:
    """Matrix taking global-frame vectors into the body frame at heading beta."""
    return rotation2d(beta).T


def heading_forward(beta: float) -> np.ndarray:
    """Unit forward direction in global coordinates for heading beta."""
    return np.array([-math.sin(beta), math.cos(beta)])


def run_sums(a: np.ndarray, counts) -> np.ndarray:
    """Sums of a's runs of counts[j] items, each as ``a[run].sum(axis=0)`` forms it."""
    return np.array([a[e - n:e].sum(axis=0) for n, e in zip(counts, accumulate(counts))])


@dataclass(frozen=True)
class AngularVelocityMatrix:
    """Body angular velocity and its skew-symmetric matrix realization."""

    omega: np.ndarray  # (1,) for 2D (omega_z), (3,) for 3D

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if w.shape not in ((1,), (3,)):
            raise ValueError(f"expected 1 or 3 angular rates, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite angular rate")
        object.__setattr__(self, "omega", w)

    @property
    def dim(self) -> int:
        return 2 if self.omega.shape == (1,) else 3

    @property
    def matrix(self) -> np.ndarray:
        if self.dim == 2:
            (wz,) = self.omega
            return np.array([[0.0, -wz], [wz, 0.0]])
        wx, wy, wz = self.omega
        return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def skew(*omega: float) -> AngularVelocityMatrix:
    """Angular velocity matrix from rates: skew(wz) in 2D, skew(wx, wy, wz) in 3D."""
    return AngularVelocityMatrix(np.array(omega, dtype=float))


@dataclass(frozen=True)
class FilterState:
    """Estimate vector with covariance at time t.

    The constructor checks that P is symmetric PSD and sized to x; the
    states a filter derives from checked ones come from :meth:`_derived`.
    """

    x: np.ndarray
    P: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        P = np.asarray(self.P, dtype=float)
        if P.shape != (x.size, x.size):
            raise ValueError(f"covariance shape {P.shape} does not match state size {x.size}")
        if np.abs(P - P.T).max() > 1e-9 * max(np.abs(P).max(), 1.0):
            raise ValueError("P is not symmetric within tolerance")
        P = 0.5 * (P + P.T)
        eig = np.linalg.eigvalsh(P)
        if eig.min() < -1e-9 * max(np.trace(P), 1.0):
            raise ValueError(f"P is not positive semidefinite (min eig {eig.min():g})")
        self.__dict__.update(x=x, P=P)

    @classmethod
    def _derived(cls, x: np.ndarray, P: np.ndarray, t: float) -> "FilterState":
        """Unchecked and stored as given: a filter's float x and symmetric PSD P."""
        state = object.__new__(cls)
        state.__dict__.update(x=x, P=P, t=t)
        return state

    @property
    def dim(self) -> int:
        return self.x.shape[-1]   # each filter's, for a stack of filters


class Estimates(NamedTuple):
    """An estimator's read-out at its time t, in its own frame."""

    t: float
    ids: list
    X: np.ndarray                 # (N, d) landmark positions
    P: np.ndarray                 # (N, d, d) their covariance blocks
    vehicle: tuple | None = None  # (x, P) of the vehicle, where there is one


@dataclass(frozen=True)
class RobotInputs:
    """Measured body twist: translational velocity u (body frame) and yaw rates."""

    u: np.ndarray
    omega: AngularVelocityMatrix

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).ravel()
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class ContractionDiagnostics:
    """Fitted exponential decay rate of an error series."""

    rate: float                      # decay rate (1/s); +inf means converged to zero
    r_squared: float = float("nan")  # goodness of the log-error regression


def fit_contraction_rate(error_series) -> ContractionDiagnostics:
    """Least-squares exponential decay rate of an ``(t, error)`` series.

    Fits log(error) = a - rate * t.  A constant series yields rate 0.
    Any non-positive error is taken to mean the series has converged to
    zero and the +inf sentinel is returned.
    """
    pts = np.asarray(list(error_series), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 10:
        raise ValueError("need at least 10 (t, error) samples")
    t, e = pts[:, 0], pts[:, 1]
    if np.any(e <= 0.0):
        return ContractionDiagnostics(rate=RATE_CONVERGED, r_squared=1.0)
    loge = np.log(e)
    slope, intercept = np.polyfit(t, loge, 1)
    resid = loge - (slope * t + intercept)
    ss_tot = np.sum((loge - loge.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - np.sum(resid**2) / ss_tot
    return ContractionDiagnostics(rate=-slope, r_squared=float(r2))
