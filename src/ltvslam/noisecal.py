"""Noise porting for virtual measurements.

Analytic bias and variance of the noise after rewriting angular sensor
errors as Cartesian constraint errors, the r* upper-bound rule, Monte
Carlo calibration for rows with no closed form, and the row variances
(every R is diagonal: each helper returns its rows' variances on a last
axis) shared by all builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Absolute variance floor so assembled R matrices stay positive definite.
VAR_FLOOR = 1e-12

#: Floors applied when a sensor is declared noise free.  The filter R is a
#: design parameter; a strictly zero variance would make the continuous
#: gain unbounded.
SIGMA_THETA_FLOOR = 2e-3   # rad
SIGMA_RANGE_FLOOR = 5e-2   # m
SIGMA_RATE_FLOOR = 2e-3    # rad/s

#: Speed std assumed by the time-to-contact row (m/s).
SIGMA_SPEED = 0.01

#: Known range bound r* of the paper (m): no sighting is farther away.
#: Bearing-only rows use it outright; ``runner.run`` rejects scenarios
#: whose robots could sight anything beyond it.
R_MAX = 100.0


@dataclass(frozen=True)
class NoiseSpec:
    """Sensor noise standard deviations, all in base units (rad, m, s)."""

    sigma_theta: float = 0.0
    sigma_phi: float = 0.0
    sigma_theta_dot: float = 0.0
    sigma_phi_dot: float = 0.0
    sigma_r: float = 0.0
    sigma_r_dot: float = 0.0
    sigma_alpha: float = 0.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class PortedNoise:
    """Empirical or analytic statistics of a virtual-measurement noise."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        var = np.atleast_1d(np.asarray(self.variance, dtype=float))
        if np.any(var < 0):
            raise ValueError("variances must be >= 0")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var)


# ---------------------------------------------------------------------------
# Analytic bias formulas
# ---------------------------------------------------------------------------

def bias_bearing_2d(sigma_theta: float) -> float:
    """Mean of the tangential noise 0 - h x under bearing noise: exactly zero."""
    if sigma_theta < 0:
        raise ValueError("sigma must be >= 0")
    return 0.0


def bias_range_2d(sigma_theta: float, r: float) -> float:
    """Mean of the radial noise r - h* x: (1 - exp(-sigma^2/2)) r."""
    if sigma_theta < 0:
        raise ValueError("sigma must be >= 0")
    return (1.0 - math.exp(-sigma_theta**2 / 2.0)) * r


def bias_3d(case: int, sigma_theta: float, sigma_phi: float, r: float,
            phi: float) -> np.ndarray:
    """Closed-form 3D Case II noise means: two tangential rows, then the range row."""
    if case != 2:
        raise ValueError(f"no 3D bias formula for case {case}")
    a = math.exp(-sigma_phi**2 / 2.0)
    b = math.exp(-(sigma_theta**2 + sigma_phi**2) / 2.0)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array([0.0, -r * (a - b) * cp * sp,
                     r * (1.0 - a * sp**2 - b * cp**2)])


def variance_bounds(sigma_theta: float, r_star: float) -> dict[str, float]:
    """Upper bounds on the ported noise variances for bearing constraints."""
    if r_star <= 0:
        raise ValueError("r_star must be > 0")
    return {
        "tangential": sigma_theta**2 * r_star**2,
        "radial": (sigma_theta**4 / 4.0) * r_star**2,
        "cross": 0.0,
    }


def r_star(r_measured, sigma_r):
    """Known range bound used when filling R: min(r + 3 sigma_r, R_MAX) elementwise."""
    if (np.minimum(r_measured, sigma_r) < 0).any():
        raise ValueError("range inputs must be >= 0")
    return np.minimum(np.add(r_measured, 3.0 * sigma_r), R_MAX)


# ---------------------------------------------------------------------------
# Monte Carlo porting
# ---------------------------------------------------------------------------

def monte_carlo_port(case: int, x_true: np.ndarray, inputs, noise: NoiseSpec,
                     n: int = 10_000, seed: int = 0) -> PortedNoise:
    """Empirical mean/variance of y - H x_true for one case under sensor noise.

    Draws each sample's readings with the simulator's sampler
    (:func:`vmeas.noisy_bundle`, a 2 m landmark), builds every sample's
    virtual measurement in one call, and ports the statistics of the
    residual at the true state.  Deterministic for a fixed seed.
    """
    from . import vmeas

    if n < 100:
        raise ValueError("need at least 100 samples")
    x_true = np.asarray(x_true, dtype=float).ravel()
    true = vmeas.observe_true(x_true, inputs, diameter=2.0)
    rng = np.random.default_rng(seed)
    bundles = [vmeas.noisy_bundle(true, noise, rng) for _ in range(n)]
    vm = vmeas.build_measurement(case, bundles, inputs)
    if vm is None:
        raise ValueError("Case V undefined for a stationary robot")
    if not vm.H.any(axis=-1).all() or (case == 4 and vm.rows < x_true.size):
        # a zero-information radial row, or none at all (Case I's rows)
        raise ValueError("Case IV radial row undefined for some or all samples")
    res = vm.residual(x_true)
    return PortedNoise(mean=res.mean(axis=0), variance=res.var(axis=0))


# ---------------------------------------------------------------------------
# R assembly
# ---------------------------------------------------------------------------

def tangential_R(bearing, rstar) -> np.ndarray:
    """Tangential (theta; phi in 3D) row variances sigma^2 r*^2 >= VAR_FLOOR."""
    sigmas = np.array([bearing.sigma_theta, bearing.sigma_phi][:bearing.dim - 1]).T
    return np.maximum(np.maximum(sigmas, SIGMA_THETA_FLOOR)**2
                      * np.asarray(rstar)[..., None]**2, VAR_FLOOR)


def range_row_R(range_obs) -> np.ndarray:
    """Case II range row h* x = r: the (floored) sensor variance itself."""
    var = np.maximum(range_obs.sigma_r, SIGMA_RANGE_FLOOR)**2
    return np.maximum(var, VAR_FLOOR)[..., None]


@lru_cache(maxsize=4096)
def _rate_row_var_cached(dim: int, theta: float, phi: float, theta_dot: float,
                         phi_dot: float, u_key: tuple, omega_key: tuple,
                         st: float, sp: float, std: float, spd: float,
                         rstar: float) -> tuple:
    """Monte Carlo variance of the Case III rate rows, cached per bucket.

    All n samples' residuals y - M x come from one :func:`vmeas._rate_rows`
    call, at a canonical state on the measured ray, x = r* h*, so no
    measurement object (and hence no R) is needed.
    """
    from . import vmeas
    from .core import skew

    rng = np.random.default_rng(20181224)
    n = 512
    u = np.array(u_key)
    Om = skew(*omega_key).matrix
    _, h_star = (vmeas.bearing_vectors_2d(theta) if dim == 2
                 else vmeas.bearing_vectors_3d(theta, phi))
    x = rstar * h_star.ravel()
    # one draw in the scalar order theta, theta_dot (, phi, phi_dot) per sample;
    # value + (0.0 + sigma z) is the arithmetic of Generator.normal(0.0, sigma)
    z = rng.standard_normal((n, 2 * (dim - 1)))
    th = theta + (0.0 + st * z[:, 0])
    td = theta_dot + (0.0 + std * z[:, 1])
    ph = pd = None
    if dim == 3:
        ph = phi + (0.0 + sp * z[:, 2])
        pd = phi_dot + (0.0 + spd * z[:, 3])
    _, y, M = vmeas._rate_rows(th, ph, td, pd, u, Om)
    return tuple((y - M @ x).var(axis=0))


def rate_row_R(bearing, rate, inputs, rstar: float) -> np.ndarray:
    """Monte Carlo-calibrated variances for one sighting's Case III velocity rows.

    These rows have no simple closed-form variance; the calibration is
    cached on a coarse bucket of the geometry so repeated calls in a
    simulation are cheap and deterministic.
    """
    st = max(bearing.sigma_theta, SIGMA_THETA_FLOOR)
    std = max(rate.sigma_theta_dot, SIGMA_RATE_FLOOR)
    sp = max(bearing.sigma_phi, SIGMA_THETA_FLOOR)
    spd = max(rate.sigma_phi_dot, SIGMA_RATE_FLOOR)
    q = lambda v, step: round(float(v) / step) * step
    var = _rate_row_var_cached(
        bearing.dim,
        q(bearing.theta, 0.1), q(bearing.phi or 0.0, 0.1),
        q(rate.theta_dot, 0.02), q(rate.phi_dot or 0.0, 0.02),
        tuple(q(v, 0.25) for v in inputs.u),
        tuple(q(v, 0.05) for v in inputs.omega.omega),
        st, sp, std, spd, q(rstar, 1.0) or 1.0)
    return np.array([max(v, VAR_FLOOR) for v in var])


def ttc_row_R(ttc, radial_speed) -> np.ndarray:
    """Conservative variance for the time-to-contact radial row.

    Propagates the visual-angle noise through tau = alpha/alphadot (5 %
    without an angle) and the speed uncertainty through y = |tau h* u|.
    """
    alpha = np.asarray(ttc.alpha, dtype=float)   # None: nan
    rel_tau = np.where(alpha > 0, np.maximum(ttc.sigma_alpha, SIGMA_THETA_FLOOR)
                       / np.where(alpha > 0, alpha, 1.0), 0.05)
    var = (rel_tau * np.abs(ttc.tau * radial_speed))**2 + (ttc.tau * SIGMA_SPEED)**2
    return np.maximum(var, SIGMA_RANGE_FLOOR**2)[..., None]
