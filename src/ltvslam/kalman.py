"""Continuous-time linear time-varying Kalman filter.

One generic propagation engine for the model

    xdot = A x + b + K (y - H x),      K = P H^T R^{-1}
    Pdot = Q + A P + P A^T - P H^T R^{-1} H P

with fixed-step RK4 integration of the prediction.  Every estimator in
the package is an instance of this engine with a different (A, b):

* relative-frame landmark tracking uses A = -Omega, b = -u;
* global-frame estimation uses A = 0 with the drift folded into b;
* cooperative pair filters add a null-space drift, A = I (x) Omega.

The correction term can be arbitrarily stiff right after initialization
when P is large and R small, so each step is split: the (A, b, Q)
prediction is integrated explicitly, while the correction term is
advanced with its exact flow.  Holding H, R constant over the step, the
information matrix grows linearly, I(t) = I0 + t H^T R^{-1} H, which is
identical to a discrete-time Kalman update with R_d = R / dt -- stable
for any P/R ratio and exact for the pure-correction dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FilterState, RobotInputs
from .vmeas import VirtualMeasurement


class DivergenceError(RuntimeError):
    """Raised when the state or covariance stops being finite."""


#: Each RK4 substep advances the fastest mode (max row sum of |A|) by at
#: most this many radians, with at most MAX_SUBSTEPS substeps per step.
MAX_RATE_PER_SUBSTEP = 0.5
MAX_SUBSTEPS = 1000


@dataclass(frozen=True)
class FilterConfig:
    """Integration settings shared by all filters."""

    dt: float = 0.01
    psd_repair: bool = False     # clip negative covariance eigenvalues

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


def _predict_derivatives(x, P, A, b, Q):
    return A @ x + b, Q + A @ P + P @ A.T


def _predict(x, P, A, b, Q, dt):
    """RK4-integrate xdot = A x + b, Pdot = Q + A P + P A^T over dt."""
    rate = float(np.abs(A).sum(axis=1).max()) if A.size else 0.0
    m = int(np.ceil(rate * dt / MAX_RATE_PER_SUBSTEP)) if rate > 0 else 1
    m = min(max(m, 1), MAX_SUBSTEPS)
    h = dt / m
    for _ in range(m):
        k1x, k1P = _predict_derivatives(x, P, A, b, Q)
        k2x, k2P = _predict_derivatives(x + 0.5 * h * k1x,
                                        P + 0.5 * h * k1P, A, b, Q)
        k3x, k3P = _predict_derivatives(x + 0.5 * h * k2x,
                                        P + 0.5 * h * k2P, A, b, Q)
        k4x, k4P = _predict_derivatives(x + h * k3x, P + h * k3P, A, b, Q)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        P = P + (h / 6.0) * (k1P + 2 * k2P + 2 * k3P + k4P)
        P = 0.5 * (P + P.T)
    return x, P


def _correct(x, P, vm: VirtualMeasurement, dt: float):
    """Exact flow of the correction term over dt.

    Equivalent to a discrete Kalman update with R_d = R / dt; the Joseph
    form keeps P symmetric positive semidefinite.
    """
    Rd = vm.R / dt
    PHt = P @ vm.H.T
    S = vm.H @ PHt + Rd
    K = np.linalg.solve(S, PHt.T).T
    x = x + K @ (vm.y - vm.H @ x)
    I_KH = np.eye(x.size) - K @ vm.H
    P = I_KH @ P @ I_KH.T + K @ Rd @ K.T
    return x, 0.5 * (P + P.T)


def ode_step(state: FilterState, A: np.ndarray, b: np.ndarray,
             vm: VirtualMeasurement | None, Q: np.ndarray | None,
             cfg: FilterConfig = FilterConfig()) -> FilterState:
    """Advance (x, P) by one step of dt under the generic LTV filter model.

    ``vm`` is held constant over the step (zero-order hold); pass None
    when no measurement is available this step.  The correction is
    applied first, at the instant the measurement was sampled, followed
    by a full prediction step.
    """
    n = state.dim
    A = np.asarray(A, dtype=float)
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float).ravel()
    Q = np.zeros((n, n)) if Q is None else np.asarray(Q, dtype=float)
    if A.shape != (n, n) or b.shape != (n,) or Q.shape != (n, n):
        raise ValueError("A, b, Q shapes must match the state dimension")
    if vm is not None and vm.H.shape[1] != n:
        raise ValueError(
            f"measurement has {vm.H.shape[1]} columns for state size {n}")

    x, P = state.x.copy(), state.P.copy()
    if vm is not None:
        x, P = _correct(x, P, vm, cfg.dt)
    x, P = _predict(x, P, A, b, Q, cfg.dt)

    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(P))):
        raise DivergenceError(f"filter diverged at t={state.t + cfg.dt:g}")
    if cfg.psd_repair:
        w, V = np.linalg.eigh(P)
        if w.min() < 0:
            P = (V * np.maximum(w, 0.0)) @ V.T
            P = 0.5 * (P + P.T)
    return FilterState(x=x, P=P, t=state.t + cfg.dt)


def step(state: FilterState, inputs: RobotInputs,
         vm: VirtualMeasurement | None,
         cfg: FilterConfig = FilterConfig()) -> FilterState:
    """One step of relative-frame landmark tracking: xdot = -Omega x - u + ...

    The landmark is static in the global frame; in the robot-fixed frame
    its relative position rotates with -Omega and translates with -u.
    """
    A = -inputs.omega.matrix
    return ode_step(state, A, -inputs.u, vm, None, cfg)
