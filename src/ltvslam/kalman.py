"""Continuous-time linear time-varying Kalman filter.

One generic propagation engine for the model

    xdot = A x + b + K (y - H x),      K = P H^T R^{-1}
    Pdot = Q + A P + P A^T - P H^T R^{-1} H P

Every estimator in the package is an instance of this engine with a
different (A, b):

* relative-frame landmark tracking uses A = -Omega, b = -u;
* global-frame estimation uses A = 0 with the drift folded into b;
* cooperative pair filters add a null-space drift, A = I (x) Omega.

Each step holds A, b, Q, H and R over dt and applies two exact flows.
First the correction: the information matrix grows linearly,
I(t) = I0 + t H^T R^{-1} H, which is a discrete Kalman update with
R_d = R / dt -- stable for any P/R ratio, however stiff.  Then the exact
zero-order-hold transition of the prediction, Phi = e^{A dt}, with the
process noise from Van Loan, "Computing integrals involving the matrix
exponential", IEEE TAC 1978.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import FilterState, RobotInputs
from .vmeas import VirtualMeasurement


class DivergenceError(RuntimeError):
    """Raised when the state or covariance stops being finite."""


@dataclass(frozen=True)
class FilterConfig:
    """The step length dt shared by all filters."""

    dt: float = 0.01

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


def _predict(x, P, A, b, Q, dt):
    """Exact flow of xdot = A x + b, Pdot = Q + A P + P A^T over dt.

    A, b and Q are held over the step; ``Q=None`` means no process noise.
    Phi and the input term come from one exponential of the augmented
    generator [[A dt, b dt], [0, 0]]; Q_d from Van Loan's block
    [[-A, Q], [0, A^T]] dt.  With A = 0 the flow is x + b dt, P + Q dt.
    """
    if not A.any():
        x, P = x + b * dt, (P if Q is None else P + Q * dt)
    else:
        n = x.size
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A * dt
        M[:n, n] = b * dt
        E = expm(M)
        Phi = E[:n, :n]
        x = Phi @ x + E[:n, n]
        P = Phi @ P @ Phi.T
        if Q is not None:
            F = expm(np.block([[-A, Q], [np.zeros((n, n)), A.T]]) * dt)
            P = P + Phi @ F[:n, n:]
    return x, 0.5 * (P + P.T)


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
    by the exact transition over the full step.
    """
    n = state.dim
    A = np.asarray(A, dtype=float)
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float).ravel()
    Q = None if Q is None else np.asarray(Q, dtype=float)
    if A.shape != (n, n) or b.shape != (n,) or (Q is not None
                                               and Q.shape != (n, n)):
        raise ValueError("A, b, Q shapes must match the state dimension")
    if vm is not None and vm.H.shape[1] != n:
        raise ValueError(
            f"measurement has {vm.H.shape[1]} columns for state size {n}")

    x, P = state.x, state.P
    if vm is not None:
        x, P = _correct(x, P, vm, cfg.dt)
    x, P = _predict(x, P, A, b, Q, cfg.dt)

    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(P))):
        raise DivergenceError(f"filter diverged at t={state.t + cfg.dt:g}")
    return FilterState._derived(x, P, state.t + cfg.dt)


def step(state: FilterState, inputs: RobotInputs,
         vm: VirtualMeasurement | None,
         cfg: FilterConfig = FilterConfig()) -> FilterState:
    """One step of relative-frame landmark tracking: xdot = -Omega x - u + ...

    The landmark is static in the global frame; in the robot-fixed frame
    its relative position rotates with -Omega and translates with -u.
    """
    A = -inputs.omega.matrix
    return ode_step(state, A, -inputs.u, vm, None, cfg)
