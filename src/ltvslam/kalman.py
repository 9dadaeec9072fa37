"""Continuous-time linear time-varying Kalman filter.

One generic propagation engine for the model

    xdot = A x + b + K (y - H x),      K = P H^T R^{-1}
    Pdot = Q + A P + P A^T - P H^T R^{-1} H P

where A = I_k (x) A_d turns every d-block of x alike by the skew
generator A_d.  Every estimator in the package is an instance of this
engine with a different (A_d, b):

* relative-frame landmark tracking uses A_d = -Omega, b = -u;
* global-frame estimation uses A_d = 0 with the drift folded into b;
* cooperative pair filters add a null-space drift, A_d = Omega.

Each step holds A, b, Q, H and R over dt and applies two exact flows.
First the correction: the information matrix grows linearly,
I(t) = I0 + t H^T R^{-1} H, which is a discrete Kalman update with
R_d = R / dt -- stable for any P/R ratio, however stiff.  Then the exact
zero-order-hold transition of the prediction, Phi = e^{A_d dt} by
Rodrigues' formula; process noise Q needs A = 0, where it adds Q dt.

The global filter's prediction (A = 0, no Q) leaves P unchanged, so its
information matrix Y = P^{-1} changes only in the correction, and the
global filter carries Y: `info_correct` adds H^T R_d^{-1} H to Y and
inverts once.  Y is its PD prior plus PSD terms, so it stays PD, and so
does P = Y^{-1}.  The stacked pair and local filters keep the Joseph
form of `_correct`.

One call steps one filter, or N filters stacked along a leading axis
(x (N, n), P (N, n, n), rows (N, k, n); Q shared, A and b shared or one
per filter): the axis-less call is the same code.  A filter's missing
rows are zero-information rows (H 0, y 0, R 1), which change nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FilterState, RobotInputs
from .vmeas import VirtualMeasurement


class DivergenceError(RuntimeError):
    """Raised when the state or covariance stops being finite; ``row`` is
    the first filter at fault in a stack of filters (None for one filter)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class FilterConfig:
    """The step length dt shared by all filters."""

    dt: float = 0.01

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


def _predict(x, P, A, b, Q, dt):
    """Exact flow of xdot = (I_k (x) A) x + b, Pdot = Q + A P + P A^T over dt.

    A = 0 gives x + b dt and P + Q dt, with Q symmetrized (P as is without
    Q).  Otherwise Rodrigues, with w = sqrt(sum(A**2) / 2), K = A / w,
    th = w dt and h = 1 - cos th = 2 sin^2(th / 2), exact at small th:
    Phi = I + sin(th) K + h K^2, G = dt I + h / w K + (dt - sin(th) / w) K^2.
    A per filter (N, d, d) has one w per filter; w = 0 reads as 1: K = 0, Phi = I, G = dt I.
    """
    if not A.any():   # P is symmetric, so P + sym(Q) dt is exactly symmetric
        return x + b * dt, P if Q is None else P + 0.5 * (Q + Q.T) * dt
    d, n, lead = A.shape[-1], x.shape[-1], x.shape[:-1]
    k, eye = n // d, np.eye(d)
    per = A.ndim > 2   # one w per filter, each summed as np.vdot sums it
    w = (np.sqrt(0.5 * (A.reshape(*lead, 1, d * d) @ A.reshape(*lead, d * d, 1))) if per
         else math.sqrt(0.5 * np.vdot(A, A)))
    th, sin = w * dt, np.sin if per else math.sin
    w = np.where(w > 0.0, w, 1.0) if per else w
    K = A / w
    K2, s, h = K @ K, sin(th), 2.0 * sin(0.5 * th) ** 2
    Phi = eye + s * K + h * K2
    G = dt * eye + h / w * K + (dt - s / w) * K2
    Ft = Phi.swapaxes(-1, -2)
    if k == 1:   # matrix-vector products, as for an axis-less x
        x, P = (Phi @ x[..., None])[..., 0] + (G @ b[..., None])[..., 0], Phi @ P @ Ft
    else:   # F = I_k (x) Phi, applied block by block
        x = (x.reshape(*lead, k, d) @ Ft
             + b.reshape(*b.shape[:-1], k, d) @ G.swapaxes(-1, -2)).reshape(*lead, n)
        Phi, Ft = (Phi[..., None, :, :], Ft[..., None, :, :]) if per else (Phi, Ft)
        P = (Phi @ P.reshape(*lead, k, d, n)).reshape(*lead, n, k, d) @ Ft
        P = P.reshape(*lead, n, n)
    return x, 0.5 * (P + P.swapaxes(-1, -2))


def _correct(x, P, vm: VirtualMeasurement, dt: float):
    """Exact flow of the correction term over dt.

    Equivalent to a discrete Kalman update with R_d = R / dt; the Joseph
    form keeps P symmetric positive semidefinite.
    """
    H, Rd = vm.H, vm.R / dt
    PHt = P @ H.swapaxes(-1, -2)
    S = H @ PHt + Rd
    K = np.linalg.solve(S, PHt.swapaxes(-1, -2)).swapaxes(-1, -2)
    x = x + (K @ (vm.y - (H @ x[..., None])[..., 0])[..., None])[..., 0]
    I_KH = np.eye(x.shape[-1]) - K @ H
    P = I_KH @ P @ I_KH.swapaxes(-1, -2) + K @ Rd @ K.swapaxes(-1, -2)
    return x, 0.5 * (P + P.swapaxes(-1, -2))


def info_correct(x, Y, vm: VirtualMeasurement, dt: float, t: float):
    """`_correct` in information form, for one filter: (x, Y) -> (x, Y, P).

    Y' = Y + H^T R_d^{-1} H and P' = Y'^{-1}, each symmetrized once, and
    x' = x + P' H^T R_d^{-1} (y - H x), with R_d = R / dt.  Only R's
    diagonal is read, so R must be diagonal.  A non-finite or singular Y'
    raises `DivergenceError` at t + dt, the end of the step from ``t``.
    """
    H, R = vm.H, vm.R
    if H.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"measurement has {H.shape[-1]} columns for state size {x.shape[-1]}")
    r = np.diagonal(R)
    if np.count_nonzero(R) != np.count_nonzero(r):
        raise ValueError("R must be diagonal")
    HtW = H.T * (dt / r)   # H^T R_d^{-1}
    Y = Y + HtW @ H
    Y = 0.5 * (Y + Y.T)
    diverged = DivergenceError(f"filter diverged at t={t + dt:g}")
    if not np.isfinite(Y).all():
        raise diverged
    try:
        P = np.linalg.inv(Y)
    except np.linalg.LinAlgError:
        raise diverged from None
    P = 0.5 * (P + P.T)
    return x + P @ (HtW @ (vm.y - H @ x)), Y, P


def ode_step(state: FilterState, A: np.ndarray, b: np.ndarray,
             vm: VirtualMeasurement | None, Q: np.ndarray | None,
             cfg: FilterConfig = FilterConfig()) -> FilterState:
    """Advance (x, P) by one step of dt under the generic LTV filter model.

    ``A`` is the skew d x d generator of every d-block of x (d <= 3, where
    any skew matrix turns about one axis), shared or one per filter of a
    stack (N, d, d); Q needs A = 0.  ``vm`` is held
    over the step (None: no measurement).  The correction is applied
    first, at the instant the measurement was sampled, then the exact
    transition over the full step.  A state with a leading filter axis
    steps every filter at once: ``b`` and ``vm`` are then shared or hold
    one entry per filter, and a divergence names the first filter at fault.
    """
    n = state.dim
    A = np.asarray(A, dtype=float)
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    Q = None if Q is None else np.asarray(Q, dtype=float)
    d = A.shape[-1] if A.ndim else 0
    if (A.shape not in ((d, d), state.x.shape[:-1] + (d, d)) or not 0 < d <= 3 or n % d
            or b.shape not in ((n,), state.x.shape) or (Q is not None and Q.shape != (n, n))):
        raise ValueError("A must be d x d, shared or one per filter, with d <= 3 "
                         "dividing the state dimension; b and Q must match the state")
    if (A + A.swapaxes(-1, -2)).any() or (Q is not None and A.any()):
        raise ValueError("A must be skew, and zero when Q is given")
    if vm is not None and vm.H.shape[-1] != n:
        raise ValueError(
            f"measurement has {vm.H.shape[-1]} columns for state size {n}")

    x, P = state.x, state.P
    if vm is not None:
        x, P = _correct(x, P, vm, cfg.dt)
    x, P = _predict(x, P, A, b, Q, cfg.dt)

    finite = np.isfinite(x).all(axis=-1) & np.isfinite(P).all(axis=(-2, -1))
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0]) if finite.ndim else None
        which = "" if row is None else f" {row}"
        raise DivergenceError(f"filter{which} diverged at t={state.t + cfg.dt:g}", row)
    return FilterState._derived(x, P, state.t + cfg.dt)


def step(state: FilterState, inputs: RobotInputs,
         vm: VirtualMeasurement | None,
         cfg: FilterConfig = FilterConfig()) -> FilterState:
    """One step of relative-frame landmark tracking: xdot = -Omega x - u + ...

    The landmark is static in the global frame; in the robot-fixed frame
    its relative position rotates with -Omega and translates with -u.
    """
    return ode_step(state, -inputs.omega.matrix, -inputs.u, vm, None, cfg)
