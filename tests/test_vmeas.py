"""Virtual measurement construction: exactness and noise policy."""

import math

import numpy as np
import pytest

from ltvslam import vmeas
from ltvslam.core import RobotInputs, skew

from conftest import exact_bundle, random_state_and_inputs


def test_bearing_vectors_2d_identities():
    theta, r = 0.6, 3.0
    x = r * np.array([math.sin(theta), math.cos(theta)])
    h, h_star = vmeas.bearing_vectors_2d(theta)
    assert (h @ x)[0] == pytest.approx(0.0, abs=1e-14)
    assert (h_star @ x)[0] == pytest.approx(r, abs=1e-14)


def test_bearing_vectors_3d_identities_and_orthonormality():
    theta, phi, r = 0.4, -0.3, 5.0
    cp = math.cos(phi)
    x = r * np.array([cp * math.sin(theta), cp * math.cos(theta), math.sin(phi)])
    h, h_star = vmeas.bearing_vectors_3d(theta, phi)
    assert np.allclose(h @ x, 0.0, atol=1e-13)
    assert (h_star @ x)[0] == pytest.approx(r, abs=1e-13)
    B = np.vstack([h, h_star])
    assert np.allclose(B @ B.T, np.eye(3), atol=1e-13)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_case_residual_zero_at_truth(case, dim, rng):
    for _ in range(50):
        x, inputs = random_state_and_inputs(rng, dim=dim)
        bundle = exact_bundle(x, inputs)
        if case == 1:
            vm = vmeas.case1(bundle.bearing)
        elif case == 2:
            vm = vmeas.case2(bundle.bearing, bundle.range)
        elif case == 3:
            vm = vmeas.case3(bundle.bearing, bundle.rate, inputs)
        elif case == 4:
            if bundle.ttc is None:
                continue
            vm = vmeas.case4(bundle.bearing, bundle.ttc, inputs)
        else:
            vm = vmeas.case5(bundle.doppler, inputs)
        assert vm is not None
        assert np.abs(vm.residual(x)).max() < 1e-10


def test_case4_falls_back_to_bearing_only_when_radial_speed_tiny():
    theta = 0.5
    bearing = vmeas.BearingObs(theta=theta)
    ttc = vmeas.TimeToContactObs(tau=3.0)
    h, h_star = vmeas.bearing_vectors_2d(theta)
    # u orthogonal to the radial direction: |h* u| = 0
    u = h.ravel() * 1.5
    vm = vmeas.case4(bearing, ttc, RobotInputs(u=u, omega=skew(0.0)))
    assert vm.rows == 1
    assert np.allclose(vm.H, h)


def test_case4_falls_back_to_bearing_only_without_a_ttc_reading():
    # a landmark at a constant range gives no time-to-contact reading
    bearing = vmeas.BearingObs(theta=0.5, sigma_theta=0.01)
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.2))
    vm, ref = vmeas.case4(bearing, None, inputs), vmeas.case1(bearing)
    for rows in ("y", "H", "R"):
        assert np.array_equal(getattr(vm, rows), getattr(ref, rows)), rows


def test_case5_none_when_stationary():
    dop = vmeas.DopplerObs(r=4.0, r_dot=-1.0)
    assert vmeas.case5(dop, RobotInputs(u=np.zeros(2), omega=skew(0.0))) is None


def test_pinhole_residual_zero_at_truth(rng):
    f = 500.0
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=3)
        x[2] = rng.uniform(1.0, 20.0)
        y1, y2 = -f * x[0] / x[2], -f * x[1] / x[2]
        vm = vmeas.pinhole(vmeas.PinholeObs(f=f, y1=y1, y2=y2))
        assert np.abs(vm.residual(x)).max() < 1e-10


def test_virtual_measurement_validation():
    with pytest.raises(ValueError):
        vmeas.VirtualMeasurement(y=np.zeros(2), H=np.zeros((1, 2)), R=np.eye(1))
    with pytest.raises(ValueError):
        vmeas.VirtualMeasurement(y=np.zeros(1), H=np.zeros((1, 2)),
                                 R=np.array([[0.0]]))


def test_derived_measurement_keeps_its_arrays():
    y, H, R = np.zeros(1), np.array([[1.0, 0.0]]), np.array([[2.0]])
    vm = vmeas.VirtualMeasurement._derived(y, H, R)
    assert vm.y is y and vm.H is H and vm.R is R


def test_case_rows_r_is_positive_definite_at_zero_range():
    # r* = 0 makes sigma^2 r*^2 exactly 0; the variance floor keeps R PD
    vm = vmeas.case2(vmeas.BearingObs(0.3), vmeas.RangeObs(0.0, 0.0))
    assert np.linalg.eigvalsh(vm.R).min() > 0.0


def test_stack_measurements_blocks():
    a = vmeas.VirtualMeasurement(y=[1.0], H=[[1.0, 0.0]], R=[[2.0]])
    b = vmeas.VirtualMeasurement(y=[2.0, 3.0], H=np.eye(2), R=np.diag([1.0, 4.0]))
    s = vmeas.stack_measurements(a, None, b)
    assert s.rows == 3
    assert np.allclose(s.y, [1.0, 2.0, 3.0])
    assert np.allclose(s.R, np.diag([2.0, 1.0, 4.0]))
    assert vmeas.stack_measurements(None, None) is None
    assert vmeas.stack_measurements(a) is a


def test_case2_r_uses_range_bound_not_r_max():
    bearing = vmeas.BearingObs(theta=0.2, sigma_theta=math.radians(2))
    vm_near = vmeas.case2(bearing, vmeas.RangeObs(r=4.0, sigma_r=0.2))
    vm_far = vmeas.case2(bearing, vmeas.RangeObs(r=90.0, sigma_r=0.2))
    # tangential variance scales with r*^2 = min(r + 3 sigma, r_max)^2
    assert vm_near.R[0, 0] < vm_far.R[0, 0]
    assert vm_near.R[0, 0] == pytest.approx(
        math.radians(2) ** 2 * (4.0 + 0.6) ** 2)


def test_observe_true_consistency(rng):
    x, inputs = random_state_and_inputs(rng, dim=2)
    true = vmeas.observe_true(x, inputs)
    assert true.r == pytest.approx(np.linalg.norm(x))
    # differentiate theta numerically along xdot = -Omega x - u
    eps = 1e-7
    xdot = -inputs.omega.matrix @ x - inputs.u
    x2 = x + eps * xdot
    theta2 = math.atan2(x2[0], x2[1])
    assert true.theta_dot == pytest.approx((theta2 - true.theta) / eps, abs=1e-5)


def test_observe_true_rejects_origin():
    with pytest.raises(ValueError):
        vmeas.observe_true(np.zeros(2),
                           RobotInputs(u=np.zeros(2), omega=skew(0.0)))
