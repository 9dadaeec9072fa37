"""Virtual measurement construction: exactness and noise policy."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ltvslam import vmeas
from ltvslam.core import RobotInputs, skew
from ltvslam.noisecal import NoiseSpec

from conftest import exact_bundle, random_state_and_inputs, scalar_rows


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
        if case == 4 and bundle.ttc is None:
            continue
        vm = scalar_rows(case, bundle, inputs)
        assert vm is not None
        assert np.abs(vm.residual(x)).max() < 1e-10


def _sighting(rng, inputs, r, radial_speed=None):
    """Exact readings of a random landmark at range r with random declared sigmas.

    ``radial_speed`` places it where h* u, the speed along its ray, is that.
    """
    d = inputs.dim
    x = rng.normal(size=d)
    if radial_speed is not None:
        u = inputs.u / np.linalg.norm(inputs.u)
        x -= (x @ u) * u
        x = x / np.linalg.norm(x) + radial_speed / np.linalg.norm(inputs.u) * u
    noise = NoiseSpec(**{name: float(rng.choice([0.0, 0.001, 0.02, 0.3]))
                         for name in NoiseSpec.__dataclass_fields__})
    return exact_bundle(r * x / np.linalg.norm(x), inputs, noise=noise)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_one_build_per_tick_equals_the_scalar_builders(case, dim, rng):
    # a tick's rows are every sighting's scalar rows, bit for bit, with each
    # sighting's own sigmas and range hint (0: none)
    for _ in range(10):
        _, inputs = random_state_and_inputs(rng, dim=dim)
        n = int(rng.integers(1, 9))
        bundles = [_sighting(rng, inputs, rng.uniform(1.0, 120.0)) for _ in range(n)]
        hints = rng.uniform(0.5, 150.0, size=n) * (rng.random(n) < 0.7)
        if case == 4:   # no time to contact, then a radial speed under EPS_U
            bundles[0] = replace(bundles[0], ttc=None)
            bundles.append(_sighting(rng, inputs, 5.0, radial_speed=1e-4))
            hints = np.append(hints, 3.0)
        vm = vmeas.build_measurement(case, bundles, inputs, hints)
        assert vm.H.shape[:2] == vm.y.shape == vm.R.shape[:2] == (len(bundles), vm.rows)
        for i, (bundle, hint) in enumerate(zip(bundles, hints)):
            ref = scalar_rows(case, bundle, inputs, hint)
            k = ref.rows   # a Case IV fallback: its Case I rows ...
            assert np.array_equal(vm.y[i, :k], ref.y)
            assert np.array_equal(vm.H[i, :k], ref.H)
            assert np.array_equal(vm.R[i, :k, :k], ref.R)
            assert k == vm.rows or (case == 4 and i in (0, n) and k == dim - 1)
            # ... plus one zero-information row
            assert not vm.y[i, k:].any() and not vm.H[i, k:].any()
            assert np.array_equal(vm.R[i, k:], np.eye(vm.rows)[k:])
        if case == 4:
            assert vmeas.flat_rows(vm)[0].rows == (n + 1) * vm.rows
            # a tick without any radial row is Case I's
            fallbacks = [bundles[0], bundles[-1], replace(bundles[-1], ttc=None)]
            vm, ref = (vmeas.build_measurement(k, fallbacks, inputs) for k in (4, 1))
            for name in ("y", "H", "R"):
                assert np.array_equal(getattr(vm, name), getattr(ref, name)), name
        if case == 5:   # a stationary robot's tick has no rows
            still = RobotInputs(u=np.zeros(dim), omega=inputs.omega)
            assert vmeas.build_measurement(5, bundles, still) is None


_VALID_READINGS = {
    vmeas.BearingObs: dict(theta=0.3, phi=0.1, sigma_theta=0.01, sigma_phi=0.01),
    vmeas.RangeObs: dict(r=4.0, sigma_r=0.1),
    vmeas.BearingRateObs: dict(theta_dot=0.2, phi_dot=-0.1, sigma_theta_dot=0.01,
                               sigma_phi_dot=0.01),
    vmeas.TimeToContactObs: dict(tau=3.0, alpha=0.2, sigma_alpha=0.001),
    vmeas.DopplerObs: dict(r=4.0, r_dot=-1.0, sigma_r=0.1, sigma_r_dot=0.05),
    vmeas.PinholeObs: dict(f=500.0, y1=3.0, y2=-2.0, sigma_img=0.5),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("record, field", [
    (record, field) for record in _VALID_READINGS
    for field in record.__dataclass_fields__])
def test_reading_records_reject_non_finite_values(record, field, bad):
    record(**_VALID_READINGS[record])
    with pytest.raises(ValueError, match=field):
        record(**{**_VALID_READINGS[record], field: bad})


@pytest.mark.parametrize("record", list(_VALID_READINGS))
def test_reading_records_bound_every_sigma_and_listed_field(record):
    # every sigma is listed as >= 0; each listed field rejects a value
    # under its bound and takes its bound's edge where that is allowed
    fields = record.__dataclass_fields__
    assert {f for f in fields if f.startswith("sigma")} <= set(record._NONNEG)
    for field in record._NONNEG:
        record(**{**_VALID_READINGS[record], field: 0.0})
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            record(**{**_VALID_READINGS[record], field: -1e-300})
    for field in record._POSITIVE:
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            record(**{**_VALID_READINGS[record], field: 0.0})


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


def test_place_rows_keeps_a_vm_that_fills_the_map_in_order(rng):
    vm = vmeas.VirtualMeasurement._derived(rng.normal(size=(4, 2)), rng.normal(
        size=(4, 2, 3)), np.tile(np.diag([1.0, 2.0]), (4, 1, 1)))
    assert vmeas.place_rows(4, (slice(0, 4), vm)) is vm
    assert vmeas.place_rows(4, ([0, 1, 2, 3], vm), (None, vm)) is vm
    # the same rows placed in two parts: the padding path gives vm's bits
    parts = [vmeas.VirtualMeasurement._derived(vm.y[s], vm.H[s], vm.R[s])
             for s in (slice(0, 3), slice(3, 4))]
    padded = vmeas.place_rows(4, ([0, 1, 2], parts[0]), ([3], parts[1]))
    for name in ("y", "H", "R"):
        assert np.array_equal(getattr(padded, name), getattr(vm, name))
    assert vmeas.place_rows(5, (slice(1, 5), vm)) is not vm   # filter 0 has none
    flipped = vmeas.place_rows(4, ([3, 2, 1, 0], vm))
    assert flipped is not vm and np.array_equal(flipped.y, vm.y[::-1])


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
