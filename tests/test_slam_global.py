"""Full-state global SLAM and closed-form heading estimation."""

import math

import numpy as np
import pytest

from ltvslam import vmeas
from ltvslam.core import RobotInputs, body_from_global, rotation2d, skew, wrap_angle
from ltvslam.kalman import FilterConfig
from ltvslam.slam_global import (VehicleKinematics, _heading_residue,
                                 beta_d_closed_form_2d, bicycle_omega,
                                 init_global, step_global, track_heading)

from conftest import exact_bundle


def bearings_at(landmarks, x_v, beta):
    T = body_from_global(beta)
    thetas = []
    for lm in landmarks:
        b = T @ (np.asarray(lm) - x_v)
        thetas.append(math.atan2(b[0], b[1]))
    return np.array(thetas)


def test_bicycle_omega():
    k = VehicleKinematics(u=2.0, L=1.0, theta_s=math.atan(0.5))
    assert bicycle_omega(k) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        VehicleKinematics(u=1.0, L=0.0, theta_s=0.0)
    with pytest.raises(ValueError):
        VehicleKinematics(u=1.0, L=1.0, theta_s=math.pi / 2)


def test_beta_d_exact_on_noise_free_instances(rng):
    for _ in range(50):
        beta = rng.uniform(-math.pi, math.pi)
        x_v = rng.uniform(-10, 10, size=2)
        landmarks = x_v + rng.uniform(-10, 10, size=(4, 2))
        thetas = bearings_at(landmarks, x_v, beta)
        est = beta_d_closed_form_2d(landmarks, x_v, thetas, current_beta=beta)
        assert abs(wrap_angle(est - beta)) < 1e-9


def test_beta_d_resolves_pi_ambiguity_by_range_positivity():
    # the bearing residue is pi-periodic; only the true heading also puts
    # every landmark at positive projected range
    beta = 0.8
    x_v = np.zeros(2)
    landmarks = np.array([[3.0, 1.0], [-2.0, 4.0], [1.0, -5.0]])
    thetas = bearings_at(landmarks, x_v, beta)
    # start the tracker at the antipode: the closed form must still pick beta
    est = beta_d_closed_form_2d(landmarks, x_v, thetas,
                                current_beta=wrap_angle(beta + math.pi))
    assert abs(wrap_angle(est - beta)) < 1e-9


def test_beta_d_single_landmark():
    beta = -1.2
    x_v = np.array([1.0, 2.0])
    landmarks = np.array([[4.0, 5.0]])
    thetas = bearings_at(landmarks, x_v, beta)
    est = beta_d_closed_form_2d(landmarks, x_v, thetas, current_beta=beta - 0.3)
    assert _heading_residue(est, landmarks - x_v, thetas) < 1e-18


def test_beta_d_degenerate_offsets_fall_back():
    est = beta_d_closed_form_2d(np.zeros((2, 2)), np.zeros(2),
                                np.array([0.1, 0.2]), current_beta=0.7)
    assert est == pytest.approx(0.7)
    assert beta_d_closed_form_2d([], np.zeros(2), [], current_beta=0.7) \
        == pytest.approx(0.7)


def test_beta_d_input_validation():
    with pytest.raises(ValueError):
        beta_d_closed_form_2d(np.zeros((2, 2)), np.zeros(2), np.array([0.1]))


def test_track_heading_integrates_and_corrects():
    b = track_heading(0.0, omega=1.0, beta_d=0.0, gamma_beta=0.0, dt=0.01)
    assert b == pytest.approx(0.01)
    # pure correction pulls toward beta_d along the shortest arc
    b = track_heading(math.pi - 0.01, omega=0.0, beta_d=-math.pi + 0.01,
                      gamma_beta=1.0, dt=0.01)
    assert wrap_angle(b - (math.pi - 0.01)) > 0.0


def test_init_global_and_landmark_append():
    gs = init_global(np.array([1.0, 2.0]), beta0=0.3)
    assert gs.n_landmarks == 0
    assert np.allclose(gs.vehicle, [1.0, 2.0])
    bundle = exact_bundle(np.array([0.0, 4.0]),
                          RobotInputs(u=np.zeros(2), omega=skew(0.0)))
    gs = step_global(gs, u=0.0, omega=0.0, observations={9: bundle}, case=2)
    assert gs.landmark_ids == [9]
    # back-projected initialization: vehicle + R(beta) * r h*
    expected = np.array([1.0, 2.0]) + rotation2d(0.3).apply([0.0, 4.0])
    assert np.linalg.norm(gs.landmark(9) - expected) < 0.5


def test_global_one_loop_noise_free_converges():
    # a full circle with three landmarks: everything should land within
    # a few centimeters with exact measurements
    dt, omega_m, radius = 0.01, 0.5, 5.0
    landmarks = {1: np.array([2.5, 2.5]), 2: np.array([-3.0, 1.5]),
                 3: np.array([2.0, -3.0])}
    cfg = FilterConfig(dt=dt)

    def pose(t):
        a = omega_m * t
        return (radius * np.array([math.cos(a), math.sin(a)]), wrap_angle(a))

    p0, b0 = pose(0.0)
    gs = init_global(p0, beta0=b0)
    u = radius * omega_m
    n = int(2 * math.pi / omega_m / dt)
    for i in range(n):
        pos, beta = pose(i * dt)
        inputs = RobotInputs(u=np.array([0.0, u]), omega=skew(omega_m))
        T = body_from_global(beta)
        obs = {lid: exact_bundle(T @ (lm - pos), inputs)
               for lid, lm in landmarks.items()}
        gs = step_global(gs, u=u, omega=omega_m, observations=obs, case=2, cfg=cfg)
    pos, beta = pose(gs.state.t)
    assert np.linalg.norm(gs.vehicle - pos) < 0.05
    assert abs(wrap_angle(gs.beta_hat - beta)) < 0.01
    for lid, lm in landmarks.items():
        assert np.linalg.norm(gs.landmark(lid) - lm) < 0.05


@pytest.mark.parametrize("case, acc", [
    (1, (0.0, 0.0)), (2, (0.0, 0.0)), (3, (0.0, 0.0)), (4, (0.0, 0.0)),
    (2, (0.3, -0.2)),
], ids=["case1", "case2", "case3", "case4", "case2-accelerating"])
def test_second_order_mode_velocity_substate(case, acc):
    # straight line at beta = pi/4; u is the global-frame acceleration
    dt = 0.01
    landmarks = {1: np.array([3.0, 6.0]), 2: np.array([-4.0, 3.0]),
                 3: np.array([1.0, -5.0])}
    v0 = np.array([-1.0, 1.0])  # global velocity; beta = pi/4 forward
    a = np.array(acc)
    beta = math.pi / 4
    T = body_from_global(beta)
    gs = init_global(np.zeros(2), beta0=beta, second_order=True, v0=v0)
    cfg = FilterConfig(dt=dt)
    for i in range(800):
        t = i * dt
        pos = v0 * t + 0.5 * a * t**2
        inputs = RobotInputs(u=T @ (v0 + a * t), omega=skew(0.0))
        obs = {lid: exact_bundle(T @ (lm - pos), inputs)
               for lid, lm in landmarks.items()}
        gs = step_global(gs, u=a, omega=0.0, observations=obs,
                         case=case, cfg=cfg)
    t = gs.state.t
    assert np.linalg.norm(gs.vehicle - (v0 * t + 0.5 * a * t**2)) < 0.05
    assert np.linalg.norm(gs.vehicle_velocity - (v0 + a * t)) < 0.05
    for lid, lm in landmarks.items():
        assert np.linalg.norm(gs.landmark(lid) - lm) < 0.05


def test_second_order_rejects_case5():
    gs = init_global(np.zeros(2), second_order=True)
    bundle = exact_bundle(np.array([0.0, 4.0]),
                          RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.0)))
    with pytest.raises(ValueError):
        step_global(gs, u=np.zeros(2), omega=0.0, observations={1: bundle},
                    case=5)


def test_velocity_property_requires_second_order():
    gs = init_global(np.zeros(2))
    with pytest.raises(ValueError):
        gs.vehicle_velocity
