"""Full-state global SLAM and closed-form heading estimation."""

import math

import numpy as np
import pytest

from ltvslam import slam_global, vmeas
from ltvslam.core import RobotInputs, body_from_global, rotation2d, skew, wrap_angle
from ltvslam.kalman import FilterConfig
from ltvslam.slam_global import (_append_landmarks, _heading_residue,
                                 beta_d_closed_form_2d, init_global, step_global,
                                 track_heading)

from conftest import exact_bundle


def bearings_at(landmarks, x_v, beta):
    T = body_from_global(beta)
    thetas = []
    for lm in landmarks:
        b = T @ (np.asarray(lm) - x_v)
        thetas.append(math.atan2(b[0], b[1]))
    return np.array(thetas)


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


def test_beta_d_exact_antipode_falls_back_to_current_heading():
    # offsets d and -d on one bearing: both minima have projected-range
    # sum exactly 0, so the current heading alone picks the side
    x_v = np.array([1.0, 2.0])
    d = np.array([3.0, 1.0])
    landmarks = np.array([x_v + d, x_v - d])
    thetas = np.array([0.4, 0.4])
    for current, expected in ((0.0, -0.8490457723982541),
                              (-2.0, -0.8490457723982541),
                              (1.0, 2.292546881191539),
                              (2.5, 2.292546881191539)):
        est = beta_d_closed_form_2d(landmarks, x_v, thetas, current_beta=current)
        assert est == pytest.approx(expected, abs=1e-12)
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
    b = track_heading(0.0, omega=1.0, beta_d=0.0, dt=0.01)
    assert b == pytest.approx(0.01)
    # pure correction pulls toward beta_d along the shortest arc
    b = track_heading(math.pi - 0.01, omega=0.0, beta_d=-math.pi + 0.01,
                      dt=0.01)
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
    expected = np.array([1.0, 2.0]) + rotation2d(0.3) @ [0.0, 4.0]
    assert np.linalg.norm(gs.estimates().X[0] - expected) < 0.5


def test_one_growth_for_a_tick_equals_one_growth_per_landmark():
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    new = {k: exact_bundle(np.array([0.5 * k, 3.0 + k]), inputs) for k in (4, 2, 7)}
    gs = step_global(init_global(np.array([1.0, 2.0]), beta0=0.3), u=1.0,
                     omega=0.2, observations={1: exact_bundle(np.ones(2), inputs)})
    once = _append_landmarks(gs, new)
    apart = gs
    for k, b in new.items():
        apart = _append_landmarks(apart, {k: b})
    assert once.landmark_ids == apart.landmark_ids == [1, 4, 2, 7]
    assert np.array_equal(once.state.x, apart.state.x)
    assert np.array_equal(once.state.P, apart.state.P)


def test_init_global_rejects_non_planar_start():
    # a 3-vector used to pass here and fail to broadcast in the first step
    for start in (np.zeros(3), np.zeros(1), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="2-vector"):
            init_global(start)


def test_new_landmarks_grow_p_without_an_eigvalsh(monkeypatch):
    # the caller's prior is checked once; the grown P is that P plus 100 I
    gs = init_global(np.array([1.0, 2.0]), beta0=0.3)
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    obs = {k: exact_bundle(x, inputs) for k, x in
           {1: np.array([0.0, 4.0]), 2: np.array([3.0, 1.0]),
            3: np.array([-2.0, 5.0])}.items()}

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called on a grown P")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    gs = step_global(gs, u=0.0, omega=0.0, observations=obs, case=2)
    assert gs.landmark_ids == [1, 2, 3]


def test_step_global_lifts_a_ticks_rows_once(monkeypatch):
    # Case IV gives two rows where the range changes and, for the landmark at
    # the circle's centre, where it does not, the one Case I row plus one
    # zero-information row
    real_lift, real_ode_step = vmeas._lift, slam_global.ode_step
    lifts, rows = [], []
    monkeypatch.setattr(vmeas, "_lift",
                        lambda *args: lifts.append(args) or real_lift(*args))
    monkeypatch.setattr(slam_global, "ode_step", lambda state, A, b, vm, Q, cfg:
                        rows.append(vm) or real_ode_step(state, A, b, vm, Q, cfg))
    pos, beta, u, omega = np.array([5.0, 0.0]), 0.0, 2.5, 0.5
    inputs = RobotInputs(u=np.array([0.0, u]), omega=skew(omega))
    T = body_from_global(beta)
    world = {1: [2.5, 2.5], 2: [0.0, 0.0], 3: [2.0, -3.0]}
    obs = {lid: exact_bundle(T @ (np.asarray(lm) - pos), inputs)
           for lid, lm in world.items()}
    step_global(init_global(pos, beta0=beta), u=u, omega=omega,
                observations=obs, case=4)
    parts = [real_lift(vmeas.flat_rows(vmeas.build_measurement(4, [b], inputs))[0],
                       T, 8, k, 3)
             for k, b in enumerate(obs.values())]
    assert [p.rows for p in parts] == [2, 1, 2]
    parts[1] = vmeas.stack_measurements(parts[1], vmeas.VirtualMeasurement(
        y=[0.0], H=np.zeros((1, 8)), R=[[1.0]]))
    ref = vmeas.stack_measurements(*parts)
    vm, = rows
    assert len(lifts) == 1
    assert np.array_equal(vm.y, ref.y) and np.array_equal(vm.R, ref.R)
    assert np.abs(vm.H - ref.H).max() <= 1e-14

    # Case V of a stationary vehicle: no rows, so a pure prediction
    gs = init_global(pos, beta0=beta)
    still = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    obs = {lid: exact_bundle(T @ (np.asarray(lm) - pos), still)
           for lid, lm in world.items()}
    lifts.clear()
    grown = _append_landmarks(gs, obs)
    gs = step_global(gs, u=0.0, omega=0.0, observations=obs, case=5)
    assert rows[-1] is None and not lifts
    assert np.array_equal(gs.state.x, grown.state.x)
    assert np.array_equal(gs.state.P, grown.state.P)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_global_one_loop_noise_free_converges(case):
    # a full circle with three landmarks: everything should land within
    # a few centimeters with exact measurements, in every sensor case
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
        gs = step_global(gs, u=u, omega=omega_m, observations=obs, case=case,
                         cfg=cfg)
    pos, beta = pose(gs.state.t)
    assert np.linalg.norm(gs.vehicle - pos) < 0.05
    assert abs(wrap_angle(gs.beta_hat - beta)) < 0.01
    est = dict(zip(gs.landmark_ids, gs.estimates().X))
    for lid, lm in landmarks.items():
        assert np.linalg.norm(est[lid] - lm) < 0.05
