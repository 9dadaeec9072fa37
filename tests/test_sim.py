"""Synthetic worlds: trajectories, sensing, serialization."""

import math

import numpy as np
import pytest

from ltvslam.core import heading_forward, wrap_angle
from ltvslam.coop import RobotTick
from ltvslam.noisecal import NoiseSpec
from ltvslam.sim import (COOP_RADIUS, CircleSpec, Landmark, Scenario,
                         circle_trajectory, is_visible, observe_robots,
                         scenario_coop, scenario_single_vehicle_2d,
                         sense, ticks)


def test_circle_trajectory_kinematic_consistency():
    pose_fn = circle_trajectory((1.0, -2.0), 5.0, 0.7, (6.0, -2.0))
    eps = 1e-6
    for t in (0.0, 1.3, 4.0):
        p = pose_fn(t)
        vel = (pose_fn(t + eps).position - p.position) / eps
        assert np.allclose(vel, p.u * heading_forward(p.beta), atol=1e-4)
        assert p.u == pytest.approx(3.5)
        assert p.omega == pytest.approx(0.7)
        assert np.linalg.norm(p.position - [1.0, -2.0]) == pytest.approx(5.0)


def test_circle_trajectory_negative_rate_reverses_heading():
    fwd = circle_trajectory((0.0, 0.0), 2.0, 1.0, (2.0, 0.0))(0.0)
    rev = circle_trajectory((0.0, 0.0), 2.0, -1.0, (2.0, 0.0))(0.0)
    assert abs(wrap_angle(rev.beta - fwd.beta - math.pi)) < 1e-12
    assert rev.u == fwd.u > 0


def test_circle_trajectory_stationary_and_bad_start():
    p = circle_trajectory((0.0, 0.0), 1.0, 0.0, (1.0, 0.0), beta0=0.4)(9.0)
    assert p.u == 0.0 and p.beta == pytest.approx(0.4)
    with pytest.raises(ValueError):
        circle_trajectory((0.0, 0.0), 5.0, 0.5, (1.0, 0.0))


def test_scenario_json_round_trip():
    sc = scenario_single_vehicle_2d()
    back = Scenario.from_json(sc.to_json())
    assert back.name == sc.name
    assert back.seed == sc.seed and back.dt == sc.dt
    assert len(back.landmarks) == len(sc.landmarks)
    for a, b in zip(back.landmarks, sc.landmarks):
        assert a.id == b.id and np.allclose(a.position, b.position)
    assert back.vehicles == sc.vehicles
    assert back.noise == sc.noise


def test_visibility_rules():
    sc = Scenario(name="t", visibility="range", r_visible=10.0)
    spec = CircleSpec(center=(5.0, 5.0), radius=1.0, omega=1.0, x0=(6.0, 5.0))
    from ltvslam.sim import Pose
    pose = Pose(position=np.zeros(2), beta=0.0, u=0.0, omega=0.0)
    near, far = Landmark(1, (3.0, 4.0)), Landmark(2, (30.0, 40.0))
    assert is_visible(sc, spec, pose, near)
    assert not is_visible(sc, spec, pose, far)
    sc_q = Scenario(name="t", visibility="quadrant")
    assert is_visible(sc_q, spec, pose, Landmark(3, (2.0, 1.0)))
    assert is_visible(sc_q, spec, pose, Landmark(4, (0.0, 1.0)))  # closed edge
    assert not is_visible(sc_q, spec, pose, Landmark(5, (-2.0, 1.0)))
    with pytest.raises(ValueError):   # rejected when the world is built
        Scenario(name="t", visibility="cone")


def test_sense_noise_free_matches_truth():
    from ltvslam.sim import Pose
    pose = Pose(position=np.array([1.0, 1.0]), beta=0.3, u=2.0,
                omega=0.5)
    lm = Landmark(4, (4.0, 5.0))
    bundle, true = sense(pose, lm, NoiseSpec(), np.random.default_rng(0))
    assert true.tau is not None      # the landmark is closing in
    readings = {"theta": bundle.bearing.theta, "r": bundle.range.r,
                "theta_dot": bundle.rate.theta_dot,
                "r_dot": bundle.doppler.r_dot, "alpha": bundle.ttc.alpha,
                "tau": bundle.ttc.tau}
    for kind, value in readings.items():
        assert value == pytest.approx(getattr(true, kind), abs=1e-12), kind
    assert bundle.doppler.r == bundle.range.r == pytest.approx(5.0)


def test_sense_is_seed_deterministic():
    from ltvslam.sim import Pose
    pose = Pose(position=np.zeros(2), beta=0.0, u=1.0, omega=0.2)
    lm = Landmark(1, (2.0, 3.0))
    noise = NoiseSpec(sigma_theta=0.05, sigma_r=0.5, sigma_theta_dot=0.05,
                      sigma_r_dot=0.1, sigma_alpha=0.01)
    a, _ = sense(pose, lm, noise, np.random.default_rng(42))
    b, _ = sense(pose, lm, noise, np.random.default_rng(42))
    assert a == b
    c, _ = sense(pose, lm, noise, np.random.default_rng(43))
    for field in ("bearing", "range", "rate", "ttc", "doppler"):
        assert getattr(a, field) != getattr(c, field), field


def test_sense_draws_theta_r_theta_dot_r_dot_alpha_in_order():
    # the order every run's noise stream (and so every trace) depends on
    from ltvslam.sim import Pose
    pose = Pose(position=np.array([1.0, 1.0]), beta=0.3, u=2.0,
                omega=0.5)
    lm = Landmark(4, (4.0, 5.0))
    noise = NoiseSpec(sigma_theta=0.05, sigma_r=0.5, sigma_theta_dot=0.05,
                      sigma_r_dot=0.1, sigma_alpha=0.01)
    rng = np.random.default_rng(7)
    bundle, true = sense(pose, lm, noise, rng)
    by_hand = np.random.default_rng(7)
    theta = true.theta + by_hand.normal(0.0, noise.sigma_theta)
    r = max(true.r + by_hand.normal(0.0, noise.sigma_r), 0.0)
    theta_dot = true.theta_dot + by_hand.normal(0.0, noise.sigma_theta_dot)
    r_dot = true.r_dot + by_hand.normal(0.0, noise.sigma_r_dot)
    alpha = true.alpha + by_hand.normal(0.0, noise.sigma_alpha)
    assert bundle.bearing.theta == theta and bundle.bearing.phi is None
    assert bundle.range.r == bundle.doppler.r == r
    assert bundle.rate.theta_dot == theta_dot and bundle.rate.phi_dot is None
    assert bundle.doppler.r_dot == r_dot
    assert bundle.ttc.alpha == alpha
    assert bundle.ttc.tau == true.tau * (alpha / true.alpha)
    assert rng.random() == by_hand.random()   # and nothing else was drawn


def test_coop_scenarios():
    full = scenario_coop("full")
    assert len(full.landmarks) == 13 and len(full.vehicles) == 4
    assert full.visibility == "unlimited"
    partial = scenario_coop("partial")
    assert partial.visibility == "quadrant"
    robots = scenario_coop("robots_only")
    assert robots.landmarks == []
    with pytest.raises(ValueError):
        scenario_coop("mesh")
    # every vehicle's start point sits on its circle
    for _, spec in full.vehicles:
        gap = np.linalg.norm(np.array(spec.x0) - np.array(spec.center))
        assert gap == pytest.approx(COOP_RADIUS, abs=1e-9)


def test_observe_robots_structure():
    sc = scenario_coop("robots_only")
    poses = {vid: fn(0.0) for vid, fn in sc.pose_fns().items()}
    out = observe_robots(poses, NoiseSpec(), np.random.default_rng(0))
    assert set(out) == set(poses)
    for i, tick in out.items():
        assert isinstance(tick, RobotTick)
        assert (tick.u, tick.omega_m) == (poses[i].u, poses[i].omega)
        assert set(tick.observations) == set(poses) - {i}
        for j, bundle in tick.observations.items():
            d_true = np.linalg.norm(poses[j].position - poses[i].position)
            assert bundle.range.r == pytest.approx(d_true, abs=1e-9)
            assert tick.heading_diffs[j] == pytest.approx(
                wrap_angle(poses[j].beta - poses[i].beta), abs=1e-9)
            assert tick.speeds[j] == poses[j].u


def test_ticks_respect_visibility_and_match_observe_robots():
    sc = scenario_coop("partial")
    pose_fns = sc.pose_fns()
    specs = dict(sc.vehicles)
    stream = list(ticks(sc, np.random.default_rng(3), sc.dt, 5))
    assert [t for t, _ in stream] == [k * sc.dt for k in range(5)]
    for t, per_robot in stream:
        assert list(per_robot) == [vid for vid, _ in sc.vehicles]
        for vid, tick in per_robot.items():
            pose = pose_fns[vid](t)
            assert (tick.u, tick.omega_m) == (pose.u, pose.omega)
            # each robot sees exactly the landmarks in its circle's quadrant
            center = np.asarray(specs[vid].center)
            quadrant = {lm.id for lm in sc.landmarks
                        if np.all(lm.position * center >= 0.0)}
            assert set(tick.observations) == quadrant
            assert 0 < len(quadrant) < len(sc.landmarks)
            assert not tick.heading_diffs and not tick.speeds

    # robots-only ticks are observe_robots on the same poses and draws
    sc = scenario_coop("robots_only")
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    for t, per_robot in ticks(sc, rng_a, sc.dt, 3, robots_only=True):
        poses = {vid: fn(t) for vid, fn in sc.pose_fns().items()}
        assert per_robot == observe_robots(poses, sc.noise, rng_b)
