"""Per-landmark relative-frame SLAM."""

import math

import numpy as np
import pytest

from ltvslam import noisecal, vmeas
from ltvslam.core import FilterState, RobotInputs, body_from_global, skew
from ltvslam.kalman import DivergenceError, FilterConfig
from ltvslam.noisecal import NoiseSpec
from ltvslam.slam_local import (LocalLandmarkFilter, LocalMap, SensorBundle,
                                build_measurement, init_landmark)

from conftest import exact_bundle, seed_map


def circle_pose(t, radius=5.0, omega=0.5):
    alpha = omega * t
    pos = radius * np.array([math.cos(alpha), math.sin(alpha)])
    return pos, alpha, radius * omega  # position, heading, speed


def run_noise_free(case, landmarks, duration=10.0, dt=0.01):
    lmap = LocalMap(case=case, cfg=FilterConfig(dt=dt))
    n = int(duration / dt)
    for i in range(n):
        pos, beta, u = circle_pose(i * dt)
        inputs = RobotInputs(u=np.array([0.0, u]), omega=skew(0.5))
        obs = {}
        for lid, lm in landmarks.items():
            x_body = body_from_global(beta) @ (np.asarray(lm) - pos)
            obs[lid] = exact_bundle(x_body, inputs)
        lmap.step(inputs, obs)
    pos, beta, _ = circle_pose(lmap.state.t)
    T = body_from_global(beta)
    return {lid: np.linalg.norm(lmap.filters[lid].state.x
                                - T @ (np.asarray(lm) - pos))
            for lid, lm in landmarks.items()}


LANDMARKS = {1: (2.5, 2.5), 2: (-3.0, 1.5), 3: (2.0, -3.0)}


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_noise_free_convergence_all_cases(case):
    errors = run_noise_free(case, LANDMARKS)
    tol = 0.05 if case == 4 else 0.01  # the tau surrogate carries a small bias
    for lid, err in errors.items():
        assert err < tol, f"case {case} landmark {lid}: {err}"


def test_noisy_convergence_below_decimeter():
    deg = math.pi / 180
    noise = NoiseSpec(sigma_theta=2 * deg, sigma_theta_dot=5 * deg,
                      sigma_r=2.0, sigma_r_dot=0.2, sigma_alpha=0.5 * deg)
    rng = np.random.default_rng(3)
    lmap = LocalMap(case=2, cfg=FilterConfig(dt=0.01))
    for i in range(2000):
        pos, beta, u = circle_pose(i * 0.01)
        inputs = RobotInputs(u=np.array([0.0, u]), omega=skew(0.5))
        obs = {}
        for lid, lm in LANDMARKS.items():
            x_body = body_from_global(beta) @ (np.asarray(lm) - pos)
            clean = exact_bundle(x_body, inputs, noise=noise)
            obs[lid] = SensorBundle(
                bearing=vmeas.BearingObs(
                    theta=clean.bearing.theta + rng.normal(0, noise.sigma_theta),
                    sigma_theta=noise.sigma_theta),
                range=vmeas.RangeObs(
                    r=max(clean.range.r + rng.normal(0, noise.sigma_r), 0.0),
                    sigma_r=noise.sigma_r))
        lmap.step(inputs, obs)
    pos, beta, _ = circle_pose(lmap.state.t)
    T = body_from_global(beta)
    for lid, lm in LANDMARKS.items():
        err = np.linalg.norm(lmap.filters[lid].state.x - T @ (np.asarray(lm) - pos))
        assert err < 0.1


def test_init_landmark_bearing_prior_on_the_ray():
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.3))
    f = init_landmark(case=1, bundle=bundle)
    r0 = np.linalg.norm(f.x)
    assert r0 == pytest.approx(noisecal.R_MAX / 2)      # 50 m
    assert math.atan2(f.x[0], f.x[1]) == pytest.approx(0.3)


def test_init_landmark_with_range_uses_it():
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.0),
                          range=vmeas.RangeObs(r=7.0, sigma_r=0.5))
    f = init_landmark(case=2, bundle=bundle)
    assert np.allclose(f.x, [0.0, 7.0])
    assert f.P[0, 0] == pytest.approx(0.25)


def test_init_landmark_case5_starts_at_origin_wide():
    f = init_landmark(case=5, bundle=None)
    assert np.allclose(f.x, 0.0)
    assert f.P[0, 0] == 100.0


def test_unobserved_landmark_gets_prediction_only():
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.0))
    lmap = LocalMap(case=2, cfg=FilterConfig(dt=0.01))
    seed_map(lmap, {7: FilterState(np.array([0.0, 5.0]), np.eye(2))})
    lmap.step(inputs, {})
    assert np.allclose(lmap.filters[7].state.x, [0.0, 4.99])   # drifts by -u dt


def test_filters_view_the_stack_rows():
    # each filter record holds its id's row of the stack, in first-sighting
    # order; the dict is built on each read, so editing it changes no map
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.2))
    lmap = LocalMap(case=2, cfg=FilterConfig(dt=0.01))
    lmap.step(inputs, {5: exact_bundle(np.array([1.0, 4.0]), inputs)})
    lmap.step(inputs, {2: exact_bundle(np.array([-2.0, 3.0]), inputs),
                       5: exact_bundle(np.array([1.0, 4.0]), inputs)})
    filters = lmap.filters
    assert list(filters) == [5, 2] and lmap.ids == {5: 0, 2: 1}
    for lid, f in filters.items():
        assert isinstance(f, LocalLandmarkFilter)
        assert np.array_equal(f.state.x, lmap.state.x[lmap.ids[lid]])
        assert np.array_equal(f.state.P, lmap.state.P[lmap.ids[lid]])
        assert f.state.t == lmap.state.t == 0.02
    del filters[5]
    assert list(lmap.filters) == [5, 2] and lmap.state.x.shape == (2, 2)


def test_a_divergence_names_the_landmark_not_its_row():
    # landmark 3's row (row 1) has a non-finite estimate
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.0))
    lmap = LocalMap(case=2, cfg=FilterConfig(dt=0.01))
    seed_map(lmap, {8: FilterState(np.array([0.0, 5.0]), np.eye(2)),
                    3: FilterState._derived(np.array([math.nan, 5.0]), np.eye(2), 0.0)})
    with pytest.raises(DivergenceError, match=r"^landmark 3 diverged at t=0\.01$"):
        lmap.step(inputs, {})


def test_build_measurement_rejects_unknown_case():
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    with pytest.raises(ValueError):
        build_measurement(9, [SensorBundle()], inputs)


def test_local_map_creates_filters_on_first_sight():
    lmap = LocalMap(case=1, cfg=FilterConfig(dt=0.01))
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    lmap.step(inputs, {4: SensorBundle(bearing=vmeas.BearingObs(theta=0.1))})
    assert set(lmap.filters) == {4}
    lmap.step(inputs, {})
    est = lmap.estimates()
    assert est.ids == [4] and est.X.shape == (1, 2) and est.P.shape == (1, 2, 2)


@pytest.mark.parametrize("case", [2, 5])
def test_local_map_takes_its_dimension_from_the_inputs(case):
    # a 3D map reads out (N, 3) positions and (N, 3, 3) covariances
    lmap = LocalMap(case=case, cfg=FilterConfig(dt=0.01))
    inputs = RobotInputs(u=np.array([0.0, 1.0, 0.2]), omega=skew(0.1, 0.0, 0.3))
    sightings = {1: [3.0, 4.0, 1.0], 2: [-2.0, 5.0, -0.5]}
    for _ in range(3):
        lmap.step(inputs, {lid: exact_bundle(np.array(x), inputs)
                           for lid, x in sightings.items()})
    est = lmap.estimates()
    assert est.X.shape == (2, 3) and est.P.shape == (2, 3, 3)
    assert LocalMap(case=case).estimates().X.shape == (0, 2)


def test_3d_case3_on_a_helix_keeps_R_definite_and_states_finite(monkeypatch):
    # u . omega != 0: the robot climbs while it turns; readings are exact
    w, u = 0.3, np.array([0.0, 1.0, 0.2])
    inputs = RobotInputs(u=u, omega=skew(0.0, 0.0, w))
    landmarks = np.array([[3.0, 4.0, 1.0], [-2.0, 5.0, -0.5],
                          [4.0, -3.0, 2.0], [-4.0, -2.0, 0.5]])
    seen = []

    def recorded(*args):
        vm = build_measurement(*args)
        seen.append(vm.R)
        return vm

    monkeypatch.setattr("ltvslam.slam_local.build_measurement", recorded)
    lmap = LocalMap(case=3, cfg=FilterConfig(dt=0.01))
    rng = np.random.default_rng(0)
    for i in range(300):
        t = i * 0.01
        c, s = math.cos(w * t), math.sin(w * t)
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        pos = np.array([(c - 1.0) / w, s / w, u[2] * t])  # integral of rz u
        obs = {}
        for lid, lm in enumerate(landmarks):
            true = vmeas.observe_true(rz.T @ (lm - pos), inputs, diameter=2.0)
            obs[lid] = vmeas.noisy_bundle(true, NoiseSpec(), rng)
        lmap.step(inputs, obs)
        for f in lmap.filters.values():
            assert np.all(np.isfinite(f.state.x)) and np.all(np.isfinite(f.state.P))
    assert len(seen) == 300   # one build per tick, all four sightings
    for R in seen:
        assert R.shape == (4, 4, 4) and np.all(np.isfinite(R))
        assert np.linalg.eigvalsh(R).min() > 0.0
