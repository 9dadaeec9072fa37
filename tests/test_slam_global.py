"""Full-state global SLAM and closed-form heading estimation."""

import math

import numpy as np
import pytest

from ltvslam import sim, slam_global, vmeas
from ltvslam.core import (FilterState, RobotInputs, body_from_global,
                          heading_forward, rotation2d, skew, wrap_angle)
from ltvslam.kalman import DivergenceError, FilterConfig, ode_step
from ltvslam.slam_global import (GlobalState, _append_landmarks, _heading_residue,
                                 beta_d_closed_form_2d, first_sighting_offset,
                                 init_global, step_global, track_heading)

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
    assert np.array_equal(once.Y, apart.Y)


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
    real_lift, real_correct = vmeas._lift, slam_global.info_correct
    lifts, rows = [], []
    monkeypatch.setattr(vmeas, "_lift",
                        lambda *args: lifts.append(args) or real_lift(*args))
    monkeypatch.setattr(slam_global, "info_correct", lambda x, Y, vm, dt, t:
                        rows.append(vm) or real_correct(x, Y, vm, dt, t))
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
    assert len(rows) == 1 and not lifts
    assert np.array_equal(gs.state.x, grown.state.x)
    assert np.array_equal(gs.state.P, grown.state.P)
    assert np.array_equal(gs.Y, grown.Y)


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


# ---------------------------------------------------------------------------
# The information-form step against the covariance form it replaced
# ---------------------------------------------------------------------------

#: Largest |dx| (m), |d beta| (rad) and |dP| / max|P| allowed between
#: step_global and the covariance-form reference, set before either was run:
#: both are exact flows of one correction and differ only in round-off, which
#: a 202-dim state conditioned up to ~1e8 (priors 0.01 to 1e6) amplifies.
REF_TOL = 1e-9


def covariance_step(ref, u, omega, observations, case, cfg):
    """step_global as it was before it carried Y: the lifted rows through
    ode_step, whose Joseph-form correction updates P.  ``ref`` is
    (landmark ids, FilterState, heading) and so is the result."""
    ids, state, beta_hat = ref
    new = [lid for lid in observations if lid not in ids]
    if new:
        k, m = state.dim - 2, 2 * len(new)
        x_new = np.concatenate([state.x[-2:] + first_sighting_offset(
            observations[lid], beta_hat) for lid in new])
        P = np.insert(np.insert(state.P, [k] * m, 0.0, axis=0), [k] * m, 0.0, axis=1)
        P[k:k + m, k:k + m] = 100.0 * np.eye(m)
        ids, state = ids + new, FilterState._derived(np.insert(state.x, k, x_new),
                                                     P, state.t)
    n, block = state.dim, {lid: i for i, lid in enumerate(ids)}
    blocks = np.array([block[lid] for lid in observations], dtype=int)
    offsets = state.x.reshape(-1, 2)[blocks] - state.x[-2:]
    bundles = list(observations.values())
    seen = [i for i, b in enumerate(bundles) if b.bearing is not None]
    beta_d = beta_d_closed_form_2d(offsets[seen], np.zeros(2),
                                   [bundles[i].bearing.theta for i in seen], beta_hat)
    inputs = RobotInputs(u=np.array([0.0, float(u)]), omega=skew(omega))
    body = vmeas.build_measurement(case, bundles, inputs, vmeas.range_hints(offsets))
    vm = None
    if body is not None:
        rows, sighting = vmeas.flat_rows(body)
        vm = vmeas._lift(rows, body_from_global(beta_hat), n, blocks[sighting], len(ids))
    b = np.concatenate([np.zeros(n - 2), float(u) * heading_forward(beta_hat)])
    state = ode_step(state, np.zeros((2, 2)), b, vm, None, cfg)
    return ids, state, track_heading(beta_hat, omega, beta_d, cfg.dt)


def assert_matches_reference(gs, ref):
    ids, state, beta_hat = ref
    assert gs.landmark_ids == ids
    assert np.abs(gs.state.x - state.x).max() <= REF_TOL
    assert np.abs(gs.state.P - state.P).max() <= REF_TOL * np.abs(state.P).max()
    assert abs(wrap_angle(gs.beta_hat - beta_hat)) <= REF_TOL


def assert_positive_definite(gs):
    assert np.linalg.eigvalsh(gs.state.P).min() > 0.0
    assert np.linalg.eigvalsh(gs.Y).min() > 0.0


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_step_global_matches_the_covariance_form_on_a_random_world(case):
    # acceptance 6's random world (radii 3-20 m) around the circling
    # vehicle of single-vehicle-2d, with its noise; landmarks 50-99 first
    # appear at tick 60 and 80-99 at tick 130
    base = sim.scenario_single_vehicle_2d()
    rng = np.random.default_rng(6)
    angles, radii = rng.uniform(0.0, 2 * math.pi, 100), rng.uniform(3.0, 20.0, 100)
    landmarks = [sim.Landmark(k, r * np.array([math.sin(a), math.cos(a)]))
                 for k, (a, r) in enumerate(zip(angles, radii))]
    sc = sim.Scenario(name="random-world", landmarks=landmarks,
                      vehicles=base.vehicles, noise=base.noise, dt=base.dt)
    cfg = FilterConfig(dt=sc.dt)
    pose0 = sc.pose_fns()[0](0.0)
    gs = init_global(pose0.position, beta0=pose0.beta)
    ref = ([], gs.state, gs.beta_hat)
    for i, (_, ticks) in enumerate(sim.ticks(sc, rng, sc.dt, 200)):
        tick = ticks[0]
        obs = {k: b for k, b in tick.observations.items()
               if k < 50 or (k < 80 and i >= 60) or i >= 130}
        gs = step_global(gs, tick.u, tick.omega_m, obs, case=case, cfg=cfg)
        ref = covariance_step(ref, tick.u, tick.omega_m, obs, case, cfg)
        assert_matches_reference(gs, ref)
        if i % 20 == 19:
            assert_positive_definite(gs)
    assert gs.n_landmarks == 100


def test_step_global_matches_the_covariance_form_on_a_stiff_sighting():
    # a noise-free landmark 5 cm ahead: its tangential row's variance is
    # (2e-3 rad * 5 cm)^2 = 1e-8, so each tick's R_d is 1e-6 against a
    # 100 m^2 prior
    inputs = RobotInputs(u=np.array([0.0, 0.5]), omega=skew(0.2))
    cfg = FilterConfig()
    gs = init_global(np.zeros(2))
    ref = ([], gs.state, gs.beta_hat)
    for _ in range(50):
        obs = {1: exact_bundle(np.array([0.0, 0.05]), inputs),
               2: exact_bundle(np.array([3.0, 4.0]), inputs)}
        gs = step_global(gs, 0.5, 0.2, obs, case=2, cfg=cfg)
        ref = covariance_step(ref, 0.5, 0.2, obs, 2, cfg)
        assert_matches_reference(gs, ref)
        assert_positive_definite(gs)


def test_a_global_state_built_from_p_alone_needs_a_positive_definite_p():
    x = np.arange(4.0)
    gs = GlobalState([1], FilterState(x, np.diag([4.0, 2.0, 1.0, 0.5])), 0.0)
    assert np.allclose(gs.Y, np.diag([0.25, 0.5, 1.0, 2.0]), rtol=1e-15)
    singular = FilterState(x, np.diag([1.0, 1.0, 0.0, 1.0]))   # PSD, so a valid state
    with pytest.raises(ValueError, match="positive definite"):
        GlobalState([1], singular, 0.0)


@pytest.mark.parametrize("bad", ["nan", "singular"])
def test_a_non_finite_or_singular_y_is_a_divergence(bad):
    # Case II rows on the landmark and the vehicle leave a zero Y singular
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    gs = step_global(init_global(np.zeros(2)), 0.0, 0.0,
                     {1: exact_bundle(np.array([1.0, 2.0]), inputs)})
    Y = np.zeros((4, 4)) if bad == "singular" else np.where(np.eye(4) > 0, np.nan, gs.Y)
    gs = GlobalState(gs.landmark_ids, gs.state, gs.beta_hat, Y)
    with pytest.raises(DivergenceError, match=r"^filter diverged at t=0\.02$"):
        step_global(gs, 0.0, 0.0, {1: exact_bundle(np.array([1.0, 2.0]), inputs)})
