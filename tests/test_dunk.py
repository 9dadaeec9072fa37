"""Decoupled pair-filter network with consensus feedback."""

import math

import numpy as np
import pytest

from ltvslam import dunk, sim, vmeas
from ltvslam.coop import coop_step
from ltvslam.core import FilterState, RobotInputs, body_from_global, skew
from ltvslam.dunk import (Consensus, DunkNetwork, LandmarkPairState, RobotStep,
                          consensus, dunk_step, feedback_measurement, init_pair,
                          pair_measurement, pair_tick)
from ltvslam.kalman import DivergenceError, FilterConfig
from ltvslam.runner import RunConfig, make_coop_maps
from ltvslam.slam_local import SensorBundle

from conftest import exact_bundle, seed_map


def make_pair(x_lm, x_v, sigma_v=1.0):
    P = np.eye(4)
    P[2:, 2:] = sigma_v * np.eye(2)
    return FilterState(np.concatenate([x_lm, x_v]), P)


def one_consensus(net, observed):
    """The consensus of one map over its ``observed`` ids."""
    return consensus([net], [observed])[0]


def make_net(pairs, **kwargs):
    """A pair map holding ``pairs`` ({id: pair FilterState}) as its rows."""
    net = DunkNetwork(case=2, cfg=FilterConfig(dt=0.01), **kwargs)
    seed_map(net, pairs)
    return net


def test_pairs_view_the_stack_rows():
    # each pair record holds its id's row of the stack, in first-sighting
    # order; the dict is built on each read, so editing it changes no map
    net = make_net({7: make_pair(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
                    3: make_pair(np.zeros(2), np.array([5.0, 6.0]), sigma_v=2.0)})
    pairs = net.pairs
    assert list(pairs) == [7, 3]
    for lid, p in pairs.items():
        assert isinstance(p, LandmarkPairState)
        assert np.array_equal(p.state.x, net.state.x[net.ids[lid]])
        assert np.array_equal(p.state.P, net.state.P[net.ids[lid]])
        assert p.state.t == net.state.t
    pairs[9] = pairs.pop(7)
    assert list(net.pairs) == [7, 3] and net.ids == {7: 0, 3: 1}
    assert net.state.x.shape == (2, 4)


def test_consensus_equal_weights_is_midpoint():
    net = make_net({1: make_pair(np.zeros(2), np.array([0.0, 0.0])),
                    2: make_pair(np.zeros(2), np.array([2.0, 0.0]))})
    c = one_consensus(net, {1, 2})
    assert np.allclose(c.x_vc, [1.0, 0.0], atol=1e-8)


def test_consensus_information_weighted():
    net = make_net({1: make_pair(np.zeros(2), np.array([0.0, 0.0]), sigma_v=1.0),
                    2: make_pair(np.zeros(2), np.array([5.0, 0.0]), sigma_v=4.0)})
    c = one_consensus(net, {1, 2})
    assert np.allclose(c.x_vc, [1.0, 0.0], atol=1e-6)


def test_consensus_single_pair_and_empty():
    net = make_net({1: make_pair(np.zeros(2), np.array([7.0, -1.0]))})
    c = one_consensus(net, {1})
    assert np.allclose(c.x_vc, [7.0, -1.0], atol=1e-8)
    assert one_consensus(net, set()) is None


def test_consensus_is_quadratic_minimizer(rng):
    # x_vc minimizes sum (x - x_vi)^T Sigma_vi^-1 (x - x_vi)
    pairs = {}
    for lid in range(5):
        M = rng.normal(size=(2, 2))
        P = np.eye(4)
        P[2:, 2:] = M @ M.T + 0.1 * np.eye(2)
        x = rng.normal(size=4)
        pairs[lid] = FilterState(x, P)
    c = one_consensus(make_net(pairs), pairs.keys())
    A = np.zeros((2, 2))
    b = np.zeros(2)
    for p in pairs.values():
        W = np.linalg.inv(p.P[2:, 2:])
        A += W
        b += W @ p.x[2:]
    assert np.allclose(c.x_vc, np.linalg.solve(A, b), atol=1e-8)
    assert np.allclose(c.covariance, np.linalg.inv(A), atol=1e-8)


def test_consensus_covariance_is_exactly_symmetric(rng):
    pairs = {}
    for lid in range(4):
        M = rng.normal(size=(2, 2))
        P = np.eye(4)
        P[2:, 2:] = M @ M.T + 0.1 * np.eye(2)
        pairs[lid] = FilterState(rng.normal(size=4), P)
    cov = one_consensus(make_net(pairs), pairs.keys()).covariance
    assert np.array_equal(cov, cov.T)


def test_consensus_permutation_invariant():
    # the sums run in id order, whatever the observed order or the row order
    pairs = {i: make_pair(np.zeros(2), np.array([float(i), 0.0]),
                          sigma_v=1.0 + i) for i in range(4)}
    a = one_consensus(make_net(pairs), [0, 1, 2, 3])
    b = one_consensus(make_net(pairs), [3, 1, 0, 2])
    c = one_consensus(make_net(dict(reversed(pairs.items()))), [0, 1, 2, 3])
    assert np.array_equal(a.x_vc, b.x_vc) and np.array_equal(a.x_vc, c.x_vc)


def test_feedback_measurement_rows():
    c = Consensus(x_vc=np.array([1.0, 2.0]), covariance=np.eye(2))
    vm = feedback_measurement(c)
    assert np.allclose(vm.H, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert np.allclose(vm.residual(np.array([9.0, 9.0, 1.0, 2.0])), 0.0)
    assert feedback_measurement(None) is None


def test_pair_measurement_relative_reduction():
    # case II at theta=0, r=4, beta=0: rows act on x_i - x_vi
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.0),
                          range=vmeas.RangeObs(r=4.0))
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    vm = pair_measurement([(2, [bundle], inputs)], body_from_global(0.0)[None])
    x = np.array([1.0, 6.0, 1.0, 2.0])   # x_i - x_vi = (0, 4)
    assert np.abs(vm.y[0] - vm.H[0] @ x).max() < 1e-12


def test_pair_measurement_rotates_with_heading(rng):
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.4),
                          range=vmeas.RangeObs(r=3.0))
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    beta = 1.1
    T = body_from_global(beta)
    vm0 = pair_measurement([(2, [bundle], inputs)], np.eye(2)[None])
    vmb = pair_measurement([(2, [bundle], inputs)], T[None])
    assert np.allclose(vmb.H[0, :, :2], vm0.H[0, :, :2] @ T, atol=1e-12)


def test_pair_measurement_lifts_each_sighting_as_its_own_build_would():
    # a Case IV tick mixing fallback sightings (no time-to-contact reading)
    # with full ones: a full sighting's lifted rows are those of lifting its
    # own build, bit for bit; a fallback's are its own one lifted row, to
    # 1e-15 (its row is lifted as one of two, the last bit of a row of H T
    # depends on H's row count), plus a zero-information row
    rng = np.random.default_rng(5)
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.2))
    bundles = [SensorBundle(bearing=vmeas.BearingObs(theta=theta, sigma_theta=0.01),
                            ttc=None if i % 3 == 1 else vmeas.TimeToContactObs(tau=3.0))
               for i, theta in enumerate(rng.uniform(-1.0, 1.0, 12))]
    T = body_from_global(rng.uniform(-3.0, 3.0))
    vm = pair_measurement([(4, bundles, inputs)], T[None])
    for i, b in enumerate(bundles):
        ref = vmeas._lift(vmeas.case4(b.bearing, b.ttc, inputs), T, 4, 0, 1)
        k = ref.rows
        assert np.array_equal(vm.y[i, :k], ref.y)
        assert np.array_equal(vm.R[i, :k, :k], ref.R)
        assert np.abs(vm.H[i, :k] - ref.H).max() <= (1e-15 if b.ttc is None else 0.0)
        if b.ttc is None:
            assert not vm.y[i, 1:].any() and not vm.H[i, 1:].any()
            assert np.array_equal(vm.R[i], np.diag([ref.R[0, 0], 1.0]))


def _capture_init_pair(monkeypatch):
    """Record every pair that pair_tick creates through the dunk.init_pair binding."""
    made = []

    def recording(*args, **kwargs):
        made.append(init_pair(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(dunk, "init_pair", recording)
    return made


def test_init_pair_uses_all_pairs_consensus(monkeypatch):
    # a tick's new pairs start at the consensus of the pairs it began with
    net = make_net({1: make_pair(np.zeros(2), np.array([0.0, 0.0])),
                    2: make_pair(np.zeros(2), np.array([4.0, 0.0]))})
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.0),
                          range=vmeas.RangeObs(r=2.0))
    made = _capture_init_pair(monkeypatch)
    dunk_step(net, 0.0, 0.0, {3: bundle, 4: bundle})
    assert len(made) == 2
    for p in made:
        assert np.allclose(p.x[2:], [2.0, 0.0], atol=1e-6)
        assert np.allclose(p.x[:2], [2.0, 2.0], atol=1e-6)
        assert np.allclose(p.P[2:, 2:], 0.5 * np.eye(2), atol=1e-6)
    assert list(net.ids) == [1, 2, 3, 4]   # new rows go after the map's own


def test_init_pair_first_ever_uses_prior():
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.0),
                          range=vmeas.RangeObs(r=5.0))
    p = init_pair(bundle, (np.array([1.0, 1.0]), np.eye(2)), beta_hat=0.0)
    assert np.allclose(p.x[2:], [1.0, 1.0])
    assert np.allclose(p.x[:2], [1.0, 6.0])
    assert np.array_equal(p.P[2:, 2:], np.eye(2))


def test_init_pair_checks_the_new_row():
    # a new row enters the map through the checked FilterState constructor
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.0),
                          range=vmeas.RangeObs(r=5.0))
    with pytest.raises(ValueError, match="positive semidefinite"):
        init_pair(bundle, (np.zeros(2), -np.eye(2)), beta_hat=0.0)


def test_every_pair_of_a_tick_starts_at_one_prior(monkeypatch):
    # the pairs a tick creates do not feed each other's start
    net = DunkNetwork(case=2, cfg=FilterConfig(dt=0.01))
    made = _capture_init_pair(monkeypatch)
    obs = {k: SensorBundle(bearing=vmeas.BearingObs(theta=0.3 * k),
                           range=vmeas.RangeObs(r=3.0 + k)) for k in range(6)}
    dunk_step(net, 1.0, 0.2, obs)
    assert len(made) == 6
    for p in made:
        assert np.array_equal(p.x[2:], net.vehicle_prior_x)
        assert np.array_equal(p.P[2:, 2:], net.vehicle_prior_P)
    assert net.state.x.shape == (6, 4) and net.state.t == 0.01   # new rows, one step


def test_consensus_runs_at_most_twice_per_map_per_tick(monkeypatch):
    # one prior for the new pairs plus the end-of-tick consensus, however
    # many pairs the tick creates
    scenario = sim.scenario_coop("full")
    n_ticks = 3
    stream = sim.ticks(scenario, np.random.default_rng(scenario.seed),
                       scenario.dt, n_ticks)
    maps = make_coop_maps(scenario, RunConfig(mode="coop-full"))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return consensus(*args, **kwargs)

    monkeypatch.setattr(dunk, "consensus", counting)
    medium = None
    for _ in range(n_ticks):
        _, ticks = next(stream)
        calls.clear()
        medium = coop_step(maps, ticks, "full", medium)
        assert 0 < len(calls) <= 2 * len(maps)
    assert all(len(m.net.pairs) == len(scenario.landmarks) for m in maps.values())


def test_pair_tick_forms_one_rotation_per_map(monkeypatch):
    # every observed pair of a map is lifted with the tick's one T
    scenario = sim.scenario_coop("full")
    stream = sim.ticks(scenario, np.random.default_rng(scenario.seed),
                       scenario.dt, 1)
    maps = make_coop_maps(scenario, RunConfig(mode="coop-full"))
    calls = []

    def counting(beta):
        calls.append(beta)
        return body_from_global(beta)

    monkeypatch.setattr(dunk, "body_from_global", counting)
    _, ticks = next(stream)
    coop_step(maps, ticks, "full", None)
    assert all(len(t.observations) == len(scenario.landmarks) for t in ticks.values())
    assert len(calls) == len(maps)


def test_identical_pairs_stay_identical():
    # pairs sharing inputs and observations never separate
    net = DunkNetwork(case=2, cfg=FilterConfig(dt=0.01))
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.0))
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.0),
                          range=vmeas.RangeObs(r=4.0))
    for _ in range(50):
        dunk_step(net, 1.0, 0.0, {1: bundle, 2: bundle})
    p1, p2 = net.pairs[1], net.pairs[2]
    assert np.allclose(p1.state.x, p2.state.x, atol=1e-12)
    assert np.allclose(p1.state.P, p2.state.P, atol=1e-12)


def test_dunk_step_no_observations_no_motion_is_identity():
    net = make_net({1: make_pair(np.array([1.0, 2.0]), np.array([0.5, 0.5]))})
    x_before = net.pairs[1].state.x.copy()
    dunk_step(net, 0.0, 0.0, {})
    assert np.allclose(net.pairs[1].state.x, x_before, atol=1e-12)


def test_unobserved_pairs_follow_the_consensus():
    # a pair that is never observed again converges to the moving consensus
    net = DunkNetwork(case=2, cfg=FilterConfig(dt=0.01),
                      vehicle_prior_P=1e-2 * np.eye(2))
    inputs_bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.0),
                                 range=vmeas.RangeObs(r=4.0))
    dunk_step(net, 0.0, 0.0, {1: inputs_bundle, 2: inputs_bundle})
    seed_map(net, {1: net.pairs[1].state,
                   2: make_pair(np.array([9.0, 9.0]), np.array([5.0, 5.0]),
                                sigma_v=100.0)})
    for _ in range(300):
        dunk_step(net, 0.0, 0.0, {1: inputs_bundle})
    gap = np.linalg.norm(net.pairs[2].state.x[2:] - net.pairs[1].state.x[2:])
    assert gap < 0.05


def test_dunk_noise_free_scene_converges():
    dt, omega_m, radius = 0.01, 0.5, 5.0
    landmarks = {1: np.array([2.5, 2.5]), 2: np.array([-3.0, 1.5]),
                 3: np.array([2.0, -3.0])}
    u = radius * omega_m
    net = DunkNetwork(case=2, cfg=FilterConfig(dt=dt), beta_hat=0.0,
                      vehicle_prior_x=np.array([radius, 0.0]),
                      vehicle_prior_P=1e-2 * np.eye(2))
    for i in range(1500):
        a = omega_m * i * dt
        pos = radius * np.array([math.cos(a), math.sin(a)])
        T = body_from_global(a)
        inputs = RobotInputs(u=np.array([0.0, u]), omega=skew(omega_m))
        obs = {lid: exact_bundle(T @ (lm - pos), inputs)
               for lid, lm in landmarks.items()}
        dunk_step(net, u, omega_m, obs)
    for lid, lm in landmarks.items():
        assert np.linalg.norm(net.pairs[lid].state.x[:2] - lm) < 0.05


def test_a_divergence_names_the_landmark_not_its_row():
    net = DunkNetwork(case=2, cfg=FilterConfig(dt=0.01))
    bundle = SensorBundle(bearing=vmeas.BearingObs(theta=0.0),
                          range=vmeas.RangeObs(r=4.0))
    obs = {7: bundle, 3: bundle, 5: bundle}
    dunk_step(net, 1.0, 0.0, obs)
    with pytest.raises(DivergenceError, match=r"^landmark 5 diverged at t=0\.02$"):
        pair_tick([RobotStep(net, 1.0, 0.0, obs,
                             target_velocities={5: np.array([math.nan, 0.0])})])


def _count_filter_states(monkeypatch):
    """Count the FilterState objects made, checked or derived."""
    made = []
    derived, post_init = FilterState._derived.__func__, FilterState.__post_init__
    monkeypatch.setattr(FilterState, "_derived", classmethod(
        lambda cls, *args: made.append(1) or derived(cls, *args)))
    monkeypatch.setattr(FilterState, "__post_init__",
                        lambda self: made.append(1) or post_init(self))
    return made


def test_a_steady_tick_makes_as_many_filter_states_at_any_map_size(monkeypatch):
    # the map keeps the stack it steps: no record is made per pair
    rng = np.random.default_rng(2)
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.3))
    counts = []
    for n in (10, 100):
        angles, radii = rng.uniform(0.0, 2 * math.pi, n), rng.uniform(3.0, 20.0, n)
        obs = {k: exact_bundle(r * np.array([math.sin(a), math.cos(a)]), inputs)
               for k, (a, r) in enumerate(zip(angles, radii))}
        net = DunkNetwork(case=2, cfg=FilterConfig(dt=0.01))
        dunk_step(net, 1.0, 0.3, obs)   # creates every pair
        made = _count_filter_states(monkeypatch)
        dunk_step(net, 1.0, 0.3, obs)
        monkeypatch.undo()
        counts.append(len(made))
    assert counts[0] == counts[1] > 0
