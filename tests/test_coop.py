"""Cooperative multi-robot mapping through a shared medium."""

import copy
import math

import numpy as np
import pytest

from ltvslam import coop, dunk, sim
from ltvslam.coop import (NNFeature, RobotMap, RobotTick, coop_step,
                          coordinate_k_star, medium_update, nn_features,
                          null_rotation_full, null_translation)
from ltvslam.core import FilterState, RobotInputs, body_from_global, skew
from ltvslam.dunk import DunkNetwork, dunk_step
from ltvslam.kalman import FilterConfig
from ltvslam.runner import RunConfig, make_coop_maps

from conftest import exact_bundle, seed_map


def seeded_map(positions, vehicle=(0.0, 0.0)):
    net = DunkNetwork(case=2, cfg=FilterConfig(dt=0.01))
    seed_map(net, {k: FilterState(np.concatenate([np.asarray(p, float),
                                                  np.asarray(vehicle, float)]),
                                  np.eye(4))
                   for k, p in positions.items()})
    return RobotMap(net=net)


def test_centers_and_empty_maps():
    maps = {1: seeded_map({1: (0.0, 0.0), 2: (2.0, 0.0)}),
            2: seeded_map({1: (0.0, 4.0)}),
            3: seeded_map({})}
    x_ic = medium_update(maps, "full").x_ic
    assert set(x_ic) == {1, 2}
    assert np.allclose(x_ic[1], [1.0, 0.0])
    assert np.allclose(medium_update(maps, "full").x_cc, [0.5, 2.0])
    assert medium_update({3: maps[3]}, "full").x_ic == {}
    assert medium_update({3: maps[3]}, "full").x_cc is None


def test_nn_features():
    m = seeded_map({1: (0.0, 0.0), 2: (1.0, 0.0), 3: (5.0, 0.0)})
    feats = nn_features(m.landmark_positions())
    assert feats[1].neighbor == 2
    assert feats[3].neighbor == 2
    assert np.allclose(feats[3].a, [4.0, 0.0])
    assert nn_features({1: np.zeros(2)}) == {}


def test_nn_features_match_the_pairwise_loop(rng):
    # the reference: a norm per pair, neighbors scanned in id order
    pos = {k: rng.uniform(-10.0, 10.0, size=2) for k in (5, 2, 9, 1, 7, 3)}
    # an exact tie, far from the rest: 20's neighbor is the lower id, 21
    pos.update({22: np.array([99.0, 100.0]), 20: np.array([100.0, 100.0]),
                21: np.array([101.0, 100.0])})
    feats = nn_features(pos)
    assert list(feats) == list(pos)
    for k, xk in pos.items():
        best = min((kp for kp in sorted(pos) if kp != k),
                   key=lambda kp: float(np.linalg.norm(xk - pos[kp])))
        assert feats[k].neighbor == best
        assert np.array_equal(feats[k].a, xk - pos[best])


def test_coordinate_k_star_shortest_claim_wins_then_lowest_robot():
    all_feats = {
        1: {7: NNFeature(8, np.array([3.0, 0.0]))},
        2: {7: NNFeature(9, np.array([1.0, 0.0]))},
    }
    assert coordinate_k_star(all_feats)[7] == 9
    tie = {
        2: {7: NNFeature(8, np.array([1.0, 0.0]))},
        1: {7: NNFeature(9, np.array([1.0, 0.0]))},
    }
    assert coordinate_k_star(tie)[7] == 9   # robot 1's claim breaks the tie


def test_medium_update_averages_and_rejects_bad_mode():
    maps = {1: seeded_map({1: (0.0, 0.0), 2: (2.0, 2.0)}),
            2: seeded_map({1: (1.0, 1.0), 2: (3.0, 3.0)})}
    med = medium_update(maps, "full")
    assert np.allclose(med.x_ck[1], [0.5, 0.5])
    assert np.allclose(med.x_ck[2], [2.5, 2.5])
    with pytest.raises(ValueError):
        medium_update(maps, "centralized")


def test_heading_errors_zero_on_identical_maps():
    pos = {1: (1.0, 0.0), 2: (-1.0, 2.0), 3: (0.0, -2.0)}
    maps = {1: seeded_map(pos), 2: seeded_map(pos)}
    for mode in ("full", "partial"):
        med = medium_update(maps, mode)
        e_c, e_h = med.e_c, med.e_h
        assert e_c == pytest.approx(0.0, abs=1e-20)
        assert e_h == pytest.approx(0.0, abs=1e-20)


def test_heading_errors_detect_rotation_but_not_common_translation():
    pos = {1: np.array([1.0, 0.0]), 2: np.array([-1.0, 2.0]),
           3: np.array([0.0, -2.0])}
    shift = np.array([5.0, -3.0])
    maps = {1: seeded_map(pos),
            2: seeded_map({k: p + shift for k, p in pos.items()})}
    med = medium_update(maps, "full")
    assert med.e_c > 1.0 and med.e_h == pytest.approx(0.0, abs=1e-18)
    T = body_from_global(0.5)
    maps[2] = seeded_map({k: T @ p for k, p in pos.items()})
    assert medium_update(maps, "full").e_h > 0.1


def test_null_inputs_vanish_when_aligned_and_descend_otherwise():
    pos = {1: np.array([2.0, 0.0]), 2: np.array([-2.0, 0.0]),
           3: np.array([0.0, 2.0])}
    maps = {1: seeded_map(pos), 2: seeded_map(pos)}
    med = medium_update(maps, "full")
    assert np.allclose(null_translation(1, med, "full"), 0.0)
    assert null_rotation_full(1, med) == pytest.approx(0.0, abs=1e-12)
    # rotate map 2 slightly: its torque must oppose the misalignment
    delta = 0.1
    T = body_from_global(delta)   # clockwise by delta
    maps[2] = seeded_map({k: T @ p for k, p in pos.items()})
    med = medium_update(maps, "full")
    w = null_rotation_full(2, med)
    assert w > 0.0                # counter-clockwise correction
    assert w == pytest.approx(coop.GAMMA_OMEGA * math.sin(delta / 2), rel=0.05)


def make_tick(pose, beta, u, omega, landmarks):
    T = body_from_global(beta)
    inputs = RobotInputs(u=np.array([0.0, u]), omega=skew(omega))
    obs = {k: exact_bundle(T @ (np.asarray(p) - pose), inputs)
           for k, p in landmarks.items()}
    return RobotTick(u=u, omega_m=omega, observations=obs)


def test_single_robot_coop_matches_plain_pair_filter():
    landmarks = {1: np.array([2.5, 2.5]), 2: np.array([-3.0, 1.5])}
    dt, omega, radius = 0.01, 0.5, 5.0
    u = radius * omega

    def run(stepper):
        net = DunkNetwork(case=2, cfg=FilterConfig(dt=dt), beta_hat=0.0,
                          vehicle_prior_x=np.array([radius, 0.0]),
                          vehicle_prior_P=1e-2 * np.eye(2))
        for i in range(200):
            a = omega * i * dt
            pose = radius * np.array([math.cos(a), math.sin(a)])
            tick = make_tick(pose, a, u, omega, landmarks)
            stepper(net, tick)
        return net

    net_a = run(lambda net, tick: dunk_step(net, tick.u, tick.omega_m,
                                            tick.observations))
    net_b = run(lambda net, tick: coop_step(
        {1: RobotMap(net=net)}, {1: tick}, "full"))
    for k in landmarks:
        assert np.array_equal(net_a.pairs[k].state.x, net_b.pairs[k].state.x)
        assert np.array_equal(net_a.pairs[k].state.P, net_b.pairs[k].state.P)
    assert net_a.beta_hat == net_b.beta_hat


def test_robots_only_self_pair_starts_correlated_and_stays_tied(monkeypatch):
    sc = sim.scenario_coop("robots_only")
    sc.vehicles = sc.vehicles[:2]
    maps = make_coop_maps(sc, RunConfig(mode="coop-robots"))
    rng = np.random.default_rng(0)
    stepped = []
    real_ode_step = dunk.ode_step

    def recording_ode_step(state, *args):
        stepped.append(state)
        return real_ode_step(state, *args)

    monkeypatch.setattr(dunk, "ode_step", recording_ode_step)
    medium = None
    stream = sim.ticks(sc, rng, sc.dt, 300, robots_only=True)
    for n, (_, ticks) in enumerate(stream):
        medium = coop_step(maps, ticks, "robots_only", medium)
        if n == 0:
            monkeypatch.undo()
            # robot 1's first step holds its self pair (id 1, made after
            # the pair of the robot it sees) at the prior
            P_v, row = maps[1].net.vehicle_prior_P, maps[1].net.ids[1]
            assert row == 1
            assert np.array_equal(stepped[0].x[row], np.zeros(4))
            assert np.array_equal(stepped[0].P[row], np.block(
                [[P_v, 0.9 * P_v], [0.9 * P_v, P_v]]))
        for i, m in maps.items():
            assert sorted(m.net.pairs) == [1, 2]
            own = m.net.pairs[i]
            assert np.linalg.norm(own.state.x[:2] - own.state.x[2:]) < 1e-6
            P = own.state.P
            corr = P[0, 2] / math.sqrt(P[0, 0] * P[2, 2])
            assert corr > 0.999
    assert maps[1].net.pairs[1].state.P[0, 0] < 1.0   # the tie has converged


def test_full_mode_builds_no_nn_features(monkeypatch):
    sc = sim.scenario_coop("full")
    maps = make_coop_maps(sc, RunConfig(mode="coop-full"))
    calls = []
    monkeypatch.setattr(coop, "nn_features", lambda pos: calls.append(pos) or {})
    _, ticks = next(sim.ticks(sc, np.random.default_rng(0), sc.dt, 1))
    medium = coop_step(maps, ticks, "full")
    assert calls == []
    # the null-space inputs and the errors still read x_ck for every landmark
    assert sorted(medium.x_ck) == sorted(lm.id for lm in sc.landmarks)


@pytest.mark.parametrize("mode", ["full", "partial"])
def test_coop_step_reads_each_map_once(monkeypatch, mode):
    # the medium reads the maps; the null-space inputs read the medium
    sc = sim.scenario_coop(mode)
    maps = make_coop_maps(sc, RunConfig(mode=f"coop-{mode}"))
    stream = sim.ticks(sc, np.random.default_rng(0), sc.dt, 3)
    medium = coop_step(maps, next(stream)[1], mode)
    reads = []
    real = RobotMap.landmark_positions
    monkeypatch.setattr(RobotMap, "landmark_positions",
                        lambda m: reads.append(m) or real(m))
    for _, ticks in stream:
        assert all(np.array_equal(x, medium.positions[i][k])
                   for i, m in maps.items() for k, x in real(m).items())
        reads.clear()
        medium = coop_step(maps, ticks, mode, medium)
        assert sorted(map(id, reads)) == sorted(map(id, maps.values()))


def test_coop_step_rejects_unknown_mode():
    with pytest.raises(ValueError):
        coop_step({}, {}, "federated")


def run_two_robot_alignment(mode, steps=1500):
    landmarks = {k: np.array(p) for k, p in
                 {1: (3.0, 3.0), 2: (-4.0, 2.0), 3: (2.0, -4.0),
                  4: (-2.0, -3.0), 5: (5.0, 0.0)}.items()}
    dt = 0.01
    specs = {1: (6.0, 0.7, 0.0), 2: (7.0, -0.5, math.pi / 2)}
    maps = {i: RobotMap(net=DunkNetwork(
        case=2, cfg=FilterConfig(dt=dt), beta_hat=0.0,
        vehicle_prior_P=np.eye(2))) for i in specs}
    if mode == "partial":
        visible = {1: {1, 2, 3, 4}, 2: {2, 3, 4, 5}}
    else:
        visible = {1: set(landmarks), 2: set(landmarks)}
    for n in range(steps):
        t = n * dt
        ticks = {}
        for i, (radius, omega, phase) in specs.items():
            a = phase + omega * t
            pose = radius * np.array([math.cos(a), math.sin(a)])
            beta = a if omega > 0 else a + math.pi
            sub = {k: landmarks[k] for k in visible[i]}
            ticks[i] = make_tick(pose, beta, radius * abs(omega), omega, sub)
        med = coop_step(maps, ticks, mode)
    return maps, med


@pytest.mark.parametrize("mode", ["full", "partial"])
def test_two_robots_converge_to_a_common_frame(mode):
    maps, med = run_two_robot_alignment(mode)
    pos1 = maps[1].landmark_positions()
    pos2 = maps[2].landmark_positions()
    shared = set(pos1) & set(pos2)
    assert len(shared) >= 3
    gaps = [np.linalg.norm(pos1[k] - pos2[k]) for k in shared]
    assert max(gaps) < 0.3
    assert med.e_h < 0.1
