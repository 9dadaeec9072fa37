"""Cooperative multi-robot mapping through a shared medium."""

import copy
import dataclasses
import itertools
import math
from collections import namedtuple

import numpy as np
import pytest

from ltvslam import coop, dunk, sim, vmeas
from ltvslam.coop import (RobotMap, RobotTick, coop_step, landmark_stack,
                          medium_update, nn_features, null_drift)
from ltvslam.core import FilterState, RobotInputs, body_from_global, skew
from ltvslam.dunk import DunkNetwork, dunk_step, pair_tick
from ltvslam.kalman import DivergenceError, FilterConfig
from ltvslam.runner import RunConfig, make_coop_maps, map_discrepancy

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
    _, ids, X, seen = landmark_stack({1: m, 2: seeded_map({4: (0.0, 0.0)})})
    nearest, a = nn_features(X, seen)
    assert list(ids[nearest[0, :3]]) == [2, 1, 2]
    assert np.allclose(a[0, 2], [4.0, 0.0])
    # robot 1 lacks landmark 4; robot 2 holds one landmark: no features
    assert nearest[0, 3] == -1 and list(nearest[1]) == [-1, -1, -1, -1]
    assert not a[0, 3].any() and not a[1].any()


def test_nn_features_match_the_pairwise_loop(rng):
    # the reference: a norm per pair, neighbors scanned in id order
    pos = {k: rng.uniform(-10.0, 10.0, size=2) for k in (5, 2, 9, 1, 7, 3)}
    # an exact tie, far from the rest: 20's neighbor is the lower id, 21
    pos.update({22: np.array([99.0, 100.0]), 20: np.array([100.0, 100.0]),
                21: np.array([101.0, 100.0])})
    other = {k: rng.uniform(-10.0, 10.0, size=2) for k in (9, 4, 20, 2)}
    _, ids, X, seen = landmark_stack({1: seeded_map(pos), 2: seeded_map(other)})
    nearest, a = nn_features(X, seen)
    for r, p in enumerate((pos, other)):
        for k, xk in p.items():
            best = min((kp for kp in sorted(p) if kp != k),
                       key=lambda kp: float(np.linalg.norm(xk - p[kp])))
            c = list(ids).index(k)
            assert ids[nearest[r, c]] == best
            assert np.array_equal(a[r, c], xk - p[best])


def by_id(med, values, cols):
    """Landmark id -> ``values[c]`` over the medium's stack columns ``cols``."""
    ids = sorted(med.x_ck)   # the columns, in order
    return {ids[c]: values[c] for c in cols}


def k_star(med):
    """Landmark id -> the id of its k*, where the medium rules one."""
    ids = sorted(med.x_ck)
    return {ids[c]: ids[k] for c, k in enumerate(med.kstar) if k >= 0}


def test_coordinate_k_star_shortest_claim_wins_then_lowest_robot():
    maps = {1: seeded_map({7: (0.0, 0.0), 8: (3.0, 0.0)}),
            2: seeded_map({7: (0.0, 0.0), 9: (1.0, 0.0)})}
    assert k_star(medium_update(maps, "partial"))[7] == 9
    tie = {2: seeded_map({7: (0.0, 0.0), 8: (1.0, 0.0)}),
           1: seeded_map({7: (0.0, 0.0), 9: (0.0, 1.0)})}
    assert k_star(medium_update(tie, "partial"))[7] == 9   # robot 1's claim breaks the tie


# ---------------------------------------------------------------------------
# The medium as per-landmark loops, kept as the reference for the stack
# ---------------------------------------------------------------------------

NNFeature = namedtuple("NNFeature", "neighbor a")


def loop_nn_features(pos):
    if len(pos) < 2:
        return {}
    ids = sorted(pos)
    X = np.array([pos[k] for k in ids])
    dist = np.linalg.norm(X[:, None] - X[None], axis=2)
    np.fill_diagonal(dist, np.inf)
    nearest = dict(zip(ids, np.argmin(dist, axis=1)))
    return {k: NNFeature(neighbor=ids[nearest[k]], a=x - X[nearest[k]])
            for k, x in pos.items()}


def loop_medium(positions, mode):
    """The medium variables from per-robot dicts, one landmark at a time."""
    x_ic = {i: np.mean(list(pos.values()), axis=0)
            for i, pos in positions.items() if pos}
    x_cc = np.mean(list(x_ic.values()), axis=0) if x_ic else None
    observers = {}
    for pos in positions.values():
        for k, x in pos.items():
            observers.setdefault(k, []).append(x)
    x_ck = {k: np.mean(xs, axis=0) for k, xs in observers.items()}
    feats, k_star, c_k = {}, {}, {}
    if mode == "partial":
        feats = {i: loop_nn_features(pos) for i, pos in positions.items()}
        claims = {}
        for i in sorted(feats):
            for k, f in feats[i].items():
                claims.setdefault(k, []).append(
                    (float(np.linalg.norm(f.a)), i, f.neighbor))
        k_star = {k: sorted(entries)[0][2] for k, entries in claims.items()}
        for k, kstar in k_star.items():
            c_k[k] = np.mean([feats[i][k].a for i in sorted(feats)
                              if k in feats[i] and feats[i][k].neighbor == kstar],
                             axis=0)
    e_c = e_h = 0.0
    for i, j in itertools.combinations(sorted(positions), 2):
        pi, pj = positions[i], positions[j]
        if mode == "partial":
            for k in set(pi) & set(pj):
                e_c += float(np.sum((pi[k] - pj[k]) ** 2))
            for k in set(feats[i]) & set(feats[j]):
                fi, fj = feats[i][k], feats[j][k]
                if fi.neighbor == fj.neighbor:
                    e_h += float(np.sum((fi.a - fj.a) ** 2))
        elif i in x_ic and j in x_ic:
            e_c += float(np.sum((x_ic[i] - x_ic[j]) ** 2))
            for k in set(pi) & set(pj):
                e_h += float(np.sum(((pi[k] - x_ic[i]) - (pj[k] - x_ic[j])) ** 2))
    return dict(positions=positions, x_ic=x_ic, x_cc=x_cc, x_ck=x_ck, c_k=c_k,
                k_star=k_star, features=feats, e_c=e_c, e_h=e_h)


def loop_descent_rate(pairs):
    w, moment = 0.0, 0.0
    for a, c in pairs:
        w += float(a @ coop.J @ c)
        moment += float(np.linalg.norm(a) * np.linalg.norm(c))
    return coop.GAMMA_OMEGA * w / moment if moment > 0.0 else 0.0


def loop_drift(i, med, mode):
    """Robot i's (v, omega, center) from the loop medium."""
    if mode == "partial":
        v = np.zeros(2)
        for k, x_ik in med["positions"][i].items():
            v += med["x_ck"][k] - x_ik
        w = loop_descent_rate([(f.a, med["c_k"][k])
                               for k, f in med["features"].get(i, {}).items()
                               if med["k_star"].get(k) == f.neighbor])
        center = None
    else:
        x_ic = med["x_ic"].get(i)
        v = (np.zeros(2) if med["x_cc"] is None or x_ic is None
             else med["x_cc"] - x_ic)
        w = 0.0 if x_ic is None else loop_descent_rate(
            [(x_ik - x_ic, med["x_ck"][k]) for k, x_ik in med["positions"][i].items()])
        center = x_ic
    return (coop.GAMMA_V * v, float(np.clip(w, -coop.OMEGA_MAX, coop.OMEGA_MAX)),
            center)


def assert_close(new, ref):
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12)


def assert_dicts_close(new, ref):
    assert sorted(new) == sorted(ref)
    for k in ref:
        assert_close(new[k], ref[k])


def ragged_maps(rng, visible):
    """Robot id -> a map of its landmarks at random positions, first
    sighted in random order; the robots' maps do not agree."""
    return {i: seeded_map({int(k): rng.uniform(-10.0, 10.0, size=2)
                           for k in rng.permutation(sorted(ks))})
            for i, ks in visible.items()}


def tie_maps(rng):
    # landmark 1: robot 2's neighbor 3 and robot 4's neighbor 2 are both
    # 1 m away, and robot 4 is first in the dict: the lower robot id wins
    return {4: seeded_map({1: (0.0, 0.0), 2: (1.0, 0.0), 5: (6.0, 6.0)}),
            2: seeded_map({3: (0.0, 1.0), 1: (0.0, 0.0), 5: (-6.0, 5.0)}),
            3: seeded_map({5: (2.0, 2.0)})}


MAP_SETS = {
    "overlapping": lambda rng: ragged_maps(rng, {1: range(1, 9), 3: range(4, 13),
                                                 2: {1, 3, 5, 7, 9, 11}}),
    "disjoint": lambda rng: ragged_maps(rng, {1: {1, 2, 3, 4}, 2: {5, 6, 7},
                                              3: {8, 9, 10, 11, 12}}),
    "one-empty": lambda rng: ragged_maps(rng, {1: range(1, 7), 2: set(),
                                               3: range(3, 10)}),
    "single": lambda rng: ragged_maps(rng, {1: range(1, 8)}),
    "tie": tie_maps,
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode", coop.MODES)
@pytest.mark.parametrize("maps_of", MAP_SETS.values(), ids=MAP_SETS.keys())
def test_medium_and_drifts_match_the_landmark_loops(maps_of, mode, seed):
    maps = maps_of(np.random.default_rng(seed))
    med = medium_update(maps, mode)
    ref = loop_medium({i: m.landmark_positions() for i, m in maps.items()}, mode)
    assert med.rows.keys() == ref["positions"].keys()
    for i, pos in ref["positions"].items():
        r = med.rows[i]
        assert_dicts_close(by_id(med, med.X[r], np.flatnonzero(med.seen[r])), pos)
    for name in ("x_ic", "x_ck"):
        assert_dicts_close(getattr(med, name), ref[name])
    if ref["x_cc"] is None:
        assert med.x_cc is None
    else:
        assert_close(med.x_cc, ref["x_cc"])
    assert k_star(med) == ref["k_star"]
    claimed = np.flatnonzero(med.kstar >= 0)
    assert_dicts_close(by_id(med, med.ck, claimed), ref["c_k"])
    assert not med.ck[med.kstar < 0].any()
    if mode == "partial":   # the features k* and c_k are ruled from
        nearest, a = nn_features(med.X, med.seen)
        ids = sorted(med.x_ck)
        for i, feats in ref["features"].items():
            r = med.rows[i]
            cols = np.flatnonzero(nearest[r] >= 0)
            assert {k: ids[c] for k, c in by_id(med, nearest[r], cols).items()} == {
                k: f.neighbor for k, f in feats.items()}
            assert_dicts_close(by_id(med, a[r], cols), {k: f.a for k, f in feats.items()})
    assert_close([med.e_c, med.e_h], [ref["e_c"], ref["e_h"]])
    for i in maps:
        drift = null_drift(i, med, mode)
        v, omega, center = loop_drift(i, ref, mode)
        assert_close(drift.v, v)
        assert_close(drift.omega, omega)
        assert (drift.center is None) == (center is None)
        if center is not None:
            assert_close(drift.center, center)
    if maps_of is tie_maps and mode == "partial":
        assert k_star(med)[1] == 3
    pos = ref["positions"]
    assert_close(map_discrepancy(maps), max(
        (np.linalg.norm(pos[i][k] - pos[j][k])
         for i, j in itertools.combinations(sorted(pos), 2)
         for k in set(pos[i]) & set(pos[j])), default=0.0))


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
    drift = null_drift(1, medium_update(maps, "full"), "full")
    assert np.allclose(drift.v, 0.0)
    assert drift.omega == pytest.approx(0.0, abs=1e-12)
    # rotate map 2 slightly: its torque must oppose the misalignment
    delta = 0.1
    T = body_from_global(delta)   # clockwise by delta
    maps[2] = seeded_map({k: T @ p for k, p in pos.items()})
    w = null_drift(2, medium_update(maps, "full"), "full").omega
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


def _fleet_tick_and_alone(maps, ticks, mode, medium):
    """Step ``maps`` as one fleet tick, and a copy of each robot's map as a
    fleet of one with the same drift; return both (net, consensus) lists."""
    steps = coop._robot_steps(maps, ticks, mode, medium)
    alone = [step._replace(net=copy.deepcopy(step.net)) for step in steps]
    fleet = pair_tick(steps)
    return ([(s.net, c) for s, c in zip(steps, fleet)],
            [(s.net, pair_tick([s])[0]) for s in alone])


def assert_same_maps(fleet, alone, p_rtol=None):
    """Bit for bit, but the P of map j to ``p_rtol[j]`` relative, where given."""
    for j, ((net, c), (one, c1)) in enumerate(zip(fleet, alone)):
        assert net.ids == one.ids and net.state.t == one.state.t
        assert np.array_equal(net.state.x, one.state.x)
        rtol = (p_rtol or {}).get(j, 0.0)
        assert np.abs(net.state.P - one.state.P).max() <= rtol * np.abs(one.state.P).max()
        assert net.beta_hat == one.beta_hat
        assert (c is None) == (c1 is None)
        if c is not None:
            assert np.array_equal(c.x_vc, c1.x_vc)
            assert np.array_equal(c.covariance, c1.covariance)


def _no_ttc(tick, every=1):
    """``tick`` with every ``every``-th sighting stripped of its time-to-contact reading."""
    return dataclasses.replace(tick, observations={
        k: dataclasses.replace(b, ttc=None) if n % every == 0 else b
        for n, (k, b) in enumerate(tick.observations.items())})


@pytest.mark.parametrize("case", range(1, 6))
def test_a_fleet_tick_equals_its_robots_stepped_alone(case):
    # bit for bit: the fleet's one stack, consensus and heading solve give
    # each robot what stepping its map alone, with its drift, gives it.  The
    # one exception is a robot whose case rows are narrower than the fleet's:
    # every Case IV sighting of robot 1 falls back to its one Case I row, which
    # the fleet lifts as one of two, and the last bit of a lifted row depends
    # on the row count; its P then agrees to 1e-15 relative (6.6e-17 seen)
    sc = sim.scenario_coop("full")
    maps = make_coop_maps(sc, RunConfig(mode="coop-full", case=case))
    stream = sim.ticks(sc, np.random.default_rng(3), sc.dt, 31)
    medium = None
    for _ in range(30):   # past the creating ticks, with consensus feedback
        medium = coop_step(maps, next(stream)[1], "full", medium)
    _, ticks = next(stream)
    robots = sorted(ticks)
    assert len(robots) == 4
    if case == 4:   # full and fallback sightings in one robot; all fallback in another
        ticks[robots[0]] = _no_ttc(ticks[robots[0]], every=3)
        ticks[robots[1]] = _no_ttc(ticks[robots[1]])
    if case == 5:   # a stationary robot: its Doppler rows carry no information
        ticks[robots[2]] = dataclasses.replace(ticks[robots[2]], u=0.0)
        assert vmeas.case5(next(iter(ticks[robots[2]].observations.values())).doppler,
                           RobotInputs(u=np.zeros(2), omega=skew(0.0))) is None
    assert_same_maps(*_fleet_tick_and_alone(maps, ticks, "full", medium),
                     p_rtol={1: 1e-15} if case == 4 else None)


def test_a_robots_only_fleet_tick_equals_its_robots_stepped_alone():
    # self pairs (tie rows) and moving targets (velocities) alike
    sc = sim.scenario_coop("robots_only")
    maps = make_coop_maps(sc, RunConfig(mode="coop-robots"))
    stream = sim.ticks(sc, np.random.default_rng(3), sc.dt, 31, robots_only=True)
    medium = None
    for _ in range(30):
        medium = coop_step(maps, next(stream)[1], "robots_only", medium)
    _, ticks = next(stream)
    steps = coop._robot_steps(maps, ticks, "robots_only", medium)
    assert all(s.self_id in s.net.ids and s.target_velocities for s in steps)
    assert_same_maps(*_fleet_tick_and_alone(maps, ticks, "robots_only", medium))


def test_a_coop_tick_makes_one_filter_step_and_one_consensus(monkeypatch):
    # after the creating tick, the whole fleet is one ode_step and one
    # consensus call, however many robots
    sc = sim.scenario_coop("full")
    maps = make_coop_maps(sc, RunConfig(mode="coop-full"))
    stream = sim.ticks(sc, np.random.default_rng(sc.seed), sc.dt, 4)
    medium = coop_step(maps, next(stream)[1], "full")   # creates every pair
    calls = []
    for name in ("ode_step", "consensus"):
        real = getattr(dunk, name)
        monkeypatch.setattr(dunk, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    for _, ticks in stream:
        calls.clear()
        medium = coop_step(maps, ticks, "full", medium)
        assert sorted(calls) == ["consensus", "ode_step"]
    assert len(maps) == 4


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
    monkeypatch.setattr(coop, "nn_features", lambda *stack: calls.append(stack))
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
        ids = sorted(medium.x_ck)
        assert all(np.array_equal(x, medium.X[medium.rows[i], ids.index(k)])
                   for i, m in maps.items() for k, x in real(m).items())
        reads.clear()
        medium = coop_step(maps, ticks, mode, medium)
        assert sorted(map(id, reads)) == sorted(map(id, maps.values()))


def test_a_coop_divergence_names_the_robot():
    sc = sim.scenario_coop("robots_only")
    maps = make_coop_maps(sc, RunConfig(mode="coop-robots"))
    stream = sim.ticks(sc, np.random.default_rng(0), sc.dt, 2, robots_only=True)
    medium = coop_step(maps, next(stream)[1], "robots_only")
    _, ticks = next(stream)
    i = sorted(ticks)[1]
    k = next(iter(ticks[i].speeds))
    ticks[i] = dataclasses.replace(ticks[i], speeds={**ticks[i].speeds, k: math.nan})
    with pytest.raises(DivergenceError, match=rf"^robot {i}: landmark {k} "
                                              rf"diverged at t={2 * sc.dt:g}$") as err:
        coop_step(maps, ticks, "robots_only", medium)
    assert err.value.row == maps[i].net.ids[k]


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
