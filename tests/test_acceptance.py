"""End-to-end acceptance suite.

Each test computes one headline property of the library, prints a single
PASS/FAIL line (visible even under output capture), and then asserts it.
"""

import math
import time

import numpy as np
import pytest

from ltvslam import coop as coop_mod
from ltvslam import noisecal, sim, vmeas
from ltvslam.core import (FilterState, RobotInputs, body_from_global,
                          fit_contraction_rate, skew, wrap_angle)
from ltvslam.dunk import DunkNetwork, LandmarkPairState, dunk_step
from ltvslam.kalman import FilterConfig, ode_step
from ltvslam.runner import (RunConfig, align_procrustes, make_coop_maps,
                            map_discrepancy, run)
from ltvslam.slam_global import (GlobalState, _heading_residue,
                                 beta_d_closed_form_2d, init_global,
                                 step_global)

from conftest import exact_bundle, random_state_and_inputs


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {number} ({name}): {status}{suffix}"
    print(line)
    import conftest
    conftest.ACCEPTANCE_LINES.append(line)  # echoed in the terminal summary
    assert ok, f"acceptance criterion {number} ({name}) failed{suffix}"


# ---------------------------------------------------------------------------
# 1. Virtual-measurement identities
# ---------------------------------------------------------------------------

def test_acceptance_01_model_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for dim in (2, 3):
        for case in (1, 2, 3, 4, 5):
            done = 0
            while done < 1000:
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
                worst = max(worst, float(np.abs(vm.residual(x)).max()))
                done += 1
    f = 500.0
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0, size=3)
        x[2] = rng.uniform(0.5, 30.0)
        vm = vmeas.pinhole(vmeas.PinholeObs(f=f, y1=-f * x[0] / x[2],
                                            y2=-f * x[1] / x[2]))
        worst = max(worst, float(np.abs(vm.residual(x)).max()))
    report(1, "model identities", worst <= 1e-10, f"max residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Scalar Riccati oracle
# ---------------------------------------------------------------------------

def test_acceptance_02_scalar_riccati():
    # Pdot = -P^2, P(0) = 1  =>  P(1) = 0.5
    cfg = FilterConfig(dt=1e-3)
    vm = vmeas.VirtualMeasurement(y=[0.0], H=[[1.0]], R=[[1.0]])
    st = FilterState(np.zeros(1), np.eye(1))
    for _ in range(1000):
        st = ode_step(st, np.zeros((1, 1)), np.zeros(1), vm, None, cfg)
    err = abs(st.P[0, 0] - 0.5)
    report(2, "scalar Riccati oracle", err <= 1e-4,
           f"P(1) = {st.P[0, 0]:.6f}")


# ---------------------------------------------------------------------------
# 3. Noise porting
# ---------------------------------------------------------------------------

def test_acceptance_03_noise_porting():
    sig = math.radians(5.0)
    analytic = noisecal.bias_range_2d(sig, 4.0)
    th = math.radians(45.0)
    x_true = 4.0 * np.array([math.sin(th), math.cos(th)])
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    ported = noisecal.monte_carlo_port(
        2, x_true, inputs, noisecal.NoiseSpec(sigma_theta=sig),
        n=10_000, seed=11)
    ok = (abs(analytic - 0.0152) <= 1e-4
          and abs(ported.mean[0]) <= 0.01
          and abs(ported.mean[1] - analytic) <= 0.005)
    report(3, "noise porting", ok,
           f"analytic {analytic:.5f}, mc tangential {ported.mean[0]:+.5f}, "
           f"mc radial {ported.mean[1]:.5f}")


# ---------------------------------------------------------------------------
# 4. Convergence ordering across sensor cases
# ---------------------------------------------------------------------------

def _local_run(case):
    metrics = run(RunConfig(mode="local", case=case,
                            scenario="single-vehicle-2d"))
    series = metrics.landmark_errors
    times = sorted({t for s in series.values() for t, _ in s})
    by_t = {t: [] for t in times}
    for s in series.values():
        for t, e in s:
            by_t[t].append(e)
    t_below = next((t for t in times if by_t[t] and max(by_t[t]) < 0.5),
                   math.inf)
    end = max(metrics.final_errors().values())
    return t_below, end


def test_acceptance_04_convergence_ordering():
    t1, end1 = _local_run(1)
    t2, _ = _local_run(2)
    t3, end3 = _local_run(3)
    t4, _ = _local_run(4)
    ok = (t2 < t1) and (t4 < t1) and (end3 <= end1)
    report(4, "convergence ordering", ok,
           f"t1 {t1:.2f}s, t2 {t2:.2f}s, t4 {t4:.2f}s; "
           f"end I {end1:.4f} m vs III {end3:.4f} m")


# ---------------------------------------------------------------------------
# 5. Exponential contraction
# ---------------------------------------------------------------------------

def test_acceptance_05_exponential_contraction():
    # stationary vehicle, one landmark, exact bearing+range with declared
    # noise, and process noise to hold the gain at steady state: the error
    # then decays as a single exponential mode
    dt = 0.01
    x_true = np.array([0.0, 4.0])
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    bundle = exact_bundle(x_true, inputs,
                          noise=noisecal.NoiseSpec(sigma_theta=math.radians(2),
                                                   sigma_r=2.0))
    vm = vmeas.case2(bundle.bearing, bundle.range)
    st = FilterState(np.array([0.0, 8.0]), 25.0 * np.eye(2))
    cfg = FilterConfig(dt=dt)
    Q = np.eye(2)
    series = []
    for i in range(1000):
        st = ode_step(st, np.zeros((2, 2)), np.zeros(2), vm, Q, cfg)
        series.append(((i + 1) * dt, float(np.linalg.norm(st.x - x_true))))
    window = [(t, e) for t, e in series if 2.0 <= t <= 8.0 and e > 1e-12]
    diag = fit_contraction_rate(window)
    ok = diag.rate > 0.0 and diag.r_squared > 0.95
    report(5, "exponential contraction", ok,
           f"rate {diag.rate:.3f}/s, R^2 {diag.r_squared:.4f}")


# ---------------------------------------------------------------------------
# 6. Computation scaling with map size
# ---------------------------------------------------------------------------

def _random_world(n, rng):
    angles = rng.uniform(0.0, 2 * math.pi, size=n)
    radii = rng.uniform(3.0, 20.0, size=n)
    return {k: radii[k] * np.array([math.sin(angles[k]), math.cos(angles[k])])
            for k in range(n)}


def _time_dunk(n, steps, rng, repeats=5):
    landmarks = _random_world(n, rng)
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.3))
    obs = {k: exact_bundle(x, inputs) for k, x in landmarks.items()}
    net = DunkNetwork(case=2, cfg=FilterConfig(dt=0.01))
    dunk_step(net, 1.0, 0.3, obs)   # warm up: creates all pairs
    best = math.inf
    for _ in range(repeats):        # best-of-k suppresses scheduling noise
        t0 = time.perf_counter()
        for _ in range(steps):
            dunk_step(net, 1.0, 0.3, obs)
        best = min(best, (time.perf_counter() - t0) / steps)
    return best


def _time_global(n, steps, rng):
    landmarks = _random_world(n, rng)
    x = np.concatenate([landmarks[k] for k in range(n)] + [np.zeros(2)])
    gs = GlobalState(landmark_ids=list(range(n)),
                     state=FilterState(x, np.eye(2 * n + 2)), beta_hat=0.0)
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.3))
    obs = {k: exact_bundle(x, inputs) for k, x in landmarks.items()}
    gs = step_global(gs, u=1.0, omega=0.3, observations=obs, case=2)  # warm up
    best = math.inf
    for _ in range(max(1, 3 - steps // 2)):
        t0 = time.perf_counter()
        for _ in range(steps):
            gs = step_global(gs, u=1.0, omega=0.3, observations=obs, case=2)
        best = min(best, (time.perf_counter() - t0) / steps)
    return best


def test_acceptance_06_scaling():
    import gc
    rng = np.random.default_rng(5)
    sizes = np.array([10, 100, 1000])
    gc.disable()
    try:
        dunk_times = np.array([_time_dunk(10, 50, rng),
                               _time_dunk(100, 15, rng),
                               _time_dunk(1000, 4, rng)])
    finally:
        gc.enable()
    A = np.vstack([sizes, np.ones(3)]).T
    # least squares in relative error, so every decade counts equally
    w = dunk_times[:, None]
    coef, *_ = np.linalg.lstsq(A / w, np.ones(3), rcond=None)
    rel_dev = float(np.max(np.abs(A @ coef - dunk_times) / dunk_times))
    global_times = np.array([_time_global(10, 5, rng),
                             _time_global(100, 3, rng),
                             _time_global(1000, 1, rng)])
    slope = math.log10(global_times[2] / global_times[1])
    ok = rel_dev < 0.20 and coef[0] > 0.0 and slope >= 2.0
    report(6, "pair-filter O(n) scaling", ok,
           f"linear fit deviation {rel_dev * 100:.1f}%, "
           f"global top-decade slope {slope:.2f}")


# ---------------------------------------------------------------------------
# 7. Cooperative convergence (three modes)
# ---------------------------------------------------------------------------

def _run_coop_direct(mode, record_tail_from=None):
    scenario = sim.scenario_coop(mode)
    rng = np.random.default_rng(scenario.seed)
    dt = scenario.dt
    cfg = RunConfig(mode=f"coop-{'robots' if mode == 'robots_only' else mode}")
    maps = make_coop_maps(scenario, cfg)
    medium = None
    history = {"e_c": [], "e_h": [], "disc": [], "tail": []}
    n_steps = int(round(scenario.duration / dt))
    for t, ticks in sim.ticks(scenario, rng, dt, n_steps,
                              robots_only=mode == "robots_only"):
        medium = coop_mod.coop_step(maps, ticks, mode, medium)
        history["e_c"].append(medium.e_c)
        history["e_h"].append(medium.e_h)
        history["disc"].append(map_discrepancy(maps))
        if record_tail_from is not None and t >= record_tail_from:
            history["tail"].append(
                (t, {i: {k: x.copy() for k, x in m.landmark_positions().items()}
                     for i, m in maps.items()}))
    return scenario, maps, medium, history


@pytest.mark.parametrize("mode", ["full", "partial"])
def test_acceptance_07_cooperative_convergence(mode):
    scenario, maps, medium, history = _run_coop_direct(mode)
    disc = history["disc"][-1]
    truth = {lm.id: lm.position for lm in scenario.landmarks}
    ids = sorted(medium.x_ck)
    _, _, rms = align_procrustes(np.array([medium.x_ck[k] for k in ids]),
                                 np.array([truth[k] for k in ids]))
    ec_ratio = history["e_c"][-1] / max(history["e_c"][0], 1e-30)
    eh_ratio = history["e_h"][-1] / max(history["e_h"][0], 1e-30)
    ok = (disc < 0.5 and rms < 0.5 and ec_ratio < 0.01 and eh_ratio < 0.01)
    report(7, f"cooperative convergence ({mode})", ok,
           f"discrepancy {disc:.3f} m, consensus RMS {rms:.3f} m, "
           f"e_c ratio {ec_ratio:.2e}, e_h ratio {eh_ratio:.2e}")


def test_acceptance_07_cooperative_robots_only():
    scenario, maps, _, history = _run_coop_direct(
        "robots_only", record_tail_from=20.0 - 2 * math.pi / 0.5)
    omegas = {vid: spec.omega for vid, spec in scenario.vehicles}
    worst = 0.0
    t_end = history["tail"][-1][0]
    for i in maps:
        for k in maps[i].net.pairs:
            period = 2 * math.pi / abs(omegas[k])
            pts = np.array([snap[i][k] for t, snap in history["tail"]
                            if t >= t_end - period and k in snap[i]])
            radii = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
            worst = max(worst, abs(float(radii.mean()) - 15.0) / 15.0)
    ok = worst < 0.05
    report(7, "cooperative convergence (robots only)", ok,
           f"worst circle-radius deviation {worst * 100:.2f}%")


# ---------------------------------------------------------------------------
# 8. Null-space neutrality
# ---------------------------------------------------------------------------

def test_acceptance_08_null_space_neutrality():
    rng = np.random.default_rng(9)
    cfg = FilterConfig(dt=0.01)
    points = rng.uniform(-20.0, 20.0, size=(8, 2))
    states = [FilterState(p.copy(), np.eye(2)) for p in points]
    v = np.array([0.8, -0.4])
    w = 1.3
    Om = skew(w).matrix
    center = np.array([2.0, 1.0])
    d0 = [np.linalg.norm(points[a] - points[b])
          for a in range(8) for b in range(a + 1, 8)]
    for _ in range(100):
        states = [ode_step(s, Om, v - Om @ center, None, None, cfg)
                  for s in states]
    d1 = [np.linalg.norm(states[a].x - states[b].x)
          for a in range(8) for b in range(a + 1, 8)]
    worst = max(abs(a - b) for a, b in zip(d0, d1))
    report(8, "null-space neutrality", worst <= 1e-6,
           f"max pairwise distance change {worst:.2e} m")


# ---------------------------------------------------------------------------
# 9. Closed-form heading vs grid search
# ---------------------------------------------------------------------------

def test_acceptance_09_heading_oracle():
    rng = np.random.default_rng(77)
    grid = np.arange(-math.pi, math.pi, 1e-4)
    cg, sg = np.cos(grid), np.sin(grid)
    worst = 0.0
    for trial in range(100):
        beta = rng.uniform(-math.pi, math.pi)
        x_v = rng.uniform(-10.0, 10.0, size=2)
        landmarks = x_v + rng.uniform(-10.0, 10.0, size=(4, 2))
        T = body_from_global(beta)
        thetas = np.array([math.atan2(*(T @ (lm - x_v))) for lm in landmarks])
        thetas += rng.normal(0.0, 0.01, size=thetas.size)  # generic instances
        est = beta_d_closed_form_2d(landmarks, x_v, thetas, current_beta=beta)
        # vectorized residue over the grid (checked against the scalar form)
        d = landmarks - x_v
        ct, st = np.cos(thetas), np.sin(thetas)
        res = np.zeros_like(grid)
        for (d1, d2), c, s in zip(d, ct, st):
            body0 = cg * d1 + sg * d2
            body1 = -sg * d1 + cg * d2
            res += (c * body0 - s * body1) ** 2
        if trial == 0:
            for b in (0.3, -1.7):
                idx = int(np.argmin(np.abs(grid - b)))
                assert res[idx] == pytest.approx(
                    _heading_residue(grid[idx], d, thetas), abs=1e-12)
        b_grid = grid[int(np.argmin(res))]
        # the residue is pi-periodic: compare against the nearer minimizer
        gap = min(abs(wrap_angle(est - b_grid)),
                  abs(wrap_angle(est - b_grid - math.pi)))
        worst = max(worst, gap)
    report(9, "closed-form heading vs grid search", worst <= 2e-4,
           f"max |closed form - grid| {worst:.2e} rad")


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------

def test_acceptance_10_determinism(tmp_path):
    for mode in ("local", "dunk"):
        a, b = tmp_path / f"{mode}_a", tmp_path / f"{mode}_b"
        run(RunConfig(mode=mode, case=2, duration=3.0, out_dir=str(a)))
        run(RunConfig(mode=mode, case=2, duration=3.0, out_dir=str(b)))
        if (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes():
            report(10, "determinism", False, f"{mode} traces differ")
    report(10, "determinism", True, "bit-identical traces (local, dunk)")
