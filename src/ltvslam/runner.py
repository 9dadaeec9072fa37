"""Scenario execution, metrics, and trace emission.

Runs any estimator mode over a scenario, writes a plot-ready trace CSV
plus a metrics JSON, and provides the rigid alignment used for trajectory
error after map convergence.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import coop as coop_mod
from . import sim as sim_mod
from .core import RobotInputs, body_from_global, fit_contraction_rate, skew
from .dunk import DunkNetwork, dunk_step
from .kalman import DivergenceError, FilterConfig
from .slam_global import init_global, step_global
from .slam_local import LocalMap

MODES = ("local", "global", "dunk", "coop-full", "coop-partial", "coop-robots")
SINGLE_VEHICLE_MODES = ("local", "global", "dunk")

BUILTIN_SCENARIOS = {
    "single-vehicle-2d": sim_mod.scenario_single_vehicle_2d,
    "coop-full": lambda: sim_mod.scenario_coop("full"),
    "coop-partial": lambda: sim_mod.scenario_coop("partial"),
    "coop-robots": lambda: sim_mod.scenario_coop("robots_only"),
}


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    mode: str = "local"
    case: int = 2
    scenario: str = "single-vehicle-2d"   # builtin name or JSON path
    dt: float | None = None               # overrides the scenario dt when set
    seed: int | None = None
    out_dir: str | None = None
    gamma_beta: float = 1.0
    gamma_v: float = 1.0
    gamma_omega: float = 4.0
    r_max: float = 100.0
    duration: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.case not in (1, 2, 3, 4, 5):
            raise ConfigError(f"unknown case {self.case!r}")
        for name in ("dt", "duration", "r_max"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value!r}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.mode == "coop-robots":
            self.case = 2  # robot-to-robot sightings carry bearing + range


@dataclass
class Metrics:
    landmark_errors: dict = field(default_factory=dict)  # id -> [(t, err_m)]
    vehicle_ate: float | None = None
    contraction_rate: float | None = None
    contraction_r2: float | None = None
    e_c: list = field(default_factory=list)
    e_h: list = field(default_factory=list)
    discrepancy: list = field(default_factory=list)       # [(t, max inter-map gap)]
    wall_time_per_step: float = 0.0
    divergence: str | None = None   # the DivergenceError message, if any

    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    def final_errors(self) -> dict:
        return {lid: series[-1][1] for lid, series in self.landmark_errors.items()
                if series}


def load_scenario(name_or_path: str) -> sim_mod.Scenario:
    if name_or_path in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name_or_path]()
    if not os.path.exists(name_or_path):
        raise ConfigError(f"scenario {name_or_path!r} is neither builtin nor a file")
    with open(name_or_path) as f:
        return sim_mod.Scenario.from_json(f.read())


def align_procrustes(est: np.ndarray, true: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares rigid alignment (rotation + translation, no scale).

    Returns (R, t, rms) with R @ est + t best matching true.
    """
    est = np.atleast_2d(np.asarray(est, dtype=float))
    true = np.atleast_2d(np.asarray(true, dtype=float))
    if est.shape != true.shape or est.shape[0] < 2:
        raise ValueError("need >= 2 matched point pairs of equal shape")
    ce, ct = est.mean(axis=0), true.mean(axis=0)
    A = (true - ct).T @ (est - ce)
    U, _, Vt = np.linalg.svd(A)
    D = np.eye(A.shape[0])
    D[-1, -1] = np.sign(np.linalg.det(U @ Vt))
    R = U @ D @ Vt
    t = ct - R @ ce
    resid = (est @ R.T + t) - true
    return R, t, float(np.sqrt(np.mean(np.sum(resid**2, axis=1))))


# ---------------------------------------------------------------------------
# Mode runners
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _trace_row(t, kind, ident, est, true, P) -> str:
    est = list(np.asarray(est, float).ravel())
    true = (["", ""] if true is None else list(np.asarray(true, float).ravel()))
    cov = []
    if P is not None:
        P = np.asarray(P, float)
        cov = [P[i, j] for i in range(P.shape[0]) for j in range(i, P.shape[1])]
    cells = ([f"{t:.6f}", kind, str(ident)]
             + [_fmt(v) for v in est]
             + [v if v == "" else _fmt(v) for v in true]
             + [_fmt(v) for v in cov])
    return ",".join(cells)


def _run_local(scenario, cfg: RunConfig, dt: float, stream, trace: list,
               metrics: Metrics) -> None:
    (vid, _), = scenario.vehicles
    pose_fn = scenario.pose_fns()[vid]
    lmap = LocalMap(case=cfg.case, cfg=FilterConfig(dt=dt), r_max=cfg.r_max)
    for _, ticks in stream:
        tick = ticks[vid]
        inputs = RobotInputs(u=np.array([0.0, tick.u]), omega=skew(tick.omega_m))
        lmap.step(inputs, tick.observations)
        pose_now = pose_fn(lmap.t)  # estimates live at the post-step instant
        T = body_from_global(pose_now.beta)
        for lm in scenario.landmarks:
            f = lmap.filters.get(lm.id)
            if f is None:
                continue
            x_true = T @ (lm.position - pose_now.position)
            err = float(np.linalg.norm(f.state.x - x_true))
            metrics.landmark_errors.setdefault(lm.id, []).append((lmap.t, err))
            trace.append(_trace_row(lmap.t, "landmark", lm.id, f.state.x,
                                    x_true, f.state.P))
    _fit_contraction(metrics)


def _fit_contraction(metrics: Metrics) -> None:
    series = []
    for s in metrics.landmark_errors.values():
        if len(s) > len(series):
            series = s
    if len(series) < 20:
        return
    tail = series[len(series) // 5:]
    tail = [(t, e) for t, e in tail if e > 1e-12]
    if len(tail) >= 10:
        diag = fit_contraction_rate(tail)
        metrics.contraction_rate = diag.rate
        metrics.contraction_r2 = diag.r_squared


def _run_global(scenario, cfg: RunConfig, dt: float, stream, trace: list,
                metrics: Metrics) -> None:
    (vid, _), = scenario.vehicles
    pose_fn = scenario.pose_fns()[vid]
    fcfg = FilterConfig(dt=dt)
    pose0 = pose_fn(0.0)
    gs = init_global(pose0.position, beta0=pose0.beta)
    est_path, true_path = [], []
    for _, ticks in stream:
        tick = ticks[vid]
        gs = step_global(gs, tick.u, tick.omega_m, tick.observations,
                         case=cfg.case, cfg=fcfg, gamma_beta=cfg.gamma_beta,
                         r_max=cfg.r_max)
        for lm in scenario.landmarks:
            if lm.id in gs.landmark_ids:
                err = float(np.linalg.norm(gs.landmark(lm.id) - lm.position))
                metrics.landmark_errors.setdefault(lm.id, []).append(
                    (gs.state.t, err))
        true_now = pose_fn(gs.state.t).position
        est_path.append(gs.vehicle.copy())
        true_path.append(true_now)
        trace.append(_trace_row(gs.state.t, "vehicle", vid, gs.vehicle,
                                true_now, None))
    if len(est_path) >= 2:
        _, _, metrics.vehicle_ate = align_procrustes(np.array(est_path),
                                                     np.array(true_path))
    _fit_contraction(metrics)


def _run_dunk(scenario, cfg: RunConfig, dt: float, stream, trace: list,
              metrics: Metrics) -> None:
    (vid, _), = scenario.vehicles
    pose0 = scenario.pose_fns()[vid](0.0)
    # the start pose anchors the translation gauge (otherwise unobservable)
    net = DunkNetwork(case=cfg.case, cfg=FilterConfig(dt=dt), r_max=cfg.r_max,
                      gamma_beta=cfg.gamma_beta, beta_hat=pose0.beta,
                      vehicle_prior_x=pose0.position.copy(),
                      vehicle_prior_P=1e-2 * np.eye(2))
    for _, ticks in stream:
        tick = ticks[vid]
        dunk_step(net, tick.u, tick.omega_m, tick.observations)
        for lm in scenario.landmarks:
            pair = net.pairs.get(lm.id)
            if pair is not None:
                err = float(np.linalg.norm(pair.x_landmark - lm.position))
                metrics.landmark_errors.setdefault(lm.id, []).append((net.t, err))
                trace.append(_trace_row(net.t, "landmark", lm.id,
                                        pair.x_landmark, lm.position, None))
    _fit_contraction(metrics)


def _coop_mode(cfg_mode: str) -> str:
    return {"coop-full": "full", "coop-partial": "partial",
            "coop-robots": "robots_only"}[cfg_mode]


def make_coop_maps(scenario, cfg: RunConfig) -> dict[int, coop_mod.RobotMap]:
    """Each robot starts its map in its own frame (vehicle prior at the origin)."""
    dt = scenario.dt if cfg.dt is None else cfg.dt
    maps = {}
    for vid, _spec in scenario.vehicles:
        net = DunkNetwork(case=cfg.case, cfg=FilterConfig(dt=dt),
                          r_max=cfg.r_max, gamma_beta=cfg.gamma_beta,
                          beta_hat=0.0,
                          vehicle_prior_x=np.zeros(2),
                          vehicle_prior_P=100.0 * np.eye(2))
        maps[vid] = coop_mod.RobotMap(robot_id=vid, net=net,
                                      gamma_v=cfg.gamma_v,
                                      gamma_omega=cfg.gamma_omega)
    return maps


def _run_coop(scenario, cfg: RunConfig, dt: float, stream, trace: list,
              metrics: Metrics) -> None:
    mode = _coop_mode(cfg.mode)
    maps = make_coop_maps(scenario, cfg)
    medium = None
    for step_i, (_, ticks) in enumerate(stream):
        medium = coop_mod.coop_step(maps, ticks, mode, medium)
        tick_t = (step_i + 1) * dt
        metrics.e_c.append((tick_t, medium.e_c))
        metrics.e_h.append((tick_t, medium.e_h))
        metrics.discrepancy.append((tick_t, map_discrepancy(maps)))
        if step_i % 10 == 0:
            for vid, m in maps.items():
                for k, x in m.landmark_positions().items():
                    trace.append(_trace_row(tick_t, f"map{vid}", k, x, None, None))


def map_discrepancy(maps: dict[int, coop_mod.RobotMap]) -> float:
    """Largest inter-robot disagreement on any commonly mapped landmark."""
    pos = {i: m.landmark_positions() for i, m in maps.items()}
    worst = 0.0
    for a, b in itertools.combinations(sorted(pos), 2):
        for k in set(pos[a]) & set(pos[b]):
            worst = max(worst, float(np.linalg.norm(pos[a][k] - pos[b][k])))
    return worst


def run(cfg: RunConfig) -> Metrics:
    """Execute a configured run; write traces + metrics if an out dir is set.

    Every mode consumes the same :func:`sim.ticks` stream.  Both files are
    written on every exit path; a diverged run records the divergence in
    ``metrics.json`` and re-raises.
    """
    scenario = load_scenario(cfg.scenario)
    if cfg.mode in SINGLE_VEHICLE_MODES and len(scenario.vehicles) != 1:
        raise ConfigError(f"mode {cfg.mode!r} needs a single-vehicle scenario; "
                          f"{scenario.name!r} has {len(scenario.vehicles)} vehicles")
    if cfg.mode in ("coop-full", "coop-partial") and not scenario.landmarks:
        raise ConfigError(f"mode {cfg.mode!r} needs landmarks; "
                          f"{scenario.name!r} has none")
    if cfg.mode == "coop-robots" and len(scenario.vehicles) < 2:
        raise ConfigError(f"mode 'coop-robots' needs two or more robots; "
                          f"{scenario.name!r} has {len(scenario.vehicles)}")
    dt = scenario.dt if cfg.dt is None else cfg.dt
    duration = scenario.duration if cfg.duration is None else cfg.duration
    n_steps = int(round(duration / dt))
    if n_steps < 1:
        raise ConfigError(f"duration {duration!r} s is under one {dt!r} s step")
    rng = np.random.default_rng(scenario.seed if cfg.seed is None else cfg.seed)
    stream = sim_mod.ticks(scenario, rng, dt, n_steps,
                           robots_only=cfg.mode == "coop-robots")
    trace: list[str] = []
    metrics = Metrics()
    runners = {"local": _run_local, "global": _run_global, "dunk": _run_dunk,
               "coop-full": _run_coop, "coop-partial": _run_coop,
               "coop-robots": _run_coop}
    try:
        t0 = time.perf_counter()
        runners[cfg.mode](scenario, cfg, dt, stream, trace, metrics)
        metrics.wall_time_per_step = (time.perf_counter() - t0) / n_steps
    except DivergenceError as exc:
        metrics.divergence = str(exc)
        raise
    finally:
        if cfg.out_dir:
            _write_outputs(cfg, scenario.name, trace, metrics)
    return metrics


def _write_outputs(cfg: RunConfig, scenario_name: str, trace: list[str],
                   metrics: Metrics) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "trace.csv"), "w") as f:
        f.write("t,entity_kind,id,est...,true...,cov_upper...\n")
        f.write("\n".join(trace))
        f.write("\n")
    payload = {
        "mode": cfg.mode, "case": cfg.case, "scenario": scenario_name,
        "final_errors_m": metrics.final_errors(),
        "vehicle_ate_m": metrics.vehicle_ate,
        "contraction_rate": metrics.contraction_rate,
        "contraction_r2": metrics.contraction_r2,
        "final_e_c": metrics.e_c[-1][1] if metrics.e_c else None,
        "final_e_h": metrics.e_h[-1][1] if metrics.e_h else None,
        "final_discrepancy_m": (metrics.discrepancy[-1][1]
                                if metrics.discrepancy else None),
        "wall_time_per_step_s": metrics.wall_time_per_step,
        "diverged": metrics.diverged,
        "divergence": metrics.divergence,
    }
    with open(os.path.join(cfg.out_dir, "metrics.json"), "w") as f:
        json.dump(payload, f, indent=2, default=float)
