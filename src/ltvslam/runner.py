"""Scenario execution, metrics, and trace emission.

Runs any estimator mode over a scenario through one loop, writes a
long-format trace CSV plus a metrics JSON, and provides the rigid
alignment used for trajectory error.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import coop as coop_mod
from . import sim as sim_mod
from .core import RobotInputs, body_from_global, fit_contraction_rate, skew
from .dunk import DunkNetwork, dunk_step
from .kalman import DivergenceError, FilterConfig
from .noisecal import R_MAX
from .slam_global import init_global, step_global
from .slam_local import LocalMap

MODES = ("local", "global", "dunk", "coop-full", "coop-partial", "coop-robots")
COOP_MODES = {"coop-full": "full", "coop-partial": "partial",
              "coop-robots": "robots_only"}

BUILTIN_SCENARIOS = {
    "single-vehicle-2d": sim_mod.scenario_single_vehicle_2d,
    **{name: functools.partial(sim_mod.scenario_coop, mode)
       for name, mode in COOP_MODES.items()},
}

#: One trace row per tick, robot, entity ("landmark" or "vehicle") and
#: coordinate; ``var`` is that coordinate's variance, ``true`` is empty
#: where the estimator's frame has no ground truth (the coop maps).
TRACE_HEADER = ("t", "robot", "entity", "id", "component", "est", "true", "var")


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    mode: str = "local"
    case: int = 2
    scenario: str = "single-vehicle-2d"   # builtin name or JSON path
    seed: int | None = None
    out_dir: str | None = None
    duration: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        # type(v) is int: a bool or a whole float is no case or seed
        if type(self.case) is not int or self.case not in (1, 2, 3, 4, 5):
            raise ConfigError(f"unknown case {self.case!r}")
        d = self.duration
        if d is not None and (type(d) is bool or not (math.isfinite(d) and d > 0)):
            raise ConfigError(f"duration must be finite and > 0, got {d!r}")
        if self.seed is not None and (type(self.seed) is not int or self.seed < 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.mode == "coop-robots" and self.case != 2:
            raise ConfigError("mode 'coop-robots' runs case 2 only: robot "
                              f"sightings carry bearing + range, got {self.case}")


@dataclass
class Metrics:
    landmark_errors: dict = field(default_factory=dict)  # id -> [(t, err_m)]
    vehicle_ate: float | None = None
    contraction_rate: float | None = None
    contraction_r2: float | None = None
    e_c: float | None = None          # coop medium errors at the end of the run
    e_h: float | None = None
    discrepancy: float | None = None  # coop: largest inter-map gap at the end
    wall_time_per_step: float = 0.0
    stage_seconds: dict = field(default_factory=dict)  # loop stage -> total s
    divergence: str | None = None   # the DivergenceError message, if any

    def final_errors(self) -> dict:
        return {lid: series[-1][1] for lid, series in self.landmark_errors.items()
                if series}


def load_scenario(name_or_path: str) -> sim_mod.Scenario:
    """A builtin scenario by name, else a JSON scenario file; ConfigError if neither."""
    if name_or_path in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[name_or_path]()
    try:
        with open(name_or_path) as f:
            return sim_mod.Scenario.from_json(f.read())
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"scenario {name_or_path!r} is neither builtin nor a "
                          f"valid scenario file: {type(exc).__name__}: {exc}") from exc


def _farthest_sighting(scenario, robots_only: bool) -> tuple[float, int | None]:
    """The farthest sighting (m) any robot of the scenario could make, and whose.

    A robot on its circle (centre c_i, radius rho_i) is never farther
    than |x - c_i| + rho_i from a landmark x, or |c_i - c_j| + rho_i +
    rho_j from robot j.  Landmarks count where the pose-free rules of
    :func:`sim.is_visible` can admit them, capped at ``r_visible`` under
    ``range`` visibility; robots-only runs sight the other robots instead.
    """
    specs = dict(scenario.vehicles)
    poses = {vid: pose_fn(0.0) for vid, pose_fn in scenario.pose_fns().items()}
    cap = scenario.r_visible if scenario.visibility == "range" else math.inf
    if robots_only:
        reach = ((math.dist(a.center, b.center) + a.radius + b.radius, i)
                 for i, a in specs.items() for j, b in specs.items() if j != i)
    else:
        reach = ((min(math.dist(lm.position, a.center) + a.radius, cap), i)
                 for i, a in specs.items() for lm in scenario.landmarks
                 if scenario.visibility == "range"
                 or sim_mod.is_visible(scenario, a, poses[i], lm))
    return max(reach, default=(0.0, None))


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
# Per-mode set-up and the one run loop
# ---------------------------------------------------------------------------

def make_coop_maps(scenario, cfg: RunConfig) -> dict[int, coop_mod.RobotMap]:
    """Each robot starts its map in its own frame (vehicle prior at the origin)."""
    fcfg = FilterConfig(dt=scenario.dt)
    return {vid: coop_mod.RobotMap(DunkNetwork(case=cfg.case, cfg=fcfg))
            for vid, _ in scenario.vehicles}


def map_discrepancy(maps: dict[int, coop_mod.RobotMap]) -> float:
    """Largest inter-robot disagreement on any commonly mapped landmark."""
    _, _, X, seen = coop_mod.landmark_stack(maps)
    r = np.arange(len(X))
    a, b = np.nonzero(r[:, None] < r)   # robot pairs
    gaps = np.linalg.norm(X[a] - X[b], axis=2)[seen[a] & seen[b]]
    return float(gaps.max(initial=0.0))


def _setup(scenario, cfg: RunConfig):
    """Build the mode's estimator; return ``(step, read, truth, finish)``.

    ``step(ticks)`` advances it one tick; ``read()`` gives ``{robot id:
    Estimates}``; ``truth(t)`` gives ``({id: x}, vehicle x)`` in the
    estimator's frame: the robot body frame for ``local``, the world for
    ``global`` and ``dunk``.  The coop maps have frames of their own and
    no truth; ``finish(metrics)`` stores their end-of-run results, with
    each landmark's error taken from the medium's consensus ``x_ck`` after
    the rigid alignment to the world (:func:`align_procrustes`).
    """
    world = {lm.id: lm.position for lm in scenario.landmarks}
    if cfg.mode in COOP_MODES:
        maps = make_coop_maps(scenario, cfg)
        medium = None

        def step(ticks):
            nonlocal medium
            medium = coop_mod.coop_step(maps, ticks, COOP_MODES[cfg.mode], medium)

        def finish(metrics):
            metrics.discrepancy = map_discrepancy(maps)
            if medium is None:
                return
            metrics.e_c, metrics.e_h = medium.e_c, medium.e_h
            ids = [k for k in sorted(medium.x_ck) if k in world]
            if cfg.mode == "coop-robots" or len(ids) < 2:
                return   # robots-only x_ck holds moving robots, not landmarks
            est = np.array([medium.x_ck[k] for k in ids])
            true = np.array([world[k] for k in ids])
            R, t, _ = align_procrustes(est, true)
            t_end = next(iter(maps.values())).net.state.t
            for k, err in zip(ids, np.linalg.norm(est @ R.T + t - true, axis=1)):
                metrics.landmark_errors[k] = [(t_end, float(err))]

        return (step, lambda: {i: m.net.estimates() for i, m in maps.items()},
                None, finish)

    (vid, _), = scenario.vehicles
    pose_fn = scenario.pose_fns()[vid]
    pose0 = pose_fn(0.0)
    fcfg = FilterConfig(dt=scenario.dt)

    def truth(t):
        pose = pose_fn(t)
        if cfg.mode != "local":
            return world, pose.position
        T = body_from_global(pose.beta)
        return {k: T @ (x - pose.position) for k, x in world.items()}, None

    if cfg.mode == "local":
        est = LocalMap(case=cfg.case, cfg=fcfg)
    elif cfg.mode == "global":
        est = init_global(pose0.position, beta0=pose0.beta)
    else:   # the start pose anchors the translation gauge (otherwise unobservable)
        est = DunkNetwork(case=cfg.case, cfg=fcfg, beta_hat=pose0.beta,
                          vehicle_prior_x=pose0.position.copy(),
                          vehicle_prior_P=1e-2 * np.eye(2))

    def step(ticks):
        nonlocal est
        tick = ticks[vid]
        if cfg.mode == "local":
            est.step(RobotInputs(u=np.array([0.0, tick.u]),
                                 omega=skew(tick.omega_m)), tick.observations)
        elif cfg.mode == "global":
            est = step_global(est, tick.u, tick.omega_m, tick.observations,
                              case=cfg.case, cfg=fcfg)
        else:
            dunk_step(est, tick.u, tick.omega_m, tick.observations)

    return step, lambda: {vid: est.estimates()}, truth, lambda metrics: None


def _record(reads: dict, truth, metrics: Metrics, path: list, rows) -> None:
    """Errors and the vehicle path against truth; rows to the trace writer, if any."""
    for robot, e in reads.items():
        true_x, true_v = truth(e.t) if truth else ({}, None)
        for k, x in zip(e.ids, e.X):
            if k in true_x:
                metrics.landmark_errors.setdefault(k, []).append(
                    (e.t, float(np.linalg.norm(x - true_x[k]))))
        if e.vehicle is not None and true_v is not None:
            path.append((e.vehicle[0], true_v))
        if rows is not None:
            entities = [("landmark", k, x, P, true_x.get(k))
                        for k, x, P in zip(e.ids, e.X, e.P)]
            if e.vehicle is not None:
                entities.append(("vehicle", robot, *e.vehicle, true_v))
            rows.writerows((e.t, robot, kind, ident, c, float(x[c]),
                            None if xt is None else float(xt[c]), float(P[c, c]))
                           for kind, ident, x, P, xt in entities for c in range(x.size))


def _summarize(metrics: Metrics, path: list) -> None:
    """Vehicle ATE and the contraction rate of the longest error series."""
    if len(path) >= 2:
        est_path, true_path = zip(*path)
        _, _, metrics.vehicle_ate = align_procrustes(np.array(est_path),
                                                     np.array(true_path))
    series = max(metrics.landmark_errors.values(), key=len, default=[])
    tail = [(t, e) for t, e in series[len(series) // 5:] if e > 1e-12]
    if len(series) >= 20 and len(tail) >= 10:
        fit = fit_contraction_rate(tail)
        metrics.contraction_rate, metrics.contraction_r2 = fit.rate, fit.r_squared


def run(cfg: RunConfig) -> Metrics:
    """Execute a configured run; write traces + metrics if an out dir is set.

    Every mode consumes the same :func:`sim.ticks` stream in one loop:
    sense, step the estimator, record (trace rows are written as each
    tick is recorded).  Both files are written on every exit path; a
    diverged run records the divergence in ``metrics.json`` and re-raises.
    """
    scenario = load_scenario(cfg.scenario)
    if cfg.mode not in COOP_MODES and len(scenario.vehicles) != 1:
        raise ConfigError(f"mode {cfg.mode!r} needs a single-vehicle scenario; "
                          f"{scenario.name!r} has {len(scenario.vehicles)} vehicles")
    if cfg.mode in ("coop-full", "coop-partial") and not scenario.landmarks:
        raise ConfigError(f"mode {cfg.mode!r} needs landmarks; "
                          f"{scenario.name!r} has none")
    if cfg.mode == "coop-robots" and len(scenario.vehicles) < 2:
        raise ConfigError(f"mode 'coop-robots' needs two or more robots; "
                          f"{scenario.name!r} has {len(scenario.vehicles)}")
    far, robot = _farthest_sighting(scenario, cfg.mode == "coop-robots")
    if far > R_MAX:
        raise ConfigError(f"robot {robot} of {cfg.scenario!r} can sight something "
                          f"{far:.1f} m away, beyond the range bound "
                          f"noisecal.R_MAX = {R_MAX:g} m")
    duration = scenario.duration if cfg.duration is None else cfg.duration
    n_steps = int(round(duration / scenario.dt))
    if n_steps < 1:
        raise ConfigError(f"duration {duration!r} s is under one "
                          f"{scenario.dt!r} s step")
    rng = np.random.default_rng(scenario.seed if cfg.seed is None else cfg.seed)
    stream = sim_mod.ticks(scenario, rng, scenario.dt, n_steps,
                           robots_only=cfg.mode == "coop-robots")
    step, read, truth, finish = _setup(scenario, cfg)
    metrics = Metrics(stage_seconds={"sense": 0.0, "step": 0.0, "record": 0.0})
    stages = metrics.stage_seconds
    path: list = []
    trace = rows = None
    if cfg.out_dir:
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
            trace = open(os.path.join(cfg.out_dir, "trace.csv"), "w", newline="")
        except OSError as exc:
            raise ConfigError(f"output directory {cfg.out_dir!r} cannot be used: "
                              f"{type(exc).__name__}: {exc.strerror}") from exc
        rows = csv.writer(trace, lineterminator="\n")
        rows.writerow(TRACE_HEADER)
    ran = 0
    start = time.perf_counter()
    try:
        for ran in range(1, n_steps + 1):
            t0 = time.perf_counter()
            _, ticks = next(stream)
            t1 = time.perf_counter()
            stages["sense"] += t1 - t0
            step(ticks)
            t2 = time.perf_counter()
            stages["step"] += t2 - t1
            _record(read(), truth, metrics, path, rows)
            stages["record"] += time.perf_counter() - t2
    except DivergenceError as exc:
        metrics.divergence = str(exc)
        raise
    finally:
        metrics.wall_time_per_step = (time.perf_counter() - start) / max(ran, 1)
        if trace is not None:
            trace.close()
        _summarize(metrics, path)
        finish(metrics)
        if cfg.out_dir:
            _write_metrics(cfg, scenario.name, metrics)
    return metrics


def _write_metrics(cfg: RunConfig, scenario_name: str, metrics: Metrics) -> None:
    payload = {
        "mode": cfg.mode, "case": cfg.case, "scenario": scenario_name,
        "final_errors_m": metrics.final_errors(),
        "vehicle_ate_m": metrics.vehicle_ate,
        "contraction_rate": metrics.contraction_rate,
        "contraction_r2": metrics.contraction_r2,
        "final_e_c": metrics.e_c,
        "final_e_h": metrics.e_h,
        "final_discrepancy_m": metrics.discrepancy,
        "wall_time_per_step_s": metrics.wall_time_per_step,
        "stage_seconds": metrics.stage_seconds,
        "diverged": metrics.divergence is not None,
        "divergence": metrics.divergence,
    }
    with open(os.path.join(cfg.out_dir, "metrics.json"), "w") as f:
        json.dump(payload, f, indent=2, default=float)
