"""Synthetic worlds and sensor synthesis.

Builds ground-truth trajectories, derives every observable analytically
from the relative kinematics, adds Gaussian sensor noise, and packages
the result as a per-tick stream of robot inputs and sensor bundles
(:func:`ticks`).  All randomness flows from the scenario seed, so reruns
are byte-identical.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import coop, vmeas
from .coop import RobotTick
from .core import RobotInputs, body_from_global, skew, wrap_angle
from .noisecal import NoiseSpec


@dataclass(frozen=True)
class Pose:
    """Ground-truth vehicle sample: global position, heading, body twist."""

    position: np.ndarray
    beta: float
    u: float          # forward speed, m/s
    omega: float      # yaw rate, rad/s


@dataclass(frozen=True)
class Landmark:
    id: int
    position: np.ndarray
    diameter: float = 2.0

    def __post_init__(self):
        position = np.asarray(self.position, dtype=float)
        if position.shape != (2,):
            raise ValueError(f"landmark {self.id} position must be a 2-vector")
        if not (np.all(np.isfinite(position)) and math.isfinite(self.diameter)):
            raise ValueError(f"landmark {self.id} position and diameter must be finite")
        if self.diameter <= 0:
            raise ValueError(f"landmark {self.id} diameter must be > 0")
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class CircleSpec:
    """Circular trajectory: center, radius, signed angular rate, start point."""

    center: tuple
    radius: float
    omega: float
    x0: tuple
    beta0: float = 0.0  # used only when omega == 0 (stationary vehicle)

    def __post_init__(self):
        numbers = [*self.center, *self.x0, self.radius, self.omega, self.beta0]
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"circle numbers must be finite, got {numbers}")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        off = abs(math.dist(self.x0, self.center) - self.radius)
        if off > 1e-6 * max(self.radius, 1.0):
            raise ValueError("start point is not on the circle")


def circle_trajectory(center, radius: float, omega_m: float, x0, beta0: float = 0.0):
    """Pose-at-time function for a vehicle circling at constant rate.

    The start point fixes the phase; the heading is tangent to the circle
    in the direction of travel, so the emitted (u, omega) inputs are
    exactly consistent with the positions.  :class:`CircleSpec` checks the numbers.
    """
    CircleSpec(center, radius, omega_m, x0, beta0)
    center = np.asarray(center, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    offset = x0 - center
    alpha0 = math.atan2(offset[1], offset[0])
    speed = radius * abs(omega_m)

    def pose(t: float) -> Pose:
        if omega_m == 0.0:
            return Pose(position=x0.copy(), beta=wrap_angle(beta0),
                        u=0.0, omega=0.0)
        alpha = alpha0 + omega_m * t
        position = center + radius * np.array([math.cos(alpha), math.sin(alpha)])
        # forward direction (-sin beta, cos beta) must equal the travel tangent
        beta = alpha if omega_m > 0 else alpha + math.pi
        return Pose(position=position, beta=wrap_angle(beta),
                    u=speed, omega=omega_m)

    return pose


@dataclass
class Scenario:
    """A complete synthetic, planar world, JSON-serializable."""

    name: str
    landmarks: list = field(default_factory=list)      # of Landmark
    vehicles: list = field(default_factory=list)       # of (id, CircleSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    visibility: str = "unlimited"                      # or "quadrant", "range"
    r_visible: float = 100.0
    duration: float = 30.0
    dt: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r_visible, self.duration, self.dt))):
            raise ValueError("r_visible, duration and dt must be finite")
        if self.dt <= 0 or self.r_visible <= 0:
            raise ValueError("dt and r_visible must be > 0")
        if self.visibility not in ("unlimited", "quadrant", "range"):
            raise ValueError(f"unknown visibility rule {self.visibility!r}")
        if type(self.seed) is not int or self.seed < 0:   # a JSON true is a bool
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        for kind, ids in (("landmark", [lm.id for lm in self.landmarks]),
                          ("vehicle", [vid for vid, _ in self.vehicles])):
            if any(type(k) is not int for k in ids):
                raise ValueError(f"{kind} ids must be integers, got {ids!r}")
            repeated = sorted(k for k, n in Counter(ids).items() if n > 1)
            if repeated:
                raise ValueError(f"{kind} ids must be unique, repeated: {repeated}")
        for vid, spec in self.vehicles:   # a vehicle would reach a landmark's spot
            for lm in self.landmarks:
                off = (math.dist(lm.position, spec.x0) if spec.omega == 0.0 else
                       abs(math.dist(lm.position, spec.center) - spec.radius))
                if off <= 1e-6 * max(spec.radius, 1.0):
                    raise ValueError(f"landmark {lm.id} lies on vehicle {vid}'s path")

    def pose_fns(self) -> dict:
        return {vid: circle_trajectory(spec.center, spec.radius, spec.omega,
                                       spec.x0, spec.beta0)
                for vid, spec in self.vehicles}

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "landmarks": [{"id": lm.id, "position_m": list(map(float, lm.position)),
                           "diameter_m": lm.diameter} for lm in self.landmarks],
            "vehicles": [{"id": vid, **asdict(spec)} for vid, spec in self.vehicles],
            "noise": asdict(self.noise),
            "visibility": self.visibility,
            "r_visible_m": self.r_visible,
            "duration_s": self.duration,
            "dt_s": self.dt,
            "seed": self.seed,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        d = json.loads(text)
        if d.get("dimension", 2) != 2:
            raise ValueError(f"only 2D worlds exist, got dimension {d['dimension']!r}")
        return Scenario(
            name=d["name"],
            landmarks=[Landmark(lm["id"], lm["position_m"], lm["diameter_m"])
                       for lm in d["landmarks"]],
            vehicles=[(v["id"], CircleSpec(tuple(v["center"]), v["radius"],
                                           v["omega"], tuple(v["x0"]), v["beta0"]))
                      for v in d["vehicles"]],
            noise=NoiseSpec(**d["noise"]),
            visibility=d["visibility"], r_visible=d["r_visible_m"],
            duration=d["duration_s"], dt=d["dt_s"], seed=d["seed"])


def is_visible(scenario: Scenario, vehicle_spec: CircleSpec, pose: Pose,
               landmark: Landmark) -> bool:
    """Pure visibility rule: unlimited, range-limited, or quadrant-limited."""
    if scenario.visibility == "unlimited":
        return True
    if scenario.visibility == "range":
        return float(np.linalg.norm(landmark.position - pose.position)) \
            <= scenario.r_visible
    center = np.asarray(vehicle_spec.center, dtype=float)   # "quadrant"
    return bool(np.all(landmark.position * center >= 0.0))


@lru_cache(maxsize=8)
def _pose_frame(beta: float, u: float, omega: float) -> tuple[np.ndarray, RobotInputs]:
    """A pose's global-to-body matrix and twist, built once for all its sightings."""
    return body_from_global(beta), RobotInputs(u=np.array([0.0, u]), omega=skew(omega))


def sense(pose: Pose, landmark: Landmark, noise: NoiseSpec,
          rng: np.random.Generator, robot: int = 0
          ) -> tuple[vmeas.SensorBundle, vmeas.TrueObservation]:
    """One landmark's readings from one pose, noised per the sigmas, and their truth.

    ``robot`` is unused; callers outside the package still pass it.
    """
    to_body, inputs = _pose_frame(pose.beta, pose.u, pose.omega)
    x_body = to_body @ (landmark.position - pose.position)
    true = vmeas.observe_true(x_body, inputs, diameter=landmark.diameter)
    return vmeas.noisy_bundle(true, noise, rng), true


# ---------------------------------------------------------------------------
# Canonical scenarios
# ---------------------------------------------------------------------------

def scenario_single_vehicle_2d() -> Scenario:
    """Three landmarks and a circling vehicle with the standard noise levels.

    Noise: sigma_theta 2 deg, sigma_theta_dot 5 deg/s, sigma_r 2 m,
    sigma_alpha 0.5 deg; landmark diameter 2 m.  The layout keeps every
    landmark within a few meters of the trajectory so the bearing-rate
    readings keep a healthy signal-to-noise ratio (sigma_theta_dot is
    5 deg/s, so rate rows carry little information at long range).
    """
    deg = math.pi / 180.0
    return Scenario(
        name="single-vehicle-2d",
        landmarks=[Landmark(1, (2.5, 2.5)), Landmark(2, (-3.0, 1.5)),
                   Landmark(3, (2.0, -3.0))],
        vehicles=[(0, CircleSpec(center=(0.0, 0.0), radius=5.0, omega=0.5,
                                 x0=(5.0, 0.0)))],
        noise=NoiseSpec(sigma_theta=2 * deg, sigma_theta_dot=5 * deg,
                        sigma_r=2.0, sigma_r_dot=0.2, sigma_alpha=0.5 * deg),
        duration=30.0, dt=0.01, seed=7)


#: The 13-landmark grid and 4 circling vehicles of the cooperative scenario.
COOP_LANDMARKS = [(-30.0, 30.0), (0.0, 30.0), (30.0, 30.0),
                  (-30.0, 0.0), (0.0, 0.0), (30.0, 0.0),
                  (-30.0, -30.0), (0.0, -30.0), (30.0, -30.0),
                  (0.0, 10.0), (0.0, -10.0), (-20.0, 0.0), (20.0, 0.0)]

_SQ2, _SQ3 = math.sqrt(2.0), math.sqrt(3.0)
COOP_VEHICLES = [
    # (center, omega_m, x0, printed initial heading)
    ((-15.0, 15.0), 1.0, (-15.0, 0.0), 0.0),
    ((15.0, 15.0), 1.5, (0.0, 15.0), 3 * math.pi / 2),
    ((-15.0, -15.0), -1.0, (-7.5, -15.0 - 7.5 * _SQ3), 7 * math.pi / 6),
    ((15.0, -15.0), 0.5, (15.0 + 7.5 * _SQ2, -15.0 + 7.5 * _SQ2), 3 * math.pi / 4),
]
COOP_RADIUS = 15.0


def scenario_coop(mode: str = "full") -> Scenario:
    """The 4-vehicle cooperative scenario in one of the three modes.

    ``full`` gives unlimited visibility; ``partial`` restricts each
    vehicle to landmarks in its circle center's (closed) quadrant;
    ``robots_only`` drops the landmarks entirely (vehicles observe each
    other; see :func:`observe_robots`).  Headings are stored as
    printed (measured from +x1); the trajectory generator derives the
    internal heading from the circle geometry.  The scenario is named by
    its builtin key: ``coop-full``, ``coop-partial`` or ``coop-robots``.
    """
    if mode not in coop.MODES:
        raise ValueError(f"unknown coop mode {mode!r}")
    landmarks = ([] if mode == "robots_only" else
                 [Landmark(k + 1, pos) for k, pos in enumerate(COOP_LANDMARKS)])
    vehicles = [(i + 1, CircleSpec(center=c, radius=COOP_RADIUS, omega=w,
                                   x0=x0, beta0=b0))
                for i, (c, w, x0, b0) in enumerate(COOP_VEHICLES)]
    return Scenario(
        name="coop-robots" if mode == "robots_only" else f"coop-{mode}",
        landmarks=landmarks, vehicles=vehicles,
        noise=NoiseSpec(),
        visibility="quadrant" if mode == "partial" else "unlimited",
        duration=20.0, dt=0.01, seed=13)


def observe_robots(poses: dict[int, Pose], noise: NoiseSpec,
                   rng: np.random.Generator) -> dict[int, RobotTick]:
    """Robots-only sensing: each robot sees every other robot.

    Each robot's tick carries bearing/range bundles of the others,
    relative heading differences theta_ij = beta_j - beta_i, and their
    communicated speeds.
    """
    out = {}
    for i, pi in poses.items():
        bundles, diffs, speeds = {}, {}, {}
        for j, pj in poses.items():
            if j == i:
                continue
            lm = Landmark(j, pj.position, diameter=1.0)
            bundles[j] = sense(pi, lm, noise, rng)[0]
            diffs[j] = wrap_angle(pj.beta - pi.beta
                                  + rng.normal(0.0, noise.sigma_theta))
            speeds[j] = pj.u
        out[i] = RobotTick(u=pi.u, omega_m=pi.omega, observations=bundles,
                           heading_diffs=diffs, speeds=speeds)
    return out


def ticks(scenario: Scenario, rng: np.random.Generator, dt: float,
          n_steps: int, robots_only: bool = False
          ) -> Iterator[tuple[float, dict[int, RobotTick]]]:
    """The per-tick input stream of a run: ``(t, {robot id: RobotTick})``.

    This is where a run draws its sensor noise.  At t = step * dt every
    robot senses, in scenario order, the landmarks :func:`is_visible`
    lets it see; in ``robots_only`` mode the robots observe each other
    instead (:func:`observe_robots`).  Each tick carries the robot's
    measured twist (u, omega) alongside its observations.
    """
    pose_fns = scenario.pose_fns()
    specs = dict(scenario.vehicles)
    for step_i in range(n_steps):
        t = step_i * dt
        poses = {vid: pose_fn(t) for vid, pose_fn in pose_fns.items()}
        if robots_only:
            yield t, observe_robots(poses, scenario.noise, rng)
            continue
        out = {}
        for vid, pose in poses.items():
            obs = {lm.id: sense(pose, lm, scenario.noise, rng)[0]
                   for lm in scenario.landmarks
                   if is_visible(scenario, specs[vid], pose, lm)}
            out[vid] = RobotTick(u=pose.u, omega_m=pose.omega,
                                 observations=obs)
        yield t, out
