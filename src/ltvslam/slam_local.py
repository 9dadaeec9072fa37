"""Per-landmark SLAM in the robot-fixed frame.

Each landmark gets its own small filter over its relative position;
filters are completely decoupled, so the per-step cost is linear in the
number of landmarks and update order is irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import noisecal, vmeas
from .core import Estimates, FilterState, RobotInputs
from .kalman import DivergenceError, FilterConfig, step
from .vmeas import SensorBundle, build_measurement


@dataclass(frozen=True)
class LocalLandmarkFilter:
    """One landmark's row of a local map's stack: its relative-position filter."""

    state: FilterState


def init_landmark(case: int, bundle: SensorBundle | None = None,
                  dim: int = 2) -> FilterState:
    """Prior row for a newly seen landmark.

    Bearing cases start along the measured bearing direction, at the
    measured range in Case II and at half of ``noisecal.R_MAX`` otherwise;
    Case V (no bearing) starts at the origin with a wide prior.
    """
    if case == 5 or bundle is None or bundle.bearing is None:
        return FilterState(np.zeros(dim), 100.0 * np.eye(dim))
    bearing = bundle.bearing
    dim = bearing.dim
    ranged = case == 2 and bundle.range is not None
    r0 = bundle.range.r if ranged else 0.5 * noisecal.R_MAX
    _, h_star = vmeas._bearing_rows(bearing)
    x0 = r0 * h_star.ravel()
    sigma0 = (bundle.range.sigma_r if ranged and bundle.range.sigma_r > 0
              else 0.5 * noisecal.R_MAX)
    P0 = max(sigma0, 0.1) ** 2 * np.eye(dim)
    return FilterState(x0, P0)


class LocalMap:
    """Decoupled landmark filters as one stack: row ``ids[lid]`` of ``state``
    (x (N, d), P (N, d, d), at the map's time t) is landmark lid's filter,
    the rows in first-sighting order."""

    def __init__(self, case: int, cfg: FilterConfig = FilterConfig()):
        self.case = case
        self.cfg = cfg
        self.ids: dict[int, int] = {}
        self.state = FilterState._derived(np.zeros((0, 2)), np.zeros((0, 2, 2)), 0.0)

    @property
    def filters(self) -> dict[int, LocalLandmarkFilter]:
        """Each filter as a record over its row of the stack, built on each read."""
        x, P, t = self.state.x, self.state.P, self.state.t
        return {lid: LocalLandmarkFilter(FilterState._derived(x[i], P[i], t))
                for lid, i in self.ids.items()}

    def step(self, inputs: RobotInputs,
             observations: dict[int, SensorBundle]) -> None:
        """Advance every filter by dt, all rows from one build and one step;
        new ids' rows go at the end.  A divergence names the landmark at fault."""
        ids, d, t = self.ids, inputs.dim, self.state.t
        if not ids:   # an empty map takes its size from the inputs
            self.state = FilterState._derived(np.zeros((0, d)), np.zeros((0, d, d)), t)
        new = [lid for lid in observations if lid not in ids]
        if new:
            made = [init_landmark(self.case, observations[lid], d) for lid in new]
            ids.update({lid: len(ids) + i for i, lid in enumerate(new)})
            self.state = FilterState._derived(
                np.concatenate([self.state.x, [s.x for s in made]]),
                np.concatenate([self.state.P, [s.P for s in made]]), t)
        at = [ids[lid] for lid in observations]
        vm = build_measurement(self.case, list(observations.values()), inputs,
                               vmeas.range_hints(self.state.x[at]))
        try:
            self.state = step(self.state, inputs, vmeas.place_rows(len(ids), (at, vm)),
                              self.cfg)
        except DivergenceError as err:   # the row at fault is a landmark id's
            raise DivergenceError(f"landmark {list(ids)[err.row]} diverged at "
                                  f"t={t + self.cfg.dt:g}", err.row) from None

    def estimates(self) -> Estimates:
        """Robot-frame positions and covariances of every row."""
        return Estimates(self.state.t, list(self.ids), self.state.x, self.state.P)
