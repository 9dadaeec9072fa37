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
from .kalman import FilterConfig, step
from .vmeas import SensorBundle, build_measurement


@dataclass(frozen=True)
class LocalLandmarkFilter:
    """Relative-position filter for one landmark."""

    state: FilterState


def init_landmark(case: int, bundle: SensorBundle | None = None,
                  dim: int = 2, t: float = 0.0) -> LocalLandmarkFilter:
    """Prior for a newly seen landmark.

    Bearing cases start along the measured bearing direction, at the
    measured range in Case II and at half of ``noisecal.R_MAX`` otherwise;
    Case V (no bearing) starts at the origin with a wide prior.
    """
    if case == 5 or bundle is None or bundle.bearing is None:
        return LocalLandmarkFilter(FilterState(np.zeros(dim), 100.0 * np.eye(dim), t))
    bearing = bundle.bearing
    dim = bearing.dim
    ranged = case == 2 and bundle.range is not None
    r0 = bundle.range.r if ranged else 0.5 * noisecal.R_MAX
    _, h_star = vmeas._bearing_rows(bearing)
    x0 = r0 * h_star.ravel()
    sigma0 = (bundle.range.sigma_r if ranged and bundle.range.sigma_r > 0
              else 0.5 * noisecal.R_MAX)
    P0 = max(sigma0, 0.1) ** 2 * np.eye(dim)
    return LocalLandmarkFilter(FilterState(x0, P0, t))


class LocalMap:
    """Mutable collection of decoupled landmark filters."""

    def __init__(self, case: int, cfg: FilterConfig = FilterConfig()):
        self.case = case
        self.cfg = cfg
        self.filters: dict[int, LocalLandmarkFilter] = {}
        self.t = 0.0

    def step(self, inputs: RobotInputs,
             observations: dict[int, SensorBundle]) -> None:
        """Advance every filter by dt, all rows from one build and one step;
        start new ids."""
        for lid, bundle in observations.items():
            if lid not in self.filters:
                self.filters[lid] = init_landmark(
                    self.case, bundle, dim=inputs.dim, t=self.t)
        vm = build_measurement(self.case, list(observations.values()), inputs,
                               vmeas.range_hints([self.filters[lid].state.x
                                                  for lid in observations]))
        slot = {lid: i for i, lid in enumerate(self.filters)}
        rows = vmeas.place_rows(len(slot), ([slot[lid] for lid in observations], vm))
        new = step(FilterState._stack([f.state for f in self.filters.values()], self.t,
                                      inputs.dim), inputs, rows, self.cfg)
        self.filters.update(zip(slot, map(LocalLandmarkFilter, new._unstack())))
        self.t += self.cfg.dt

    def estimates(self) -> Estimates:
        """Robot-frame positions and covariances; d comes from the filters."""
        states = [f.state for f in self.filters.values()]
        d = states[0].dim if states else 2
        return Estimates.stack(self.t, self.filters, [s.x for s in states],
                               [s.P for s in states], d)
