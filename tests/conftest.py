"""Shared fixtures and observation synthesis helpers."""

import math

import numpy as np
import pytest

from ltvslam import vmeas
from ltvslam.core import FilterState, RobotInputs, skew
from ltvslam.slam_local import SensorBundle


def exact_bundle(x_body, inputs, noise=None, diameter=2.0):
    """Noise-free sensor bundle for a relative position, with declared sigmas.

    ``noise`` only sets the sigma fields (what the filter believes); the
    values themselves are exact.
    """
    true = vmeas.observe_true(np.asarray(x_body, float), inputs,
                              diameter=diameter)
    s = noise
    return SensorBundle(
        bearing=vmeas.BearingObs(theta=true.theta, phi=true.phi,
                                 sigma_theta=s.sigma_theta if s else 0.0,
                                 sigma_phi=s.sigma_phi if s else 0.0),
        range=vmeas.RangeObs(r=true.r, sigma_r=s.sigma_r if s else 0.0),
        rate=vmeas.BearingRateObs(theta_dot=true.theta_dot,
                                  phi_dot=true.phi_dot,
                                  sigma_theta_dot=s.sigma_theta_dot if s else 0.0,
                                  sigma_phi_dot=s.sigma_phi_dot if s else 0.0),
        ttc=None if true.tau is None else vmeas.TimeToContactObs(
            tau=true.tau, alpha=true.alpha,
            sigma_alpha=s.sigma_alpha if s else 0.0),
        doppler=vmeas.DopplerObs(r=true.r, r_dot=true.r_dot,
                                 sigma_r=s.sigma_r if s else 0.0,
                                 sigma_r_dot=s.sigma_r_dot if s else 0.0),
    )


def scalar_rows(case, bundle, inputs, r_hint=None):
    """One sighting's rows from the scalar case builder its case names."""
    if case == 1:
        return vmeas.case1(bundle.bearing)
    if case == 2:
        return vmeas.case2(bundle.bearing, bundle.range)
    if case == 3:
        return vmeas.case3(bundle.bearing, bundle.rate, inputs, r_hint=r_hint)
    if case == 4:
        return vmeas.case4(bundle.bearing, bundle.ttc, inputs)
    return vmeas.case5(bundle.doppler, inputs)


def seed_map(est, states):
    """Give a pair or local map the filters ``{id: FilterState}``: its id
    table in the given order and one stack of their rows, at the map's time."""
    n = est.state.dim
    est.ids = {lid: i for i, lid in enumerate(states)}
    est.state = FilterState._derived(
        np.array([s.x for s in states.values()]).reshape(-1, n),
        np.array([s.P for s in states.values()]).reshape(-1, n, n), est.state.t)


def random_state_and_inputs(rng, dim=2, r_lo=1.0, r_hi=50.0, u_min=0.2):
    """Random relative position and twist with non-degenerate speeds."""
    x = rng.uniform(-1.0, 1.0, size=dim)
    x *= rng.uniform(r_lo, r_hi) / np.linalg.norm(x)
    u = rng.uniform(-2.0, 2.0, size=dim)
    while np.linalg.norm(u) < u_min:
        u = rng.uniform(-2.0, 2.0, size=dim)
    rates = rng.uniform(-1.0, 1.0, size=1 if dim == 2 else 3)
    return x, RobotInputs(u=u, omega=skew(*rates))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


#: PASS/FAIL lines collected by the acceptance suite, echoed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
