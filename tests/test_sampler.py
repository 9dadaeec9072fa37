"""The one sensor sampler (``vmeas.observe_true`` plus ``vmeas.noisy_bundle``)
against the per-reading formulas it replaced, kept here as the reference."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ltvslam import sim, vmeas
from ltvslam.core import RobotInputs, body_from_global, skew
from ltvslam.noisecal import NoiseSpec
from ltvslam.vmeas import (BearingObs, BearingRateObs, DopplerObs, RangeObs,
                           SensorBundle, TimeToContactObs, TrueObservation)


def reference_observe_true(x, inputs, diameter=None):
    """The numpy formulas: xdot = -Omega x - u as a matrix product, r a norm."""
    x = np.asarray(x, dtype=float).ravel()
    xdot = -inputs.omega.matrix @ x - inputs.u
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("landmark coincides with the robot")
    r_dot = float(x @ xdot) / r
    theta = math.atan2(x[0], x[1])
    rho2 = x[0]**2 + x[1]**2
    theta_dot = (xdot[0] * x[1] - x[0] * xdot[1]) / rho2
    phi = phi_dot = None
    if x.size == 3:
        rho = math.sqrt(rho2)
        phi = math.atan2(x[2], rho)
        rho_dot = (x[0] * xdot[0] + x[1] * xdot[1]) / rho
        phi_dot = (xdot[2] * rho - x[2] * rho_dot) / r**2
    alpha = tau = None
    if diameter is not None:
        alpha = math.atan2(diameter, r)
        if abs(r_dot) > 1e-12:
            tau = abs(r / r_dot)
    return TrueObservation(theta=theta, r=r, theta_dot=theta_dot, r_dot=r_dot,
                           phi=phi, phi_dot=phi_dot, alpha=alpha, tau=tau)


def reference_noisy_bundle(true, noise, rng):
    """One ``rng.normal`` per reading, every record through its checked constructor."""
    is3d = true.phi is not None
    theta = true.theta + rng.normal(0.0, noise.sigma_theta)
    phi = true.phi + rng.normal(0.0, noise.sigma_phi) if is3d else None
    r = max(true.r + rng.normal(0.0, noise.sigma_r), 0.0)
    theta_dot = true.theta_dot + rng.normal(0.0, noise.sigma_theta_dot)
    phi_dot = true.phi_dot + rng.normal(0.0, noise.sigma_phi_dot) if is3d else None
    r_dot = true.r_dot + rng.normal(0.0, noise.sigma_r_dot)
    alpha = true.alpha + rng.normal(0.0, noise.sigma_alpha)
    tau = None
    if true.tau is not None and true.alpha and true.alpha > 0:
        tau = true.tau * max(alpha / true.alpha, 1e-9)
    return SensorBundle(
        bearing=BearingObs(theta=theta, phi=phi, sigma_theta=noise.sigma_theta,
                           sigma_phi=noise.sigma_phi),
        range=RangeObs(r=r, sigma_r=noise.sigma_r),
        rate=BearingRateObs(theta_dot=theta_dot, phi_dot=phi_dot,
                            sigma_theta_dot=noise.sigma_theta_dot,
                            sigma_phi_dot=noise.sigma_phi_dot),
        ttc=None if tau is None else TimeToContactObs(
            tau=max(tau, 1e-9), alpha=alpha, sigma_alpha=noise.sigma_alpha),
        doppler=DopplerObs(r=r, r_dot=r_dot, sigma_r=noise.sigma_r,
                           sigma_r_dot=noise.sigma_r_dot))


#: sigma_r large enough to clip some ranges at 0, the others as the builtins'.
NOISE_2D = NoiseSpec(sigma_theta=0.03, sigma_theta_dot=0.08, sigma_r=4.0,
                     sigma_r_dot=0.2, sigma_alpha=0.01)
NOISE_3D = NoiseSpec(sigma_theta=0.03, sigma_phi=0.02, sigma_theta_dot=0.08,
                     sigma_phi_dot=0.05, sigma_r=3.0, sigma_r_dot=0.2, sigma_alpha=0.01)


def _sightings_2d():
    """(pose, landmark) of single-vehicle-2d with a landmark at its circle's
    centre (range never changes: no tau), and of coop-full, over 2.5 s each."""
    worlds = [sim.scenario_single_vehicle_2d(), sim.scenario_coop("full")]
    worlds[0].landmarks.append(sim.Landmark(9, (0.0, 0.0)))
    return [(pose, lm) for sc in worlds for pose_fn in sc.pose_fns().values()
            for pose in map(pose_fn, np.arange(0.0, 2.5, 0.1)) for lm in sc.landmarks]


def test_sense_equals_the_reference_sampler_in_2d():
    new, ref = np.random.default_rng(5), np.random.default_rng(5)
    n_tau_none = n_clipped = 0
    sightings = _sightings_2d()
    assert len(sightings) >= 1000
    for pose, lm in sightings:
        bundle, true = sim.sense(pose, lm, NOISE_2D, new, robot=1)
        inputs = RobotInputs(u=np.array([0.0, pose.u]), omega=skew(pose.omega))
        x = body_from_global(pose.beta) @ (lm.position - pose.position)
        want = reference_observe_true(x, inputs, diameter=lm.diameter)
        assert true == want
        assert bundle == reference_noisy_bundle(want, NOISE_2D, ref)
        n_tau_none += true.tau is None
        n_clipped += bundle.range.r == 0.0
    assert new.bit_generator.state == ref.bit_generator.state
    assert n_tau_none >= 20 and n_clipped >= 10


@pytest.mark.parametrize("omega", [(0.0, 0.0, 0.3), (0.1, -0.2, 0.3)],
                         ids=["helix", "tumbling"])
def test_the_sampler_equals_the_reference_in_3d(omega):
    # a helix (u = (0, 1, 0.2), omega about z), and a twist whose xdot rows
    # each take two products; landmarks 3-6 m away, some ranges clipped
    inputs = RobotInputs(u=np.array([0.0, 1.0, 0.2]), omega=skew(*omega))
    where = np.random.default_rng(11)
    new, ref = np.random.default_rng(6), np.random.default_rng(6)
    n_clipped = 0
    for _ in range(1000):
        x = where.normal(size=3)
        x *= where.uniform(3.0, 6.0) / np.linalg.norm(x)
        true = vmeas.observe_true(x, inputs, diameter=2.0)
        want = reference_observe_true(x, inputs, diameter=2.0)
        assert true == want
        bundle = vmeas.noisy_bundle(true, NOISE_3D, new)
        assert bundle == reference_noisy_bundle(want, NOISE_3D, ref)
        n_clipped += bundle.range.r == 0.0
    assert new.bit_generator.state == ref.bit_generator.state
    assert n_clipped >= 10


_TRUE_3D = TrueObservation(theta=0.3, r=4.0, theta_dot=0.1, r_dot=-1.0, phi=0.2,
                           phi_dot=0.05, alpha=0.46, tau=4.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", list(TrueObservation.__dataclass_fields__))
@pytest.mark.parametrize("dim", [2, 3])
def test_a_non_finite_true_value_raises_as_the_reference_does(dim, field, bad):
    true = _TRUE_3D if dim == 3 else TrueObservation(
        **{**vars(_TRUE_3D), "phi": None, "phi_dot": None})
    if getattr(true, field) is None:
        return
    true = TrueObservation(**{**vars(true), field: bad})
    try:
        want = reference_noisy_bundle(true, NOISE_3D, np.random.default_rng(0))
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            vmeas.noisy_bundle(true, NOISE_3D, np.random.default_rng(0))
        assert str(got.value) == str(err)
        assert "must be finite" in str(err)
    else:   # clipped (r, tau -inf), or held by no record (alpha nan: no tau)
        assert repr(vmeas.noisy_bundle(true, NOISE_3D, np.random.default_rng(0))) \
            == repr(want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
@pytest.mark.parametrize("sigma, record", [
    ("sigma_theta", "BearingObs"), ("sigma_phi", "BearingObs"),
    ("sigma_r", "RangeObs"), ("sigma_theta_dot", "BearingRateObs"),
    ("sigma_phi_dot", "BearingRateObs"), ("sigma_alpha", "TimeToContactObs"),
    ("sigma_r_dot", "DopplerObs")])
def test_a_bad_sigma_on_a_plain_noise_object_raises_the_records_error(sigma, record,
                                                                      bad):
    # a non-finite sigma makes its reading non-finite too, which its record
    # names first where it checks that reading first
    message = (rf"^{record}\.{sigma} must be >= 0, got" if bad < 0 else
               rf"^{record}\.\w+ must be finite, got")
    noise = SimpleNamespace(**{**vars(NOISE_3D), sigma: bad})
    for true in (_TRUE_3D, TrueObservation(**{**vars(_TRUE_3D), "phi": None,
                                              "phi_dot": None})):
        with pytest.raises(ValueError, match=message):
            vmeas.noisy_bundle(true, noise, np.random.default_rng(0))


def _traced_bytes(make) -> int:
    """Bytes still held by what ``make()`` returns, under tracemalloc (after
    one call untraced, so that one-time allocations are not counted)."""
    make()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()   # noqa: F841 (held while measured)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_kept_bundles_are_as_small_as_checked_ones():
    true = vmeas.observe_true(np.array([3.0, 4.0]),
                              RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.5)),
                              diameter=2.0)
    assert true.tau is not None   # all five records
    sampled = _traced_bytes(lambda: [vmeas.noisy_bundle(true, NOISE_2D, rng)
                                     for rng in [np.random.default_rng(1)]
                                     for _ in range(1000)])
    checked = _traced_bytes(lambda: [reference_noisy_bundle(true, NOISE_2D, rng)
                                     for rng in [np.random.default_rng(1)]
                                     for _ in range(1000)])
    assert sampled <= 1.05 * checked, (sampled, checked)

