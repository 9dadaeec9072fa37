"""Noise porting: analytic bias formulas, bounds, and Monte Carlo checks."""

import math

import numpy as np
import pytest

from ltvslam import noisecal, vmeas
from ltvslam.core import RobotInputs, skew

from conftest import random_state_and_inputs, scalar_rows


def test_bias_bearing_2d_is_zero():
    assert noisecal.bias_bearing_2d(math.radians(5)) == 0.0


def test_bias_range_2d_closed_form():
    sig = math.radians(5)
    expected = (1.0 - math.exp(-sig**2 / 2.0)) * 4.0
    assert noisecal.bias_range_2d(sig, 4.0) == pytest.approx(expected)
    assert noisecal.bias_range_2d(sig, 4.0) == pytest.approx(0.0152, abs=1e-4)
    assert noisecal.bias_range_2d(0.0, 10.0) == 0.0


def test_bias_range_monotone_in_sigma_and_r():
    assert (noisecal.bias_range_2d(0.2, 4.0)
            > noisecal.bias_range_2d(0.1, 4.0) > 0.0)
    assert (noisecal.bias_range_2d(0.1, 8.0)
            == pytest.approx(2.0 * noisecal.bias_range_2d(0.1, 4.0)))


def test_bias_3d_case2_reduces_at_zero_phi_noise():
    # with sigma_phi = 0 the radial 3D bias at phi = 0 matches the 2D formula
    sig = math.radians(5)
    b = noisecal.bias_3d(2, sig, 0.0, r=4.0, phi=0.0)
    assert b[0] == 0.0
    assert b[2] == pytest.approx(noisecal.bias_range_2d(sig, 4.0), abs=1e-12)


def test_variance_bounds():
    sig, rs = 0.1, 10.0
    bounds = noisecal.variance_bounds(sig, rs)
    assert bounds["tangential"] == pytest.approx(sig**2 * rs**2)
    assert bounds["radial"] == pytest.approx(sig**4 / 4.0 * rs**2)
    with pytest.raises(ValueError):
        noisecal.variance_bounds(sig, 0.0)


def test_r_star_rule():
    assert noisecal.r_star(4.0, 0.2) == pytest.approx(4.6)
    assert noisecal.r_star(200.0, 1.0) == noisecal.R_MAX
    with pytest.raises(ValueError):
        noisecal.r_star(-1.0, 0.2)


def test_monte_carlo_port_matches_analytic_bias():
    sig = math.radians(5)
    th = math.radians(45)
    x = 4.0 * np.array([math.sin(th), math.cos(th)])
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.0))
    ported = noisecal.monte_carlo_port(
        2, x, inputs, noisecal.NoiseSpec(sigma_theta=sig, sigma_r=0.2),
        n=10_000, seed=0)
    assert abs(ported.mean[0]) < 0.01                      # tangential: bias free
    assert ported.mean[1] == pytest.approx(
        noisecal.bias_range_2d(sig, 4.0), abs=0.005)       # radial: (1-e^-s^2/2) r
    # empirical tangential variance respects the analytic bound at r* = r
    assert ported.variance[0] <= noisecal.variance_bounds(sig, 4.6)["tangential"]


def test_monte_carlo_port_deterministic():
    x = np.array([1.0, 3.0])
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.2))
    spec = noisecal.NoiseSpec(sigma_theta=0.02, sigma_theta_dot=0.05)
    a = noisecal.monte_carlo_port(3, x, inputs, spec, n=500, seed=3)
    b = noisecal.monte_carlo_port(3, x, inputs, spec, n=500, seed=3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)


def test_monte_carlo_port_3d_matches_analytic_radial_bias():
    # samples phi through the simulator's sampler; bias_3d's phi-noise terms
    r, th, ph = 6.0, 0.4, 0.5
    x = r * np.array([math.cos(ph) * math.sin(th), math.cos(ph) * math.cos(th),
                      math.sin(ph)])
    inputs = RobotInputs(u=np.zeros(3), omega=skew(0.0, 0.0, 0.0))
    ported = noisecal.monte_carlo_port(
        2, x, inputs, noisecal.NoiseSpec(sigma_theta=0.05, sigma_phi=0.08),
        n=20_000, seed=1)
    assert ported.mean.shape == (3,)
    assert ported.mean[2] == pytest.approx(
        noisecal.bias_3d(2, 0.05, 0.08, r, ph)[2], abs=1e-3)


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3])
def test_monte_carlo_port_equals_the_per_sample_loop(case, dim):
    # one build over all samples gives the mean and variance of building
    # each sample's rows on its own, bit for bit
    rng = np.random.default_rng(dim * 10 + case)
    x, inputs = random_state_and_inputs(rng, dim=dim, r_hi=20.0)
    spec = noisecal.NoiseSpec(sigma_theta=0.02, sigma_phi=0.03, sigma_r=0.1,
                              sigma_theta_dot=0.05, sigma_phi_dot=0.04,
                              sigma_r_dot=0.2, sigma_alpha=0.01)
    ported = noisecal.monte_carlo_port(case, x, inputs, spec, n=300, seed=7)
    true = vmeas.observe_true(x, inputs, diameter=2.0)
    sample_rng = np.random.default_rng(7)
    res = np.array([scalar_rows(case, vmeas.noisy_bundle(true, spec, sample_rng),
                                inputs).residual(x) for _ in range(300)])
    assert np.array_equal(ported.mean, res.mean(axis=0))
    assert np.array_equal(ported.variance, res.var(axis=0))


def test_monte_carlo_port_case5_needs_a_moving_robot():
    inputs = RobotInputs(u=np.zeros(2), omega=skew(0.3))
    with pytest.raises(ValueError, match="stationary"):
        noisecal.monte_carlo_port(5, np.array([1.0, 3.0]), inputs,
                                  noisecal.NoiseSpec(sigma_r=0.1), n=100)


def test_monte_carlo_port_case4_needs_the_radial_row_in_every_sample():
    # radial speed 1e-3 (EPS_U): bearing noise puts some samples under it
    x = np.array([4.0, 4e-3])
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.0))
    with pytest.raises(ValueError, match="Case IV"):
        noisecal.monte_carlo_port(4, x, inputs, noisecal.NoiseSpec(sigma_theta=0.01),
                                  n=200)


def test_monte_carlo_port_case4_rejects_samples_that_all_lack_the_radial_row():
    # the range to (3, 0) is not changing under u = (0, 1): no sample has a
    # time-to-contact reading, and Case I's statistics are not Case IV's
    inputs = RobotInputs(u=np.array([0.0, 1.0]), omega=skew(0.0))
    with pytest.raises(ValueError, match="Case IV"):
        noisecal.monte_carlo_port(4, np.array([3.0, 0.0]), inputs,
                                  noisecal.NoiseSpec(sigma_theta=0.01), n=200)


def test_noise_spec_rejects_negative():
    with pytest.raises(ValueError):
        noisecal.NoiseSpec(sigma_theta=-0.1)


def test_tangential_R_floors_zero_sigma():
    bearing = vmeas.BearingObs(theta=0.0, sigma_theta=0.0)
    var = noisecal.tangential_R(bearing, 10.0)   # the rows' variances
    assert var.shape == (1,)
    assert var[0] == pytest.approx(noisecal.SIGMA_THETA_FLOOR**2 * 100.0)


def test_rate_row_R_tracks_range_bucket():
    bearing = vmeas.BearingObs(theta=0.3, sigma_theta=0.02)
    rate = vmeas.BearingRateObs(theta_dot=0.4, sigma_theta_dot=0.0873)
    inputs = RobotInputs(u=np.array([0.0, 2.0]), omega=skew(0.5))
    near = noisecal.rate_row_R(bearing, rate, inputs, 5.0)[0]
    far = noisecal.rate_row_R(bearing, rate, inputs, 100.0)[0]
    # the rate residual scales with range, so the far bucket is far noisier
    assert far > 50.0 * near
    # dominated by sigma_theta_dot * r at this geometry
    assert near == pytest.approx((0.0873 * 5.0) ** 2, rel=0.3)


def test_ttc_row_R_positive_and_scales_with_tau():
    ttc_small = vmeas.TimeToContactObs(tau=1.0, alpha=0.2, sigma_alpha=0.01)
    ttc_large = vmeas.TimeToContactObs(tau=20.0, alpha=0.2, sigma_alpha=0.01)
    small = noisecal.ttc_row_R(ttc_small, radial_speed=1.0)[0]
    large = noisecal.ttc_row_R(ttc_large, radial_speed=1.0)[0]
    assert 0.0 < small < large


def test_rate_rows_have_one_route(monkeypatch):
    # the Case III rows and their R calibration both evaluate vmeas._rate_rows
    bearing = vmeas.BearingObs(theta=0.3, sigma_theta=0.02)
    rate = vmeas.BearingRateObs(theta_dot=0.4, sigma_theta_dot=0.05)
    inputs = RobotInputs(u=np.array([0.0, 2.0]), omega=skew(0.5))
    vmeas.case3(bearing, rate, inputs)   # fill this geometry's R cache
    calls = []
    rate_rows = vmeas._rate_rows

    def counted(*args):
        calls.append(args)
        return rate_rows(*args)

    monkeypatch.setattr(vmeas, "_rate_rows", counted)
    vmeas.case3(bearing, rate, inputs)
    assert len(calls) == 1
    calls.clear()
    noisecal._rate_row_var_cached.__wrapped__(
        3, 0.3, 0.1, 0.4, -0.2, (0.0, 2.0, 0.25), (0.0, 0.1, 0.5),
        0.02, 0.02, 0.05, 0.05, 20.0)
    # one call carries all 512 calibration samples
    assert len(calls) == 1
    assert np.shape(calls[0][0]) == (512,)


def test_case3_tick_looks_up_each_sightings_bucket(monkeypatch):
    # one cache lookup per sighting, keyed as the scalar rule
    # q(v, step) = round(v / step) * step keys it, bucket edges and -0 included
    rng = np.random.default_rng(99)
    keys, cached = [], noisecal._rate_row_var_cached
    monkeypatch.setattr(noisecal, "_rate_row_var_cached",
                        lambda *key: keys.append(key) or cached(*key))

    def q(v, step):
        return round(float(v) / step) * step

    for dim in (2, 3):
        n = 7
        theta = np.r_[0.05, -0.04, 0.15, rng.uniform(-3.0, 3.0, n - 3)]
        theta_dot = np.r_[0.01, -0.009, rng.uniform(-1.0, 1.0, n - 2)]
        phi, phi_dot = np.c_[[-0.01, -0.005], rng.uniform(-1.0, 1.0, (2, n - 1))]
        bundles = [vmeas.SensorBundle(
            bearing=vmeas.BearingObs(theta=theta[i], phi=phi[i] if dim == 3 else None,
                                     sigma_theta=float(rng.choice([0.0, 0.01])),
                                     sigma_phi=float(rng.choice([0.0, 0.03]))),
            rate=vmeas.BearingRateObs(theta_dot=theta_dot[i],
                                      phi_dot=phi_dot[i] if dim == 3 else None,
                                      sigma_theta_dot=0.05)) for i in range(n)]
        inputs = RobotInputs(u=rng.uniform(-2, 2, dim),
                             omega=skew(*rng.uniform(-1, 1, 1 if dim == 2 else 3)))
        hints = np.r_[0.4, 2.5, 0.0, 300.0, rng.uniform(0.0, 100.0, n - 4)]
        keys.clear()
        vmeas.build_measurement(3, bundles, inputs, hints)
        assert keys == [
            (dim, q(b.bearing.theta, 0.1), q(b.bearing.phi or 0.0, 0.1),
             q(b.rate.theta_dot, 0.02), q(b.rate.phi_dot or 0.0, 0.02),
             tuple(q(v, 0.25) for v in inputs.u),
             tuple(q(v, 0.05) for v in inputs.omega.omega),
             max(b.bearing.sigma_theta, noisecal.SIGMA_THETA_FLOOR),
             max(b.bearing.sigma_phi, noisecal.SIGMA_THETA_FLOOR),
             0.05, noisecal.SIGMA_RATE_FLOOR,
             q(min(h, noisecal.R_MAX) if h else noisecal.R_MAX, 1.0) or 1.0)
            for b, h in zip(bundles, hints)]


def _rate_row_var_loop(dim, theta, phi, theta_dot, phi_dot, u_key, omega_key,
                       st, sp, std, spd, rstar):
    """The calibration one sample at a time: scalar draws, one row call each."""
    rng = np.random.default_rng(20181224)
    u, Om = np.array(u_key), skew(*omega_key).matrix
    _, h_star = (vmeas.bearing_vectors_2d(theta) if dim == 2
                 else vmeas.bearing_vectors_3d(theta, phi))
    x = rstar * h_star.ravel()
    res = np.zeros((512, dim - 1))
    for i in range(512):
        th = theta + rng.normal(0.0, st)
        td = theta_dot + rng.normal(0.0, std)
        ph = pd = None
        if dim == 3:
            ph = phi + rng.normal(0.0, sp)
            pd = phi_dot + rng.normal(0.0, spd)
        _, y, M = vmeas._rate_rows(th, ph, td, pd, u, Om)
        res[i] = y - M @ x
    return res.var(axis=0)


def test_batched_calibration_matches_the_per_sample_loop():
    rng = np.random.default_rng(20240518)
    sigmas = [0.002, 0.01, 0.035, 0.0873, 0.3]
    identical = 0
    for i in range(300):
        dim = 2 if i % 2 else 3
        key = (dim, round(rng.uniform(-3.2, 3.2), 1),
               round(rng.uniform(-1.5, 1.5), 1) if dim == 3 else 0.0,
               round(rng.uniform(-1.0, 1.0), 2),
               round(rng.uniform(-1.0, 1.0), 2) if dim == 3 else 0.0,
               tuple(rng.uniform(-2.0, 2.0, dim).round(2)),
               tuple(rng.uniform(-1.0, 1.0, 1 if dim == 2 else 3).round(2)),
               *(float(v) for v in rng.choice(sigmas, 4)),
               float(rng.integers(1, 101)))
        batched = np.array(noisecal._rate_row_var_cached.__wrapped__(*key))
        loop = _rate_row_var_loop(*key)
        assert batched.shape == (dim - 1,)
        np.testing.assert_allclose(batched, loop, rtol=1e-15, atol=0.0)
        identical += bool(np.array_equal(batched, loop))
    print(f"batched calibration: {identical}/300 keys bit-identical to the loop")
