"""Geometric conventions and shared state types."""

import math

import numpy as np
import pytest

from ltvslam.core import (AngularVelocityMatrix, FilterState, angle_diff,
                          body_from_global, fit_contraction_rate,
                          heading_forward, rotation2d, skew, wrap_angle)


def test_wrap_angle_range():
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(a)
        assert -math.pi <= w < math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


def test_angle_diff_shortest_arc():
    assert angle_diff(0.1, -0.1) == pytest.approx(0.2)
    assert angle_diff(math.pi - 0.05, -math.pi + 0.05) == pytest.approx(-0.1)


def test_rotation2d_is_ccw_and_orthogonal():
    R = rotation2d(math.pi / 2)
    assert np.allclose(R @ [1.0, 0.0], [0.0, 1.0])
    assert np.allclose(R @ R.T, np.eye(2), atol=1e-15)


def test_heading_forward_matches_rotation_of_body_axis():
    # the body forward axis is +x2; rotating it by beta gives the global
    # forward direction
    for beta in (-2.0, 0.0, 0.7, 3.0):
        fwd = rotation2d(beta) @ [0.0, 1.0]
        assert np.allclose(heading_forward(beta), fwd, atol=1e-15)


def test_body_from_global_round_trip():
    beta = 0.9
    v = np.array([3.0, -2.0])
    assert np.allclose(body_from_global(beta) @ rotation2d(beta) @ v, v)


def test_skew_2d_and_3d():
    Om = skew(0.5).matrix
    assert np.allclose(Om, [[0.0, -0.5], [0.5, 0.0]])
    Om3 = skew(0.1, 0.2, 0.3).matrix
    assert np.allclose(Om3, -Om3.T)
    w = np.array([0.1, 0.2, 0.3])
    v = np.array([1.0, -1.0, 2.0])
    assert np.allclose(Om3 @ v, np.cross(w, v))


def test_angular_velocity_rejects_bad_shapes():
    with pytest.raises(ValueError):
        AngularVelocityMatrix(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        skew(float("nan"))


def test_filter_state_validates_covariance():
    with pytest.raises(ValueError):
        FilterState(np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        FilterState(np.zeros(2), -np.eye(2))
    with pytest.raises(ValueError):
        FilterState(np.zeros(3), np.eye(2))
    st = FilterState(np.zeros(2), np.eye(2))
    assert st.dim == 2


def test_derived_filter_state_keeps_its_arrays():
    x, P = np.array([1.0, 2.0]), np.eye(2)
    st = FilterState._derived(x, P, 0.5)
    assert st.x is x and st.P is P and st.t == 0.5


def test_fit_contraction_rate_recovers_exponential():
    t = np.linspace(0.0, 5.0, 200)
    diag = fit_contraction_rate(np.column_stack([t, 3.0 * np.exp(-0.7 * t)]))
    assert diag.rate == pytest.approx(0.7, abs=1e-9)
    assert diag.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_contraction_rate_zero_series_is_converged():
    t = np.linspace(0.0, 1.0, 50)
    diag = fit_contraction_rate(np.column_stack([t, np.zeros_like(t)]))
    assert math.isinf(diag.rate)


def test_fit_contraction_rate_needs_enough_points():
    with pytest.raises(ValueError):
        fit_contraction_rate([(0.0, 1.0)] * 5)
