"""The shared LTV Kalman engine."""

import math

import numpy as np
import pytest

from ltvslam import coop, kalman, sim, vmeas
from ltvslam.core import FilterState, RobotInputs, skew
from ltvslam.kalman import DivergenceError, FilterConfig, info_correct, ode_step, step
from ltvslam.runner import RunConfig, make_coop_maps
from ltvslam.slam_global import init_global, step_global
from ltvslam.slam_local import LocalMap


def scalar_vm(y=0.0, r=1.0):
    return vmeas.VirtualMeasurement(y=[y], H=[[1.0]], R=[[r]])


def test_scalar_riccati_closed_form():
    # Pdot = -P^2 with P0 = 1 has P(t) = 1/(1+t)
    cfg = FilterConfig(dt=1e-3)
    st = FilterState(np.zeros(1), np.eye(1))
    for _ in range(1000):
        st = ode_step(st, np.zeros((1, 1)), np.zeros(1), scalar_vm(), None, cfg)
    assert st.P[0, 0] == pytest.approx(0.5, abs=1e-4)


def test_correction_is_exact_information_flow():
    # holding H, R over dt, the information matrix grows linearly:
    # P(dt) = (P0^-1 + dt H^T R^-1 H)^-1, independent of the step size split
    P0 = np.array([[4.0, 1.0], [1.0, 3.0]])
    vm = vmeas.VirtualMeasurement(y=[0.0], H=[[1.0, 2.0]], R=[[0.5]])
    cfg_1 = FilterConfig(dt=0.1)
    cfg_10 = FilterConfig(dt=0.01)
    a = ode_step(FilterState(np.zeros(2), P0), np.zeros((2, 2)), np.zeros(2),
                 vm, None, cfg_1)
    b = FilterState(np.zeros(2), P0)
    for _ in range(10):
        b = ode_step(b, np.zeros((2, 2)), np.zeros(2), vm, None, cfg_10)
    expected = np.linalg.inv(np.linalg.inv(P0) + 0.1 * vm.H.T @ vm.H / 0.5)
    assert np.allclose(a.P, expected, atol=1e-12)
    assert np.allclose(b.P, expected, atol=1e-12)
    # the information form adds the same term to Y = P^-1 and inverts
    x, Y, P = info_correct(np.zeros(2), np.linalg.inv(P0), vm, 0.1, 0.0)
    assert np.allclose(P, expected, atol=1e-12)
    assert np.allclose(Y, np.linalg.inv(expected), atol=1e-12)


def test_info_correct_rejects_a_full_r_and_a_column_mismatch():
    # only R's diagonal is read, so an R that is not diagonal is an error
    Y = np.eye(2)
    full = vmeas.VirtualMeasurement(y=[0.0, 1.0], H=np.eye(2), R=[[1.0, 0.1], [0.1, 1.0]])
    with pytest.raises(ValueError, match="diagonal"):
        info_correct(np.zeros(2), Y, full, 0.01, 0.0)
    with pytest.raises(ValueError, match="3 columns for state size 2"):
        info_correct(np.zeros(2), Y, vmeas.VirtualMeasurement(
            y=[0.0], H=[[1.0, 0.0, 0.0]], R=[[1.0]]), 0.01, 0.0)


@pytest.mark.parametrize("Y", [np.array([[1.0, 0.0], [0.0, np.nan]]),
                               np.array([[1.0, 0.0], [0.0, np.inf]]),
                               np.zeros((2, 2))],
                         ids=["nan", "inf", "singular"])
def test_info_correct_names_a_non_finite_or_singular_y_a_divergence(Y):
    # a row on the first coordinate leaves a zero Y singular
    vm = vmeas.VirtualMeasurement(y=[1.0], H=[[1.0, 0.0]], R=[[1.0]])
    with pytest.raises(DivergenceError, match=r"^filter diverged at t=0\.31$"):
        info_correct(np.zeros(2), Y, vm, 0.01, 0.3)


def test_stable_with_huge_prior_and_tiny_r():
    # the stiff regime that breaks explicit integration of the P H^T R^-1 H P
    # term: P/R ~ 1e14 per step
    vm = vmeas.VirtualMeasurement(y=[3.0], H=[[1.0]], R=[[1e-12]])
    st = FilterState(np.zeros(1), 100.0 * np.eye(1))
    st = ode_step(st, np.zeros((1, 1)), np.zeros(1), vm, None, FilterConfig(dt=0.01))
    assert np.isfinite(st.P).all()
    assert st.P[0, 0] >= 0.0
    assert st.x[0] == pytest.approx(3.0, abs=1e-9)


def test_prediction_matches_linear_ode():
    # xdot = A x + b with constant A has the exact flow expm(A t)
    from scipy.linalg import expm
    A = np.array([[0.0, -0.5], [0.5, 0.0]])
    b = np.array([0.1, -0.2])
    x0 = np.array([1.0, 2.0])
    st = FilterState(x0, np.eye(2))
    cfg = FilterConfig(dt=0.01)
    for _ in range(100):
        st = ode_step(st, A, b, None, None, cfg)
    E = expm(A * 1.0)
    x_exact = E @ x0 + np.linalg.solve(A, (E - np.eye(2)) @ b)
    assert np.allclose(st.x, x_exact, rtol=0.0, atol=1e-12)
    # P follows Pdot = A P + P A^T: a pure rotation leaves the identity fixed
    assert np.allclose(st.P, np.eye(2), rtol=0.0, atol=1e-12)


def test_process_noise_grows_covariance():
    st = FilterState(np.zeros(2), np.zeros((2, 2)))
    st = ode_step(st, np.zeros((2, 2)), np.zeros(2), None, 0.5 * np.eye(2),
                  FilterConfig(dt=0.01))
    assert np.allclose(st.P, 0.005 * np.eye(2), atol=1e-15)
    # process noise is integrated only with A = 0
    with pytest.raises(ValueError):
        ode_step(FilterState(np.zeros(2), np.eye(2)), skew(0.5).matrix,
                 np.zeros(2), None, 0.3 * np.eye(2), FilterConfig(dt=0.01))


def test_rotation_step_returns_an_exactly_symmetric_p(rng):
    M = rng.normal(size=(3, 3))
    st = FilterState(np.zeros(3), M @ M.T + np.eye(3))
    st = ode_step(st, skew(0.3, -0.2, 0.7).matrix, np.ones(3), None, None,
                  FilterConfig(dt=0.01))
    assert np.array_equal(st.P, st.P.T)


def test_covariance_stays_symmetric_psd_under_random_stable_steps(rng):
    # random rotations with random rows, and A = 0 steps with process noise
    st = FilterState(rng.normal(size=3), np.eye(3))
    cfg = FilterConfig(dt=0.01)
    for i in range(500):
        A, Q = ((skew(*rng.normal(size=3)).matrix, None) if i % 2
                else (np.zeros((3, 3)), 0.01 * np.eye(3)))
        vm = vmeas.VirtualMeasurement(
            y=rng.normal(size=1), H=rng.normal(size=(1, 3)), R=[[1.0]])
        st = ode_step(st, A, rng.normal(size=3), vm if i % 3 else None, Q, cfg)
        assert np.allclose(st.P, st.P.T)
        assert np.linalg.eigvalsh(st.P).min() >= -1e-8 * np.trace(st.P)


def test_divergence_raises():
    st = FilterState(np.array([1.0]), np.eye(1))
    with pytest.raises(DivergenceError), np.errstate(over="ignore"):
        ode_step(st, np.zeros((1, 1)), np.array([1e308]), None, None,
                 FilterConfig(dt=10.0))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
def test_closed_form_matches_expm_of_the_augmented_generator(rng, d, k):
    # Rodrigues against expm([[A dt, b dt], [0, 0]]) of the full I_k (x) A:
    # its top-left block is F = I_k (x) Phi, its last column the input term
    from scipy.linalg import expm
    n = d * k
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    M = rng.normal(size=(n, n))
    P0 = M @ M.T + np.eye(n)
    for rate in (0.0, 1e-9, 1e-3, 1.0, 30.0):
        A = skew(rate) if d == 2 else skew(*(rate * axis))
        for dt in (0.01, 1.0):
            E = np.zeros((n + 1, n + 1))
            E[:n, :n] = np.kron(np.eye(k), A.matrix) * dt
            b = rng.normal(size=n)
            E[:n, n] = b * dt
            E = expm(E)
            F = np.column_stack([kalman._predict(e, P0, A.matrix, np.zeros(n),
                                                 None, dt)[0] for e in np.eye(n)])
            x, P = kalman._predict(np.zeros(n), P0, A.matrix, b, None, dt)
            assert np.abs(F - E[:n, :n]).max() <= 1e-12, (rate, dt)
            assert np.abs(x - E[:n, n]).max() <= 1e-12, (rate, dt)
            assert np.allclose(P, F @ P0 @ F.T, rtol=1e-12, atol=0.0)


def _filters(rng, N, n, k):
    """N random filters of size n, each with its own k random rows."""
    M = rng.normal(size=(N, n, n))
    state = FilterState._derived(rng.normal(size=(N, n)),
                                 M @ M.swapaxes(1, 2) + np.eye(n), 0.3)
    rows = vmeas.VirtualMeasurement._derived(
        rng.normal(size=(N, k)), rng.normal(size=(N, k, n)),
        np.eye(k) * rng.uniform(0.1, 2.0, size=(N, k, 1)))
    return state, rows


@pytest.mark.parametrize("n, A", [
    (2, -skew(0.7).matrix), (4, skew(0.7).matrix), (4, np.zeros((2, 2))),
    (3, skew(0.3, -0.2, 0.7).matrix)], ids=["2d-minus-omega", "pair-omega",
                                            "pair-zero", "3d-block"])
@pytest.mark.parametrize("per_filter_b", [False, True])
def test_one_step_of_stacked_filters_equals_a_step_of_each(rng, n, A, per_filter_b):
    N, cfg = 5, FilterConfig(dt=0.01)
    state, rows = _filters(rng, N, n, 2)
    b = rng.normal(size=(N, n) if per_filter_b else n)
    stacked = ode_step(state, A, b, rows, None, cfg)
    assert stacked.dim == n and stacked.t == state.t + cfg.dt
    for i in range(N):
        one = ode_step(FilterState._derived(state.x[i], state.P[i], state.t), A,
                       b[i] if per_filter_b else b,
                       vmeas.VirtualMeasurement._derived(rows.y[i], rows.H[i],
                                                         rows.R[i]), None, cfg)
        assert np.array_equal(stacked.x[i], one.x)
        assert np.array_equal(stacked.P[i], one.P)


def test_a_zero_information_row_leaves_a_filter_as_it_is(rng):
    # H 0, y 0, R 1 padded onto a filter's rows moves x and P by <= 1e-14
    cfg = FilterConfig(dt=0.01)
    for _ in range(20):
        state, rows = _filters(rng, 1, 4, 2)
        state = FilterState._derived(state.x[0], state.P[0], 0.0)
        rows = vmeas.VirtualMeasurement._derived(rows.y[0], rows.H[0], rows.R[0])
        R = np.eye(rows.rows + 1)
        R[:-1, :-1] = rows.R
        padded = vmeas.VirtualMeasurement._derived(
            np.append(rows.y, 0.0), np.vstack([rows.H, np.zeros((1, 4))]), R)
        ref = ode_step(state, skew(0.4).matrix, np.ones(4), rows, None, cfg)
        got = ode_step(state, skew(0.4).matrix, np.ones(4), padded, None, cfg)
        assert np.abs(got.x - ref.x).max() <= 1e-14 * np.abs(ref.x).max()
        assert np.abs(got.P - ref.P).max() <= 1e-14 * np.abs(ref.P).max()


def test_dim_of_a_stack_is_each_filters():
    assert FilterState._derived(np.zeros((7, 4)), np.zeros((7, 4, 4)), 0.0).dim == 4


@pytest.mark.parametrize("n, A", [(2, skew(0.3).matrix), (4, skew(0.3).matrix),
                                  (4, np.zeros((2, 2)))])
def test_an_empty_map_steps_to_an_empty_map(n, A):
    # a map without filters (no sightings yet) still makes its one step
    empty = FilterState._derived(np.zeros((0, n)), np.zeros((0, n, n)), 0.0)
    new = ode_step(empty, A, np.zeros((0, n)), None, None, FilterConfig(dt=0.01))
    assert new.x.shape == (0, n) and new.P.shape == (0, n, n)


def test_divergence_names_the_first_filter_at_fault(rng):
    state, _ = _filters(rng, 4, 2, 1)
    b = np.zeros((4, 2))
    b[2, 1] = b[3, 0] = math.nan
    with pytest.raises(DivergenceError, match=r"^filter 2 diverged at t=0\.31$"):
        ode_step(state, np.zeros((2, 2)), b, None, None)


def test_shape_validation():
    st = FilterState(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        ode_step(st, np.zeros((3, 3)), np.zeros(2), None, None)
    with pytest.raises(ValueError):   # A must be skew
        ode_step(st, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), None, None)
    bad_vm = vmeas.VirtualMeasurement(y=[0.0], H=[[1.0, 0.0, 0.0]], R=[[1.0]])
    with pytest.raises(ValueError):
        ode_step(st, np.zeros((2, 2)), np.zeros(2), bad_vm, None)


def test_ticks_after_first_sighting_check_no_r_or_p(monkeypatch):
    # R and P are checked where they enter: the rows and states the filters
    # derive on a tick are PD/PSD by construction and skip the eigvalsh
    def first_ticks(sc):
        _, ticks = next(sim.ticks(sc, np.random.default_rng(0), sc.dt, 1))
        return ticks

    coop_sc = sim.scenario_coop("full")
    maps = make_coop_maps(coop_sc, RunConfig(mode="coop-full"))
    coop_ticks = first_ticks(coop_sc)
    medium = coop.coop_step(maps, coop_ticks, "full")

    sc = sim.scenario_single_vehicle_2d()
    (vid, _), = sc.vehicles
    tick = first_ticks(sc)[vid]
    inputs = RobotInputs(u=np.array([0.0, tick.u]), omega=skew(tick.omega_m))
    cfg = FilterConfig(dt=sc.dt)
    local = LocalMap(case=3, cfg=cfg)
    local.step(inputs, tick.observations)
    pose0 = sc.pose_fns()[vid](0.0)
    gs = step_global(init_global(pose0.position, beta0=pose0.beta), tick.u,
                     tick.omega_m, tick.observations, case=2, cfg=cfg)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called on a derived R or P")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    coop.coop_step(maps, coop_ticks, "full", medium)
    local.step(inputs, tick.observations)
    step_global(gs, tick.u, tick.omega_m, tick.observations, case=2, cfg=cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(dt=0.0)


@pytest.mark.parametrize("w, u, x0", [
    ((0.7,), (0.3, 1.2), (2.0, 5.0)),
    ((0.3, -0.5, 0.7), (0.4, 1.1, -0.2), (2.0, 5.0, -1.0)),
], ids=["2d", "3d"])
def test_step_tracks_static_landmark_noise_free(w, u, x0):
    # exact relative kinematics xdot = -Omega x - u while the vehicle spins
    # and drives: x(t) = e^{-Omega t} x0 - int_0^t e^{-Omega s} ds u, both
    # from Rodrigues with K = Omega/|w| and th = |w| t (in 2D, K^2 = -I):
    #   e^{-Omega t} = I - sin(th) K + (1 - cos(th)) K^2
    #   int_0^t e^{-Omega s} ds = t I - (1 - cos th)/|w| K + (t - sin(th)/|w|) K^2
    dt, n = 0.01, 200
    inputs = RobotInputs(u=u, omega=skew(*w))
    x0 = np.array(x0)
    st = FilterState(x0.copy(), 1e-8 * np.eye(x0.size))
    for _ in range(n):
        st = step(st, inputs, None, FilterConfig(dt=dt))
    t, rate = n * dt, np.linalg.norm(w)
    K = inputs.omega.matrix / rate
    th = rate * t
    eye = np.eye(x0.size)
    E = eye - math.sin(th) * K + (1 - math.cos(th)) * K @ K
    G = (t * eye - (1 - math.cos(th)) / rate * K
         + (t - math.sin(th) / rate) * K @ K)
    assert np.allclose(st.x, E @ x0 - G @ inputs.u, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, A", [
    (2, -skew(0.7).matrix), (4, skew(-1.3).matrix), (3, skew(0.3, -0.2, 0.7).matrix),
    (6, skew(0.3, -0.2, 0.7).matrix)], ids=["2d", "pair", "3d", "3d-blocks"])
def test_a_per_filter_a_equal_on_every_row_gives_the_shared_bits(rng, n, A):
    N, cfg = 5, FilterConfig(dt=0.01)
    state, rows = _filters(rng, N, n, 2)
    b = rng.normal(size=(N, n))
    shared = ode_step(state, A, b, rows, None, cfg)
    per = ode_step(state, np.repeat(A[None], N, axis=0), b, rows, None, cfg)
    assert np.array_equal(per.x, shared.x) and np.array_equal(per.P, shared.P)


@pytest.mark.parametrize("n", [2, 4])
def test_a_rate_zero_row_among_rotating_rows_moves_by_b_dt_alone(rng, n):
    # each rotating row is its own shared-A step; a rate-0 row is x + b dt, P
    N, cfg = 6, FilterConfig(dt=0.01)
    state, _ = _filters(rng, N, n, 1)
    state = FilterState._derived(state.x, 0.5 * (state.P + state.P.swapaxes(1, 2)), state.t)
    rates = [0.4, 0.0, -1.1, 0.0, 2.5, 0.0]
    A = np.array([skew(w).matrix for w in rates])
    b = rng.normal(size=(N, n))
    new = ode_step(state, A, b, None, None, cfg)
    for i, w in enumerate(rates):
        if w == 0.0:
            assert np.array_equal(new.x[i], state.x[i] + b[i] * cfg.dt)
            assert np.array_equal(new.P[i], state.P[i])
        else:
            one = ode_step(FilterState._derived(state.x[i], state.P[i], state.t), A[i],
                           b[i], None, None, cfg)
            assert np.array_equal(new.x[i], one.x) and np.array_equal(new.P[i], one.P)


def test_a_per_filter_a_is_checked_as_a_shared_one(rng):
    state, _ = _filters(rng, 3, 4, 1)
    A = np.repeat(skew(0.5).matrix[None], 3, axis=0)
    bad = A.copy()
    bad[1, 0, 1] = 2.0   # not skew
    with pytest.raises(ValueError, match="skew"):
        ode_step(state, bad, np.zeros(4), None, None)
    for shape_bad in (A[:2], np.repeat(skew(0.5, 0.1, 0.2).matrix[None], 3, axis=0),
                      A[:, None]):
        with pytest.raises(ValueError, match="one per filter"):
            ode_step(state, shape_bad, np.zeros(4), None, None)
    with pytest.raises(ValueError, match="skew"):   # Q needs A = 0, per filter too
        ode_step(state, A, np.zeros(4), None, np.eye(4))
