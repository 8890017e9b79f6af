import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import behaviorcloak
import support
from behaviorcloak import (
    DistortionConfig,
    InvarianceInfeasibleError,
    KernelPlan,
    ModeBank,
    StateSpaceMode,
    Trajectory,
    UtilitySpec,
    build_lifted_operators,
    build_tracking_controller,
    classify,
    design_stabilizing_gain,
    load_kernel_plan,
    load_utility_spec,
    run_offline,
    save_kernel_plan,
    save_utility_spec,
    simulate_mode,
    solve_regulator_equations,
    solve_utility_invariance,
    vehicle_demo_bank,
)
from behaviorcloak import invariance, modes
from behaviorcloak.linalg import lstsq_min_norm, nullspace_basis, pseudoinverse


def kernel_projector(F):
    return np.eye(F.shape[1]) - pseudoinverse(F) @ F


def relative_gap(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def rescaled_mode(mode, radius):
    """The mode with its state matrix scaled to spectral radius ``radius``."""
    rho = np.max(np.abs(np.linalg.eigvals(mode.A)))
    return StateSpaceMode(mode.mode_id, mode.A * (radius / rho), mode.B, mode.C)


def close_poles_mode():
    """Close poles seen through ``C = [1 1]``: the equilibrated Gramian is
    ill-conditioned, so the fit takes its refining step."""
    return StateSpaceMode(1, np.diag([0.9, 0.899]), [[1.0], [1.0]], [[1.0, 1.0]])


def unreachable_kernel_spec(rng, mode, K):
    """Utility whose kernel is spanned by one vector outside the behaviour."""
    ops = build_lifted_operators(mode, K)
    M = np.hstack([ops.Ot, ops.Tt])
    while True:
        v = rng.standard_normal(K * mode.m)
        _, distance = lstsq_min_norm(M, v)
        if distance > 0.1:
            break
    F = nullspace_basis(v.reshape(1, -1)).T
    return UtilitySpec(F=F, mu=np.zeros(F.shape[0]), K=K)


class TestUtilitySpec:
    def test_average_shape_and_value(self):
        spec = UtilitySpec.average(4, m=1)
        np.testing.assert_allclose(spec.F, np.full((1, 4), 0.25))
        np.testing.assert_array_equal(spec.mu, [0.0])
        assert spec.utility(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx([2.5])

    def test_average_multichannel(self):
        spec = UtilitySpec.average(3, m=2)
        assert spec.F.shape == (2, 6)
        assert spec.q == 2 and spec.m == 2
        y = np.array([1.0, 10.0, 2.0, 20.0, 3.0, 30.0])
        np.testing.assert_allclose(spec.utility(y), [2.0, 20.0])

    def test_makes_no_rank_call(self, monkeypatch):
        # A trivial Ker[F] is found by the plan solver's projection, so the
        # spec needs no SVD of F, whatever its shape.
        rank_calls = []
        matrix_rank = np.linalg.matrix_rank

        def counted_rank(M, *args, **kwargs):
            rank_calls.append(M.shape)
            return matrix_rank(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted_rank)
        K, q = 36000, 600
        UtilitySpec(
            F=np.kron(np.eye(q), np.full((1, K // q), q / K)), mu=np.zeros(q), K=K
        )
        UtilitySpec(F=np.eye(4), mu=np.zeros(4), K=2)
        UtilitySpec(F=np.vstack([np.eye(4), np.ones((1, 4))]), mu=np.zeros(5), K=4)
        assert rank_calls == []

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            UtilitySpec(F=np.ones((1, 5)), mu=[0.0], K=2)
        with pytest.raises(ValueError):
            UtilitySpec(F=np.ones((2, 4)), mu=[0.0], K=2)
        with pytest.raises(ValueError):
            UtilitySpec(F=np.ones((1, 4)), mu=[0.0], K=1)


class TestBuildLiftedOperators:
    def test_scalar_mode_blocks(self):
        ops = build_lifted_operators(support.scalar_mode(0.8), 3)
        np.testing.assert_allclose(ops.Ot.ravel(), [1.0, 0.8, 0.64])
        np.testing.assert_allclose(ops.Tt, [[0.0, 0.0], [1.0, 0.0], [0.8, 1.0]])

    def test_minimal_horizon(self):
        rng = np.random.default_rng(30)
        mode = support.random_valid_mode(rng, n=2, m=2, l=1)
        ops = build_lifted_operators(mode, 2)
        np.testing.assert_array_equal(ops.Tt[: mode.m], np.zeros((mode.m, mode.l)))
        np.testing.assert_allclose(ops.Tt[mode.m :], mode.C @ mode.B)

    def test_first_block_is_output_matrix(self):
        rng = np.random.default_rng(31)
        for case in range(5):
            mode = support.random_valid_mode(rng, n=3, m=2, l=2)
            for K in (2, 5, 9):
                ops = build_lifted_operators(mode, K)
                np.testing.assert_array_equal(ops.Ot[: mode.m], mode.C)

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError):
            build_lifted_operators(support.scalar_mode(0.5), 0)

    def test_single_sample_horizon(self):
        # K = 1: Ot = C, no inputs; the fit is C's least-squares inverse.
        mode = support.random_valid_mode(np.random.default_rng(34), n=2, m=2, l=1)
        ops = build_lifted_operators(mode, 1)
        np.testing.assert_array_equal(ops.Ot, mode.C)
        x = np.array([0.3, -1.2])
        y = ops.apply(x, np.zeros((0, 1)))
        np.testing.assert_allclose(y, mode.C @ x, rtol=1e-15)
        x_fit, residual = ops.fit(y, np.zeros((0, 1)))
        np.testing.assert_allclose(x_fit, x, rtol=1e-12)
        assert residual <= 1e-14

    def test_fit_inverts_apply(self):
        rng = np.random.default_rng(35)
        for K in (2, invariance._BLOCK + 3, 200):
            mode = support.random_valid_mode(rng, n=3, m=2, l=2)
            ops = build_lifted_operators(mode, K)
            x = rng.standard_normal(3)
            U = rng.standard_normal((K - 1, 2))
            Y = ops.apply(x, U)
            x_fit, residual = ops.fit(Y.reshape(K, 2), U)
            assert relative_gap(x_fit, x) <= 1e-9
            assert residual <= 1e-12 * np.linalg.norm(Y)
            # A perturbation orthogonal to the range of Ot is the residual.
            _, away = ops.fit(Y + nullspace_basis(ops.Ot.T)[:, 0], U)
            assert abs(away - 1.0) <= 1e-9

    def test_blocks_match_matrix_power_oracle(self):
        rng = np.random.default_rng(32)
        mode = support.random_valid_mode(rng, n=3, m=2, l=2)
        K = 6
        ops = build_lifted_operators(mode, K)
        for i in range(K):
            np.testing.assert_allclose(
                ops.Ot[i * mode.m : (i + 1) * mode.m],
                mode.C @ np.linalg.matrix_power(mode.A, i),
                atol=1e-12,
            )
            for j in range(K - 1):
                block = ops.Tt[
                    i * mode.m : (i + 1) * mode.m, j * mode.l : (j + 1) * mode.l
                ]
                if j < i:
                    expected = (
                        mode.C
                        @ np.linalg.matrix_power(mode.A, i - j - 1)
                        @ mode.B
                    )
                else:
                    expected = np.zeros((mode.m, mode.l))
                np.testing.assert_allclose(block, expected, atol=1e-12)

    def test_apply_matches_dense_products(self):
        # Short horizons, then horizons on both sides of one block and across
        # several blocks, on MIMO modes rescaled to spectral radius 0.5-1.3.
        b = invariance._BLOCK
        rng = np.random.default_rng(33)
        horizons = [int(K) for K in rng.integers(2, 10, size=20)]
        horizons += [2, b - 1, b, b + 1, 3 * b + 2] * 8
        for K in horizons:
            m, l = (int(v) for v in rng.integers(1, 3, size=2))
            n = int(rng.integers(max(m, l), 4))
            mode = rescaled_mode(
                support.random_valid_mode(rng, n=n, m=m, l=l), rng.uniform(0.5, 1.3)
            )
            ops = build_lifted_operators(mode, K)
            dense = np.hstack([ops.Ot, ops.Tt])
            z = rng.standard_normal(dense.shape[1])
            w = rng.standard_normal(dense.shape[0])
            assert relative_gap(ops.apply(z[: mode.n], z[mode.n :]), dense @ z) <= 1e-12
            x_adj, u_adj = ops.apply_adjoint(w)
            assert relative_gap(np.concatenate([x_adj, u_adj]), dense.T @ w) <= 1e-12

    @pytest.mark.parametrize("mode_id", [1, 2], ids=["sports", "average"])
    def test_apply_agrees_with_simulation_at_paper_horizon(self, mode_id):
        mode = vehicle_demo_bank().mode(mode_id)
        K = 36000
        rng = np.random.default_rng(43)
        x = rng.standard_normal(mode.n)
        U = rng.uniform(-1.0, 1.0, size=(K - 1, mode.l))
        sim = simulate_mode(mode, x, U).stacked_outputs()
        assert relative_gap(build_lifted_operators(mode, K).apply(x, U), sim) <= 1e-13

    @pytest.mark.parametrize("m, l", [(1, 1), (2, 2)], ids=["vehicle", "mimo"])
    def test_stacked_adjoint_matches_rows(self, m, l):
        # A mean over each of 12 windows of 50 samples at K = 600: one
        # stacked call gives every row's adjoint pair, and F [Ot Tt].
        K, q = 600, 12
        if m == 1:
            mode = vehicle_demo_bank().mode(2)
        else:
            mode = support.random_valid_mode(np.random.default_rng(44), n=3, m=m, l=l)
        F = np.kron(np.eye(q), np.full((1, K * m // q), q / (K * m)))
        ops = build_lifted_operators(mode, K)
        x_adj, U_adj = ops.apply_adjoint(F)
        assert x_adj.shape == (q, mode.n) and U_adj.shape == (q, (K - 1) * l)
        for row, x_row, U_row in zip(F, x_adj, U_adj):
            x_one, U_one = ops.apply_adjoint(row)
            assert relative_gap(x_row, x_one) <= 1e-12
            assert relative_gap(U_row, U_one) <= 1e-12
        dense = F @ np.hstack([ops.Ot, ops.Tt])
        assert relative_gap(np.hstack([x_adj, U_adj]), dense) <= 1e-12

    def test_apply_agrees_with_simulation(self):
        rng = np.random.default_rng(34)
        mode = support.random_valid_mode(rng, n=3, m=2, l=2)
        K = 15
        ops = build_lifted_operators(mode, K)
        x = rng.standard_normal(mode.n)
        U = rng.standard_normal((K - 1, mode.l))
        sim = simulate_mode(mode, x, U)
        np.testing.assert_allclose(
            ops.apply(x, U), sim.stacked_outputs(), rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize(
        "make_mode, K",
        [
            (lambda: vehicle_demo_bank().mode(2), 36000),
            (
                lambda: support.random_valid_mode(
                    np.random.default_rng(41), n=3, m=2, l=2
                ),
                1001,
            ),
        ],
        ids=["average_car_hour", "mimo_odd_horizon"],
    )
    def test_adjoint_identity(self, make_mode, K):
        # <M z, w> = <z, M' w> with M = [Ot Tt], at the paper horizon and
        # on a MIMO mode at a horizon that is not a power of two.
        mode = make_mode()
        ops = build_lifted_operators(mode, K)
        rng = np.random.default_rng(42)
        x = rng.standard_normal(mode.n)
        U = rng.standard_normal((K - 1) * mode.l)
        w = rng.standard_normal(K * mode.m)
        Mz = ops.apply(x, U)
        x_adj, U_adj = ops.apply_adjoint(w)
        gap = abs(Mz @ w - (x @ x_adj + U @ U_adj))
        assert gap <= 1e-12 * np.linalg.norm(Mz) * np.linalg.norm(w)

    @pytest.mark.parametrize(
        "make_mode, K",
        [
            (lambda: vehicle_demo_bank().mode(1), 36000),
            (lambda: vehicle_demo_bank().mode(2), 36000),
            (support.double_integrator, 4097),
        ],
        ids=["sports", "average", "double_integrator"],
    )
    def test_doubling_matches_iterated_oracle(self, make_mode, K):
        # All three modes have eigenvalues at 1, so A^s does not decay.  The
        # double integrator's blocks grow linearly, and so does the
        # oracle's own rounding error, hence its shorter horizon.
        mode = make_mode()
        ops = build_lifted_operators(mode, K)
        Ot = support.iterated_observability(mode, K)
        assert np.linalg.norm(ops.Ot - Ot) <= 1e-12 * np.linalg.norm(Ot)

    def test_whole_horizon_arrays_wait_for_a_fit(self):
        # A plan and a fit at the one-hour horizon solve through n x n and
        # q x q Grams: neither forms Ot or Tt, and the operator keeps no
        # arrays of its own.
        ops = build_lifted_operators(vehicle_demo_bank().mode(2), 36000)
        plan = solve_utility_invariance(ops, UtilitySpec.average(36000), seed=3)
        assert "Ot" not in vars(ops) and "Tt" not in vars(ops)
        _, residual = ops.fit(plan.delta_Y, plan.U2)
        assert set(vars(ops)) == {"mode", "K"}
        assert residual <= 1e-9


class TestGramFit:
    """``LiftedOperators.fit`` solves through the n x n observability Gramian;
    the dense ``support.dense_fit`` (SVD-based ``lstsq`` on ``Ot``) is the
    reference."""

    @pytest.mark.parametrize("K", [2, 500, 36000])
    @pytest.mark.parametrize("mode_id", [1, 2], ids=["sports", "average"])
    def test_unobservable_vehicles_match_oracle(self, mode_id, K):
        # Position and velocity are unobservable: two columns of Ot are zero.
        bank = vehicle_demo_bank()
        rng = np.random.default_rng(46)
        drive = simulate_mode(
            bank.mode(1), rng.standard_normal(3), rng.uniform(-1.0, 1.0, (K - 1, 1))
        )
        ops = build_lifted_operators(bank.mode(mode_id), K)
        Y = drive.stacked_outputs()
        # The small misfit would drown in the normal equations' cancellation.
        for data in (Y, Y + 1e-10 * rng.standard_normal(K), Y + rng.standard_normal(K)):
            _, residual = ops.fit(data, drive.U)
            _, expected = support.dense_fit(ops, data, drive.U)
            assert abs(residual - expected) <= 1e-12 * np.linalg.norm(data)

    def test_random_observable_modes_match_oracle(self):
        rng = np.random.default_rng(47)
        for case in range(60):
            m, l = (int(v) for v in rng.integers(1, 3, size=2))
            mode = support.random_valid_mode(rng, n=3, m=m, l=l)
            for K in (3, 40, 700):
                ops = build_lifted_operators(mode, K)
                U = rng.standard_normal((K - 1, l))
                Y = ops.apply(rng.standard_normal(3), U)
                for data in (Y, Y + 0.1 * rng.standard_normal(K * m)):
                    x, residual = ops.fit(data, U)
                    x_ref, expected = support.dense_fit(ops, data, U)
                    assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
                    assert abs(residual - expected) <= 1e-12 * np.linalg.norm(data)

    def test_double_integrator_paper_horizon(self):
        # The position column of Ot grows linearly, the other is constant.
        mode = support.double_integrator()
        K = 36000
        rng = np.random.default_rng(48)
        ops = build_lifted_operators(mode, K)
        U = rng.uniform(-1.0, 1.0, (K - 1, 1))
        x0 = np.array([1.0, -0.5])
        Y = ops.apply(x0, U)
        for data in (Y, Y + rng.standard_normal(K)):
            x, residual = ops.fit(data, U)
            x_ref, expected = support.dense_fit(ops, data, U)
            assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
            assert abs(residual - expected) <= 1e-12 * np.linalg.norm(data)
        assert relative_gap(ops.fit(Y, U)[0], x0) <= 1e-9

    @pytest.mark.parametrize("K", [200, 1000, 2000])
    def test_unstable_pair_matches_oracle(self, K):
        # Ot's columns grow as 1.05^k and decay as 0.7^k (0.5^k).
        source, target = support.unstable_pair()
        rng = np.random.default_rng(49)
        U = rng.uniform(-1.0, 1.0, (K - 1, 1))
        Y = simulate_mode(target, [1e-3 * 1.05 ** -K, 1.0], U).stacked_outputs()
        for mode in (source, target):
            ops = build_lifted_operators(mode, K)
            x, residual = ops.fit(Y, U)
            x_ref, expected = support.dense_fit(ops, Y, U)
            assert abs(residual - expected) <= 1e-12 * np.linalg.norm(Y)
            if mode is target:
                assert residual <= 1e-12 * np.linalg.norm(Y)
                assert relative_gap(x, x_ref) <= 1e-9

    @pytest.mark.parametrize(
        "case, K, steps",
        [("observable", 40, 1), ("ill_conditioned", 40, 2), ("ill_conditioned", 500, 2),
         ("more_outputs", 300, 1)],
    )
    def test_fit_matches_dense_oracle(self, case, K, steps):
        # One forward recursion, then folds and free responses: one step,
        # a refining second (one step alone is 6e-12 to 1.3e-11 off in x
        # on the ill-conditioned mode), and m > l.
        rng = np.random.default_rng(53)
        if case == "ill_conditioned":
            mode = close_poles_mode()
        else:
            mode = support.random_valid_mode(rng, n=3, m=2 if case == "more_outputs" else 1)
        assert mode._gram_factor(K)[2] == steps
        ops = build_lifted_operators(mode, K)
        U = rng.standard_normal((K - 1, mode.l))
        Y = ops.apply(rng.standard_normal(mode.n), U)
        noise = rng.standard_normal(K * mode.m)
        for data in (Y, Y + 1e-10 * noise, Y + noise):
            x, residual = ops.fit(data, U)
            x_ref, expected = support.dense_fit(ops, data, U)
            assert np.linalg.norm(x - x_ref) <= 2e-12 * np.linalg.norm(x_ref)
            assert abs(residual - expected) <= 1e-12 * np.linalg.norm(data)

    def test_fit_validates_shapes(self):
        ops = build_lifted_operators(vehicle_demo_bank().mode(2), 50)
        expected = r"mode 2 at K = 50 expects 50 outputs and \(49, 1\) inputs"
        with pytest.raises(ValueError, match=expected):
            ops.fit(np.ones(1), np.zeros((49, 1)))
        with pytest.raises(ValueError, match=expected):
            ops.fit(np.ones(50), np.zeros((48, 1)))
        with pytest.raises(ValueError, match=expected):
            ops.fit(np.ones(50), np.zeros((49, 2)))

    def test_factor_is_cached_on_the_mode(self):
        mode = support.random_valid_mode(np.random.default_rng(50), n=3)
        build_lifted_operators(mode, 50).fit(np.ones(50), np.zeros((49, 1)))
        factor = mode._gram_factors[50]
        assert list(mode._gram_factors) == [50] and factor[1].shape == (3, 3)
        ops = build_lifted_operators(mode, 50)
        ops.fit(np.zeros(50), np.ones((49, 1)))
        assert mode._gram_factor(50) is factor and set(vars(ops)) == {"mode", "K"}

    def test_overflowing_gramian_is_loud(self):
        # 1.05^(2K) overflows the Gramian at K = 20000: a ValueError that
        # names the mode and the horizon, not a nan residual or a warning.
        source, target = support.unstable_pair()
        K = 20000
        rng = np.random.default_rng(51)
        traj = Trajectory(U=rng.uniform(-1.0, 1.0, (K - 1, 1)), Y=rng.standard_normal(K))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode 1 at K = 20000"):
                classify(ModeBank((source, target)), traj)
            with pytest.raises(ValueError, match="mode 2 at K = 20000"):
                solve_utility_invariance(
                    build_lifted_operators(target, K), UtilitySpec.average(K)
                )


def test_hour_design_and_classify_make_no_large_svd(monkeypatch):
    # Every whole-horizon solve runs through an n x n or q x q Gram; an SVD,
    # lstsq or pinv with a whole-horizon operand fails here.
    def small_only(name, fn):
        def guarded(*args, **kwargs):
            sizes = [np.size(a) for a in args if isinstance(a, np.ndarray)]
            if max(sizes, default=0) > 4096:
                raise AssertionError(f"numpy.linalg.{name} on {sizes} entries")
            return fn(*args, **kwargs)

        return guarded

    for name in ("svd", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, small_only(name, getattr(np.linalg, name)))
    bank = vehicle_demo_bank()
    sports, average = bank.mode(1), bank.mode(2)
    K = 36000
    rng = np.random.default_rng(52)
    traj = simulate_mode(sports, rng.standard_normal(3), rng.uniform(-1.0, 1.0, (K - 1, 1)))
    ctrl = build_tracking_controller(
        solve_regulator_equations(sports, average), design_stabilizing_gain(average), average
    )
    spec = UtilitySpec.average(K)
    plan = solve_utility_invariance(build_lifted_operators(average, K), spec, seed=9)
    assert plan.residual <= 1e-12
    cloaked = run_offline(DistortionConfig(sports, average, ctrl, plan, K), traj)
    assert classify(bank, traj).verdict == 1
    assert classify(bank, cloaked.to_trajectory()).verdict == 2


def test_hour_session_makes_no_fft(monkeypatch):
    # The lifted operators have one path; an FFT route that comes back
    # fails here.
    def no_fft(*args, **kwargs):
        raise AssertionError("numpy.fft called")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_fft)
    bank = vehicle_demo_bank()
    K = 36000
    rng = np.random.default_rng(45)
    sports = bank.mode(1)
    U = rng.uniform(-1.0, 1.0, size=(K - 1, sports.l))
    traj = simulate_mode(sports, rng.standard_normal(sports.n), U)
    assert classify(bank, traj).verdict == 1
    spec = UtilitySpec.average(K)
    plan = solve_utility_invariance(build_lifted_operators(bank.mode(2), K), spec)
    assert plan.residual <= 1e-12


def count_recursions(monkeypatch):
    """Call counts of ``apply``, ``apply_adjoint`` and the block scan."""
    counts = {"apply": 0, "apply_adjoint": 0, "scan": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    ops_class = behaviorcloak.LiftedOperators
    for name in ("apply", "apply_adjoint"):
        monkeypatch.setattr(ops_class, name, counted(name, getattr(ops_class, name)))
    for module in (modes, invariance):
        monkeypatch.setattr(module, "_scan", counted("scan", module._scan))
    return counts


def test_fit_runs_one_forward_recursion(monkeypatch):
    # The forced response is the only scan; the costates fold and the free
    # response doubles, with the refining step too.
    mode = close_poles_mode()
    K = 500
    assert mode._gram_factor(K)[2] == 2
    U = np.random.default_rng(54).standard_normal((K - 1, 1))
    Y = simulate_mode(mode, [1.0, -1.0], U).stacked_outputs()
    counts = count_recursions(monkeypatch)
    build_lifted_operators(mode, K).fit(Y, U)
    assert counts == {"apply": 1, "apply_adjoint": 0, "scan": 1}


def test_hour_session_recursion_counts(monkeypatch):
    # As the benchmark's hour session: one plan, one replay and two classifies
    # make five forward recursions and one adjoint.
    bank = vehicle_demo_bank()
    sports, average = bank.mode(1), bank.mode(2)
    K = 36000
    rng = np.random.default_rng(55)
    traj = simulate_mode(sports, rng.standard_normal(3), rng.uniform(-1.0, 1.0, (K - 1, 1)))
    ctrl = solve_regulator_equations(sports, average)
    counts = count_recursions(monkeypatch)
    plan = solve_utility_invariance(build_lifted_operators(average, K), UtilitySpec.average(K))
    cloaked = run_offline(DistortionConfig(sports, average, ctrl, plan, K), traj)
    assert classify(bank, traj).verdict == 1
    assert classify(bank, cloaked.to_trajectory()).verdict == 2
    assert counts == {"apply": 5, "apply_adjoint": 1, "scan": 6}


def traced_peak(call) -> float:
    """tracemalloc peak of ``call()`` above what was allocated before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# Each record built around one of its arrays: (build, field, value, message of a nan).
RECORDS = {
    "StateSpaceMode": (
        lambda a: StateSpaceMode(1, a, [[1.0], [0.0]], [[1.0, 0.0]]),
        "A", [[0.5, 0.1], [0.0, 0.2]], "A is not finite at row 2",
    ),
    "Trajectory": (
        lambda a: Trajectory(U=np.zeros((2, 1)), Y=a),
        "Y", [[1.0], [2.0], [3.0]], "trajectory Y is not finite at sample 3",
    ),
    "UtilitySpec": (
        lambda a: UtilitySpec(F=a, mu=[0.0], K=2),
        "F", [[0.5, 0.5]], "utility F is not finite at row 1",
    ),
    "KernelPlan": (
        lambda a: KernelPlan([0.0], a, np.zeros(3), 0.0, None, 1.0),
        "U2", [[1.0], [2.0]], "plan U2 is not finite at sample 2",
    ),
}


@pytest.mark.parametrize("record", RECORDS)
def test_records_own_their_arrays(record):
    # One rule for every record: keep a read-only array that owns its data,
    # copy anything else, refuse a non-finite entry by name, then freeze.
    build, name, value, message = RECORDS[record]
    value = np.array(value)
    mine = value.copy()
    kept = getattr(build(mine), name)
    mine += 1.0
    np.testing.assert_array_equal(kept, value)
    assert not kept.flags.writeable
    frozen = value.copy()
    frozen.setflags(write=False)
    assert getattr(build(frozen), name) is frozen
    view = value.copy()[:]
    view.setflags(write=False)
    assert view.base.flags.writeable
    assert not np.shares_memory(getattr(build(view), name), view)
    bad = value.copy()
    bad[-1, -1] = np.nan
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(bad)


def test_working_set_at_paper_horizon():
    # In arrays of K floats: a plan holds at most three and a half at once, two
    # of them the plan itself (it keeps the solver's U2 and copies only delta_Y,
    # a slice of apply's block buffer), and apply and fit two.  An hour session
    # keeps the plan and the cloak (four arrays) through classify, so one array
    # more in a fit grows the heap past glibc's trim threshold.
    K = 36000
    ops = build_lifted_operators(vehicle_demo_bank().mode(2), K)
    spec = UtilitySpec.average(K)
    plan = solve_utility_invariance(ops, spec, seed=1)  # caches the mode's pieces
    array = K * 8
    assert traced_peak(lambda: solve_utility_invariance(ops, spec, seed=2)) <= 3.5 * array
    assert traced_peak(lambda: ops.apply(np.zeros(3), plan.U2)) <= 2.5 * array
    assert traced_peak(lambda: ops.fit(plan.delta_Y, plan.U2)) <= 2.5 * array


def test_import_loads_no_scipy_module():
    src = str(Path(behaviorcloak.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, behaviorcloak; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "[]"


class TestKernelProjector:
    """``I - F^+ F`` from ``pseudoinverse``: the projector onto Ker[F] whose
    complement the plan's ``residual`` measures."""

    def test_two_sample_average(self):
        spec = UtilitySpec(F=[[0.5, 0.5]], mu=[0.0], K=2)
        np.testing.assert_allclose(
            kernel_projector(spec.F), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12
        )

    def test_invertible_utility_gives_zero(self):
        spec = UtilitySpec(F=np.array([[1.0, 2.0], [3.0, 4.0]]), mu=[0.0, 0.0], K=2)
        np.testing.assert_allclose(kernel_projector(spec.F), np.zeros((2, 2)), atol=1e-12)

    def test_averaging_row(self):
        K = 6
        spec = UtilitySpec.average(K, 1)
        P = kernel_projector(spec.F)
        np.testing.assert_allclose(P, np.eye(K) - np.ones((K, K)) / K, atol=1e-12)
        np.testing.assert_allclose(P @ np.ones(K), 0.0, atol=1e-12)

    def test_symmetric_idempotent_annihilated(self):
        rng = np.random.default_rng(35)
        F = rng.standard_normal((2, 8))
        spec = UtilitySpec(F=F, mu=np.zeros(2), K=4)
        P = kernel_projector(spec.F)
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)
        assert np.max(np.abs(F @ P)) <= 1e-12 * max(1.0, np.linalg.norm(F))


class TestSolveUtilityInvariance:
    def test_zero_magnitude_zero_plan(self):
        ops = build_lifted_operators(support.scalar_mode(0.8), 3)
        plan = solve_utility_invariance(ops, UtilitySpec.average(3), magnitude=0.0)
        np.testing.assert_array_equal(plan.x2_init, [0.0])
        np.testing.assert_array_equal(plan.U2, np.zeros((2, 1)))
        np.testing.assert_array_equal(plan.delta_Y, np.zeros(3))
        assert plan.residual == 0.0

    def test_scalar_average_example(self):
        # Hand recursion: x = 1, U = (0, -2.44) gives outputs (1, 0.8, -1.8)
        # summing to zero; the solver's own plan must also land in the
        # kernel and reproduce its response by simulation.
        mode = support.scalar_mode(0.8)
        hand = simulate_mode(mode, [1.0], [[0.0], [-2.44]])
        np.testing.assert_allclose(hand.stacked_outputs(), [1.0, 0.8, -1.8], atol=1e-12)
        assert hand.stacked_outputs().sum() == pytest.approx(0.0, abs=1e-12)

        ops = build_lifted_operators(mode, 3)
        plan = solve_utility_invariance(ops, UtilitySpec.average(3), magnitude=1.0, seed=7)
        assert abs(plan.delta_Y.sum()) <= 1e-9
        assert plan.residual <= 1e-9
        sim = simulate_mode(mode, plan.x2_init, plan.U2)
        np.testing.assert_allclose(
            sim.stacked_outputs(), plan.delta_Y, rtol=1e-9, atol=1e-12
        )

    def test_trivial_kernel_raises(self):
        ops = build_lifted_operators(support.scalar_mode(0.8), 2)
        spec = UtilitySpec(F=np.eye(2), mu=np.zeros(2), K=2)
        with pytest.raises(InvarianceInfeasibleError):
            solve_utility_invariance(ops, spec, magnitude=1.0)
        # ... but the zero plan is still fine.
        plan = solve_utility_invariance(ops, spec, magnitude=0.0)
        assert plan.magnitude == 0.0

    @pytest.mark.parametrize(
        "K, F",
        [
            (2, np.eye(2)),
            (200, np.eye(200)),
            (200, np.vstack([np.eye(200), np.ones((1, 200))])),
        ],
        ids=["identity-2", "identity-200", "tall-200"],
    )
    def test_trivial_kernels_are_refused(self, K, F):
        # The projected response is rounding: the projection refuses it.
        ops = build_lifted_operators(vehicle_demo_bank().mode(2), K)
        spec = UtilitySpec(F=F, mu=np.zeros(len(F)), K=K)
        with pytest.raises(InvarianceInfeasibleError):
            solve_utility_invariance(ops, spec, magnitude=1.0, seed=0)

    def test_cancelling_parts_are_refused(self, monkeypatch):
        # The free response cancels the forced one but for an alternating
        # +-2^-40, a Ker[F] vector about 1e-12 of their size.  The forced
        # response is rounded to multiples of 2^-10, so the sum is exact and its
        # miss is exactly zero: only the comparison with the parts, taken before
        # the in-place sum, refuses it.
        K = 500
        ops = build_lifted_operators(vehicle_demo_bank().mode(2), K)
        spec = UtilitySpec.average(K)
        kernel = np.ldexp(np.resize([1.0, -1.0], K), -40)
        forced = []
        apply = behaviorcloak.LiftedOperators.apply

        def rounded(ops, x, U):
            forced.append(np.round(apply(ops, x, U) * 1024.0) / 1024.0)
            return forced[-1].copy()

        def cancelling(pieces_t, x, K):
            return kernel - forced[-1]

        monkeypatch.setattr(behaviorcloak.LiftedOperators, "apply", rounded)
        monkeypatch.setattr(invariance, "_free_response", cancelling)
        with pytest.raises(InvarianceInfeasibleError):
            solve_utility_invariance(ops, spec, seed=4)
        assert np.linalg.norm(forced[-1]) > 1.0
        np.testing.assert_array_equal(forced[-1] + cancelling(None, None, K), kernel)
        assert spec.F @ kernel == 0.0

    def test_rank_deficient_square_utility_gets_a_plan(self):
        K = 200
        F = np.random.default_rng(22).standard_normal((K, K))
        F[-1] = F[0] + F[1]
        ops = build_lifted_operators(vehicle_demo_bank().mode(2), K)
        spec = UtilitySpec(F=F, mu=np.zeros(K), K=K)
        plan = solve_utility_invariance(ops, spec, magnitude=1.0, seed=0)
        assert abs(np.linalg.norm(plan.delta_Y) - 1.0) <= 1e-12
        assert np.linalg.norm(F @ plan.delta_Y) <= 1e-9

    def test_unreachable_kernel_raises(self):
        rng = np.random.default_rng(21)
        mode = support.random_valid_mode(rng, n=2, m=2, l=1)
        spec = unreachable_kernel_spec(rng, mode, K=5)
        ops = build_lifted_operators(mode, 5)
        with pytest.raises(InvarianceInfeasibleError):
            solve_utility_invariance(ops, spec, magnitude=1.0, seed=1)

    @pytest.mark.parametrize("K", [500, 1000, 2000])
    def test_unstable_target_long_horizon(self, K):
        # The unstable pole is unreachable, so a random draw's response grows
        # as 1.05^K; the balanced draw keeps the plan's parts of order one.
        _, target = support.unstable_pair()
        spec = UtilitySpec.average(K)
        plan = solve_utility_invariance(
            build_lifted_operators(target, K), spec, magnitude=1.0, seed=0
        )
        assert abs(np.linalg.norm(plan.delta_Y) - 1.0) <= 1e-12
        assert abs(spec.F @ plan.delta_Y)[0] <= 1e-8
        sim = simulate_mode(target, plan.x2_init, plan.U2).stacked_outputs()
        assert relative_gap(sim, plan.delta_Y) <= 1e-9

    def test_unobservable_target_unreachable_kernel_raises(self):
        # Ker[F M] = Ker M holds only the unobservable start state, so the
        # projected response is rounding on both its free and forced parts.
        target = StateSpaceMode(
            2, np.diag([0.5, 0.8, 0.9]), [[1.0], [1.0], [1.0]], [[1, 0, 0], [0, 1, 0]]
        )
        rng = np.random.default_rng(22)
        for K in (5, 20):
            spec = unreachable_kernel_spec(rng, target, K)
            ops = build_lifted_operators(target, K)
            with pytest.raises(InvarianceInfeasibleError):
                solve_utility_invariance(ops, spec, magnitude=1.0, seed=0)

    def test_windowed_utility(self):
        # Means over 100 windows of 60 samples: a 100 x 100 Gram projection.
        K, q = 6000, 100
        F = np.kron(np.eye(q), np.full((1, K // q), q / K))
        spec = UtilitySpec(F=F, mu=np.zeros(q), K=K)
        ops = build_lifted_operators(vehicle_demo_bank().mode(2), K)
        plan = solve_utility_invariance(ops, spec, magnitude=1.0, seed=5)
        norm = np.linalg.norm(plan.delta_Y)
        assert abs(norm - 1.0) <= 1e-12
        assert plan.residual <= 1e-12 * norm
        assert np.linalg.norm(pseudoinverse(F) @ (F @ plan.delta_Y)) <= 1e-12 * norm
        sim = simulate_mode(ops.mode, plan.x2_init, plan.U2).stacked_outputs()
        assert relative_gap(sim, plan.delta_Y) <= 1e-9

    def test_plan_keeps_the_arrays_the_solver_froze(self):
        ops = build_lifted_operators(vehicle_demo_bank().mode(2), 300)
        plan = solve_utility_invariance(ops, UtilitySpec.average(300), seed=2)
        assert all(not a.flags.writeable for a in (plan.x2_init, plan.U2, plan.delta_Y))
        assert plan.U2.flags.owndata and dataclasses.replace(plan).U2 is plan.U2

    def test_rejects_non_finite_magnitude(self):
        ops = build_lifted_operators(support.scalar_mode(0.8), 4)
        for magnitude in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="magnitude"):
                solve_utility_invariance(ops, UtilitySpec.average(4), magnitude=magnitude)

    def test_plan_invariants_random_cases(self):
        rng = np.random.default_rng(36)
        for case in range(20):
            l = int(rng.integers(1, 3))
            mode = support.random_valid_mode(
                rng, n=int(rng.integers(l, 4)), m=1, l=l
            )
            K = int(rng.integers(3, 12))
            q = int(rng.integers(1, 3))
            F = rng.standard_normal((q, K))
            spec = UtilitySpec(F=F, mu=rng.standard_normal(q), K=K)
            ops = build_lifted_operators(mode, K)
            plan = solve_utility_invariance(ops, spec, magnitude=1.0, seed=case)
            delta = plan.delta_Y
            assert np.linalg.norm(F @ delta) <= 1e-9 * (
                1.0 + np.linalg.norm(F) * np.linalg.norm(delta)
            )
            assert np.linalg.norm(delta) == pytest.approx(1.0, abs=1e-8)
            sim = simulate_mode(mode, plan.x2_init, plan.U2)
            np.testing.assert_allclose(
                sim.stacked_outputs(), delta, rtol=1e-9, atol=1e-11
            )
            # Utility is unchanged by adding the plan's response.
            y = rng.standard_normal(K)
            np.testing.assert_allclose(
                spec.utility(y + delta), spec.utility(y), atol=1e-9
            )

    def test_scaling_closure(self):
        mode = support.scalar_mode(0.7)
        K = 8
        spec = UtilitySpec.average(K)
        ops = build_lifted_operators(mode, K)
        plan = solve_utility_invariance(ops, spec, magnitude=1.0, seed=2)
        doubled = simulate_mode(mode, 2.0 * plan.x2_init, 2.0 * plan.U2)
        np.testing.assert_allclose(
            doubled.stacked_outputs(), 2.0 * plan.delta_Y, rtol=1e-9, atol=1e-12
        )
        assert abs(spec.F @ doubled.stacked_outputs()) <= 1e-9

    def test_structured_plan_lies_in_dense_nullspace(self):
        rng = np.random.default_rng(37)
        for case in range(10):
            l = int(rng.integers(1, 3))
            mode = support.random_valid_mode(
                rng, n=int(rng.integers(l, 4)), m=1, l=l
            )
            K = int(rng.integers(3, 9))
            F = rng.standard_normal((int(rng.integers(1, 3)), K))
            spec = UtilitySpec(F=F, mu=np.zeros(F.shape[0]), K=K)
            ops = build_lifted_operators(mode, K)
            plan = solve_utility_invariance(ops, spec, magnitude=1.0, seed=case)
            P_row = np.linalg.pinv(spec.F) @ spec.F
            stacked = np.hstack([ops.Ot, ops.Tt, P_row - np.eye(K)])
            basis = nullspace_basis(stacked)
            v = np.concatenate([plan.x2_init, plan.U2.reshape(-1), plan.delta_Y])
            v = v / np.linalg.norm(v)
            assert np.linalg.norm(v - basis @ (basis.T @ v)) <= 1e-8

    def test_dense_path_matches_contract(self):
        # The dense nullspace oracle and the solver meet the same contract
        # on the same problem.
        rng = np.random.default_rng(38)
        mode = support.random_valid_mode(rng, n=2, m=1, l=1)
        K = 6
        spec = UtilitySpec.average(K)
        ops = build_lifted_operators(mode, K)
        for plan in (
            support.dense_kernel_plan(ops, spec, magnitude=2.0, seed=5),
            solve_utility_invariance(ops, spec, magnitude=2.0, seed=5),
        ):
            assert np.linalg.norm(plan.delta_Y) == pytest.approx(2.0, abs=1e-9)
            assert abs(spec.F @ plan.delta_Y) <= 1e-9
            assert plan.residual <= 1e-9
            sim = simulate_mode(mode, plan.x2_init, plan.U2)
            np.testing.assert_allclose(
                sim.stacked_outputs(), plan.delta_Y, rtol=1e-9, atol=1e-11
            )

    @pytest.mark.parametrize("K", [20, 2000])
    def test_more_outputs_than_inputs(self, K):
        # With m > l the target behaviour is a proper subspace of the
        # output space, so a random element of Ker[F] is almost never
        # reachable; a plan must still be found.
        rng = np.random.default_rng(40)
        mode = support.random_valid_mode(rng, n=3, m=2, l=1)
        spec = UtilitySpec.average(K, m=2)
        ops = build_lifted_operators(mode, K)
        magnitude = 1.0
        plan = solve_utility_invariance(ops, spec, magnitude=magnitude, seed=4)
        assert np.linalg.norm(spec.F @ plan.delta_Y) <= 1e-9 * (1.0 + magnitude)
        assert np.linalg.norm(plan.delta_Y) == pytest.approx(magnitude, abs=1e-9)
        sim = simulate_mode(mode, plan.x2_init, plan.U2)
        np.testing.assert_allclose(
            sim.stacked_outputs(), plan.delta_Y, rtol=1e-9, atol=1e-11
        )

    def test_mismatched_spec_rejected(self):
        ops = build_lifted_operators(support.scalar_mode(0.8), 3)
        with pytest.raises(ValueError):
            solve_utility_invariance(ops, UtilitySpec.average(4))

    def test_utility_rows_take_one_adjoint_call(self, monkeypatch):
        calls = []
        apply_adjoint = behaviorcloak.LiftedOperators.apply_adjoint

        def counted(ops, w):
            calls.append(np.shape(w))
            return apply_adjoint(ops, w)

        monkeypatch.setattr(behaviorcloak.LiftedOperators, "apply_adjoint", counted)
        K, q = 600, 12
        spec = UtilitySpec(
            F=np.kron(np.eye(q), np.full((1, K // q), q / K)), mu=np.zeros(q), K=K
        )
        ops = build_lifted_operators(vehicle_demo_bank().mode(2), K)
        plan = solve_utility_invariance(ops, spec, seed=6)
        assert calls == [(q, K)]
        assert np.linalg.norm(spec.F @ plan.delta_Y) <= 1e-12

    def test_large_magnitudes_on_vehicle_pair(self):
        # The stacked feasibility operator has full row rank here, so plans
        # of arbitrary size must exist.
        average_car = vehicle_demo_bank().mode(2)
        K = 200
        spec = UtilitySpec.average(K)
        ops = build_lifted_operators(average_car, K)
        for magnitude in (1.0, 1e3, 1e6):
            plan = solve_utility_invariance(ops, spec, magnitude=magnitude, seed=3)
            assert np.linalg.norm(plan.delta_Y) == pytest.approx(
                magnitude, rel=1e-9
            )
            assert abs(spec.F @ plan.delta_Y) <= 1e-9 * (1.0 + magnitude)


class TestFileFormats:
    def test_utility_spec_roundtrip(self, tmp_path):
        rng = np.random.default_rng(39)
        spec = UtilitySpec(
            F=rng.standard_normal((2, 6)), mu=rng.standard_normal(2), K=3
        )
        path = tmp_path / "utility.json"
        save_utility_spec(spec, path)
        loaded = load_utility_spec(path)
        np.testing.assert_array_equal(loaded.F, spec.F)
        np.testing.assert_array_equal(loaded.mu, spec.mu)
        assert loaded.K == spec.K

    def test_average_shorthand(self, tmp_path):
        path = tmp_path / "utility.json"
        path.write_text('{"kind": "average", "K": 5, "m": 2}')
        loaded = load_utility_spec(path)
        np.testing.assert_array_equal(loaded.F, UtilitySpec.average(5, 2).F)

    def test_rejects_inconsistent_q(self, tmp_path):
        path = tmp_path / "utility.json"
        path.write_text('{"K": 2, "q": 2, "F": [[1.0, 0.0, 0.0, 0.0]], "mu": [0.0]}')
        with pytest.raises(ValueError):
            load_utility_spec(path)

    def test_plan_roundtrip_rebuilds_response(self, tmp_path):
        mode = support.scalar_mode(0.8)
        ops = build_lifted_operators(mode, 5)
        spec = UtilitySpec.average(5)
        plan = solve_utility_invariance(ops, spec, magnitude=1.0, seed=8)
        path = tmp_path / "plan.json"
        save_kernel_plan(plan, path)
        loaded = load_kernel_plan(path, mode)
        np.testing.assert_array_equal(loaded.x2_init, plan.x2_init)
        np.testing.assert_array_equal(loaded.U2, plan.U2)
        np.testing.assert_allclose(loaded.delta_Y, plan.delta_Y, rtol=1e-9, atol=1e-12)
        assert loaded.seed == plan.seed
        assert loaded.magnitude == plan.magnitude

    def test_plan_and_spec_bytes_match_streaming_encoder(self, tmp_path):
        average = vehicle_demo_bank().mode(2)
        K = 3000
        spec = UtilitySpec.average(K)
        plan = solve_utility_invariance(build_lifted_operators(average, K), spec, seed=4)
        plan_doc = {
            "x2_init": plan.x2_init.tolist(),
            "U2": plan.U2.tolist(),
            "seed": plan.seed,
            "magnitude": plan.magnitude,
        }
        spec_doc = {"K": spec.K, "q": spec.q, "F": spec.F.tolist(), "mu": spec.mu.tolist()}
        cases = ((save_kernel_plan, plan, plan_doc), (save_utility_spec, spec, spec_doc))
        for save, obj, doc in cases:
            ours, oracle = tmp_path / "ours.json", tmp_path / "oracle.json"
            save(obj, ours)
            support.json_dump_file(doc, oracle)
            assert ours.read_bytes() == oracle.read_bytes()

    def test_plan_for_another_mode_rejected(self, tmp_path):
        ops = build_lifted_operators(support.scalar_mode(0.8), 5)
        plan = solve_utility_invariance(ops, UtilitySpec.average(5), seed=8)
        path = tmp_path / "plan.json"
        save_kernel_plan(plan, path)
        with pytest.raises(ValueError):
            load_kernel_plan(path, support.double_integrator())

    def test_non_finite_plan_rejected(self, tmp_path):
        mode = support.scalar_mode(0.8)
        path = tmp_path / "plan.json"
        path.write_text('{"x2_init": [NaN], "U2": [[0.0]], "seed": 0, "magnitude": 1.0}')
        with pytest.raises(ValueError, match="finite"):
            load_kernel_plan(path, mode)
        with pytest.raises(ValueError, match="finite"):
            KernelPlan(
                x2_init=[0.0], U2=[[np.inf], [0.0]], delta_Y=np.zeros(3),
                residual=0.0, seed=None, magnitude=1.0,
            )

    def test_zero_plan_constructor(self):
        plan = KernelPlan.zero(n=2, K=4, m=1, l=3)
        assert plan.K == 4
        assert plan.U2.shape == (3, 3)
        np.testing.assert_array_equal(plan.delta_Y, np.zeros(4))

    def test_vector_inputs_are_one_column(self):
        # As a trajectory's U: K - 1 samples of one input, not one sample of K - 1.
        plan = KernelPlan([0.0], [1.0, 2.0], np.zeros(3), 0.0, None, 1.0)
        assert plan.U2.shape == (2, 1) and plan.K == 3
