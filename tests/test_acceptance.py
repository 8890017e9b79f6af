"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and
prints one PASS/FAIL line (visible with ``pytest -s``).  Criteria 4-6
share the seeded 500-sample vehicle scenario; criterion 8 repeats them
at the full one-hour horizon.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import support
from behaviorcloak import (
    DistortionConfig,
    KernelPlan,
    UtilitySpec,
    build_lifted_operators,
    build_tracking_controller,
    classify,
    cloak,
    design,
    design_stabilizing_gain,
    longitudinal_vehicle_mode,
    nullspace_basis,
    run_offline,
    simulate_mode,
    solve_regulator_equations,
    solve_utility_invariance,
    vehicle_demo_bank,
)
from behaviorcloak.regulation import regulator_residuals
from support import RESIDUAL_TOL, pseudoinverse

PRINTED_SPORTS_AB = np.array(
    [
        [1.0, 0.1, 0.0009000, 0.0061499],
        [0.0, 1.0, 0.0099995, 0.1350010],
        [0.0, 0.0, 0.0000453, 1.4999300],
    ]
)
PRINTED_AVERAGE_AB = np.array(
    [
        [1.0, 0.1, 0.0047334, 0.0001866],
        [0.0, 1.0, 0.0921110, 0.0055223],
        [0.0, 0.0, 0.8464820, 0.1074630],
    ]
)
PRINTED_PI = np.array([[1.0, -0.038, 0.001], [0.0, 1.000, -0.038], [0.0, 0.0, 1.000]])
PRINTED_GAMMA = np.array([[0.000, 0.000, -7.876]])
PRINTED_THETA = np.array([[13.95]])
PRINTED_GAIN = np.array([[-468.99, -130.18, -13.40]])


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    done = lambda: time.perf_counter() - start  # noqa: E731
    try:
        yield done
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{done():.2f}s]")


def vehicle_scenario(K, input_seed, plan_seed, magnitude=1.0):
    """Seeded end-to-end scenario on the two-vehicle bank."""
    bank = vehicle_demo_bank()
    sports, average = bank.mode(1), bank.mode(2)
    rng = np.random.default_rng(input_seed)
    x1 = rng.normal(size=sports.n)
    U = rng.uniform(-1.0, 1.0, size=(K - 1, sports.l))
    traj = simulate_mode(sports, x1, U)
    spec = UtilitySpec.average(K)
    cfg = design(sports, average, spec, magnitude=magnitude, seed=plan_seed)
    cloaked = cloak(cfg, traj, spec)
    return bank, traj, cfg, spec, cloaked


def test_criterion_1_discretization_fidelity():
    with criterion(1, "discretization fidelity"):
        sports = longitudinal_vehicle_mode(0.01, 1.50, sample_period=0.1)
        average = longitudinal_vehicle_mode(0.60, 0.70, sample_period=0.1)
        np.testing.assert_allclose(
            np.hstack([sports.A, sports.B]), PRINTED_SPORTS_AB, atol=5e-5
        )
        np.testing.assert_allclose(
            np.hstack([average.A, average.B]), PRINTED_AVERAGE_AB, atol=5e-5
        )


def test_criterion_2_regulator_equation_verification():
    with criterion(2, "regulator-equation verification"):
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        printed = regulator_residuals(
            sports, average, PRINTED_PI, PRINTED_GAMMA, PRINTED_THETA
        )
        assert max(printed) <= 1e-2
        sol = solve_regulator_equations(sports, average)
        solved = regulator_residuals(sports, average, sol.Pi, sol.Gamma, sol.Theta)
        assert max(solved) <= 1e-9


def test_criterion_3_spectrum_check():
    with criterion(3, "printed gain spectrum"):
        average = vehicle_demo_bank().mode(2)
        spectrum = np.linalg.eigvals(average.A + average.B @ PRINTED_GAIN)
        np.testing.assert_allclose(np.sort(spectrum.real), [0.1, 0.2, 0.3], atol=1e-2)
        np.testing.assert_allclose(np.sort(spectrum.imag), [0.0, 0.0, 0.0], atol=1e-2)


def test_criterion_4_exact_regulation():
    with criterion(4, "exact regulation at K=500") as elapsed:
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        rng = np.random.default_rng(100)
        x1 = rng.normal(size=sports.n)
        U = rng.uniform(-1.0, 1.0, size=(499, sports.l))
        traj = simulate_mode(sports, x1, U)
        sol = solve_regulator_equations(sports, average)
        virtual = support.pipeline_replay(sports, average, sol, traj)
        assert np.max(np.abs(virtual.Y - traj.Y)) <= 1e-6 * (1.0 + np.max(np.abs(traj.Y)))
        assert elapsed() < 1.0


def test_criterion_5_utility_invariance():
    with criterion(5, "utility invariance at K=500") as elapsed:
        _, traj, _, spec, cloaked = vehicle_scenario(
            K=500, input_seed=100, plan_seed=101, magnitude=1.0
        )
        mean_orig = float(np.mean(traj.Y))
        mean_dist = float(np.mean(cloaked.Ybar))
        assert abs(mean_dist - mean_orig) <= 1e-8 * (1.0 + abs(mean_orig))
        assert np.linalg.norm(cloaked.Ybar - traj.Y) == pytest.approx(1.0, abs=1e-6)
        assert elapsed() < 1.0


def test_criterion_6_misclassification_roundtrip():
    with criterion(6, "misclassification round-trip") as elapsed:
        bank, traj, _, _, cloaked = vehicle_scenario(
            K=500, input_seed=100, plan_seed=101, magnitude=1.0
        )
        original_report = classify(bank, traj, accept_tol=1e-6)
        assert original_report.verdict == 1
        assert original_report.residuals[1] <= 1e-6
        assert original_report.residuals[2] >= 1e-3
        cloaked_report = classify(bank, cloaked.to_trajectory(), accept_tol=1e-6)
        assert cloaked_report.residuals[2] <= 1e-6
        assert 2 in cloaked_report.accepted
        assert elapsed() < 2.0


def test_criterion_7_feasibility_system_equivalence():
    with criterion(7, "small-scale feasibility-system equivalence") as elapsed:
        rng = np.random.default_rng(102)
        for case in range(20):
            l = int(rng.integers(1, 3))
            n = int(rng.integers(l, 4))
            mode = support.random_valid_mode(rng, n=n, m=1, l=l)
            K = int(rng.integers(3, 9))
            q = int(rng.integers(1, 3))
            F = rng.standard_normal((q, K))
            spec = UtilitySpec(F=F, mu=np.zeros(q), K=K)
            ops = build_lifted_operators(mode, K)
            plan = solve_utility_invariance(ops, spec, magnitude=1.0, seed=case)
            stacked = np.hstack(
                [support.dense_M(ops), pseudoinverse(F) @ F - np.eye(K)]
            )
            basis = nullspace_basis(stacked)
            v = np.concatenate([plan.x2_init, plan.U2.reshape(-1), plan.delta_Y])
            v = v / np.linalg.norm(v)
            assert np.linalg.norm(v - basis @ (basis.T @ v)) <= 1e-8
        assert elapsed() < 5.0


def test_criterion_8_full_horizon_scale():
    with criterion(8, "full-horizon scale test (K=36000)") as elapsed:
        K = 36000
        bank, traj, cfg, spec, cloaked = vehicle_scenario(
            K=K, input_seed=103, plan_seed=104, magnitude=1.0
        )
        # Criterion 4 tolerance: exact tracking of the source output.
        virtual = support.pipeline_replay(bank.mode(1), bank.mode(2), cfg.regulator, traj)
        assert np.max(np.abs(virtual.Y - traj.Y)) <= 1e-6 * (1.0 + np.max(np.abs(traj.Y)))
        # Criterion 5 tolerances: invariant mean, unit distortion.
        mean_orig = float(np.mean(traj.Y))
        mean_dist = float(np.mean(cloaked.Ybar))
        assert abs(mean_dist - mean_orig) <= 1e-8 * (1.0 + abs(mean_orig))
        assert np.linalg.norm(cloaked.Ybar - traj.Y) == pytest.approx(1.0, abs=1e-6)
        # Criterion 6 tolerances: classification flips to the target.
        original_report = classify(bank, traj, accept_tol=1e-6)
        assert original_report.verdict == 1
        assert original_report.residuals[1] <= 1e-6
        assert original_report.residuals[2] >= 1e-3
        cloaked_report = classify(bank, cloaked.to_trajectory(), accept_tol=1e-6)
        assert cloaked_report.residuals[2] <= 1e-6
        assert elapsed() < 60.0


def test_criterion_9a_penrose_identities():
    with criterion(9, "property suite: Penrose identities"):
        rng = np.random.default_rng(105)
        for case in range(100):
            p, q = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = (
                rng.standard_normal((p, r)) @ rng.standard_normal((r, q))
                if r
                else np.zeros((p, q))
            )
            Mp = pseudoinverse(M)
            scale = max(1.0, float(np.linalg.norm(M)))
            assert np.max(np.abs(M @ Mp @ M - M)) <= RESIDUAL_TOL * scale
            assert np.max(np.abs(Mp @ M @ Mp - Mp)) <= RESIDUAL_TOL * max(
                1.0, float(np.linalg.norm(Mp))
            )


def test_criterion_9b_nullspace_orthonormality():
    with criterion(9, "property suite: nullspace orthonormality"):
        rng = np.random.default_rng(106)
        for case in range(100):
            p, q = rng.integers(1, 8, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = (
                rng.standard_normal((p, r)) @ rng.standard_normal((r, q))
                if r
                else np.zeros((p, q))
            )
            basis = nullspace_basis(M)
            assert basis.shape == (q, q - r)
            if basis.shape[1]:
                np.testing.assert_allclose(
                    basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12
                )
                assert np.max(np.linalg.norm(M @ basis, axis=0)) <= (
                    RESIDUAL_TOL * max(1.0, float(np.linalg.norm(M)))
                )


def test_criterion_9c_superposition():
    with criterion(9, "property suite: superposition"):
        rng = np.random.default_rng(107)
        for case in range(100):
            if case % 2:
                true = support.scalar_mode(float(rng.uniform(-0.9, 0.9)))
                target = support.scalar_mode(float(rng.uniform(-0.9, 0.9)), mode_id=2)
            else:
                true = support.random_valid_mode(rng, n=int(rng.integers(1, 4)))
                target = type(true)(2, true.A, true.B, true.C)
            K = int(rng.integers(10, 40))
            sol = solve_regulator_equations(true, target)
            ctrl = build_tracking_controller(
                sol, design_stabilizing_gain(target), target
            )
            ops = build_lifted_operators(target, K)
            spec = UtilitySpec.average(K)
            plan = solve_utility_invariance(
                ops, spec, magnitude=float(rng.uniform(0.5, 3.0)), seed=case
            )
            zero = KernelPlan.zero(target, K)
            traj = support.random_trajectory(rng, true, K)
            base = run_offline(DistortionConfig(true, target, ctrl, zero, K), traj)
            shifted = run_offline(DistortionConfig(true, target, ctrl, plan, K), traj)
            extra = simulate_mode(target, plan.x2_init, plan.U2)
            np.testing.assert_allclose(
                shifted.Ybar - base.Ybar, extra.Y, rtol=1e-9, atol=1e-9
            )


def test_criterion_9d_determinism():
    with criterion(9, "property suite: determinism"):
        rng = np.random.default_rng(108)
        true = support.scalar_mode(0.5)
        target = support.scalar_mode(0.8, mode_id=2)
        sol = solve_regulator_equations(true, target)
        ctrl = build_tracking_controller(
            sol, design_stabilizing_gain(target), target
        )
        for case in range(100):
            K = int(rng.integers(5, 30))
            seed = int(rng.integers(0, 2**32))
            ops = build_lifted_operators(target, K)
            spec = UtilitySpec.average(K)
            first = solve_utility_invariance(ops, spec, magnitude=1.0, seed=seed)
            second = solve_utility_invariance(ops, spec, magnitude=1.0, seed=seed)
            assert np.array_equal(first.x2_init, second.x2_init)
            assert np.array_equal(first.U2, second.U2)
            assert np.array_equal(first.delta_Y, second.delta_Y)
            traj = support.random_trajectory(rng, true, K)
            cfg = DistortionConfig(true, target, ctrl, first, K)
            run_a = run_offline(cfg, traj)
            run_b = run_offline(cfg, traj)
            assert np.array_equal(run_a.Ubar, run_b.Ubar)
            assert np.array_equal(run_a.Ybar, run_b.Ybar)


def test_criterion_9e_similarity_invariance_of_residual():
    with criterion(9, "property suite: residual similarity invariance"):
        from behaviorcloak import StateSpaceMode, Trajectory, mode_residual

        rng = np.random.default_rng(109)
        for case in range(100):
            mode = support.random_valid_mode(rng, n=3)
            K = 25
            if case % 2:
                traj = support.random_trajectory(rng, mode, K)
            else:
                traj = Trajectory(
                    U=rng.standard_normal((K - 1, 1)), Y=rng.standard_normal((K, 1))
                )
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            T = Q @ np.diag(rng.uniform(0.5, 2.0, size=3))
            T_inv = np.linalg.inv(T)
            transformed = StateSpaceMode(
                1, A=T @ mode.A @ T_inv, B=T @ mode.B, C=mode.C @ T_inv
            )
            r1 = mode_residual(mode, traj)
            r2 = mode_residual(transformed, traj)
            assert abs(r1 - r2) <= 1e-8 * (1.0 + r1)
