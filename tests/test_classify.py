import numpy as np
import pytest

import support
from behaviorcloak import (
    AMBIGUOUS,
    NONE,
    DistortionConfig,
    StateSpaceMode,
    Trajectory,
    UtilitySpec,
    build_lifted_operators,
    classify,
    mode_residual,
    run_offline,
    solve_regulator_equations,
    solve_utility_invariance,
    vehicle_demo_bank,
)


class TestModeResidual:
    def test_membership_by_construction(self):
        rng = np.random.default_rng(60)
        for case in range(100):
            mode = support.random_valid_mode(rng, n=int(rng.integers(1, 4)))
            traj = support.random_trajectory(rng, mode, K=int(rng.integers(2, 30)))
            assert mode_residual(mode, traj) <= 1e-10

    def test_geometric_trace_against_projection_oracle(self):
        # Free responses of the mode a = 0.8 span basis = (1, 0.8, 0.64);
        # the least-squares distance of Y from that line is
        # sqrt(||Y||^2 - <basis, Y>^2 / ||basis||^2).
        basis = np.array([1.0, 0.8, 0.64])
        Y = np.array([1.0, 0.5, 0.25])
        oracle_sq = Y @ Y - (basis @ Y) ** 2 / (basis @ basis)
        assert oracle_sq == pytest.approx(0.1252, abs=2e-4)
        traj = Trajectory(U=np.zeros((2, 1)), Y=Y.reshape(-1, 1))
        residual = mode_residual(support.scalar_mode(0.8), traj)
        expected = np.sqrt(oracle_sq) / (1.0 + np.linalg.norm(Y))
        assert residual == pytest.approx(expected, rel=1e-9)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(61)
        wide = support.random_valid_mode(rng, n=2, m=2, l=1)
        traj = support.random_trajectory(rng, support.scalar_mode(0.5), K=5)
        with pytest.raises(ValueError):
            mode_residual(wide, traj)

    def test_invariant_under_similarity_transform(self):
        rng = np.random.default_rng(62)
        for case in range(100):
            mode = support.random_valid_mode(rng, n=3)
            K = 25
            # Trajectories both inside and outside the behaviour.
            if case % 2:
                traj = support.random_trajectory(rng, mode, K)
            else:
                traj = Trajectory(
                    U=rng.standard_normal((K - 1, 1)), Y=rng.standard_normal((K, 1))
                )
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            scale = np.diag(rng.uniform(0.5, 2.0, size=3))
            T = Q @ scale
            T_inv = np.linalg.inv(T)
            transformed = StateSpaceMode(
                1, A=T @ mode.A @ T_inv, B=T @ mode.B, C=mode.C @ T_inv
            )
            r1 = mode_residual(mode, traj)
            r2 = mode_residual(transformed, traj)
            assert abs(r1 - r2) <= 1e-8 * (1.0 + r1)


@pytest.fixture(scope="module")
def vehicle_runs():
    bank = vehicle_demo_bank()
    sports, average = bank.mode(1), bank.mode(2)
    K = 500
    rng = np.random.default_rng(63)
    traj = support.random_trajectory(rng, sports, K)
    sol = solve_regulator_equations(sports, average)
    ops = build_lifted_operators(average, K)
    plan = solve_utility_invariance(
        ops, UtilitySpec.average(K), magnitude=1.0, seed=12
    )
    cloaked = run_offline(
        DistortionConfig(sports, average, sol, plan, K), traj
    )
    return bank, traj, cloaked


class TestClassify:
    def test_original_is_classified_as_true_mode(self, vehicle_runs):
        bank, traj, _ = vehicle_runs
        report = classify(bank, traj)
        assert report.verdict == 1
        assert report.residuals[1] <= 1e-6
        assert report.residuals[2] >= 1e-3

    def test_distorted_is_classified_as_target_mode(self, vehicle_runs):
        bank, _, cloaked = vehicle_runs
        report = classify(bank, cloaked.to_trajectory())
        assert report.verdict == 2
        assert report.residuals[2] <= 1e-6
        assert report.residuals[1] > 1e-6

    def test_zero_trajectory_is_ambiguous(self):
        bank = vehicle_demo_bank()
        zero = Trajectory(U=np.zeros((9, 1)), Y=np.zeros((10, 1)))
        report = classify(bank, zero)
        assert report.verdict == AMBIGUOUS
        assert set(report.accepted) == {1, 2}

    def test_foreign_trajectory_yields_none(self):
        bank = vehicle_demo_bank()
        rng = np.random.default_rng(64)
        noise = Trajectory(
            U=rng.standard_normal((99, 1)), Y=rng.standard_normal((100, 1))
        )
        report = classify(bank, noise)
        assert report.verdict == NONE
        assert report.accepted == ()

    def test_report_serialization(self):
        bank = vehicle_demo_bank()
        rng = np.random.default_rng(65)
        traj = support.random_trajectory(rng, bank.mode(1), K=40)
        doc = classify(bank, traj).to_dict()
        assert set(doc) == {"residuals", "accepted", "verdict"}
        assert doc["verdict"] == "1"
        assert set(doc["residuals"]) == {"1", "2"}
        assert doc["accepted"] == [1]
