import warnings

import numpy as np
import pytest

import support
from behaviorcloak import (
    DistortionConfig,
    StateSpaceMode,
    Trajectory,
    UtilitySpec,
    ModeBank,
    build_lifted_operators,
    classify,
    design_stabilizing_gain,
    mode_residual,
    run_offline,
    simulate_mode,
    solve_regulator_equations,
    solve_utility_invariance,
    vehicle_demo_bank,
)
from behaviorcloak.classify import AMBIGUOUS, NONE


class TestModeResidual:
    def test_membership_by_construction(self):
        rng = np.random.default_rng(60)
        for case in range(100):
            mode = support.random_valid_mode(rng, n=int(rng.integers(1, 4)))
            traj = support.random_trajectory(rng, mode, K=int(rng.integers(2, 30)))
            assert mode_residual(mode, traj) <= 1e-10

    def test_geometric_trace_against_projection_oracle(self):
        # The mode a = 0.8 has lag 1: its windows of two samples span
        # basis = (1, 0.8), and the distance of a window w from that line is
        # sqrt(||w||^2 - <basis, w>^2 / ||basis||^2).  The residual is the norm
        # of the distances of the windows (1, 0.5) and (0.5, 0.25).
        basis = np.array([1.0, 0.8])
        Y = np.array([1.0, 0.5, 0.25])
        oracle_sq = sum(w @ w - (basis @ w) ** 2 / (basis @ basis) for w in (Y[:2], Y[1:]))
        assert oracle_sq == pytest.approx(0.0686, abs=2e-4)
        traj = Trajectory(U=np.zeros((2, 1)), Y=Y.reshape(-1, 1))
        residual = mode_residual(support.scalar_mode(0.8), traj)
        expected = np.sqrt(oracle_sq) / np.linalg.norm(Y)
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

    def test_overflowing_output_is_refused_by_mode(self):
        # A finite 1e308 output: the residual plus ||Y|| overflows, and a score of
        # such data would read nothing.  One ValueError names the mode, and no warning escapes.
        bank = vehicle_demo_bank()
        traj = support.random_trajectory(np.random.default_rng(66), bank.mode(1), K=50)
        Y = traj.Y.copy()
        Y[6, 0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode 1 has no finite score"):
                classify(bank, Trajectory(U=traj.U, Y=Y, X=traj.X))

    def test_report_serialization(self):
        bank = vehicle_demo_bank()
        rng = np.random.default_rng(65)
        traj = support.random_trajectory(rng, bank.mode(1), K=40)
        doc = classify(bank, traj).to_dict()
        assert set(doc) == {"residuals", "accepted", "verdict"}
        assert doc["verdict"] == "1"
        assert set(doc["residuals"]) == {"1", "2"}
        assert doc["accepted"] == [1]


class TestUnstableModes:
    """Windows of lag + 1 samples hold no power of A past the window, so an
    unstable mode scores at rounding at any horizon, with no overflow."""

    @pytest.mark.parametrize("K", [200, 2000, 36000])
    def test_feedback_twin_closed_loop_drive(self, K):
        # The drive is the source under u = R x + v with a stabilizing R, so its
        # states stay bounded.
        source, twin = support.unstable_twin()
        R = design_stabilizing_gain(source)
        closed = StateSpaceMode(1, source.A + source.B @ R, source.B, source.C)
        v = np.random.default_rng(66).standard_normal((K - 1, 1))
        X = simulate_mode(closed, [1.0, 1.0], v).X
        drive = Trajectory(U=X[:-1] @ R.T + v, Y=X @ source.C.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(ModeBank((source, twin)), drive)
        assert report.verdict == 1
        assert report.residuals[1] <= 1e-15 and report.residuals[2] >= 0.05

    @pytest.mark.parametrize("K", [7500, 20000])
    def test_unstable_pair_long_drive(self, K):
        # The pole 1.05 of both modes is out of the input's reach and the drive
        # starts off it, so it stays bounded while 1.05^K overflows the plan's Gram.
        source, target = support.unstable_pair()
        U = np.random.default_rng(3).uniform(-1.0, 1.0, (K - 1, 1))
        drive = simulate_mode(source, [0.0, 1.0], U)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = classify(ModeBank((source, target)), drive)
        assert report.verdict == 1
        assert report.residuals[1] <= 1e-15 and report.residuals[2] >= 0.05
