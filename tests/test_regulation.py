import dataclasses
import json
import warnings

import numpy as np
import pytest

import support
from behaviorcloak import (
    DistortionConfig,
    GainDesignError,
    KernelPlan,
    RegulationInfeasibleError,
    RegulatorSolution,
    StateSpaceMode,
    build_tracking_controller,
    design_stabilizing_gain,
    load_controller,
    save_controller,
    solve_regulator_equations,
    vehicle_demo_bank,
)
from behaviorcloak.linalg import is_schur
from behaviorcloak.regulation import _REGULATOR_RTOL, regulator_residuals

PAPER_PI = np.array([[1.0, -0.038, 0.001], [0.0, 1.000, -0.038], [0.0, 0.000, 1.000]])
PAPER_GAMMA = np.array([[0.000, 0.000, -7.876]])
PAPER_THETA = np.array([[13.95]])
PAPER_GAIN = np.array([[-468.99, -130.18, -13.40]])


@pytest.fixture(scope="module")
def vehicle_pair():
    bank = vehicle_demo_bank()
    return bank.mode(1), bank.mode(2)


def counted_solves(monkeypatch):
    """Patch ``np.linalg.solve`` to log the shape of every system it solves."""
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def oracle_modes():
    """Targets on which the doubling gain is checked against the fixed point."""
    cases = [("vehicle", vehicle_demo_bank().mode(2))]
    for seed in range(3):
        _, target = support.feedback_twin_pair(np.random.default_rng(seed))
        cases.append((f"twin{seed}", target))
    # The draws of test_already_stable_modes_get_valid_gain.
    rng = np.random.default_rng(12)
    for case in range(10):
        cases.append((f"stable{case}", support.random_valid_mode(rng, n=3, m=1, l=2)))
    # Controllable draws with spectral radius in [1.05, 1.5].
    rng = np.random.default_rng(22)
    for case in range(10):
        n, l = 3, int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(1.05, 1.5) / np.max(np.abs(np.linalg.eigvals(A)))
        B, C = rng.standard_normal((n, l)), rng.standard_normal((1, n))
        cases.append((f"unstable{case}", StateSpaceMode(1, A, B, C)))
    return cases


ORACLE_MODES = oracle_modes()


def regulator_oracle_pairs():
    """(source, target) pairs on which the solve is checked against the Kronecker
    reference: the vehicles, the MIMO and feedback-twin fixtures, two refused pairs
    and 30 seeded random similarity pairs with n in 1..4 and m, l in 1..2."""
    cases = [
        ("vehicle", tuple(vehicle_demo_bank())),
        ("mimo", support.feedback_twin_pair(np.random.default_rng(54))),
    ]
    for seed in range(3):
        cases.append((f"twin{seed}", support.feedback_twin_pair(np.random.default_rng(seed))))
    rng = np.random.default_rng(11)
    cases.append(("random", (support.random_valid_mode(rng), support.random_valid_mode(rng))))
    cases.append(("vehicle_C1e8", support.scaled_vehicles(c=1e8)))
    rng = np.random.default_rng(23)
    for case in range(30):
        n = int(rng.integers(1, 5))
        m, l = (int(v) for v in rng.integers(1, min(2, n) + 1, size=2))
        source = support.random_valid_mode(rng, n=n, m=m, l=l)
        T = rng.standard_normal((n, n))
        T_inv = np.linalg.inv(T)
        target = StateSpaceMode(2, T @ source.A @ T_inv, T @ source.B, source.C @ T_inv)
        cases.append((f"similar{case}", (source, target)))
    return [pytest.param(pair, id=name) for name, pair in cases]


class TestSolveRegulatorEquations:
    def test_identical_modes(self):
        rng = np.random.default_rng(10)
        mode = support.random_valid_mode(rng)
        # (I, 0, I) satisfies all three equations exactly.
        oracle = regulator_residuals(
            mode, mode, np.eye(mode.n), np.zeros((mode.l, mode.n)), np.eye(mode.l)
        )
        assert max(oracle) == 0.0
        sol = solve_regulator_equations(mode, mode)
        assert sol.residual <= 1e-9

    def test_scalar_pair_hand_solved(self):
        # c' Pi = c forces Pi = 1; then Gamma = -(a' - a) Pi and Theta = b / b'.
        true = support.scalar_mode(0.5)
        target = support.scalar_mode(0.8, mode_id=2)
        sol = solve_regulator_equations(true, target)
        assert sol.Pi[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sol.Gamma[0, 0] == pytest.approx(-0.3, abs=1e-12)
        assert sol.Theta[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sol.residual <= 1e-12

    def test_vehicle_pair_theta_and_residuals(self, vehicle_pair):
        sports, average = vehicle_pair
        sol = solve_regulator_equations(sports, average)
        assert sol.Theta[0, 0] == pytest.approx(13.95, abs=0.05)
        assert sol.residual <= 1e-9
        printed = regulator_residuals(
            sports, average, PAPER_PI, PAPER_GAMMA, PAPER_THETA
        )
        assert max(printed) <= 1e-2

    def test_random_pair_is_infeasible(self):
        rng = np.random.default_rng(11)
        true = support.random_valid_mode(rng, mode_id=1)
        target = support.random_valid_mode(rng, mode_id=2)
        with pytest.raises(RegulationInfeasibleError) as err:
            solve_regulator_equations(true, target)
        assert err.value.residual > 1e-3

    def test_dimension_mismatch(self):
        scalar = support.scalar_mode(0.5)
        wide = support.random_valid_mode(np.random.default_rng(0), n=2, m=1, l=2)
        with pytest.raises(ValueError):
            solve_regulator_equations(scalar, wide)

    @pytest.mark.parametrize("pair", regulator_oracle_pairs())
    def test_matches_kronecker_oracle(self, pair):
        # Bitwise the same (Pi, Gamma, Theta) as the Kronecker-assembled system,
        # or the same refusal with the same residual.
        Pi, Gamma, Theta, residual = support.kronecker_regulator_solution(*pair)
        if residual > _REGULATOR_RTOL:
            with pytest.raises(RegulationInfeasibleError) as err:
                solve_regulator_equations(*pair)
            assert err.value.residual == residual
            return
        sol = solve_regulator_equations(*pair)
        for got, expected in ((sol.Pi, Pi), (sol.Gamma, Gamma), (sol.Theta, Theta)):
            np.testing.assert_array_equal(got, expected)
        assert sol.residual == residual


class TestDesignStabilizingGain:
    def test_scalar_riccati_fixed_point(self):
        # Fixed point of p = 4p - 4p^2/(1+p) + 1 is p = 2 + sqrt(5), giving
        # R = -2p/(1+p) and closed loop 2 + R.
        p = 2.0 + np.sqrt(5.0)
        expected_R = -2.0 * p / (1.0 + p)
        mode = support.scalar_mode(2.0)
        R = design_stabilizing_gain(mode)
        assert R[0, 0] == pytest.approx(expected_R, abs=1e-9)
        assert R[0, 0] == pytest.approx(-1.6180, abs=1e-4)
        assert 2.0 + R[0, 0] == pytest.approx(0.3820, abs=1e-4)

    def test_supplied_vehicle_gain_hits_printed_spectrum(self, vehicle_pair):
        # A gain of one's own bypasses the synthesis and goes straight to
        # build_tracking_controller.
        sports, average = vehicle_pair
        sol = solve_regulator_equations(sports, average)
        R = build_tracking_controller(sol, PAPER_GAIN, average).R
        np.testing.assert_array_equal(R, PAPER_GAIN)
        spectrum = np.sort(np.linalg.eigvals(average.A + average.B @ R).real)
        np.testing.assert_allclose(spectrum, [0.1, 0.2, 0.3], atol=1e-2)

    def test_already_stable_modes_get_valid_gain(self):
        rng = np.random.default_rng(12)
        for case in range(10):
            mode = support.random_valid_mode(rng, n=3, m=1, l=2)
            R = design_stabilizing_gain(mode)
            assert is_schur(mode.A + mode.B @ R)

    def test_rejects_non_stabilizing_gain(self):
        # With B = 0 the unstable pole 2 cannot be moved, so no gain
        # stabilizes the mode: the Riccati fixed-point iterates grow as 4^j,
        # so the k-th doubling iterate holds about 4^(2^k) and overflows at
        # k = 10.  No gain is returned.  The synthesis stops at the first
        # iterate that overflows, without a numpy warning.
        mode = support.scalar_mode(2.0, b=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GainDesignError, match="overflowed"):
                design_stabilizing_gain(mode)

    @pytest.mark.parametrize(
        "A, B",
        [
            ([[1.0, 0.0], [0.0, 0.5]], [[0.0], [1.0]]),
            (
                [
                    [np.cos(0.3), -np.sin(0.3), 0.0],
                    [np.sin(0.3), np.cos(0.3), 0.0],
                    [0.0, 0.0, 0.5],
                ],
                [[0.0], [0.0], [1.0]],
            ),
        ],
        ids=["unit-pole", "rotation"],
    )
    def test_rejects_uncontrollable_unit_circle_mode(self, A, B, monkeypatch):
        # A pole on the unit circle that the input cannot move leaves the
        # Riccati iterates growing linearly, so the k-th doubling iterate
        # grows as 2^k and never settles.  The synthesis gives up within
        # its 64 doublings (one solve each, plus the gain's) instead of
        # 10000 fixed-point steps, without a numpy warning.
        solves = counted_solves(monkeypatch)
        mode = StateSpaceMode(1, A, B, np.ones((1, len(A))))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GainDesignError):
                design_stabilizing_gain(mode)
        assert len(solves) <= 65

    @pytest.mark.parametrize(
        "mode", [mode for _, mode in ORACLE_MODES], ids=[name for name, _ in ORACLE_MODES]
    )
    def test_matches_fixed_point_oracle(self, mode):
        R = design_stabilizing_gain(mode)
        R_ref = support.fixed_point_riccati_gain(mode)
        np.testing.assert_allclose(R, R_ref, rtol=0.0, atol=1e-9)

    def test_vehicle_target_takes_few_doublings(self, vehicle_pair, monkeypatch):
        # One solve per doubling and one for the gain: 10 in all.  The
        # fixed-point reference makes 263 (262 steps and the gain).
        solves = counted_solves(monkeypatch)
        design_stabilizing_gain(vehicle_pair[1])
        assert len(solves) <= 16


class TestBuildTrackingController:
    def test_identical_modes_algebra(self):
        rng = np.random.default_rng(13)
        mode = support.random_valid_mode(rng)
        sol = RegulatorSolution(
            Pi=np.eye(mode.n),
            Gamma=np.zeros((mode.l, mode.n)),
            Theta=np.eye(mode.l),
            residual=0.0,
        )
        R = design_stabilizing_gain(mode)
        ctrl = build_tracking_controller(sol, R, mode)
        np.testing.assert_array_equal(ctrl.L, -R)
        np.testing.assert_array_equal(ctrl.S, np.eye(mode.l))

    def test_scalar_substitution(self):
        true = support.scalar_mode(0.5)
        target = support.scalar_mode(0.8, mode_id=2)
        sol = solve_regulator_equations(true, target)
        ctrl = build_tracking_controller(sol, [[-0.3]], target)
        assert ctrl.L[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert ctrl.S[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_stabilizing_gain(self):
        true = support.scalar_mode(0.5)
        target = support.scalar_mode(0.8, mode_id=2)
        sol = solve_regulator_equations(true, target)
        with pytest.raises(ValueError):
            build_tracking_controller(sol, [[0.5]], target)

    @pytest.mark.parametrize("pair", ["scalar", "vehicle"])
    def test_rejects_wrong_shape_gain(self, pair, vehicle_pair):
        if pair == "scalar":
            true, target = support.scalar_mode(0.5), support.scalar_mode(0.8, mode_id=2)
        else:
            true, target = vehicle_pair
        sol = solve_regulator_equations(true, target)
        wrong = np.zeros((target.l, target.n + 1))
        with pytest.raises(ValueError, match=rf"\({target.l}, {target.n}\)"):
            build_tracking_controller(sol, wrong, target)


class TestVerifyRegulation:
    """Exact tracking through the pipeline's replay, ``support.pipeline_replay``:
    the target driven by ``Gamma x + Theta u`` from ``Pi x(1)`` emits ``y``."""

    @staticmethod
    def _replay(true, target, traj):
        sol = solve_regulator_equations(true, target)
        return sol, support.pipeline_replay(true, target, sol, traj)

    def _controller(self, true, target):
        sol = solve_regulator_equations(true, target)
        return build_tracking_controller(sol, design_stabilizing_gain(target), target)

    def test_identical_modes_track_exactly(self):
        rng = np.random.default_rng(14)
        mode = support.random_valid_mode(rng)
        traj = support.random_trajectory(rng, mode, K=100)
        _, virtual = self._replay(mode, mode, traj)
        assert np.max(np.abs(virtual.Y - traj.Y)) <= 1e-9 * (1.0 + np.max(np.abs(traj.Y)))

    def test_scalar_pair_long_horizon(self):
        rng = np.random.default_rng(15)
        true = support.scalar_mode(0.5)
        target = support.scalar_mode(0.8, mode_id=2)
        traj = support.random_trajectory(rng, true, K=200)
        sol, virtual = self._replay(true, target, traj)
        assert np.max(np.abs(virtual.Y - traj.Y)) <= 1e-9 * np.max(np.abs(traj.Y))
        # max_e: the alignment error ||xbar(k) - Pi x(k)|| of the simulated target.
        assert np.max(np.linalg.norm(virtual.X - traj.X @ sol.Pi.T, axis=1)) <= 1e-9

    def test_vehicle_pair_indistinguishable(self, vehicle_pair):
        sports, average = vehicle_pair
        rng = np.random.default_rng(16)
        traj = support.random_trajectory(rng, sports, K=500)
        _, virtual = self._replay(sports, average, traj)
        assert np.max(np.abs(virtual.Y - traj.Y)) <= 1e-6 * (1.0 + np.max(np.abs(traj.Y)))

    def test_per_step_error_bounds(self):
        rng = np.random.default_rng(17)
        true = support.scalar_mode(0.3)
        target = support.scalar_mode(0.9, mode_id=2)
        traj = support.random_trajectory(rng, true, K=150)
        sol, virtual = self._replay(true, target, traj)
        r_norms = np.linalg.norm(virtual.Y - traj.Y, axis=1)
        e_norms = np.linalg.norm(virtual.X - traj.X @ sol.Pi.T, axis=1)
        for k in range(traj.K):
            assert r_norms[k] <= 1e-9 * (1.0 + np.linalg.norm(traj.Y[k]))
            assert e_norms[k] <= 1e-9 * (1.0 + np.linalg.norm(traj.X[k]))

    def test_matches_step_by_step_first_copy(self, vehicle_pair):
        # The first virtual copy of the two-copy replay closes the paper's loop
        # one step at a time; with the zero plan its outputs are the copy's own.
        sports, average = vehicle_pair
        K = 2000
        rng = np.random.default_rng(21)
        drive = support.random_trajectory(rng, sports, K)
        sol = solve_regulator_equations(sports, average)
        zero = KernelPlan.zero(average, K)
        cfg = DistortionConfig(sports, average, sol, zero, K)
        _, Ybar = support.two_copy_replay(cfg, drive)
        virtual = support.pipeline_replay(sports, average, sol, drive)
        expected = np.linalg.norm(Ybar, axis=1)
        assert np.max(np.linalg.norm(virtual.Y - Ybar, axis=1)) <= 1e-9 * np.max(expected)

    def test_perturbed_start_decays_geometrically(self, vehicle_pair):
        # With xbar(1) = Pi x(1) + d the alignment error evolves as
        # e(k) = (A + B R)^(k-1) d; compare against the iterated closed loop.
        sports, average = vehicle_pair
        rng = np.random.default_rng(19)
        ctrl = self._controller(sports, average)
        traj = support.random_trajectory(rng, sports, K=200)
        d = rng.standard_normal(average.n)
        closed_loop = average.A + average.B @ ctrl.R
        xbar = ctrl.Pi @ traj.X[0] + d
        expected = d.copy()
        for k in range(traj.K - 1):
            e = xbar - ctrl.Pi @ traj.X[k]
            scale = 1.0 + np.linalg.norm(expected)
            assert np.linalg.norm(e - expected) <= 1e-9 * scale
            u1 = ctrl.R @ xbar + ctrl.L @ traj.X[k] + ctrl.S @ traj.U[k]
            xbar = average.A @ xbar + average.B @ u1
            expected = closed_loop @ expected
        # Schur stability contracts the perturbation.
        assert np.linalg.norm(expected) < np.linalg.norm(d)


class TestControllerFiles:
    def test_roundtrip(self, tmp_path, vehicle_pair):
        sports, average = vehicle_pair
        sol = solve_regulator_equations(sports, average)
        path = tmp_path / "controller.json"
        save_controller(sol, path)
        assert list(json.loads(path.read_text())) == ["Pi", "Gamma", "Theta"]
        loaded = load_controller(path, sports, average)
        assert type(loaded) is RegulatorSolution
        np.testing.assert_array_equal(loaded.Pi, sol.Pi)
        np.testing.assert_array_equal(loaded.Gamma, sol.Gamma)
        np.testing.assert_array_equal(loaded.Theta, sol.Theta)
        assert loaded.residual == sol.residual

    def test_rejects_missing_fields(self, tmp_path, vehicle_pair):
        path = tmp_path / "controller.json"
        path.write_text(json.dumps({"R": [[1.0]]}))
        with pytest.raises(ValueError, match="'Pi'"):
            load_controller(path, *vehicle_pair)

    def test_rejects_old_format(self, tmp_path, vehicle_pair):
        # The gain-based format (R, L, S, Pi) is no longer read.
        sports, average = vehicle_pair
        ctrl = build_tracking_controller(
            solve_regulator_equations(sports, average), PAPER_GAIN, average
        )
        path = tmp_path / "controller.json"
        doc = {key: getattr(ctrl, key).tolist() for key in ("R", "L", "S", "Pi")}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="no 'Gamma' entry"):
            load_controller(path, sports, average)

    def test_rejects_non_finite_entry(self, tmp_path, vehicle_pair):
        sports, average = vehicle_pair
        path = tmp_path / "controller.json"
        save_controller(solve_regulator_equations(sports, average), path)
        doc = json.loads(path.read_text())
        doc["Gamma"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="Gamma is not finite at row 1"):
            load_controller(path, sports, average)

    def test_overflowing_equation_reads_nan(self, tmp_path):
        # B_t Theta overflows for a finite Theta of 1.7e308: the loaded residual is that
        # equation's NaN, not the largest of the other two, and no warning is raised.
        source, target = support.feedback_twin_pair(np.random.default_rng(0))
        sol = solve_regulator_equations(source, target)
        path = tmp_path / "controller.json"
        save_controller(dataclasses.replace(sol, Theta=np.full((2, 2), 1.7e308)), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(load_controller(path, source, target).residual)

    def test_rejects_entry_that_is_not_a_number(self, tmp_path, vehicle_pair):
        sports, average = vehicle_pair
        path = tmp_path / "controller.json"
        save_controller(solve_regulator_equations(sports, average), path)
        doc = json.loads(path.read_text())
        doc["Theta"][0][0] = str(doc["Theta"][0][0])
        path.write_text(json.dumps(doc))
        message = "^ill-formed controller document: Theta is not an array of numbers$"
        with pytest.raises(ValueError, match=message):
            load_controller(path, sports, average)

    def test_rejects_shapes_of_another_pair(self, tmp_path, vehicle_pair):
        sports, average = vehicle_pair
        path = tmp_path / "controller.json"
        save_controller(solve_regulator_equations(sports, average), path)
        scalar = support.scalar_mode(0.5)
        with pytest.raises(ValueError, match=r"Pi must have shape \(3, 1\)"):
            load_controller(path, scalar, average)
