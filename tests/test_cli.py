import json

import numpy as np
import pytest

import support
from behaviorcloak import (
    KernelPlan,
    ModeBank,
    StateSpaceMode,
    Trajectory,
    UtilitySpec,
    load_kernel_plan,
    load_mode_bank,
    longitudinal_vehicle_mode,
    mode_residual,
    read_trajectory_csv,
    save_mode_bank,
    save_utility_spec,
    simulate_mode,
    vehicle_demo_bank,
    write_trajectory_csv,
)
from behaviorcloak import cli
from behaviorcloak.cli import _write_figure, main
from behaviorcloak.modes import _ROWS_PER_BLOCK


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def with_nan_cell(src, dst, column, row=6):
    """Copy a trajectory CSV with the cell ``column`` of 1-based data row
    ``row`` replaced by ``nan``."""
    lines = src.read_bytes().decode().split("\r\n")
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = "nan"
    lines[row] = ",".join(cells)
    dst.write_bytes("\r\n".join(lines).encode())


@pytest.fixture()
def valid_bank_path(tmp_path):
    rng = np.random.default_rng(70)
    bank = ModeBank(
        (
            support.random_valid_mode(rng, mode_id=1),
            support.random_valid_mode(rng, mode_id=2),
        )
    )
    path = tmp_path / "bank.json"
    save_mode_bank(bank, path)
    return path


@pytest.fixture()
def vehicle_bank_path(tmp_path):
    path = tmp_path / "vehicle_bank.json"
    save_mode_bank(vehicle_demo_bank(), path)
    return path


class TestValidateCommand:
    def test_all_assumptions_hold(self, capsys, valid_bank_path):
        code, report = run_cli(capsys, "validate", "--bank", valid_bank_path)
        assert code == 0
        assert all(entry["passed"] for entry in report["modes"])

    def test_failing_check_is_named(self, capsys, vehicle_bank_path):
        # The vehicle modes measure only acceleration, so observability
        # genuinely fails; the report must name the failed check.
        code, report = run_cli(capsys, "validate", "--bank", vehicle_bank_path)
        assert code == 1
        failed = [
            check["name"]
            for entry in report["modes"]
            for check in entry["checks"]
            if not check["passed"]
        ]
        assert set(failed) == {"observability"}

    def test_missing_file(self, capsys, tmp_path):
        assert main(["validate", "--bank", str(tmp_path / "nope.json")]) == 2

    def test_ill_formed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--bank", str(path)]) == 2


class TestDesignCommand:
    def test_vehicle_scenario(self, capsys, vehicle_bank_path, tmp_path):
        out = tmp_path / "design"
        code, report = run_cli(
            capsys,
            "design",
            "--bank", vehicle_bank_path,
            "--true-mode", 1,
            "--target-mode", 2,
            "--K", 500,
            "--magnitude", 1.0,
            "--seed", 3,
            "--out", out,
        )
        assert code == 0
        assert (out / "controller.json").exists()
        assert (out / "plan.json").exists()
        assert report["kernel_deviation"] <= 1e-9
        # Reload the plan and confirm its response averages to zero.
        bank = load_mode_bank(vehicle_bank_path)
        plan = load_kernel_plan(out / "plan.json", bank.mode(2))
        spec = UtilitySpec.average(500)
        assert abs(spec.F @ plan.delta_Y) <= 1e-9
        # The input effort of the nonzero plan is reported.
        assert np.isfinite(report["plan_input_norm"]) and report["plan_input_norm"] > 0
        assert report["plan_input_norm"] == pytest.approx(np.linalg.norm(plan.U2))

    def test_same_mode_pair_rejected(self, capsys, vehicle_bank_path, tmp_path):
        code = main(
            [
                "design",
                "--bank", str(vehicle_bank_path),
                "--true-mode", "1",
                "--target-mode", "1",
                "--K", "100",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_trivial_kernel_exit_code(self, capsys, vehicle_bank_path, tmp_path):
        # An invertible F, and a tall one with a trivial kernel.
        utility_path = tmp_path / "utility.json"
        for F in (np.eye(4), np.vstack([np.eye(4), np.ones((1, 4))])):
            save_utility_spec(UtilitySpec(F=F, mu=np.zeros(len(F)), K=4), utility_path)
            code = main(
                [
                    "design",
                    "--bank", str(vehicle_bank_path),
                    "--true-mode", "1",
                    "--target-mode", "2",
                    "--utility", str(utility_path),
                    "--K", "4",
                    "--out", str(tmp_path / "x"),
                ]
            )
            assert code == 4
            assert "Ker[F] is trivial" in capsys.readouterr().err

    @pytest.mark.parametrize("K", [500, 1000, 2000])
    def test_unstable_target_long_horizon(self, capsys, tmp_path, K):
        # The pole at 1.05 is unreachable from the input; plans exist
        # although an unprojected response grows as 1.05^K.
        bank_path = tmp_path / "bank.json"
        save_mode_bank(ModeBank(support.unstable_pair()), bank_path)
        code, report = run_cli(
            capsys, "design", "--bank", bank_path, "--true-mode", 1,
            "--target-mode", 2, "--K", K, "--out", tmp_path / "d",
        )
        assert code == 0
        assert report["kernel_deviation"] <= 1e-8

    @pytest.mark.parametrize("magnitude", ["nan", "inf"])
    def test_non_finite_magnitude_is_bad_input(
        self, capsys, vehicle_bank_path, tmp_path, magnitude
    ):
        out = tmp_path / "x"
        code = main(
            [
                "design",
                "--bank", str(vehicle_bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--K", "50",
                "--magnitude", magnitude,
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "magnitude must be finite" in capsys.readouterr().err
        assert not (out / "plan.json").exists()

    def test_utility_for_another_horizon_is_bad_input(
        self, capsys, vehicle_bank_path, tmp_path
    ):
        utility_path = tmp_path / "utility.json"
        save_utility_spec(UtilitySpec.average(50), utility_path)
        code = main(
            [
                "design",
                "--bank", str(vehicle_bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--utility", str(utility_path),
                "--K", "100",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"utility {utility_path} is bound to K = 50" in err
        assert not (tmp_path / "x").exists()

    def test_unknown_mode_names_it_without_quotes(
        self, capsys, vehicle_bank_path, tmp_path
    ):
        code = main(
            [
                "design",
                "--bank", str(vehicle_bank_path),
                "--true-mode", "1",
                "--target-mode", "7",
                "--K", "100",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: no mode with id 7 in bank\n"

    def test_infeasible_pair_exit_code(self, capsys, valid_bank_path, tmp_path):
        code = main(
            [
                "design",
                "--bank", str(valid_bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--K", "50",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3


class TestDistortAndClassify:
    @pytest.fixture()
    def designed(self, capsys, vehicle_bank_path, tmp_path):
        out = tmp_path / "design"
        assert (
            main(
                [
                    "design",
                    "--bank", str(vehicle_bank_path),
                    "--true-mode", "1",
                    "--target-mode", "2",
                    "--K", "200",
                    "--seed", "4",
                    "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        bank = load_mode_bank(vehicle_bank_path)
        rng = np.random.default_rng(71)
        traj = support.random_trajectory(rng, bank.mode(1), K=200)
        traj_path = tmp_path / "original.csv"
        write_trajectory_csv(traj, traj_path)
        return vehicle_bank_path, out, traj_path

    def test_roundtrip_preserves_utility_and_fools_classifier(
        self, capsys, designed, tmp_path
    ):
        bank_path, design_dir, traj_path = designed
        out_csv = tmp_path / "distorted.csv"
        code, report = run_cli(
            capsys,
            "distort",
            "--bank", bank_path,
            "--true-mode", 1,
            "--target-mode", 2,
            "--controller", design_dir / "controller.json",
            "--plan", design_dir / "plan.json",
            "--input", traj_path,
            "--out", out_csv,
        )
        assert code == 0
        u_orig = report["utility_original"][0]
        u_dist = report["utility_distorted"][0]
        assert abs(u_dist - u_orig) <= 1e-8 * (1.0 + abs(u_orig))

        code, verdict_orig = run_cli(
            capsys, "classify", "--bank", bank_path, "--input", traj_path
        )
        assert code == 0 and verdict_orig["verdict"] == "1"
        code, verdict_dist = run_cli(
            capsys, "classify", "--bank", bank_path, "--input", out_csv
        )
        assert code == 0 and verdict_dist["verdict"] == "2"

    def test_foreign_utility_fails_loudly(self, capsys, designed, tmp_path):
        # The plan keeps the average; a ramp-weighted sum sees its distortion.
        bank_path, design_dir, traj_path = designed
        utility_path = tmp_path / "ramp.json"
        ramp = np.arange(1.0, 201.0) / 200.0
        save_utility_spec(UtilitySpec(F=[ramp], mu=[0.0], K=200), utility_path)
        out_csv = tmp_path / "distorted.csv"
        code = main(
            [
                "distort",
                "--bank", str(bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--controller", str(design_dir / "controller.json"),
                "--plan", str(design_dir / "plan.json"),
                "--input", str(traj_path),
                "--utility", str(utility_path),
                "--out", str(out_csv),
            ]
        )
        assert code == 1
        assert "utility" in capsys.readouterr().err
        assert not out_csv.exists()

    def distort(self, designed, traj_path, out_csv, plan=None):
        bank_path, design_dir, _ = designed
        return main(
            [
                "distort",
                "--bank", str(bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--controller", str(design_dir / "controller.json"),
                "--plan", str(plan or design_dir / "plan.json"),
                "--input", str(traj_path),
                "--out", str(out_csv),
            ]
        )

    def test_non_finite_plan_is_bad_input(self, capsys, designed, tmp_path):
        _, design_dir, traj_path = designed
        doc = json.loads((design_dir / "plan.json").read_text())
        doc["U2"][7][0] = float("nan")
        plan = tmp_path / "nan_plan.json"
        plan.write_text(json.dumps(doc))
        out_csv = tmp_path / "distorted.csv"
        assert self.distort(designed, traj_path, out_csv, plan) == 2
        assert "finite" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_non_finite_output_fails_the_utility_check(self, capsys, designed, tmp_path):
        # A NaN output is refused on reading, before any replay or check.
        _, _, traj_path = designed
        nan_path = tmp_path / "nan.csv"
        with_nan_cell(traj_path, nan_path, "y_1", row=11)
        out_csv = tmp_path / "distorted.csv"
        assert self.distort(designed, nan_path, out_csv) == 2
        assert "trajectory Y is not finite at sample 11" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_nan_state_cell_is_bad_input(self, capsys, designed, tmp_path):
        # The utility check sees only outputs; the state must be refused.
        _, _, traj_path = designed
        nan_path = tmp_path / "nan.csv"
        with_nan_cell(traj_path, nan_path, "x_1")
        out_csv = tmp_path / "distorted.csv"
        assert self.distort(designed, nan_path, out_csv) == 2
        assert "trajectory X is not finite at sample 6" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_nan_output_cell_is_bad_input(self, capsys, designed, tmp_path):
        bank_path, _, traj_path = designed
        nan_path = tmp_path / "nan.csv"
        with_nan_cell(traj_path, nan_path, "y_1")
        code = main(["classify", "--bank", str(bank_path), "--input", str(nan_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "trajectory Y is not finite at sample 6" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
    def test_bad_accept_tol_is_bad_input(self, capsys, designed, tol):
        bank_path, _, traj_path = designed
        code = main(
            [
                "classify",
                "--bank", str(bank_path),
                "--input", str(traj_path),
                f"--accept-tol={tol}",
            ]
        )
        assert code == 2
        assert "accept_tol" in capsys.readouterr().err

    def test_utility_for_another_horizon_is_bad_input(self, capsys, designed, tmp_path):
        bank_path, design_dir, traj_path = designed
        utility_path = tmp_path / "k100.json"
        save_utility_spec(UtilitySpec.average(100), utility_path)
        out_csv = tmp_path / "distorted.csv"
        code = main(
            [
                "distort",
                "--bank", str(bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--controller", str(design_dir / "controller.json"),
                "--plan", str(design_dir / "plan.json"),
                "--input", str(traj_path),
                "--utility", str(utility_path),
                "--out", str(out_csv),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"utility {utility_path} is bound to K = 100" in err
        assert "expected K = 200" in err
        assert not out_csv.exists()

    def test_horizon_mismatch(self, capsys, designed, tmp_path):
        bank_path, design_dir, _ = designed
        bank = load_mode_bank(bank_path)
        rng = np.random.default_rng(72)
        short = support.random_trajectory(rng, bank.mode(1), K=60)
        short_path = tmp_path / "short.csv"
        write_trajectory_csv(short, short_path)
        code = main(
            [
                "distort",
                "--bank", str(bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--controller", str(design_dir / "controller.json"),
                "--plan", str(design_dir / "plan.json"),
                "--input", str(short_path),
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 2

    def test_old_format_controller_is_bad_input(self, capsys, designed, tmp_path):
        # controller.json used to hold a gain (R, L, S, Pi); it now holds
        # the regulator solution (Pi, Gamma, Theta) only.
        bank_path, design_dir, traj_path = designed
        old = tmp_path / "old_controller.json"
        old.write_text(
            json.dumps({"R": [[-1.0, -1.0, -1.0]], "L": [[0.0, 0.0, 0.0]],
                        "S": [[1.0]], "Pi": np.eye(3).tolist()})
        )
        out_csv = tmp_path / "distorted.csv"
        code = main(
            [
                "distort",
                "--bank", str(bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--controller", str(old),
                "--plan", str(design_dir / "plan.json"),
                "--input", str(traj_path),
                "--out", str(out_csv),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'Gamma'" in err
        assert "Traceback" not in err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "loader, doc",
        [
            ("utility", {"kind": "average", "K": None, "m": 1}),
            ("utility", [1, 2]),
            ("plan", [1, 2]),
            ("controller", [1, 2]),
            ("bank", [1, 2]),
        ],
        ids=["utility-null-K", "utility-list", "plan-list", "controller-list", "bank-list"],
    )
    def test_malformed_document_is_bad_input(self, capsys, designed, tmp_path, loader, doc):
        # Valid JSON of the wrong form: one error line and exit 2, never a traceback.
        bank_path, design_dir, traj_path = designed
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        paths = {
            "bank": bank_path,
            "controller": design_dir / "controller.json",
            "plan": design_dir / "plan.json",
            loader: bad,
        }
        pair = ["--bank", paths["bank"], "--true-mode", 1, "--target-mode", 2]
        if loader == "utility":
            argv = ["design", *pair, "--utility", bad, "--K", 200, "--out", tmp_path / "x"]
        else:
            argv = [
                "distort", *pair,
                "--controller", paths["controller"],
                "--plan", paths["plan"],
                "--input", traj_path,
                "--out", tmp_path / "distorted.csv",
            ]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_overflowing_gramian_is_bad_input(self, capsys, tmp_path):
        # 1.05^(2K) overflows the Gramian: exit 2, naming the mode and K.
        bank_path, path = tmp_path / "bank.json", tmp_path / "drive.csv"
        save_mode_bank(ModeBank(support.unstable_pair()), bank_path)
        K = 20000
        rng = np.random.default_rng(71)
        write_trajectory_csv(
            Trajectory(U=rng.uniform(-1.0, 1.0, (K - 1, 1)), Y=rng.standard_normal(K)), path
        )
        code = main(["classify", "--bank", str(bank_path), "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "mode 1 at K = 20000 is not finite" in captured.err

    def test_zero_trajectory_ambiguous(self, capsys, vehicle_bank_path, tmp_path):
        bank = load_mode_bank(vehicle_bank_path)
        zero = simulate_mode(bank.mode(1), np.zeros(3), np.zeros((29, 1)))
        path = tmp_path / "zero.csv"
        write_trajectory_csv(zero, path)
        code, report = run_cli(
            capsys, "classify", "--bank", vehicle_bank_path, "--input", path
        )
        assert code == 0
        assert report["verdict"] == "AMBIGUOUS"


class TestDemoCommand:
    def test_default_run_figures(self, capsys, tmp_path):
        out = tmp_path / "demo"
        code, report = run_cli(capsys, "demo", "--out", out, "--K", 300)
        assert code == 0
        for name in ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv"):
            assert (out / name).exists()

        fig1 = np.loadtxt(out / "fig1.csv", delimiter=",", skiprows=1)
        scale = 1.0 + np.max(np.abs(fig1[:, 1]))
        assert np.max(np.abs(fig1[:, 1] - fig1[:, 2])) <= 1e-6 * scale

        fig3 = np.loadtxt(out / "fig3.csv", delimiter=",", skiprows=1)
        delta = fig3[:, 2] - fig3[:, 1]
        assert np.linalg.norm(delta) == pytest.approx(1.0, abs=1e-6)
        mean_orig = fig3[:, 1].mean()
        mean_dist = fig3[:, 2].mean()
        assert abs(mean_dist - mean_orig) <= 1e-8 * (1.0 + abs(mean_orig))

        assert report["classified_original"]["verdict"] == "1"
        assert report["classified_distorted"]["verdict"] == "2"

    def test_utility_changing_plan_fails(self, capsys, tmp_path, monkeypatch):
        def shifted_plan(ops, spec, magnitude, seed):
            # A constant output shift moves the average: not in Ker[F].
            return KernelPlan(
                x2_init=np.zeros(ops.n),
                U2=np.zeros((ops.K - 1, ops.l)),
                delta_Y=np.full(ops.K * ops.m, 0.1),
                residual=0.0,
                seed=seed,
                magnitude=magnitude,
            )

        monkeypatch.setattr(cli, "solve_utility_invariance", shifted_plan)
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out), "--K", "60"]) == 1
        captured = capsys.readouterr()
        assert "changes this utility" in captured.err and not captured.out
        assert not (out / "distorted.csv").exists()

    def test_figure_bytes_match_row_loop(self, tmp_path):
        rng = np.random.default_rng(5)
        K = _ROWS_PER_BLOCK + 3
        Y = rng.standard_normal((K, 2)) * 10.0 ** rng.integers(-30, 30, (K, 2))
        Y[:5, 0] = [-0.0, 1e-300, 1e16, 1.5e17, 5e-324]
        U = rng.standard_normal((K - 1, 1))
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        _write_figure(ours, ["k", "y", "u"], Y, U)
        support.figure_csv(oracle, ["k", "y", "u"], Y, U)
        assert ours.read_bytes() == oracle.read_bytes()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["demo", "--out", str(first), "--K", "120", "--seed", "9"]) == 0
        assert main(["demo", "--out", str(second), "--K", "120", "--seed", "9"]) == 0
        capsys.readouterr()
        for name in sorted(p.name for p in first.iterdir()):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_env_var_overrides_seed(self, capsys, tmp_path, monkeypatch):
        flagged = tmp_path / "flagged"
        env = tmp_path / "env"
        assert main(["demo", "--out", str(flagged), "--K", "80", "--seed", "5"]) == 0
        monkeypatch.setenv("BEHAVIOR_CLOAK_SEED", "5")
        assert main(["demo", "--out", str(env), "--K", "80", "--seed", "0"]) == 0
        capsys.readouterr()
        assert (flagged / "original.csv").read_bytes() == (
            env / "original.csv"
        ).read_bytes()


def design_pair(bank_path, true_id, target_id, K, out):
    return main(
        [
            "design",
            "--bank", str(bank_path),
            "--true-mode", str(true_id),
            "--target-mode", str(target_id),
            "--K", str(K),
            "--seed", "4",
            "--out", str(out),
        ]
    )


def distort_pair(bank_path, controller, plan, traj_path, out_csv):
    return main(
        [
            "distort",
            "--bank", str(bank_path),
            "--true-mode", "1",
            "--target-mode", "2",
            "--controller", str(controller),
            "--plan", str(plan),
            "--input", str(traj_path),
            "--out", str(out_csv),
        ]
    )


class TestControllerOfThePair:
    def test_controller_of_another_pair_is_refused(self, capsys, tmp_path):
        # A (3 -> 2) solution has the shapes of a (1 -> 2) one.  Replaying
        # it would emit a trajectory of neither target nor source.
        demo = vehicle_demo_bank()
        third = longitudinal_vehicle_mode(tau=0.2, beta=1.0, mode_id=3)
        bank = ModeBank((demo.mode(1), demo.mode(2), third))
        bank_path = tmp_path / "bank.json"
        save_mode_bank(bank, bank_path)
        assert design_pair(bank_path, 3, 2, 200, tmp_path / "d32") == 0
        assert design_pair(bank_path, 1, 2, 200, tmp_path / "d12") == 0
        traj_path = tmp_path / "original.csv"
        rng = np.random.default_rng(73)
        write_trajectory_csv(support.random_trajectory(rng, bank.mode(1), 200), traj_path)
        capsys.readouterr()
        out_csv = tmp_path / "distorted.csv"
        code = distort_pair(
            bank_path,
            tmp_path / "d32" / "controller.json",
            tmp_path / "d12" / "plan.json",
            traj_path,
            out_csv,
        )
        assert code == 2
        assert "modes 1 -> 2" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_pair_without_a_stabilizing_gain_is_cloaked(self, capsys, tmp_path):
        # Both modes share the pole 1.05, which the input cannot move, so
        # no gain stabilizes the target.  The replay needs none.
        B, C = [[0.0], [1.0]], [[1.0, 1.0]]
        source = StateSpaceMode(1, np.diag([1.05, 0.5]), B, C)
        target = StateSpaceMode(2, np.diag([1.05, 0.7]), B, C)
        bank = ModeBank((source, target))
        bank_path = tmp_path / "bank.json"
        save_mode_bank(bank, bank_path)
        K = 200
        assert design_pair(bank_path, 1, 2, K, tmp_path / "d") == 0
        traj = support.random_trajectory(np.random.default_rng(74), source, K)
        traj_path = tmp_path / "original.csv"
        write_trajectory_csv(traj, traj_path)
        out_csv = tmp_path / "distorted.csv"
        capsys.readouterr()
        code = distort_pair(
            bank_path,
            tmp_path / "d" / "controller.json",
            tmp_path / "d" / "plan.json",
            traj_path,
            out_csv,
        )
        assert code == 0
        capsys.readouterr()
        cloaked = read_trajectory_csv(out_csv)
        assert mode_residual(target, cloaked) <= 1e-8
        F = UtilitySpec.average(K).F
        FY = F @ traj.stacked_outputs()
        gap = np.abs(F @ cloaked.stacked_outputs() - FY)
        assert np.all(gap <= 1e-8 * (1.0 + np.abs(FY)))
        code, verdict = run_cli(capsys, "classify", "--bank", bank_path, "--input", out_csv)
        assert code == 0 and verdict["verdict"] == "2"
