import json
import re
import warnings

import numpy as np
import pytest

import support
from behaviorcloak import (
    KernelPlan,
    ModeBank,
    StateSpaceMode,
    Trajectory,
    UtilitySpec,
    load_controller,
    load_kernel_plan,
    load_mode_bank,
    longitudinal_vehicle_mode,
    mode_residual,
    read_trajectory_csv,
    save_kernel_plan,
    save_mode_bank,
    simulate_mode,
    vehicle_demo_bank,
    write_trajectory_csv,
)
from behaviorcloak import distort
from behaviorcloak.cli import _write_figure, main
from behaviorcloak.invariance import save_utility_spec
from behaviorcloak.modes import _ROWS_PER_BLOCK


def strict_json(text):
    """``json.loads`` by RFC 8259: ``Infinity``, ``-Infinity`` and ``NaN`` are refused."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, strict_json(out) if out.strip() else None


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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: mode bank document {path} is not JSON: ")

    @pytest.mark.parametrize(
        "B, C, message",
        [
            ([[]], [[1.0]], r"a mode needs inputs and outputs, got B \(1, 0\) and C \(1, 1\)"),
            ([[1.0]], [], r"C must be 2-dimensional, got shape \(0,\)"),
        ],
        ids=["no-inputs", "no-outputs"],
    )
    @pytest.mark.parametrize("command", ["validate", "design"])
    def test_bank_without_inputs_or_outputs_is_bad_input(
        self, capsys, tmp_path, command, B, C, message
    ):
        # JSON has no empty row, so a C without rows reaches the mode as 1-D.
        path = tmp_path / "bank.json"
        mode = {"A": [[0.5]], "B": B, "C": C}
        doc = {"m": len(C), "l": len(B[0]), "modes": [dict(mode, id=1), dict(mode, id=2)]}
        path.write_text(json.dumps(doc))
        argv = [command, "--bank", path]
        if command == "design":
            argv += ["--true-mode", 1, "--target-mode", 2, "--K", 20, "--out", tmp_path / "d"]
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert re.fullmatch(f"error: {message}\n", captured.err)


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

    def test_overflowing_utility_row_is_bad_input(self, capsys, vehicle_bank_path, tmp_path):
        # A row of 1e308s has a norm past the float range: design names F, not the mode.
        utility_path = tmp_path / "utility.json"
        save_utility_spec(UtilitySpec(F=np.full((1, 200), 1e308), mu=[0.0], K=200), utility_path)
        code = main(
            [
                "design",
                "--bank", str(vehicle_bank_path),
                "--true-mode", "1",
                "--target-mode", "2",
                "--utility", str(utility_path),
                "--K", "200",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "error: the norm of F is not finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("K", [500, 1000, 2000, 4113, 7500])
    def test_unstable_target_long_horizon(self, capsys, tmp_path, K):
        # The pole at 1.05 is unreachable from the input; plans exist although
        # an unprojected response grows as 1.05^K.  A drive that starts off the
        # pole reads 1 and its cloak 2.  At K = 4113 the block scan runs over
        # 258 block starts: 16 full groups and a tail of two.
        source, target = support.unstable_pair()
        bank_path, drive = tmp_path / "bank.json", tmp_path / "drive.csv"
        save_mode_bank(ModeBank((source, target)), bank_path)
        U = np.random.default_rng(3).uniform(-1.0, 1.0, (K - 1, 1))
        write_trajectory_csv(simulate_mode(source, [0.0, 1.0], U), drive)
        pair = ["--bank", bank_path, "--true-mode", 1, "--target-mode", 2]
        code, report = run_cli(capsys, "design", *pair, "--K", K, "--out", tmp_path / "d")
        assert code == 0
        assert report["kernel_deviation"] <= 1e-8
        cloaked = tmp_path / "distorted.csv"
        code, _ = run_cli(
            capsys, "distort", *pair, "--controller", tmp_path / "d" / "controller.json",
            "--plan", tmp_path / "d" / "plan.json", "--input", drive, "--out", cloaked,
        )
        assert code == 0
        for path, verdict in ((drive, "1"), (cloaked, "2")):
            code, report = run_cli(capsys, "classify", "--bank", bank_path, "--input", path)
            assert code == 0 and report["verdict"] == verdict

    @pytest.mark.parametrize("K, code", [(300, 0), (345, 4)])
    def test_twin_plan_is_refused_by_design_or_cloaks(self, capsys, tmp_path, K, code):
        # The twin's average plan changes the utility by 2.8e-9 of its size at K = 300
        # and by 4.5e-7 at K = 345.  design refuses the second by the test that cloak
        # applies (exit 4), so no plan it writes fails on a drive smaller than itself.
        source, target = support.unstable_twin()
        bank_path, drive = tmp_path / "bank.json", tmp_path / "drive.csv"
        save_mode_bank(ModeBank((source, target)), bank_path)
        write_trajectory_csv(support.stabilized_drive(source, K), drive)
        pair = ["--bank", bank_path, "--true-mode", 1, "--target-mode", 2]
        design_dir = tmp_path / "d"
        assert main([str(a) for a in ("design", *pair, "--K", K, "--out", design_dir)]) == code
        captured = capsys.readouterr()
        if code == 4:
            assert captured.out == "" and "no nonzero plan found" in captured.err
            assert not design_dir.exists()
            return
        code, report = run_cli(
            capsys, "distort", *pair, "--controller", design_dir / "controller.json",
            "--plan", design_dir / "plan.json", "--input", drive, "--out", tmp_path / "c.csv",
        )
        assert code == 0
        assert report["utility_distorted"] == pytest.approx(report["utility_original"], abs=1e-9)

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

    @pytest.mark.parametrize(
        "option, kind",
        [
            ("--bank", "mode bank"),
            ("--controller", "controller"),
            ("--plan", "plan"),
            ("--utility", "utility spec"),
        ],
    )
    def test_document_that_is_not_json_is_named(self, capsys, designed, tmp_path, option, kind):
        # The trajectory CSV given in place of one JSON document: exit 2, naming both.
        bank_path, design_dir, traj_path = designed
        documents = {
            "--bank": bank_path,
            "--controller": design_dir / "controller.json",
            "--plan": design_dir / "plan.json",
            "--utility": "average",
        }
        documents[option] = traj_path
        out_csv = tmp_path / "distorted.csv"
        argv = ["distort", "--true-mode", "1", "--target-mode", "2"]
        argv += ["--input", str(traj_path), "--out", str(out_csv)]
        code = main(argv + [str(a) for pair in documents.items() for a in pair])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {kind} document {traj_path} is not JSON: ")
        assert not out_csv.exists()

    def test_forged_plan_on_small_outputs_fails_loudly(self, capsys, tmp_path):
        # Vehicles with C scaled by 1e-9: the target's free response from
        # (0, 0, 5) moves the average by 1.6e-11, 119 % of it.  Exit 1.
        bank_path, traj_path, plan_path = (
            tmp_path / "bank.json", tmp_path / "drive.csv", tmp_path / "forged.json"
        )
        save_mode_bank(ModeBank(support.scaled_vehicles(1e-9)), bank_path)
        K = 2000
        bank = load_mode_bank(bank_path)
        write_trajectory_csv(
            support.random_trajectory(np.random.default_rng(72), bank.mode(1), K), traj_path
        )
        save_kernel_plan(support.free_response_plan(bank.mode(2), K), plan_path)
        code, _ = run_cli(
            capsys, "design", "--bank", bank_path, "--true-mode", 1, "--target-mode", 2,
            "--K", K, "--out", tmp_path / "d",
        )
        assert code == 0
        out_csv = tmp_path / "distorted.csv"
        code = main([str(a) for a in (
            "distort", "--bank", bank_path, "--true-mode", 1, "--target-mode", 2,
            "--controller", tmp_path / "d" / "controller.json", "--plan", plan_path,
            "--input", traj_path, "--out", out_csv,
        )])
        assert code == 1
        assert "changes this utility" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "layout, message",
        [
            ("no-l", "plan document has no 'l' entry"),
            ("per-sample", "ill-formed plan document: plan U2 is not a flat list"),
        ],
        ids=["no-l", "per-sample"],
    )
    def test_plan_of_another_layout_is_bad_input(self, capsys, designed, tmp_path, layout, message):
        # One U2 list per sample and no l, the layout of plans before U2 went flat,
        # and that U2 beside an l: both refused by the one rule of every document.
        _, design_dir, traj_path = designed
        doc = json.loads((design_dir / "plan.json").read_text())
        doc["U2"] = [[v] for v in doc["U2"]]
        if layout == "no-l":
            del doc["l"]
        plan = tmp_path / "old_plan.json"
        plan.write_text(json.dumps(doc))
        out_csv = tmp_path / "distorted.csv"
        assert self.distort(designed, traj_path, out_csv, plan) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("mode bank", "id", 1.7),
            ("mode bank", "id", "1"),
            ("mode bank", "m", 1.9),
            ("utility spec", "K", "200"),
            ("utility spec", "q", 1.5),
            ("plan", "l", True),
        ],
    )
    def test_integer_entry_of_another_type_is_bad_input(
        self, capsys, designed, tmp_path, kind, key, value
    ):
        # An integer entry must be a JSON integer: a float, a string or a bool is
        # ill-formed, never truncated or converted.
        bank_path, design_dir, traj_path = designed
        paths = {"mode bank": bank_path, "plan": design_dir / "plan.json"}
        if kind == "utility spec":
            doc = {"K": 200, "q": 1, "F": [[1.0 / 200] * 200], "mu": [0.0]}
        else:
            doc = json.loads(paths[kind].read_text())
        (doc["modes"][0] if key == "id" else doc)[key] = value
        paths[kind] = tmp_path / "bad.json"
        paths[kind].write_text(json.dumps(doc))
        pair = ["--bank", paths["mode bank"], "--true-mode", 1, "--target-mode", 2]
        if kind == "plan":
            argv = [
                "distort", *pair, "--controller", design_dir / "controller.json",
                "--plan", paths["plan"], "--input", traj_path, "--out", tmp_path / "distorted.csv",
            ]
        else:
            argv = ["design", *pair, "--K", 200, "--out", tmp_path / "d"]
            argv += ["--utility", paths[kind]] if kind == "utility spec" else []
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        message = f"ill-formed {kind} document: {key!r} is not an integer: {value!r}"
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "kind, name, spoil",
        [
            ("mode bank", "A", lambda d: d["modes"][0]["A"][0].__setitem__(0, "0.5")),
            ("mode bank", "C", lambda d: d["modes"][1].__setitem__("C", [[True, True, True]])),
            ("controller", "Theta", lambda d: d["Theta"][0].__setitem__(0, "1.0")),
            ("utility spec", "utility F", lambda d: d["F"][0].__setitem__(0, "0.005")),
            ("utility spec", "utility mu", lambda d: d.__setitem__("mu", [False])),
            ("plan", "plan x2_init", lambda d: d["x2_init"].__setitem__(0, "0.25")),
            ("plan", "plan U2", lambda d: d["U2"].__setitem__(0, "0.5")),
            ("plan", "plan U2", lambda d: d["U2"].__setitem__(0, None)),
            ("plan", "plan U2", lambda d: d["U2"].__setitem__(1, [d["U2"][1]])),
        ],
        ids=[
            "bank-A-string", "bank-C-bools", "controller-Theta-string", "spec-F-string",
            "spec-mu-bool", "plan-x2_init-string", "plan-U2-string", "plan-U2-null",
            "plan-U2-nested",
        ],
    )
    def test_number_entry_of_another_type_is_bad_input(
        self, capsys, designed, tmp_path, kind, name, spoil
    ):
        # A float entry must be a JSON number: a string, a bool, a null or a nested
        # list is ill-formed and named by its array, never converted.
        bank_path, design_dir, traj_path = designed
        paths = {
            "mode bank": bank_path,
            "controller": design_dir / "controller.json",
            "plan": design_dir / "plan.json",
        }
        if kind == "utility spec":
            doc = {"K": 200, "q": 1, "F": [[1.0 / 200] * 200], "mu": [0.0]}
        else:
            doc = json.loads(paths[kind].read_text())
        spoil(doc)
        paths[kind] = tmp_path / "bad.json"
        paths[kind].write_text(json.dumps(doc))
        pair = ["--bank", paths["mode bank"], "--true-mode", 1, "--target-mode", 2]
        if kind == "mode bank":
            argv = ["validate", "--bank", paths["mode bank"]]
        elif kind == "utility spec":
            argv = ["design", *pair, "--K", 200, "--utility", paths[kind], "--out", tmp_path / "d"]
        else:
            argv = [
                "distort", *pair, "--controller", paths["controller"],
                "--plan", paths["plan"], "--input", traj_path, "--out", tmp_path / "distorted.csv",
            ]
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        message = f"ill-formed {kind} document: {name} is not an array of numbers"
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "distorted.csv").exists()

    def test_plan_written_with_seed_and_magnitude_loads(self, capsys, designed, tmp_path):
        # Plans written before the record held only its arrays carry a seed and a
        # magnitude; the reader does not read them, so the plan distorts byte-identically.
        _, design_dir, traj_path = designed
        doc = json.loads((design_dir / "plan.json").read_text())
        assert list(doc) == ["x2_init", "l", "U2"]
        doc.update(seed=4, magnitude=1.0)
        old = tmp_path / "old_plan.json"
        old.write_text(json.dumps(doc))
        outputs = [tmp_path / "new.csv", tmp_path / "old.csv"]
        for plan, out_csv in zip([design_dir / "plan.json", old], outputs):
            assert self.distort(designed, traj_path, out_csv, plan) == 0
        capsys.readouterr()
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_non_finite_plan_is_bad_input(self, capsys, designed, tmp_path):
        _, design_dir, traj_path = designed
        doc = json.loads((design_dir / "plan.json").read_text())
        doc["U2"][7] = float("nan")
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

    def test_non_finite_controller_is_bad_input(self, capsys, designed, tmp_path):
        # A NaN Gamma is refused on loading, by name, before any replay.
        bank_path, design_dir, traj_path = designed
        doc = json.loads((design_dir / "controller.json").read_text())
        doc["Gamma"][0][0] = float("nan")
        controller = tmp_path / "nan_controller.json"
        controller.write_text(json.dumps(doc))
        out_csv = tmp_path / "distorted.csv"
        code = distort_pair(bank_path, controller, design_dir / "plan.json", traj_path, out_csv)
        assert code == 2
        assert "Gamma is not finite" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_overflowing_controller_is_bad_input(self, capsys, tmp_path):
        # A finite Theta of 1.7e308 overflows B_t Theta: that equation's residual is
        # NaN, the worst of the three, and distort refuses it by name with no warning.
        source, target = support.feedback_twin_pair(np.random.default_rng(0))
        bank_path, traj_path = tmp_path / "bank.json", tmp_path / "original.csv"
        save_mode_bank(ModeBank((source, target)), bank_path)
        K = 50
        assert design_pair(bank_path, 1, 2, K, tmp_path / "d") == 0
        rng = np.random.default_rng(75)
        write_trajectory_csv(support.random_trajectory(rng, source, K), traj_path)
        controller = tmp_path / "d" / "controller.json"
        doc = json.loads(controller.read_text())
        doc["Theta"] = np.full((2, 2), 1.7e308).tolist()
        controller.write_text(json.dumps(doc))
        capsys.readouterr()
        out_csv = tmp_path / "distorted.csv"
        code = distort_pair(bank_path, controller, tmp_path / "d" / "plan.json", traj_path, out_csv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out_csv.exists()
        assert captured.err.count("error:") == 1
        assert "B_t Theta = Pi B_s misses (relative residual nan)" in captured.err

    @pytest.mark.parametrize("command", ["distort", "classify"])
    def test_overflowing_output_is_bad_input(self, capsys, designed, tmp_path, command):
        bank_path, _, traj_path = designed
        big_path, out_csv = tmp_path / "big.csv", tmp_path / "distorted.csv"
        traj = read_trajectory_csv(traj_path)
        Y = traj.Y.copy()
        Y[6, 0] = 1e308  # finite, but ||Y|| + ||Ybar|| and residual + ||Y|| overflow
        write_trajectory_csv(Trajectory(U=traj.U, Y=Y, X=traj.X), big_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if command == "distort":
                code = self.distort(designed, big_path, out_csv)
            else:
                code = main(["classify", "--bank", str(bank_path), "--input", str(big_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        message = "the norm of Y is not finite" if command == "distort" else "mode 1 has no finite"
        assert message in captured.err
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["distort", "classify"])
    def test_large_finite_output_is_processed(self, capsys, designed, tmp_path, command):
        # A 1e160 output: its sum of squares overflows, but no norm does.
        bank_path, _, traj_path = designed
        big_path, out_csv = tmp_path / "big.csv", tmp_path / "distorted.csv"
        traj = read_trajectory_csv(traj_path)
        Y = traj.Y.copy()
        Y[6, 0] = 1e160
        write_trajectory_csv(Trajectory(U=traj.U, Y=Y, X=traj.X), big_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if command == "distort":
                code = self.distort(designed, big_path, out_csv)
            else:
                code = main(["classify", "--bank", str(bank_path), "--input", str(big_path)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        if command == "distort":
            assert read_trajectory_csv(out_csv).Y[6, 0] == pytest.approx(1e160, rel=1e-12)
        else:
            assert json.loads(captured.out)["verdict"] == "NONE"

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
        "loader, doc, message",
        [
            (
                "utility",
                {"K": None, "q": 1, "F": [[0.5, 0.5]], "mu": [0.0]},
                "ill-formed utility spec document: 'K' is not an integer: None",
            ),
            ("utility", [1, 2], "ill-formed utility spec document: .+"),
            ("plan", [1, 2], "ill-formed plan document: .+"),
            ("controller", [1, 2], "ill-formed controller document: .+"),
            ("bank", [1, 2], "ill-formed mode bank document: .+"),
            ("bank", {"m": 1, "l": 1}, "mode bank document has no 'modes' entry"),
            (
                "controller",
                {"Pi": [[1.0]], "Gamma": [[0.0]]},
                "controller document has no 'Theta' entry",
            ),
            ("utility", {"K": 200, "q": 1, "mu": [0.0]}, "utility spec document has no 'F' entry"),
            (
                "plan",
                {"x2_init": [0.0, 0.0, 0.0], "l": 1, "seed": 0, "magnitude": 1.0},
                "plan document has no 'U2' entry",
            ),
        ],
        ids=[
            "utility-null-K", "utility-list", "plan-list", "controller-list", "bank-list",
            "bank-no-modes", "controller-no-Theta", "utility-no-F", "plan-no-U2",
        ],
    )
    def test_malformed_document_is_bad_input(
        self, capsys, designed, tmp_path, loader, doc, message
    ):
        # Valid JSON of the wrong form: one error line by the one rule of every
        # document, and exit 2, never a traceback.
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
        assert re.fullmatch(f"error: {message}\n", err)
        assert "Traceback" not in err

    def test_overflowing_gramian_is_bad_input(self, capsys, tmp_path):
        # 1.05^K overflows F Ot, and with it the plan's Gram F M (F M)', from
        # K = 14700 or so: design exits 2 with no warning, naming the mode and K.
        # Classify forms no power of A past its window.
        bank_path = tmp_path / "bank.json"
        save_mode_bank(ModeBank(support.unstable_pair()), bank_path)
        for K in (15000, 20000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([
                    "design", "--bank", str(bank_path), "--true-mode", "1", "--target-mode", "2",
                    "--K", str(K), "--out", str(tmp_path / "d"),
                ])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"mode 2 at K = {K} is not finite" in captured.err

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

    def test_score_without_a_finite_value_prints_null(self, capsys, vehicle_bank_path, tmp_path):
        # Zero outputs under inputs of 1e-9: no mode explains them, and each score,
        # inf in the library, is null in the strict JSON that run_cli parses.
        path = tmp_path / "zero_outputs.csv"
        write_trajectory_csv(Trajectory(U=np.full((9, 1), 1e-9), Y=np.zeros((10, 1))), path)
        code, report = run_cli(capsys, "classify", "--bank", vehicle_bank_path, "--input", path)
        assert code == 0
        assert report == {"residuals": {"1": None, "2": None}, "accepted": [], "verdict": "NONE"}


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

    def test_tracking_report_is_the_target_output(self, capsys, tmp_path):
        # ybar1 is the target's own output from Pi x(1) under ubar1, rebuilt
        # here from the written files; a zero plan's replay would copy y.
        out = tmp_path / "demo"
        code, report = run_cli(capsys, "demo", "--out", out, "--K", 500)
        assert code == 0
        bank = load_mode_bank(out / "bank.json")
        sports, average = bank.mode(1), bank.mode(2)
        sol = load_controller(out / "controller.json", sports, average)
        original = read_trajectory_csv(out / "original.csv")
        fig1 = np.loadtxt(out / "fig1.csv", delimiter=",", skiprows=1)
        fig2 = np.loadtxt(out / "fig2.csv", delimiter=",", skiprows=1)
        ybar1 = simulate_mode(average, sol.Pi @ original.X[0], fig2[:, 2]).Y[:, 0]
        np.testing.assert_array_equal(fig1[:, 2], ybar1)
        error = np.max(np.abs(ybar1 - original.Y[:, 0]))
        assert report["max_tracking_error"] == error
        assert 0.0 < error <= 1e-9

    def test_utility_changing_plan_fails(self, capsys, tmp_path, monkeypatch):
        def shifted_plan(ops, spec, magnitude, seed):
            # A constant output shift moves the average: not in Ker[F].
            return KernelPlan(
                x2_init=np.zeros(ops.n),
                U2=np.zeros((ops.K - 1, ops.l)),
                delta_Y=np.full(ops.K * ops.m, 0.1),
                residual=0.0,
            )

        monkeypatch.setattr(distort, "solve_utility_invariance", shifted_plan)
        out = tmp_path / "demo"
        assert main(["demo", "--out", str(out), "--K", "60"]) == 1
        captured = capsys.readouterr()
        assert "changes this utility" in captured.err and not captured.out
        assert not (out / "distorted.csv").exists()

    @pytest.mark.parametrize("command, K", [("design", -3), ("demo", -3), ("demo", 0)])
    def test_horizon_below_two_is_named(self, capsys, tmp_path, vehicle_bank_path, command, K):
        out = tmp_path / "out"
        out.mkdir()
        pair = ["--bank", str(vehicle_bank_path), "--true-mode", "1", "--target-mode", "2"]
        argv = [command, *(pair if command == "design" else []), "--K", str(K)]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: utility horizon must be at least 2\n"
        assert not captured.out and not any(out.iterdir())

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


def test_module_entry_point_exit_codes(tmp_path):
    # python -m behaviorcloak in a fresh process: strict JSON on success, one error
    # line and exit 2 on bad input, and argparse's exit 2 on a missing option.
    run = support.run_python("-m", "behaviorcloak", "demo", "--out", tmp_path / "demo", "--K", 50)
    assert run.returncode == 0 and isinstance(strict_json(run.stdout), dict)
    missing, drive = tmp_path / "missing.json", tmp_path / "demo" / "original.csv"
    run = support.run_python("-m", "behaviorcloak", "classify", "--bank", missing, "--input", drive)
    assert run.returncode == 2 and run.stdout == ""
    assert re.fullmatch(f"error: .*{re.escape(str(missing))}.*\n", run.stderr)
    run = support.run_python(
        "-m", "behaviorcloak", "design", "--bank", tmp_path / "demo" / "bank.json",
        "--true-mode", 1, "--target-mode", 2, "--out", tmp_path / "design",
    )
    assert run.returncode == 2 and run.stdout == ""
    assert "the following arguments are required: --K" in run.stderr
