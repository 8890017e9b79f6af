"""Units audit: every check compares a residual with the data it checks, so no
verdict, exit code or accepted solution depends on the units of u and y.

The vehicles are scaled by ``support.scaled_vehicles(10**s, 10**t)``: ``C`` by
10^s and ``B`` by 10^t, for s and t in {-9, -3, 0, 3, 9}.  Under an absolute
residual bound most of these cases fail: at ``C`` x 1e-9 the regulator solve
takes Pi ~ 0 (its residual is C_s itself, at the bound), at ``B`` x 1e9 or
``C`` x 1e9 it refuses a feasible pair, at ``C`` x 1e-9 the classifier reads
AMBIGUOUS and an infeasible pair is accepted, and a window a million times
smaller than the tolerance passes any fit.  The cases on which an absolute
bound reads the same are oracle guards: the design cases with s and t in
{-3, 0, 3}, (-3, -9) and (-9, 3), the infeasible cases with s, t >= 0 and
(9, -9), and the command line at unit scale.

Data and utilities far below 1, whose squares underflow (1e-170), keep the
verdicts and plans of unit scale: their norms are rescaled, not read as 0.
"""

import json
import re
import warnings

import numpy as np
import pytest

import support
from behaviorcloak import (
    DistortionConfig,
    KernelPlan,
    ModeBank,
    RegulatorSolution,
    StateSpaceMode,
    Trajectory,
    UtilitySpec,
    classify,
    cloak,
    design,
    mode_residual,
    reconstruct_state,
    save_mode_bank,
    solve_regulator_equations,
    write_trajectory_csv,
)
from behaviorcloak.invariance import save_utility_spec
from behaviorcloak.classify import NONE
from behaviorcloak.cli import main
from behaviorcloak.distort import InconsistentDataError
from behaviorcloak.regulation import RegulationInfeasibleError

EXPONENTS = (-9, -3, 0, 3, 9)
GRID = [(s, t) for s in EXPONENTS for t in EXPONENTS]
K = 500


@pytest.fixture(scope="module")
def unscaled_pi():
    return solve_regulator_equations(*support.scaled_vehicles()).Pi


def infeasible_pair(c=1.0, b=1.0):
    """Two random modes the target cannot imitate, with ``C`` scaled by c and ``B`` by b."""
    rng = np.random.default_rng(11)
    modes = support.random_valid_mode(rng), support.random_valid_mode(rng)
    return tuple(StateSpaceMode(i, M.A, b * M.B, c * M.C) for i, M in enumerate(modes, 1))


@pytest.mark.parametrize("s, t", GRID)
def test_design_cloak_and_verdicts_do_not_depend_on_units(unscaled_pi, s, t):
    # Every pair of the grid is feasible and is accepted with the unscaled Pi; its
    # cloak keeps the average, is the target's to 1e-9 of ||Ybar|| and reads 2, and
    # the drive reads 1.  The plan's magnitude is in output units: it scales with C B.
    sports, average = support.scaled_vehicles(10.0**s, 10.0**t)
    traj = support.random_trajectory(np.random.default_rng(72), sports, K)
    spec = UtilitySpec.average(K)
    cfg = design(sports, average, spec, magnitude=10.0 ** (s + t), seed=4)
    gap = np.abs(cfg.regulator.Pi - unscaled_pi).max()
    assert gap <= 1e-9 * np.abs(unscaled_pi).max()
    cloaked = cloak(cfg, traj, spec).to_trajectory()
    assert mode_residual(average, cloaked) <= 1e-9
    bank = ModeBank((sports, average))
    assert classify(bank, traj).verdict == 1
    assert classify(bank, cloaked).verdict == 2


EQUATIONS = ("A_t Pi - Pi A_s + B_t Gamma = 0", "C_t Pi = C_s", "B_t Theta = Pi B_s")


@pytest.mark.parametrize("s, t", GRID)
def test_infeasible_pair_is_refused_at_every_scale(s, t):
    with pytest.raises(RegulationInfeasibleError) as err:
        solve_regulator_equations(*infeasible_pair(10.0**s, 10.0**t))
    assert err.value.residual > 1e-3
    equation = "|".join(map(re.escape, EQUATIONS))
    residual = re.escape(f"(relative residual {err.value.residual:.3e})")
    message = f"regulator equations are infeasible: ({equation}) misses {residual}"
    assert re.fullmatch(message, str(err.value))


def test_infeasible_pair_names_the_equation_that_misses(capsys, tmp_path):
    # The least-squares solution misses B_t Theta = Pi B_s most (relative residuals
    # 0.12, 0.08 and 0.35 at the Kronecker oracle's solution); the library and the
    # CLI (exit 3, nothing on stdout) name that equation.
    message = "regulator equations are infeasible: B_t Theta = Pi B_s misses"
    message += " (relative residual 3.484e-01)"
    with pytest.raises(RegulationInfeasibleError) as err:
        solve_regulator_equations(*infeasible_pair())
    assert str(err.value) == message
    assert err.value.residual == pytest.approx(0.3484, abs=5e-5)
    bank_path = tmp_path / "bank.json"
    save_mode_bank(ModeBank(infeasible_pair()), bank_path)
    pair = ["--bank", str(bank_path), "--true-mode", "1", "--target-mode", "2"]
    assert main(["design", *pair, "--K", "50", "--out", str(tmp_path / "d")]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_pi_near_zero_is_refused_by_the_gate():
    # At C x 1e-9 and B x 1e-9 the zero solution misses C_t Pi = C_s by all of C_s,
    # whose entries are 1e-9: relative to its terms the miss is 1.
    sports, average = support.scaled_vehicles(1e-9, 1e-9)
    zero = RegulatorSolution(np.zeros((3, 3)), np.zeros((1, 3)), np.zeros((1, 1)), residual=0.0)
    with pytest.raises(ValueError, match=r"\(relative residual 1\.000e\+00\)"):
        DistortionConfig(sports, average, zero, KernelPlan.zero(average, K), K)


@pytest.mark.parametrize("scale", [1e-10, 1e-12])
def test_small_foreign_window_is_inconsistent(scale):
    # The window of another mode, in small units: its fit misses by a share of ||Y||.
    rng = np.random.default_rng(52)
    mode = support.double_integrator()
    foreign = support.random_trajectory(rng, support.random_valid_mode(rng, n=2), K=6)
    with pytest.raises(InconsistentDataError):
        reconstruct_state(mode, scale * foreign.U, scale * foreign.Y)


def test_zero_output_scores_by_its_residual():
    # Zero outputs under nonzero inputs: no mode explains them, however small the inputs.
    bank = ModeBank(support.scaled_vehicles())
    report = classify(bank, Trajectory(U=np.full((9, 1), 1e-9), Y=np.zeros((10, 1))))
    assert report.residuals == {1: np.inf, 2: np.inf}
    assert report.verdict == NONE


def test_large_finite_output_is_cloaked_and_classified():
    # A 1e160 output: its sum of squares overflows, its norm does not.
    sports, average = support.scaled_vehicles()
    traj = support.random_trajectory(np.random.default_rng(72), sports, K)
    Y = traj.Y.copy()
    Y[6, 0] = 1e160
    big = Trajectory(U=traj.U, Y=Y, X=traj.X)
    spec = UtilitySpec.average(K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cloaked = cloak(design(sports, average, spec, seed=4), big, spec).to_trajectory()
        report = classify(ModeBank((sports, average)), cloaked)
    assert all(np.isfinite(score) for score in report.residuals.values())


@pytest.mark.parametrize("c, b", [(1e-9, 1e-9), (1e9, 1.0), (1.0, 1.0)])
def test_cli_design_distort_classify(capsys, tmp_path, unscaled_pi, c, b):
    # design and distort exit 0 with the unscaled Pi in controller.json, and the
    # cloak reads 2.  (1e-9, 1e-9) is the Pi ~ 0 case and (1e9, 1) a refused
    # feasible pair under an absolute bound; (1, 1) is the oracle guard.
    bank_path, drive, design_dir = tmp_path / "bank.json", tmp_path / "drive.csv", tmp_path / "d"
    sports, average = support.scaled_vehicles(c, b)
    save_mode_bank(ModeBank((sports, average)), bank_path)
    write_trajectory_csv(support.random_trajectory(np.random.default_rng(72), sports, K), drive)
    pair = ["--bank", str(bank_path), "--true-mode", "1", "--target-mode", "2"]
    argv = ["--K", str(K), "--magnitude", str(c * b), "--out", str(design_dir)]
    assert main(["design", *pair, *argv]) == 0
    Pi = np.array(json.loads((design_dir / "controller.json").read_text())["Pi"])
    assert np.abs(Pi - unscaled_pi).max() <= 1e-9 * np.abs(unscaled_pi).max()
    out_csv = tmp_path / "distorted.csv"
    argv = ["distort", *pair, "--controller", str(design_dir / "controller.json")]
    argv += ["--plan", str(design_dir / "plan.json"), "--input", str(drive), "--out", str(out_csv)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["classify", "--bank", str(bank_path), "--input", str(out_csv)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "2"


@pytest.mark.parametrize("scale", [1e-150, 1e-170, 1e-300])
def test_tiny_drive_reads_the_unit_scale_verdict(scale):
    # At 1e-170 and 1e-300 the squares of the outputs and residuals underflow: read
    # as 0, both scores are 0 and the verdict is AMBIGUOUS.  Rescaled, the drive reads 1.
    sports, average = support.scaled_vehicles()
    bank = ModeBank((sports, average))
    traj = support.random_trajectory(np.random.default_rng(72), sports, 200)
    unit = classify(bank, traj)
    tiny = classify(bank, Trajectory(U=scale * traj.U, Y=scale * traj.Y))
    assert tiny.verdict == unit.verdict == 1
    assert tiny.residuals[2] == pytest.approx(unit.residuals[2], rel=1e-9)


def tiny_average(K):
    """The per-sample average times 1e-170: the squares of its row underflow."""
    average = UtilitySpec.average(K)
    return UtilitySpec(F=1e-170 * average.F, mu=average.mu, K=K)


def test_tiny_utility_is_planned_and_kept():
    # Read as 0, the row's norm bounds every change at 0 and the plan's Gram loses
    # the input part: design refuses (exit 4), although Ker[F] is the average's.
    sports, average = support.scaled_vehicles()
    traj = support.random_trajectory(np.random.default_rng(72), sports, 200)
    spec = tiny_average(200)
    cfg = design(sports, average, spec, seed=4)
    assert cfg.plan.residual <= 1e-15
    assert np.linalg.norm(cfg.plan.delta_Y) == pytest.approx(1.0)
    cloaked = cloak(cfg, traj, spec).to_trajectory()
    assert classify(ModeBank((sports, average)), cloaked).verdict == 2


def test_cli_tiny_utility_document(capsys, tmp_path):
    # The same utility as an explicit document: design, distort and classify exit 0.
    bank_path, drive, utility_path = (tmp_path / f for f in ("bank.json", "drive.csv", "u.json"))
    sports, average = support.scaled_vehicles()
    save_mode_bank(ModeBank((sports, average)), bank_path)
    write_trajectory_csv(support.random_trajectory(np.random.default_rng(72), sports, 200), drive)
    save_utility_spec(tiny_average(200), utility_path)
    pair = ["--bank", str(bank_path), "--true-mode", "1", "--target-mode", "2"]
    design_dir, out_csv = tmp_path / "d", tmp_path / "distorted.csv"
    argv = ["--utility", str(utility_path), "--K", "200", "--out", str(design_dir)]
    assert main(["design", *pair, *argv]) == 0
    assert json.loads(capsys.readouterr().out)["plan_residual"] <= 1e-15
    argv = ["distort", *pair, "--controller", str(design_dir / "controller.json")]
    argv += ["--plan", str(design_dir / "plan.json"), "--input", str(drive)]
    argv += ["--utility", str(utility_path), "--out", str(out_csv)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["classify", "--bank", str(bank_path), "--input", str(out_csv)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "2"
