"""Command line over :func:`~behaviorcloak.distort.design` and
:func:`~behaviorcloak.distort.cloak`: it parses arguments, reads and writes
files and maps errors to exit codes.

Subcommands: ``validate`` a mode bank, ``design`` the regulator solution
and distortion plan for a mode pair, ``distort`` a recorded trajectory,
``classify`` a trajectory against a bank, and ``demo`` for the
two-vehicle end-to-end scenario.

Exit codes: 0 success, 1 a validation check failed (or ``distort`` or
``demo`` would change the utility), 2 bad input or configuration, 3 regulation
infeasible, 4 utility invariance infeasible.  Every subcommand prints strict
JSON (RFC 8259): a score with no finite value prints as ``null``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .classify import ACCEPT_TOL, classify
from .distort import DistortionConfig, UtilityChangedError, cloak, design
from .invariance import (
    InvarianceInfeasibleError,
    KernelPlan,
    UtilitySpec,
    load_kernel_plan,
    load_utility_spec,
    save_kernel_plan,
)
from .modes import (
    ModeBank,
    load_mode_bank,
    read_trajectory_csv,
    save_mode_bank,
    simulate_mode,
    validate_mode,
    vehicle_demo_bank,
    write_csv_rows,
    write_trajectory_csv,
)
from .regulation import RegulationInfeasibleError, load_controller, save_controller

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_REGULATION_INFEASIBLE = 3
EXIT_INVARIANCE_INFEASIBLE = 4

def _resolve_utility(value: str, K: int, m: int) -> UtilitySpec:
    if value == "average":
        return UtilitySpec.average(K, m)
    spec = load_utility_spec(value)
    if spec.K != K or spec.m != m:
        raise ValueError(
            f"utility {value} is bound to K = {spec.K}, m = {spec.m}; "
            f"expected K = {K}, m = {m}"
        )
    return spec


def _mode_pair(bank: ModeBank, true_id: int, target_id: int):
    """The (true, target) modes of a bank; the two must differ."""
    if true_id == target_id:
        raise ValueError("the target mode must differ from the true mode")
    return bank.mode(true_id), bank.mode(target_id)


def _print_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _cmd_validate(args) -> int:
    bank = load_mode_bank(args.bank)
    reports = [validate_mode(mode) for mode in bank]
    _print_json({"modes": [rep.to_dict() for rep in reports]})
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_CHECK_FAILED


def _cmd_design(args) -> int:
    bank = load_mode_bank(args.bank)
    true_mode, target_mode = _mode_pair(bank, args.true_mode, args.target_mode)
    utility = _resolve_utility(args.utility, args.K, bank.m)
    cfg = design(true_mode, target_mode, utility, args.magnitude, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_controller(cfg.regulator, out / "controller.json")
    save_kernel_plan(cfg.plan, out / "plan.json")
    _print_json(
        {
            "controller": str(out / "controller.json"),
            "plan": str(out / "plan.json"),
            "regulator_residual": cfg.regulator.residual,
            "plan_residual": cfg.plan.residual,
            "plan_input_norm": float(np.linalg.norm(cfg.plan.U2)),
            "kernel_deviation": float(np.linalg.norm(utility.F @ cfg.plan.delta_Y)),
        }
    )
    return EXIT_OK


def _cmd_distort(args) -> int:
    bank = load_mode_bank(args.bank)
    true_mode, target_mode = _mode_pair(bank, args.true_mode, args.target_mode)
    sol = load_controller(args.controller, true_mode, target_mode)
    plan = load_kernel_plan(args.plan, target_mode)
    traj = read_trajectory_csv(args.input)
    utility = _resolve_utility(args.utility, traj.K, bank.m)
    cfg = DistortionConfig(true_mode, target_mode, sol, plan, traj.K)
    distorted = cloak(cfg, traj, utility)
    write_trajectory_csv(distorted.to_trajectory(), args.out)
    _print_json(
        {
            "output": str(args.out),
            "utility_original": utility.utility(traj.stacked_outputs()).tolist(),
            "utility_distorted": utility.utility(distorted.Ybar.reshape(-1)).tolist(),
        }
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    bank = load_mode_bank(args.bank)
    traj = read_trajectory_csv(args.input)
    report = classify(bank, traj, accept_tol=args.accept_tol)
    _print_json(report.to_dict())
    return EXIT_OK


def _cmd_demo(args) -> int:
    seed, K = args.seed, args.K
    out = Path(args.out)
    bank = vehicle_demo_bank()
    sports, average = bank.mode(1), bank.mode(2)
    utility = UtilitySpec.average(K, sports.m)

    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=sports.n)
    U = rng.uniform(-1.0, 1.0, size=(K - 1, sports.l))
    traj = simulate_mode(sports, x1, U)
    cfg = design(sports, average, utility, args.magnitude, seed + 1)
    zero_plan = KernelPlan.zero(average, K)
    ubar1 = cloak(dataclasses.replace(cfg, plan=zero_plan), traj, utility).Ubar
    ybar1 = simulate_mode(average, cfg.regulator.Pi @ x1, ubar1).Y  # the target's own output
    cloaked = cloak(cfg, traj, utility)

    out.mkdir(parents=True, exist_ok=True)
    save_mode_bank(bank, out / "bank.json")
    write_trajectory_csv(traj, out / "original.csv")
    save_controller(cfg.regulator, out / "controller.json")
    save_kernel_plan(cfg.plan, out / "plan.json")
    write_trajectory_csv(cloaked.to_trajectory(), out / "distorted.csv")
    _write_figure(out / "fig1.csv", ["k", "y", "ybar1"], traj.Y, ybar1)
    _write_figure(out / "fig2.csv", ["k", "u", "ubar1"], traj.U, ubar1)
    _write_figure(out / "fig3.csv", ["k", "y", "ybar"], traj.Y, cloaked.Ybar)
    _write_figure(out / "fig4.csv", ["k", "u", "ubar"], traj.U, cloaked.Ubar)

    report_original = classify(bank, traj, accept_tol=args.accept_tol)
    report_cloaked = classify(
        bank, cloaked.to_trajectory(), accept_tol=args.accept_tol
    )
    _print_json(
        {
            "output_directory": str(out),
            "K": K,
            "seed": seed,
            "max_tracking_error": float(np.max(np.abs(ybar1 - traj.Y))),
            "distortion_norm": float(np.linalg.norm(cloaked.Ybar - traj.Y)),
            "utility_original": utility.utility(traj.stacked_outputs()).tolist(),
            "utility_distorted": utility.utility(cloaked.Ybar.reshape(-1)).tolist(),
            "classified_original": report_original.to_dict(),
            "classified_distorted": report_cloaked.to_dict(),
        }
    )
    return EXIT_OK


def _write_figure(path, header, *columns) -> None:
    """Plot-ready CSV: the 1-based sample index next to paired traces."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        row_format = "%d" + ",%r" * len(columns) + "\n"
        write_csv_rows(fh, row_format, *(col[:, :1] for col in columns))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="behaviorcloak",
        description="Distort mode trajectories without changing their utility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the standing assumptions of a bank")
    p.add_argument("--bank", required=True, help="mode bank JSON file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("design", help="solve the regulator equations and a plan")
    p.add_argument("--bank", required=True)
    p.add_argument("--true-mode", type=int, required=True)
    p.add_argument("--target-mode", type=int, required=True)
    p.add_argument(
        "--utility",
        default="average",
        help='utility spec JSON file, or "average" for the per-channel mean',
    )
    p.add_argument("--K", type=int, required=True, help="horizon length")
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="directory for the design artifacts")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("distort", help="cloak a recorded trajectory")
    p.add_argument("--bank", required=True)
    p.add_argument("--true-mode", type=int, required=True)
    p.add_argument("--target-mode", type=int, required=True)
    p.add_argument("--controller", required=True, help="regulator solution JSON file")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--input", required=True, help="trajectory CSV (with states)")
    p.add_argument("--utility", default="average")
    p.add_argument("--out", required=True, help="output trajectory CSV")
    p.set_defaults(handler=_cmd_distort)

    p = sub.add_parser("classify", help="score a trajectory against a bank")
    p.add_argument("--bank", required=True)
    p.add_argument("--input", required=True, help="trajectory CSV")
    p.add_argument("--accept-tol", type=float, default=ACCEPT_TOL)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("demo", help="run the two-vehicle demo end to end")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--K", type=int, default=500)
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--accept-tol", type=float, default=ACCEPT_TOL)
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except RegulationInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGULATION_INFEASIBLE
    except InvarianceInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANCE_INFEASIBLE
    except UtilityChangedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (OSError, ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message; print the message itself.
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_BAD_INPUT
