"""The benchmark's workloads: inputs from a seed, timed sessions, checks.

``hour``   one in-process library session on the two-vehicle bank at
           K = 36000 (one hour at 10 Hz): design, ``run_offline``, classify.
``cli``    the same scenario as three fresh ``python -m behaviorcloak``
           processes (design, distort, classify) reading files.
``stream`` one design on a seeded observable MIMO pair at K = 500, then 72
           stateless drives, each through a fresh ``DistortionEngine`` one
           ``step`` at a time, every emitted trajectory classified.

Every operation (one design, one cloak, one classify) is checked with the
tolerances of acceptance criterion 8; a failed check counts as a failed
operation.  The package is reached only through its public API and its CLI,
always by attribute lookup on the package at call time, so that a traced run
sees every call through the wrappers of ``tracer.Tracer``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MAGNITUDE = 1.0
TRUE_ID, TARGET_ID = 1, 2
# Acceptance criterion 8: utility kept to 1e-8 relative, distortion norm to
# 1e-6 absolute.  The plan residual bound is the solver's own acceptance test.
UTILITY_RTOL = 1e-8
NORM_ATOL = 1e-6
PLAN_RESIDUAL_TOL = 1e-9 * (1.0 + MAGNITUDE)
KERNEL_TOL = 1e-8 * (1.0 + MAGNITUDE)
# Stream: emitted Ybar must equal Y + dY_plan on the emitted window.
STREAM_RTOL = 1e-8
# Stream pair shape: observable MIMO, n = 4 states, m = l = 2.
STREAM_N, STREAM_M, STREAM_L = 4, 2, 2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the ones the benchmark reports."""

    K: int = 36000
    stream_K: int = 500
    stream_drives: int = 72
    setup_probes: int = 3


@dataclass
class Tally:
    """Timing samples, operation counts and layer counters of one run."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    counters: dict = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def op(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}")


def now() -> float:
    return time.perf_counter()


def import_package():
    """Import behaviorcloak from this checkout's ``src``, nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import behaviorcloak

    origin = Path(behaviorcloak.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"behaviorcloak was imported from {origin}, not {SRC}")
    return behaviorcloak


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# --- inputs -------------------------------------------------------------------


@dataclass
class VehicleInputs:
    bank: object
    traj: object
    spec: object
    plan_seed: int
    K: int


def vehicle_inputs(bc, seed: int, K: int, workdir: Optional[Path] = None):
    """The two-vehicle scenario: a sports-car drive with recorded states.

    With ``workdir`` the bank and drive are also written there as the CLI's
    input files.
    """
    bank = bc.vehicle_demo_bank()
    sports = bank.mode(TRUE_ID)
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=sports.n)
    U = rng.uniform(-1.0, 1.0, size=(K - 1, sports.l))
    traj = bc.simulate_mode(sports, x1, U)
    plan_seed = int(rng.integers(2**31))
    spec = bc.UtilitySpec.average(K, sports.m)
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
        bc.save_mode_bank(bank, workdir / "bank.json")
        bc.write_trajectory_csv(traj, workdir / "original.csv")
    return VehicleInputs(bank=bank, traj=traj, spec=spec, plan_seed=plan_seed, K=K)


def stream_pair(bc, rng):
    """A seeded observable source mode and a target it can imitate.

    The target is the source under state feedback ``u -> u + G x`` followed
    by a change of state basis, so the regulator equations have an exact
    solution while the two behaviours differ.  Both are kept Schur stable so
    that drives stay bounded.
    """
    n, m, l = STREAM_N, STREAM_M, STREAM_L
    while True:
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.5, 0.9) / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((n, l))
        C = rng.standard_normal((m, n))
        G = 0.5 * rng.standard_normal((l, n))
        T = rng.standard_normal((n, n))
        A_fb = A + B @ G
        if np.max(np.abs(np.linalg.eigvals(A_fb))) >= 0.95 or np.linalg.cond(T) > 20:
            continue
        T_inv = np.linalg.inv(T)
        source = bc.StateSpaceMode(TRUE_ID, A, B, C)
        target = bc.StateSpaceMode(TARGET_ID, T_inv @ A_fb @ T, T_inv @ B, C @ T)
        if bc.validate_mode(source).passed and bc.validate_mode(target).passed:
            return source, target


@dataclass
class StreamInputs:
    bank: object
    drives: list
    spec: object
    plan_seed: int
    K: int


def stream_inputs(bc, seed: int, K: int, drives: int) -> StreamInputs:
    rng = np.random.default_rng(seed)
    source, target = stream_pair(bc, rng)
    runs = []
    for _ in range(drives):
        full = bc.simulate_mode(
            source, rng.standard_normal(source.n), rng.uniform(-1.0, 1.0, (K - 1, source.l))
        )
        runs.append(bc.Trajectory(U=full.U, Y=full.Y))
    plan_seed = int(rng.integers(2**31))
    spec = bc.UtilitySpec.average(K, source.m)
    return StreamInputs(
        bank=bc.ModeBank((source, target)), drives=runs, spec=spec, plan_seed=plan_seed, K=K
    )


# --- shared steps and checks --------------------------------------------------


def design(bc, source, target, spec, plan_seed: int):
    """Regulator equations, gain, lifted operators and kernel plan."""
    sol = bc.solve_regulator_equations(source, target)
    gain = bc.design_stabilizing_gain(target)
    ctrl = bc.build_tracking_controller(sol, gain, target)
    ops = bc.build_lifted_operators(target, spec.K)
    plan = bc.solve_utility_invariance(ops, spec, magnitude=MAGNITUDE, seed=plan_seed)
    return ctrl, plan


def check_design(tally: Tally, residual: float, kernel_dev: float) -> None:
    ok = residual <= PLAN_RESIDUAL_TOL and kernel_dev <= KERNEL_TOL
    tally.op("design", ok, f"plan residual {residual:.3e}, |F dY| {kernel_dev:.3e}")
    tally.counters["invariance.plan_residual"] = residual
    tally.counters["invariance.kernel_dev"] = kernel_dev


def check_vehicle_cloak(tally: Tally, what: str, spec, Y, Ybar) -> None:
    """Criterion 8: ``|F Ybar - F Y| <= 1e-8 (1 + |F Y|)`` and ``|Ybar - Y| = 1``."""
    if Ybar.shape != Y.shape:
        tally.op(what, False, f"emitted shape {Ybar.shape}, expected {Y.shape}")
        return
    fy = spec.F @ Y.reshape(-1)
    gap = np.abs(spec.F @ Ybar.reshape(-1) - fy)
    dist = float(np.linalg.norm(Ybar - Y))
    ok = bool(np.all(gap <= UTILITY_RTOL * (1.0 + np.abs(fy)))) and abs(dist - MAGNITUDE) <= NORM_ATOL
    tally.op(what, ok, f"utility gap {np.max(gap):.3e}, |Ybar - Y| {dist:.9f}")


def check_window(tally: Tally, what: str, Y, delta_Y, Ybar, start: int) -> None:
    """Emitted ``Ybar`` equals ``Y + dY_plan`` from sample ``start`` (0-based)."""
    expect = Y[start:] + delta_Y.reshape(Y.shape)[start:]
    if Ybar.shape != expect.shape:
        tally.op(what, False, f"emitted shape {Ybar.shape}, expected {expect.shape}")
        return
    err = float(np.max(np.abs(Ybar - expect)))
    tally.op(what, err <= STREAM_RTOL * (1.0 + float(np.max(np.abs(Y)))), f"max |Ybar - Y - dY| {err:.3e}")


def check_verdict(tally: Tally, what: str, verdict, expected: int) -> None:
    tally.op(what, str(verdict) == str(expected), f"verdict {verdict}, expected {expected}")


def margin(residuals: dict, target: int) -> float:
    """Smallest non-target residual over the target residual."""
    by_id = {int(k): float(v) for k, v in residuals.items()}
    others = min(v for k, v in by_id.items() if k != target)
    return others / max(by_id[target], 1e-300)


# --- hour ---------------------------------------------------------------------


class Hour:
    name = "hour"

    def __init__(self, bc, seed: int, sizes: Sizes, workdir: Path):
        self.bc = bc
        self.inp = vehicle_inputs(bc, seed, sizes.K)

    def session(self, tally: Tally, span) -> None:
        bc, inp = self.bc, self.inp
        sports, average = inp.bank.mode(TRUE_ID), inp.bank.mode(TARGET_ID)
        t0 = now()
        with span("bench.design"):
            ctrl, plan = design(bc, sports, average, inp.spec, inp.plan_seed)
        t1 = now()
        with span("bench.cloak"):
            cfg = bc.DistortionConfig(sports, average, ctrl, plan, inp.K)
            cloaked = bc.run_offline(cfg, inp.traj)
        t2 = now()
        with span("bench.classify"):
            original = bc.classify(inp.bank, inp.traj)
        t3 = now()
        with span("bench.classify"):
            disguised = bc.classify(inp.bank, cloaked.to_trajectory())
        t4 = now()
        tally.samples["design_s"].append(t1 - t0)
        tally.samples["cloak_s"].append(t2 - t1)
        tally.samples["classify_s"].extend([t3 - t2, t4 - t3])
        tally.samples["session_s"].append(t4 - t0)

        check_design(tally, plan.residual, float(np.linalg.norm(inp.spec.F @ plan.delta_Y)))
        check_vehicle_cloak(tally, "cloak", inp.spec, inp.traj.Y, cloaked.Ybar)
        if cloaked.k_start != 1:
            tally.op("cloak", False, f"emission started at sample {cloaked.k_start}")
        tally.counters["distort.withheld"] = cloaked.k_start - 1
        check_verdict(tally, "classify original", original.verdict, TRUE_ID)
        check_verdict(tally, "classify cloaked", disguised.verdict, TARGET_ID)
        tally.samples["classify.margin"].append(margin(disguised.residuals, TARGET_ID))


# --- cli ----------------------------------------------------------------------


def run_cli(argv: list, traced_spans: Optional[Path]):
    """One fresh CLI process; returns (exit code, stdout, stderr, wall seconds)."""
    if traced_spans is None:
        cmd = [sys.executable, "-m", "behaviorcloak", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "probe.py"), "cli-main", str(traced_spans), *argv]
    t0 = now()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr, now() - t0


def read_emitted_y(path: Path) -> np.ndarray:
    """Output columns of a trajectory CSV, read without the package's reader."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    cols = [i for i, name in enumerate(header) if name.startswith("y_")]
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)


class Cli:
    name = "cli"

    def __init__(self, bc, seed: int, sizes: Sizes, workdir: Path):
        self.bc = bc
        self.dir = workdir
        self.inp = vehicle_inputs(bc, seed, sizes.K, workdir)

    def _call(self, span, label: str, argv: list):
        spans = self.dir / f"{label}.spans.npz" if span.tracer is not None else None
        with span(f"bench.{label}"):
            rc, out, err, wall = run_cli(argv, spans)
            if spans is not None and spans.exists():
                span.tracer.merge_file(spans)
                spans.unlink()
        if rc != 0:
            sys.stderr.write(f"behaviorcloak {argv[0]} exited {rc}:\n{err}\n")
        return rc, out, wall

    def session(self, tally: Tally, span) -> None:
        inp, d = self.inp, self.dir
        bank, original = d / "bank.json", d / "original.csv"
        design_dir, distorted = d / "design", d / "distorted.csv"
        pair = ["--true-mode", str(TRUE_ID), "--target-mode", str(TARGET_ID)]
        rc_d, out_d, t_design = self._call(span, "design", [
            "design", "--bank", str(bank), *pair, "--K", str(inp.K),
            "--magnitude", repr(MAGNITUDE), "--seed", str(inp.plan_seed),
            "--out", str(design_dir),
        ])
        if rc_d != 0:
            raise RuntimeError(f"design exited {rc_d}; the session cannot continue")
        doc = json.loads(out_d)
        check_design(tally, float(doc["plan_residual"]), float(doc["kernel_deviation"]))

        rc_c, _, t_cloak = self._call(span, "distort", [
            "distort", "--bank", str(bank), *pair,
            "--controller", str(design_dir / "controller.json"),
            "--plan", str(design_dir / "plan.json"),
            "--input", str(original), "--out", str(distorted),
        ])
        if rc_c != 0:
            raise RuntimeError(f"distort exited {rc_c}; the session cannot continue")
        check_vehicle_cloak(tally, "cloak", inp.spec, inp.traj.Y, read_emitted_y(distorted))

        rc_k, out_k, t_classify = self._call(span, "classify", [
            "classify", "--bank", str(bank), "--input", str(distorted),
        ])
        if rc_k != 0:
            tally.op("classify cloaked", False, f"exit {rc_k}")
        else:
            report = json.loads(out_k)
            check_verdict(tally, "classify cloaked", report["verdict"], TARGET_ID)
            tally.samples["classify.margin"].append(margin(report["residuals"], TARGET_ID))

        tally.samples["design_s"].append(t_design)
        tally.samples["cloak_s"].append(t_cloak)
        tally.samples["classify_s"].append(t_classify)
        tally.samples["session_s"].append(t_design + t_cloak + t_classify)
        size_in, size_out = original.stat().st_size, distorted.stat().st_size
        tally.counters["modes.csv_bytes"] = 2 * (size_in + size_out)
        tally.counters["distort.withheld"] = 0


# --- stream -------------------------------------------------------------------


class Stream:
    name = "stream"

    def __init__(self, bc, seed: int, sizes: Sizes, workdir: Path):
        self.bc = bc
        self.inp = stream_inputs(bc, seed, sizes.stream_K, sizes.stream_drives)

    def session(self, tally: Tally, span) -> None:
        bc, inp = self.bc, self.inp
        source, target = inp.bank.mode(TRUE_ID), inp.bank.mode(TARGET_ID)
        clock = time.perf_counter_ns
        K = inp.K
        lat = np.empty(K * len(inp.drives))
        emitted, reports = [], []
        t0 = now()
        with span("bench.design"):
            ctrl, plan = design(bc, source, target, inp.spec, inp.plan_seed)
        t1 = now()
        tally.samples["design_s"].append(t1 - t0)
        cfg = bc.DistortionConfig(source, target, ctrl, plan, K)
        i = 0
        for drive in inp.drives:
            c0 = now()
            with span("bench.cloak"):
                engine = bc.DistortionEngine(cfg)
                ubars, ybars, withheld = [], [], 0
                for k in range(K):
                    u = drive.U[k] if k < K - 1 else None
                    t = clock()
                    out = engine.step(u, drive.Y[k])
                    lat[i] = clock() - t
                    i += 1
                    if out is None:
                        withheld += 1
                        continue
                    if out[0] is not None:
                        ubars.append(out[0])
                    ybars.append(out[1])
                cloaked = bc.Trajectory(U=np.array(ubars), Y=np.array(ybars))
            c1 = now()
            with span("bench.classify"):
                original = bc.classify(inp.bank, drive)
            c2 = now()
            with span("bench.classify"):
                disguised = bc.classify(inp.bank, cloaked)
            c3 = now()
            tally.samples["cloak_s"].append(c1 - c0)
            tally.samples["classify_s"].extend([c2 - c1, c3 - c2])
            emitted.append((cloaked.Y, withheld))
            reports.append((original, disguised))
        tally.samples["session_s"].append(now() - t0)
        tally.samples["step_us"].extend((lat / 1e3).tolist())

        check_design(tally, plan.residual, float(np.linalg.norm(inp.spec.F @ plan.delta_Y)))
        n = source.n
        for drive, (Ybar, withheld), (original, disguised) in zip(inp.drives, emitted, reports):
            if withheld != n:
                tally.op("cloak", False, f"withheld {withheld} samples, expected {n}")
            else:
                check_window(tally, "cloak", drive.Y, plan.delta_Y, Ybar, n)
            check_verdict(tally, "classify original", original.verdict, TRUE_ID)
            check_verdict(tally, "classify cloaked", disguised.verdict, TARGET_ID)
            tally.samples["classify.margin"].append(margin(disguised.residuals, TARGET_ID))
        tally.counters["distort.withheld"] = sum(w for _, w in emitted)


# Constructing a workload builds its inputs from the seed.
WORKLOADS = {cls.name: cls for cls in (Hour, Cli, Stream)}
