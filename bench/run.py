"""Benchmark of behaviorcloak: the ``hour``, ``cli`` and ``stream`` workloads.

    python3 bench/run.py --workload hour --seed 1 --seconds 25 --trace 0

Prints one line per end-to-end metric (name, value, unit, sample count and
tail percentile), a ``{"report": ...}`` line with the machine description
and a host-speed reference, and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run.  Exits 1 if any operation failed its check, 2 if the
package cannot be found.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from contextlib import nullcontext
from statistics import fmean, median

import numpy as np

import workloads
from tracer import Tracer
from workloads import ROOT, SRC, Sizes, Tally, now

# The end-to-end metrics of BENCHMARK.json: every workload reports each one.
END_TO_END = {
    "setup_s": "s",
    "design_s": "s",
    "cloak_s": "s",
    "classify_s": "s",
    "session_s": "s",
    "peak_rss_mb": "MB",
}
# Printed beside them where a workload has them: per-sample step latency
# exists only where samples are streamed one at a time (``stream``).
STREAM_ONLY = {"step_p50_us": "us", "step_p999_us": "us"}


class Phases:
    """``phases(name)`` opens a benchmark span when tracing, else does nothing."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __call__(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


# --- machine description and host speed ----------------------------------------


def _blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def host_reference_ms() -> float:
    """Fixed pure-numpy work (matmul and FFT), median of five repeats.

    Recorded before and after each run for diagnosis only: it lets a slow
    set of runs be traced back to a slow phase of a shared host.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    x = rng.standard_normal(1 << 16)
    a @ a
    times = []
    for _ in range(5):
        t0 = now()
        for _ in range(10):
            a @ a
            np.fft.rfft(x)
        times.append(now() - t0)
    return 1e3 * median(times)


# --- set-up probes -------------------------------------------------------------


def setup_probes(workload: str, seed: int, sizes: Sizes, workdir) -> list[dict]:
    """Time fresh processes from start until their inputs are ready."""
    probes = []
    for i in range(sizes.setup_probes):
        cmd = [
            sys.executable, str(workloads.BENCH_DIR / "probe.py"), "setup", workload,
            str(seed), str(workdir / f"probe{i}"), str(sizes.K), str(sizes.stream_K),
            str(sizes.stream_drives),
        ]
        t0 = now()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=workloads.child_env()) as proc:
            line = proc.stdout.readline()
            wall = now() - t0
            proc.communicate(timeout=170)
        if proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        probes.append({"setup_s": wall, **json.loads(line)})
    return probes


# --- the run -------------------------------------------------------------------


def tail(values) -> dict:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return {f"p{p:g}": float(np.percentile(values, p))}
    return {}


def end_to_end(tally: Tally, probes: list, peak_rss_mb: float) -> dict:
    """Set-up is the median of the probes.  Operation times are means: the
    host switches between a fast and a slow phase (about 1.6x apart) every
    few seconds, so the median of a run's few operations jumps between the
    two, while the mean moves with the share of time spent in each."""
    values = {"setup_s": median(p["setup_s"] for p in probes)}
    for name in ("design_s", "cloak_s", "classify_s", "session_s"):
        if tally.samples[name]:
            values[name] = fmean(tally.samples[name])
    step = tally.samples["step_us"]
    if step:
        values["step_p50_us"] = float(np.percentile(step, 50))
        values["step_p999_us"] = float(np.percentile(step, 99.9))
    values["peak_rss_mb"] = peak_rss_mb
    return values


def per_layer(setup: dict, sessions: list, counters: dict, margins: list, probes: list,
              overhead_s: float) -> dict:
    """Per-layer metrics for one job: the set-up plus the median traced session."""

    def stat(summary, name, key):
        return summary.get(name, {}).get(key, 0.0)

    def job(fn):
        return fn(setup) + median(fn(s) for s in sessions)

    def seconds(*names):
        return job(lambda s: sum(stat(s, n, "total_ns") for n in names)) / 1e9

    def calls(name):
        return int(stat(setup, name, "calls") + stat(sessions[0], name, "calls"))

    def step_self_us(s):
        count = stat(s, "distort.step", "calls")
        return stat(s, "distort.step", "self_ns") / count / 1e3 if count else 0.0

    return {
        "cli.import_s": median(p["import_s"] for p in probes),
        "cli.import_modules": int(probes[0]["import_modules"]),
        "cli.main_self_s": job(lambda s: stat(s, "cli.main", "self_ns")) / 1e9,
        "modes.simulate_s": seconds("modes.simulate"),
        "modes.simulate_calls": calls("modes.simulate"),
        "modes.read_csv_s": seconds("modes.read_csv"),
        "modes.write_csv_s": seconds("modes.write_csv"),
        "modes.csv_bytes": int(counters.get("modes.csv_bytes", 0)),
        "regulation.solve_s": seconds("regulation.solve"),
        "regulation.gain_s": seconds("regulation.gain"),
        "invariance.lifted_s": seconds("invariance.lifted"),
        "invariance.lifted_calls": calls("invariance.lifted"),
        "invariance.plan_s": seconds("invariance.plan"),
        "invariance.apply_calls": calls("invariance.apply"),
        "invariance.adjoint_calls": calls("invariance.adjoint"),
        "invariance.apply_s": seconds("invariance.apply", "invariance.adjoint"),
        "invariance.plan_io_s": seconds("invariance.save_plan", "invariance.load_plan"),
        "invariance.plan_residual": float(counters.get("invariance.plan_residual", 0.0)),
        "invariance.kernel_dev": float(counters.get("invariance.kernel_dev", 0.0)),
        "distort.run_offline_s": seconds("distort.run_offline"),
        "distort.step_calls": calls("distort.step"),
        "distort.step_self_us": median(step_self_us(s) for s in sessions),
        "distort.reconstruct_calls": calls("distort.reconstruct"),
        "distort.reconstruct_s": seconds("distort.reconstruct"),
        "distort.withheld": int(counters.get("distort.withheld", 0)),
        "classify.residual_calls": calls("classify.residual"),
        "classify.residual_s": seconds("classify.residual"),
        "classify.margin": median(margins) if margins else 0.0,
        "linalg.lstsq_calls": calls("linalg.lstsq"),
        "linalg.lstsq_s": seconds("linalg.lstsq"),
        "trace.overhead_s": overhead_s,
    }


PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_modules": "count",
    "cli.main_self_s": "s",
    "modes.simulate_s": "s",
    "modes.simulate_calls": "count",
    "modes.read_csv_s": "s",
    "modes.write_csv_s": "s",
    "modes.csv_bytes": "bytes",
    "regulation.solve_s": "s",
    "regulation.gain_s": "s",
    "invariance.lifted_s": "s",
    "invariance.lifted_calls": "count",
    "invariance.plan_s": "s",
    "invariance.apply_calls": "count",
    "invariance.adjoint_calls": "count",
    "invariance.apply_s": "s",
    "invariance.plan_io_s": "s",
    "invariance.plan_residual": "1",
    "invariance.kernel_dev": "1",
    "distort.run_offline_s": "s",
    "distort.step_calls": "count",
    "distort.step_self_us": "us",
    "distort.reconstruct_calls": "count",
    "distort.reconstruct_s": "s",
    "distort.withheld": "count",
    "classify.residual_calls": "count",
    "classify.residual_s": "s",
    "classify.margin": "ratio",
    "linalg.lstsq_calls": "count",
    "linalg.lstsq_s": "s",
    "trace.overhead_s": "s",
}


def run_session(job, tally: Tally, tracer, walls: list) -> bool:
    """One session, timed into ``walls``.

    Returns False when it raised; the failure is counted in ``tally``.
    """
    if tracer is not None:
        tracer.install()
    t0 = now()
    try:
        job.session(tally, Phases(tracer))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        last = traceback.format_exc(limit=1).strip().splitlines()[-1]
        tally.op("session", False, f"raised {last}")
        return False
    finally:
        if tracer is not None:
            tracer.uninstall()
    walls.append(now() - t0)
    return True


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """Run one workload; return (result line, report)."""
    bc = workloads.import_package()
    host_before = host_reference_ms()
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    plain, traced = Tally(), Tally()
    tracer = Tracer() if trace else None
    setup_layers, session_layers, walls = {}, [], {True: [], False: []}
    try:
        probes = setup_probes(workload, seed, sizes, workdir)
        if tracer is not None:
            tracer.install()
        try:
            job = workloads.WORKLOADS[workload](bc, seed, sizes, workdir / "main")
        finally:
            if tracer is not None:
                tracer.uninstall()
                setup_layers = tracer.take()
        start, n = now(), 0
        while True:
            # A traced run alternates plain and traced sessions, so the
            # tracing overhead is the difference of their medians.
            is_traced = tracer is not None and n % 2 == 1
            tally = traced if is_traced else plain
            if not run_session(job, tally, tracer if is_traced else None, walls[is_traced]):
                break
            if is_traced:
                session_layers.append(tracer.take())
            n += 1
            # Start another session only if it would end less than half a
            # session past the deadline; a traced run needs a traced session.
            if now() - start + median(walls[False] + walls[True]) / 2 >= seconds and (
                tracer is None or n >= 2
            ):
                break
        usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    e2e = end_to_end(plain, probes, peak_rss_mb)
    if tracer is not None and session_layers:
        overhead = median(walls[True]) - median(walls[False])
        margins = traced.samples["classify.margin"]
        values = per_layer(setup_layers, session_layers, traced.counters, margins, probes, overhead)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"{workload}-seed{seed}.spans.npz")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items() if k in e2e}
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sessions": {"plain": len(walls[False]), "traced": len(walls[True])},
        "end_to_end": e2e,
        "fail_frac": failed / attempted if attempted else 1.0,
        "samples": {k: len(v) for k, v in plain.samples.items()},
        "raw": {k: v for k, v in plain.samples.items() if len(v) <= 200},
        "tails": {k: tail(v) for k, v in plain.samples.items() if k.endswith(("_s", "_us"))},
        "setup_probes": probes,
        "failures": (plain.failures + traced.failures)[:20],
        "host_ref_ms": {"before": host_before, "after": host_reference_ms()},
        "machine": machine(),
    }
    return result, report


def print_table(result: dict, report: dict) -> None:
    rows = dict(report["end_to_end"])
    units = {**END_TO_END, **STREAM_ONLY}
    print(f"# {report['workload']} seed={report['seed']} sessions={report['sessions']}")
    for name, value in rows.items():
        key = {"step_p50_us": "step_us", "step_p999_us": "step_us"}.get(name, name)
        n = len(report["setup_probes"]) if name == "setup_s" else report["samples"].get(key, 1)
        extra = " ".join(f"{p}={v:.6g}" for p, v in report["tails"].get(key, {}).items())
        print(f"{name:<14} {value:>14.6g} {units[name]:<3} n={n} {extra}".rstrip())
    print(f"{'fail_frac':<14} {report['fail_frac']:>14.6g} {'1':<3} "
          f"({result['failed']} of {result['attempted']} operations)")
    if report["trace"]:
        for name, metric in result["metrics"].items():
            print(f"{name:<26} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "behaviorcloak" / "__init__.py").is_file():
        print(f"error: no behaviorcloak package under {SRC}", file=sys.stderr)
        return 2
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print_table(result, report)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
