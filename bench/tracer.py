"""In-memory span tracer that times behaviorcloak's layers from outside.

Nothing in the package is edited.  Each traced function is replaced, in
every ``behaviorcloak`` module that binds it, by a wrapper that records a
span (id, parent, name, start, end).  Because the wrapper replaces the name
the *calling* module looks up (``behaviorcloak.classify.build_lifted_operators``,
``behaviorcloak.cli.read_trajectory_csv``, methods on ``LiftedOperators``),
calls that cross layers are caught too.  Spans live in flat arrays until the
run ends; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute) -> span name.  "Class.method" wraps the method on the
# class.  A target missing from the package is skipped, so the benchmark
# still runs after a refactor removes it; its metrics then read zero.
TRACED = {
    ("modes", "simulate_mode"): "modes.simulate",
    ("modes", "read_trajectory_csv"): "modes.read_csv",
    ("modes", "write_trajectory_csv"): "modes.write_csv",
    ("regulation", "solve_regulator_equations"): "regulation.solve",
    ("regulation", "design_stabilizing_gain"): "regulation.gain",
    ("invariance", "build_lifted_operators"): "invariance.lifted",
    ("invariance", "solve_utility_invariance"): "invariance.plan",
    ("invariance", "LiftedOperators.apply"): "invariance.apply",
    ("invariance", "LiftedOperators.apply_adjoint"): "invariance.adjoint",
    ("invariance", "save_kernel_plan"): "invariance.save_plan",
    ("invariance", "load_kernel_plan"): "invariance.load_plan",
    ("distort", "run_offline"): "distort.run_offline",
    ("distort", "DistortionEngine.step"): "distort.step",
    ("distort", "reconstruct_state"): "distort.reconstruct",
    ("classify", "mode_residual"): "classify.residual",
    ("linalg", "lstsq_min_norm"): "linalg.lstsq",
}

PACKAGE = "behaviorcloak"


class Tracer:
    """Spans in flat arrays: ``parent[i]``, ``name[i]``, ``start[i]``, ``end[i]``.

    Span ids are array indices.  Times are ``perf_counter_ns`` readings,
    which share one monotonic clock across the processes of a host, so
    spans recorded by child processes can be merged in.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._mark = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        """Wrap every target in ``TRACED`` wherever the package binds it."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for (modname, attr), span_name in TRACED.items():
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or not hasattr(owner, method):
                continue
            original = getattr(owner, method)
            wrapped = self._wrap(original, span_name)
            if owner_name:
                self._replace(owner, method, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)

    def _replace(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reading spans back -------------------------------------------------

    def take(self) -> dict[str, dict[str, float]]:
        """Summarize the spans closed since the last call, by span name.

        Returns ``{name: {"calls", "total_ns", "self_ns"}}``.  A span's self
        time is its duration minus the durations of its direct children.
        """
        lo, hi = self._mark, len(self.start)
        self._mark = hi
        if hi == lo:
            return {}
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        name = np.frombuffer(self.name, dtype=np.int64)[lo:hi]
        dur = (
            np.frombuffer(self.end, dtype=np.int64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        ).astype(float)
        inside = parent >= lo
        children = np.bincount(
            parent[inside] - lo, weights=dur[inside], minlength=hi - lo
        )
        own = dur - children
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        self_ns = np.bincount(name, weights=own, minlength=width)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "total_ns": float(total[i]),
                "self_ns": float(self_ns[i]),
            }
            for i in np.flatnonzero(calls)
        }

    def merge_file(self, path) -> None:
        """Append spans saved by a child process under the open span."""
        with np.load(path) as doc:
            names = [str(n) for n in doc["names"]]
            parent, name = doc["parent"], doc["name"]
            start, end = doc["start"], doc["end"]
        offset = len(self.start)
        root = self._stack[-1] if self._stack else -1
        remap = np.array([self._name_id(n) for n in names], dtype=np.int64)
        self.parent.extend(np.where(parent < 0, root, parent + offset).tolist())
        self.name.extend(remap[name].tolist())
        self.start.extend(start.tolist())
        self.end.extend(end.tolist())

    def save(self, path) -> None:
        """Write every span recorded so far as arrays in an ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )
