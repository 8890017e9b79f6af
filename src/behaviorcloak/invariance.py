"""Utility-invariant distortion plans for a target mode.

A distortion plan is an input-space point ``z = (x(1), U)`` whose response
``M z = Ot x(1) + Tt U`` (:class:`~behaviorcloak.modes.LiftedOperators`)
lies in the kernel of the known utility matrix F, so adding it to a
transmitted output trajectory leaves ``F Y + mu`` unchanged.

Plans are found by one projection in input space: a seeded Gaussian draw
z is projected onto Ker[F M], and its response M z is rescaled to the
requested size.  ``F M`` has only q rows, all formed by one batched
adjoint apply ``M' F'``, so the projection solves with the q x q Gram
``F M (F M)'``; the draw's start state is scaled by ``Ot``'s column norms,
so that an unstable target's does not swamp it.  When the free and
forced parts of the projected response cancel to rounding, or the scaled
response is not in Ker[F] to rounding, no plan is found: Ker[F] is
trivial, or the target behaviour meets it only at zero.  A plan costs
O(q K) work in a few vectorized steps per level of the block kernel's
grouped recursion, even at paper-scale horizons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .linalg import gram_solve
from .modes import (
    LiftedOperators,
    StateSpaceMode,
    _frozen,
    _read_document,
    _write_document,
    build_lifted_operators,
)

__all__ = [
    "InvarianceInfeasibleError",
    "UtilitySpec",
    "KernelPlan",
    "solve_utility_invariance",
    "load_utility_spec",
    "save_utility_spec",
    "load_kernel_plan",
    "save_kernel_plan",
]

# A projected response is rounding, not a plan, if it is this small next to
# the sum of its free and forced parts (they cancel), or if its distance from
# Ker[F] is this large a share of it (Ker[F M] is trivial or inside Ker M,
# or an unstable target outgrows the precision at this horizon).
_INFEASIBLE_RATIO = 1e-8
_MISS_RATIO = 1e-6


class InvarianceInfeasibleError(RuntimeError):
    """Ker[F] is trivial, or the target behaviour meets it only at zero."""


@dataclass(frozen=True)
class UtilitySpec:
    """Known affine part ``F Y + mu`` of a trajectory utility.

    ``F`` acts on the stacked output trajectory of length ``K * m``;
    ``mu`` is an offset that cancels under additive distortion and is
    stored only for evaluating utilities.
    """

    F: np.ndarray
    mu: np.ndarray
    K: int

    def __post_init__(self):
        F = np.atleast_2d(_frozen(self.F, "utility F"))
        mu = np.reshape(_frozen(self.mu, "utility mu"), -1)
        if self.K < 2:
            raise ValueError("utility horizon must be at least 2")
        if F.shape[1] % self.K != 0:
            raise ValueError(
                f"F has {F.shape[1]} columns, not a multiple of the horizon {self.K}"
            )
        if mu.shape[0] != F.shape[0]:
            raise ValueError("mu must have one entry per row of F")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "mu", mu)

    @property
    def q(self) -> int:
        return self.F.shape[0]

    @property
    def m(self) -> int:
        return self.F.shape[1] // self.K

    def utility(self, stacked_outputs) -> np.ndarray:
        """Evaluate ``F Y + mu`` on a stacked output trajectory."""
        return self.F @ np.asarray(stacked_outputs, dtype=float).reshape(-1) + self.mu

    @classmethod
    def average(cls, K: int, m: int = 1) -> "UtilitySpec":
        """Per-channel average of the output over the horizon."""
        if K < 2:  # before np.tile, which words a negative K its own way
            raise ValueError("utility horizon must be at least 2")
        F = np.tile(np.eye(m), (1, K)) / K
        F.setflags(write=False)  # handed over: the spec keeps it uncopied
        return cls(F=F, mu=np.zeros(m), K=K)


@dataclass(frozen=True)
class KernelPlan:
    """Off-line plan steering the target model's free output into Ker[F].

    ``delta_Y`` is the attained stacked response, the kernel element the
    plan realizes; ``residual`` is its distance ``||F^+ F delta_Y||`` from
    Ker[F].  ``U2`` has one row per input sample, as a trajectory's ``U``.
    """

    x2_init: np.ndarray
    U2: np.ndarray
    delta_Y: np.ndarray
    residual: float
    seed: Optional[int]
    magnitude: float

    def __post_init__(self):
        if not np.isfinite(self.magnitude):
            raise ValueError(f"plan magnitude is not finite: {self.magnitude}")
        object.__setattr__(self, "x2_init", np.reshape(_frozen(self.x2_init, "plan x2_init"), -1))
        object.__setattr__(self, "U2", _frozen(self.U2, "plan U2", samples=True))
        object.__setattr__(self, "delta_Y", np.reshape(_frozen(self.delta_Y, "plan delta_Y"), -1))

    @property
    def K(self) -> int:
        return self.U2.shape[0] + 1

    @classmethod
    def zero(
        cls, n: int, K: int, m: int, l: int, seed: Optional[int] = None
    ) -> "KernelPlan":
        return cls(
            x2_init=np.zeros(n),
            U2=np.zeros((K - 1, l)),
            delta_Y=np.zeros(K * m),
            residual=0.0,
            seed=seed,
            magnitude=0.0,
        )


def solve_utility_invariance(
    ops: LiftedOperators,
    spec: UtilitySpec,
    magnitude: float = 1.0,
    seed: int = 0,
) -> KernelPlan:
    """Find an initial condition and input sequence whose response lies in Ker[F].

    A seeded Gaussian draw ``z = (x, U)`` is projected onto Ker[F M] with
    ``M = [Ot Tt]``, and the projected point is scaled so that its
    response ``delta_Y = M z`` has the requested norm.  The start-state
    part is drawn in units of the column norms of ``Ot`` (the balanced
    draw), and the projection solves with the q x q Gram ``F M (F M)'``;
    the distance from Ker[F] solves with ``F F'``.  The response is one
    forced recursion plus the start state's free response; the plan is
    exact but not the minimum-norm input.

    Parameters
    ----------
    ops : LiftedOperators
        Horizon-K operators of the target mode.
    spec : UtilitySpec
        The utility whose value must stay invariant; must be bound to the
        same horizon and output dimension as ``ops``.
    magnitude : float
        Requested 2-norm of the distortion ``delta_Y``.  Zero returns the
        zero plan unconditionally.
    seed : int
        Seed for the Gaussian draw; plans are reproducible bit-for-bit.

    Raises
    ------
    InvarianceInfeasibleError
        If Ker[F] is trivial, or the target behaviour meets it only at zero,
        or rounding leaves the projected response more than 1e-6 of its
        size off Ker[F].
    """
    if spec.K != ops.K or spec.m != ops.m:
        raise ValueError("utility spec and lifted operators disagree on K or m")
    if not (np.isfinite(magnitude) and magnitude >= 0.0):
        raise ValueError(f"magnitude must be finite and nonnegative, got {magnitude}")
    if magnitude == 0.0:
        return KernelPlan.zero(ops.n, ops.K, ops.m, ops.l, seed=seed)
    n, K, F = ops.n, ops.K, spec.F
    balance = ops.balance
    rng = np.random.default_rng(seed)
    x, U = rng.standard_normal(n), rng.standard_normal((K - 1, ops.l))
    # Start states in units of their responses: the state half of F M is scaled by
    # ``balance``, and so is the projected x.  Each whole-horizon array goes once
    # used.  np.dot: for q = 1, matmul's (N, 1) @ (1,) loop is about 6x slower.
    FMx, FMu = ops.apply_adjoint(F)
    FMx *= balance
    c = gram_solve(FMx @ FMx.T + FMu @ FMu.T, FMx @ x + FMu @ U.ravel(), max(len(F), n + U.size))
    x -= np.dot(c, FMx)
    U -= np.dot(c, FMu).reshape(U.shape)
    del FMx, FMu
    x *= balance
    forced = ops.apply(np.zeros(n), U)
    free = ops.free_response(x)
    parts = np.linalg.norm(free) + np.linalg.norm(forced)
    delta = np.add(forced, free, out=forced)
    del free
    norm = float(np.linalg.norm(delta))
    miss = float(np.linalg.norm(np.dot(gram_solve(F @ F.T, F @ delta, max(F.shape)), F)))
    if norm <= _INFEASIBLE_RATIO * parts or miss > _MISS_RATIO * norm:
        raise InvarianceInfeasibleError(
            "Ker[F] is trivial or the target behaviour meets it only at zero, or "
            "rounding swamps the projection at this horizon; no nonzero plan found"
        )
    scale = magnitude / norm
    for part in (x, U, delta):
        part *= scale
        part.setflags(write=False)  # handed over: the plan keeps it uncopied if it owns it
    return KernelPlan(
        x2_init=x,
        U2=U,
        delta_Y=delta,
        residual=miss * scale,
        seed=seed,
        magnitude=magnitude,
    )


# --- file formats -----------------------------------------------------------


def load_utility_spec(path) -> UtilitySpec:
    """Read a utility spec, either explicit {K, q, F, mu} or the
    {"kind": "average", "K": ..., "m": ...} shorthand.  A missing entry or
    one of the wrong type is a ValueError."""

    def build(doc) -> UtilitySpec:
        if doc.get("kind") == "average":
            return UtilitySpec.average(int(doc["K"]), int(doc["m"]))
        spec = UtilitySpec(F=doc["F"], mu=doc["mu"], K=int(doc["K"]))
        if spec.q != int(doc["q"]):
            raise ValueError("declared q disagrees with the rows of F")
        return spec

    return _read_document(path, "utility spec", build)


def save_utility_spec(spec: UtilitySpec, path) -> None:
    _write_document({"K": spec.K, "q": spec.q, "F": spec.F, "mu": spec.mu}, path)


def save_kernel_plan(plan: KernelPlan, path) -> None:
    """Write a plan; ``U2`` is one flat row-major list of its K - 1 input rows
    of ``l`` inputs (a list per sample if it has no inputs, whose rows no flat
    list can count)."""
    doc = {
        "x2_init": plan.x2_init,
        "l": plan.U2.shape[1],
        "U2": plan.U2.reshape(-1) if plan.U2.shape[1] else plan.U2,
        "seed": plan.seed,
        "magnitude": plan.magnitude,
    }
    _write_document(doc, path)


def _sample_rows(rows: list, name: str, width: int) -> np.ndarray:
    """A JSON list of samples as one frozen (samples, width) array that owns its
    data: either flat, ``width`` numbers per sample in row-major order, or one
    list per sample, all of one width (which may differ from ``width``), filled
    from the chained rows without a nested copy.  ValueError naming a flat list
    that is not whole rows, or the first row of another width."""
    if not isinstance(rows, list):
        raise TypeError(f"{name} is not a list")
    if rows and isinstance(rows[0], list):
        width = len(rows[0])
        if set(map(len, rows)) != {width}:
            bad = next(i for i, row in enumerate(rows) if len(row) != width)
            raise ValueError(
                f"{name} has {len(rows[bad])} entries at sample {bad + 1}, expected {width}"
            )
        shape, values = (len(rows), width), chain.from_iterable(rows)
    elif width and len(rows) % width == 0:
        shape, values = (len(rows) // width, width), rows
    else:
        raise ValueError(f"{name} has {len(rows)} entries, not whole rows of {width} inputs")
    arr = np.fromiter(values, float, shape[0] * shape[1])
    arr.shape = shape  # in place: the array keeps its data
    arr.setflags(write=False)
    return arr


def load_kernel_plan(path, target_mode: StateSpaceMode) -> KernelPlan:
    """Read a plan and rebuild its response through the target's lifted operators.
    ``U2`` is either the flat row-major list that :func:`save_kernel_plan`
    writes, cut into rows of the plan's ``l`` inputs, or one list per sample,
    the form of plans written before it, which carry no ``l``; a flat list
    without ``l`` is one input column.  A plan for another ``n`` or ``l`` than
    the target's, a missing entry, one of the wrong type or a non-finite one
    is a ValueError, raised before the response is rebuilt."""

    def build(doc) -> KernelPlan:
        x2 = _frozen(doc["x2_init"], "plan x2_init")
        l = doc.get("l")  # None in a plan written before U2 went flat
        if l is not None and l != target_mode.l:
            raise ValueError("plan dimensions do not match the target mode")
        rows = _sample_rows(doc["U2"], "plan U2", 1 if l is None else target_mode.l)
        U2 = _frozen(rows, "plan U2", samples=True)
        if x2.size != target_mode.n or U2.shape[1] != target_mode.l:
            raise ValueError("plan dimensions do not match the target mode")
        delta = build_lifted_operators(target_mode, U2.shape[0] + 1).apply(x2, U2)
        delta.setflags(write=False)  # handed over: the plan keeps it uncopied
        return KernelPlan(
            x2_init=x2,
            U2=U2,
            delta_Y=delta,
            residual=0.0,
            seed=doc.get("seed"),
            magnitude=float(doc["magnitude"]),
        )

    return _read_document(path, "plan", build)
