"""Utility-invariant distortion plans for a target mode.

The free response of the target model over a horizon K is

    Ytilde = Ot x(1) + Tt U = M z,    z = (x(1), U),

with ``Ot`` the block observability matrix and ``Tt`` the block-Toeplitz
forced-response matrix.  A distortion plan is an input-space point z whose
response lies in the kernel of the known utility matrix F, so adding it to
a transmitted output trajectory leaves ``F Y + mu`` unchanged.

Plans are found by one projection in input space: a seeded Gaussian draw
z is projected onto Ker[F M], and its response M z is rescaled to the
requested size.  ``F M`` has only q rows, all formed by one batched
adjoint apply ``M' F'``, so the projection solves with the q x q Gram
``F M (F M)'``; the draw's start state is scaled by ``Ot``'s column norms,
so that an unstable target's does not swamp it.  When the free and
forced parts of the projected response cancel to rounding, or the scaled
response is not in Ker[F] to rounding, no plan is found: Ker[F] is
trivial, or the target behaviour meets it only at zero.  A start-state
fit solves with the n x n Gramian ``Ot' Ot`` after one forward recursion.

``M``, ``Ot`` and ``Tt`` are never formed (the dense ``Ot`` and ``Tt``
are test oracles): ``M`` and its adjoint run the state recursion a block
of samples at a time (the block scan of :mod:`.modes`).  Inside a block
the response is two dense products with fixed block matrices; the states
at block starts follow from a doubling scan.  A plan costs O(q K) work in
O(log K) vectorized steps even at paper-scale horizons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import gram_solve
from .modes import (
    _BLOCK,
    StateSpaceMode,
    _block_response,
    _block_toeplitz,
    _fold,
    _free_response,
    _frozen,
    _pad_blocks,
    _power_rows,
    _scan,
)

__all__ = [
    "InvarianceInfeasibleError",
    "UtilitySpec",
    "LiftedOperators",
    "KernelPlan",
    "build_lifted_operators",
    "solve_utility_invariance",
    "load_utility_spec",
    "save_utility_spec",
    "load_kernel_plan",
    "save_kernel_plan",
]

# Entry budget above which dense lifted matrices are refused.
_DENSE_ENTRY_LIMIT = 4_000_000

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
        return cls(F=np.tile(np.eye(m), (1, K)) / K, mu=np.zeros(m), K=K)


@dataclass(frozen=True)
class LiftedOperators:
    """Horizon-K response operators of one mode.

    :meth:`apply`/:meth:`apply_adjoint` run the state recursion a block of
    samples at a time, with two dense products per block and a doubling
    scan over the block-start states, in O(K) work; :meth:`fit` runs one and
    solves with the n x n Gramian by a costate fold and a free response.  The
    block pieces and Gramian factors are cached on the mode; ``Ot`` (K*m rows)
    and the Toeplitz ``Tt`` are dense oracles for tests only.
    """

    mode: StateSpaceMode
    K: int

    @property
    def n(self) -> int:
        return self.mode.n

    @property
    def m(self) -> int:
        return self.mode.m

    @property
    def l(self) -> int:
        return self.mode.l

    @cached_property
    def Ot(self) -> np.ndarray:
        """Stacked observability matrix, rows ``C A^k`` for k < K (a test oracle)."""
        return _power_rows(self.mode.C, self.mode.A, self.K)

    @cached_property
    def Tt(self) -> np.ndarray:
        """Dense block-Toeplitz forced-response matrix (small horizons only)."""
        K, m, l = self.K, self.m, self.l
        if K * m * (K - 1) * l > _DENSE_ENTRY_LIMIT:
            raise ValueError(
                "dense Toeplitz matrix exceeds the size budget at this horizon; "
                "use apply()/apply_adjoint()"
            )
        return _block_toeplitz(self.Ot.reshape(K, m, self.n), self.mode.B, K - 1)

    def apply(self, x, U) -> np.ndarray:
        """Stacked response ``Ot x + Tt U``, forming neither matrix."""
        return _block_response(self.mode._output_blocks_t, x, U, self.K)

    def apply_adjoint(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Adjoint pair ``(Ot' w, Tt' w)``, forming neither matrix; a stack of
        weights (q, K*m) gives both results with the same leading axis."""
        Ob, Tb, Ctrl, Ab = self.mode._output_blocks
        w = np.reshape(np.asarray(w, dtype=float), np.shape(w)[:-1] + (self.K * self.m,))
        W = _pad_blocks(w, -(-self.K // _BLOCK), len(Ob))
        costate = W @ Ob
        _scan(costate, Ab, reverse=True)
        U_adj = W @ Tb
        U_adj[..., :-1, :] += costate[..., 1:, :] @ Ctrl
        U_adj = U_adj.reshape(W.shape[:-2] + (-1,))
        return costate[..., 0, :], U_adj[..., : (self.K - 1) * self.l]

    def fit(self, Y, U) -> tuple[np.ndarray, float]:
        """Least-squares inverse of :meth:`apply` in x: ``(x, min ||Y - Ot x - Tt U||)``,
        ``x = S P S Ot' r`` by the mode's Gramian factor, ``r = Y - Tt U`` from one forward
        recursion, ``Ot' r`` a costate fold and ``Ot x`` a free response; the residual is
        that of the fitted response, never one from the normal equations."""
        K, n = self.K, self.n
        Y = np.reshape(Y, -1)
        if Y.shape != (K * self.m,) or np.shape(U) != (K - 1, self.l):
            raise ValueError(
                f"mode {self.mode.mode_id} at K = {K} expects {K * self.m} outputs and "
                f"{(K - 1, self.l)} inputs, got {Y.size} and {np.shape(U)}"
            )
        s, P, steps = self.mode._gram_factor(K)
        Ob, _, _, Ab = self.mode._output_blocks
        r = Y - self.apply(np.zeros(n), U)
        x, e = np.zeros(n), r
        for _ in range(steps):
            x = x + s * (P @ (s * _fold(_pad_blocks(e, -(-K // _BLOCK), len(Ob)) @ Ob, Ab)))
            e = _free_response(self.mode._output_blocks_t, x, K)
            np.subtract(r, e, out=e)  # in place: a fit holds two arrays of K floats
        residual = float(np.linalg.norm(e))
        if not np.isfinite(residual):
            raise ValueError(f"the fit of mode {self.mode.mode_id} at K = {self.K} is not finite")
        return x, residual


def build_lifted_operators(target_mode: StateSpaceMode, K: int) -> LiftedOperators:
    """The horizon-K lifted operators of a mode; only the dense test
    oracles ``Ot``/``Tt`` form a whole-horizon array.  At K = 1 there are
    no inputs and ``Ot = C``."""
    if K < 1:
        raise ValueError("horizon must be at least 1")
    return LiftedOperators(target_mode, K)


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
    balance = ops.mode._gram_factor(K)[0]
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
    free = _free_response(ops.mode._output_blocks_t, x, K)
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
    {"kind": "average", "K": ..., "m": ...} shorthand."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        if doc.get("kind") == "average":
            return UtilitySpec.average(int(doc["K"]), int(doc["m"]))
        spec = UtilitySpec(F=doc["F"], mu=doc["mu"], K=int(doc["K"]))
        if spec.q != int(doc["q"]):
            raise ValueError("declared q disagrees with the rows of F")
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"ill-formed utility spec document: {exc}") from exc
    return spec


def save_utility_spec(spec: UtilitySpec, path) -> None:
    doc = {"K": spec.K, "q": spec.q, "F": spec.F.tolist(), "mu": spec.mu.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def save_kernel_plan(plan: KernelPlan, path) -> None:
    doc = {
        "x2_init": plan.x2_init.tolist(),
        "U2": plan.U2.tolist(),
        "seed": plan.seed,
        "magnitude": plan.magnitude,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def load_kernel_plan(path, target_mode: StateSpaceMode) -> KernelPlan:
    """Read a plan and rebuild its response through the target's lifted operators."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        x2 = np.array(doc["x2_init"], dtype=float).reshape(-1)
        U2 = np.array(doc["U2"], dtype=float)
        seed = doc.get("seed")
        magnitude = float(doc["magnitude"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"ill-formed plan document: {exc}") from exc
    if x2.shape[0] != target_mode.n or U2.ndim != 2 or U2.shape[1] != target_mode.l:
        raise ValueError("plan dimensions do not match the target mode")
    delta = build_lifted_operators(target_mode, U2.shape[0] + 1).apply(x2, U2)
    return KernelPlan(
        x2_init=x2,
        U2=U2,
        delta_Y=delta,
        residual=0.0,
        seed=seed,
        magnitude=magnitude,
    )
