"""Utility-invariant distortion plans for a target mode.

A distortion plan is an input-space point ``z = (x(1), U)`` whose response
``M z = Ot x(1) + Tt U`` (:class:`~behaviorcloak.modes.LiftedOperators`)
lies in the kernel of the known utility matrix F, so adding it to a
transmitted output trajectory leaves ``F Y + mu`` unchanged.

Plans are found by one projection in input space: a seeded Gaussian
input draw U, as the point ``(0, U)``, is projected onto Ker[F M], and the
response M z of the projected point z is rescaled to the requested size.
``F M`` has only q rows, all formed by one batched adjoint apply ``M' F'``,
so the projection solves with the q x q Gram ``F M (F M)'``, with each
column of ``F Ot`` scaled to unit norm lest an unstable target's swamp it;
the start state of z is the projection's correction, and a row of F whose
squares leave the normal floats enters it scaled by a power of two.  When
the projected response is rounding next to its forced part ``Tt U``, or it
fails every cloak's test, :func:`_utility_kept`, no plan is found: Ker[F]
is trivial, or the target behaviour meets it only at zero.  A row norm of F
(:attr:`UtilitySpec.row_norms`), a Gram or a response norm past the float
range is a ValueError naming F, or the mode and K.  A plan costs O(q^2 K)
work, for the q x q Gram of ``F M``; the adjoint apply of the q rows of F
takes a few vectorized steps per level of the block kernel's grouped recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import gram_solve, product, squares_normal, stable_norm
from .modes import (
    LiftedOperators,
    StateSpaceMode,
    _frozen,
    _integer,
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
# its forced part ``Tt U``: the start state's free response cancels it.
_INFEASIBLE_RATIO = 1e-8

# _utility_kept's bound on |F_i dY| per ||F_i|| s, for the norm s of the data compared.
_UTILITY_RTOL = 1e-8


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
        if 0 in F.shape:
            raise ValueError(f"F needs at least one row and one column, got shape {F.shape}")
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

    @cached_property
    def row_norms(self) -> np.ndarray:
        """``||F_i||`` of each row by :func:`~behaviorcloak.linalg.stable_norm`, taken on first
        use; a ValueError names ``F`` when one overflows, as no change can then be bounded."""
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            norms = np.array([stable_norm(row) for row in self.F])
        if not np.isfinite(norms).all():
            raise ValueError("the norm of F is not finite: no utility change can be bounded")
        norms.setflags(write=False)
        return norms

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


def _utility_kept(spec: UtilitySpec, change, size) -> tuple[bool, float]:
    """Whether a utility change ``change = F dY`` is rounding next to data of norm ``size``,
    ``|change_i| <= 1e-8 ||F_i|| size`` for every row ``F_i`` of ``spec.F`` (a zero row
    passes), and the largest ``|change_i| / ||F_i||``.  A ValueError names ``F`` when a
    ``||F_i||`` overflows (:attr:`UtilitySpec.row_norms`) and ``Y`` when ``size`` does."""
    rows = spec.row_norms
    if not np.isfinite(size):
        raise ValueError("the norm of Y is not finite: no utility change can be bounded")
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite bound holds for any gap
        gap = np.abs(change)
        kept = bool(np.all(gap <= _UTILITY_RTOL * rows * size))
        ratio = float(np.max(gap / np.where(rows > 0.0, rows, np.inf)))
    return kept, ratio


@dataclass(frozen=True)
class KernelPlan:
    """Off-line plan steering the target model's free output into Ker[F].

    ``delta_Y`` is the attained stacked response, the kernel element the
    plan realizes; ``residual`` is ``max_i |F_i delta_Y| / ||F_i||`` over the nonzero
    rows of F (for one row, ``||F^+ F delta_Y||``).  ``U2`` has one row per input sample.
    """

    x2_init: np.ndarray
    U2: np.ndarray
    delta_Y: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "x2_init", np.reshape(_frozen(self.x2_init, "plan x2_init"), -1))
        object.__setattr__(self, "U2", _frozen(self.U2, "plan U2", samples=1))
        object.__setattr__(self, "delta_Y", np.reshape(_frozen(self.delta_Y, "plan delta_Y"), -1))

    @property
    def K(self) -> int:
        return self.U2.shape[0] + 1

    @classmethod
    def zero(cls, target: StateSpaceMode, K: int) -> "KernelPlan":
        return cls(np.zeros(target.n), np.zeros((K - 1, target.l)), np.zeros(K * target.m), 0.0)


def _finite(value, ops: LiftedOperators):
    """``value``, or the ValueError of a plan past the float range at this horizon."""
    if not np.isfinite(value).all():
        raise ValueError(f"the plan of mode {ops.mode.mode_id} at K = {ops.K} is not finite")
    return value


def solve_utility_invariance(
    ops: LiftedOperators,
    spec: UtilitySpec,
    magnitude: float = 1.0,
    seed: int = 0,
) -> KernelPlan:
    """Find an initial condition and input sequence whose response lies in Ker[F].

    A seeded Gaussian input draw U, as the point ``(0, U)``, is projected
    onto Ker[F M], ``M = [Ot Tt]``, in the metric that scales each nonzero
    column of ``F Ot`` to unit norm by ``s``: the start state is
    ``x = -s^2 (F Ot)' c``, with c solved from the q x q Gram; a row of F whose
    squares leave the normal floats enters the adjoint scaled by a power of two.  The point
    ``z = (x, U)`` is scaled so that its response ``delta_Y = M z``, a run of
    :meth:`~behaviorcloak.modes.LiftedOperators.apply` as is the forced part
    ``Tt U``, has the requested norm, and is kept iff :func:`_utility_kept` passes
    ``F delta_Y`` at ``||delta_Y|| <= ||Y|| + ||Ybar||``, so every cloak passes it too,
    to the replay's rounding.  The plan is exact but not the minimum-norm input.

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
        Seed for the Gaussian input draw; plans are reproducible bit-for-bit.

    Raises
    ------
    ValueError
        If a row norm of F overflows (before any adjoint), or ``F Ot``, the Gram or the
        response norm is not finite: an unstable target outgrows the float range.
    InvarianceInfeasibleError
        If Ker[F] is trivial, or the target behaviour meets it only at zero,
        or rounding leaves a ``|F_i delta_Y|`` above ``1e-8 ||F_i|| ||delta_Y||``.
    """
    if spec.K != ops.K or spec.m != ops.m:
        raise ValueError("utility spec and lifted operators disagree on K or m")
    if not (np.isfinite(magnitude) and magnitude >= 0.0):
        raise ValueError(f"magnitude must be finite and nonnegative, got {magnitude}")
    if magnitude == 0.0:
        return KernelPlan.zero(ops.mode, ops.K)
    n, K, F, rows = ops.n, ops.K, spec.F, spec.row_norms
    # Rows whose squares leave the normal floats enter at a norm in [0.5, 1); zero rows shift 0.
    shift = np.where(squares_normal(rows), 0, -np.frexp(rows)[1])
    if shift.any():
        F = np.ldexp(F, shift[:, None])
    U = np.random.default_rng(seed).standard_normal((K - 1, ops.l))
    # The draw (0, U) moves by -(F M)' c, with F Ot's columns scaled to unit norm by s in
    # the Gram, so x is s * -(F Ot s)' c.  Past the float range a plan is refused by name.
    with np.errstate(over="ignore", invalid="ignore"):
        FMx, FMu = ops.apply_adjoint(F)
        s = 1.0 / np.maximum(np.linalg.norm(FMx, axis=0), np.finfo(float).tiny)
        FMx *= s
        gram = _finite(FMx @ FMx.T + FMu @ FMu.T, ops)
        c = gram_solve(gram, product(FMu, U.ravel()), max(len(F), n + U.size))
        x = -(product(c, FMx) + 0.0) * s  # + 0.0: a zero product is +0, as np.dot makes it
        U -= product(c, FMu).reshape(U.shape)
        del FMx, FMu
        forced = np.linalg.norm(ops.apply(np.zeros(n), U))
        delta = ops.apply(x, U)
        norm = float(_finite(np.linalg.norm(delta), ops))
    kept, miss = _utility_kept(spec, spec.F @ delta, norm)
    if norm <= _INFEASIBLE_RATIO * forced or not kept:
        raise InvarianceInfeasibleError(
            "Ker[F] is trivial or the target behaviour meets it only at zero, or "
            "rounding swamps the projection at this horizon; no nonzero plan found"
        )
    scale = magnitude / norm
    for part in (x, U, delta):
        part *= scale
        part.setflags(write=False)  # handed over: the plan keeps it uncopied if it owns it
    return KernelPlan(x2_init=x, U2=U, delta_Y=delta, residual=miss * scale)


# --- file formats -----------------------------------------------------------


def load_utility_spec(path) -> UtilitySpec:
    """Read the explicit utility spec {K, q, F, mu}.  A missing entry or one of the
    wrong type is a ValueError."""

    def build(doc) -> UtilitySpec:
        spec = UtilitySpec(F=doc["F"], mu=doc["mu"], K=_integer(doc, "K"))
        if spec.q != _integer(doc, "q"):
            raise ValueError("declared q disagrees with the rows of F")
        return spec

    return _read_document(path, "utility spec", build)


def save_utility_spec(spec: UtilitySpec, path) -> None:
    _write_document({"K": spec.K, "q": spec.q, "F": spec.F, "mu": spec.mu}, path)


def save_kernel_plan(plan: KernelPlan, path) -> None:
    """Write a plan; ``U2`` is one flat row-major list of its K - 1 input rows
    of ``l`` inputs."""
    doc = {"x2_init": plan.x2_init, "l": plan.U2.shape[1], "U2": plan.U2.reshape(-1)}
    _write_document(doc, path)


def load_kernel_plan(path, target_mode: StateSpaceMode) -> KernelPlan:
    """Read a plan and rebuild its response through the target's lifted operators.
    ``U2`` is the flat row-major list that :func:`save_kernel_plan` writes, cut into
    rows of the plan's ``l`` inputs; other entries are not read.  A plan for another
    ``n`` or ``l`` than the target's, a missing entry, one of the wrong type or a
    non-finite one is a ValueError, raised before the response is rebuilt."""

    def build(doc) -> KernelPlan:
        x2 = _frozen(doc["x2_init"], "plan x2_init")
        if x2.size != target_mode.n or _integer(doc, "l") != target_mode.l:
            raise ValueError("plan dimensions do not match the target mode")
        rows = doc["U2"]
        if isinstance(rows, list) and rows and isinstance(rows[0], list):  # one list per sample
            raise TypeError("plan U2 is not a flat list")
        U2 = _frozen(rows, "plan U2", samples=target_mode.l)
        delta = build_lifted_operators(target_mode, U2.shape[0] + 1).apply(x2, U2)
        delta.setflags(write=False)  # handed over: the plan keeps it uncopied
        return KernelPlan(x2_init=x2, U2=U2, delta_Y=delta, residual=0.0)

    return _read_document(path, "plan", build)
