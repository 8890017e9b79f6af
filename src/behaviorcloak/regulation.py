"""Exact output tracking of one mode by a virtual target mode.

The tracking design solves three coupled linear matrix equations for
(Pi, Gamma, Theta),

    A_t Pi - Pi A_s + B_t Gamma = 0
    C_t Pi - C_s               = 0
    B_t Theta - Pi B_s         = 0

where subscript ``s`` is the source (true) mode and ``t`` the target.
The solution alone fixes the cloaked input ``Gamma x(k) + Theta u(k)``
that the distorter replays; ``controller.json`` stores it.

The paper also closes the loop around a virtual target state with a
Schur-stabilizing gain R,

    u_t(k) = R xbar(k) + L x(k) + S u(k),   L = Gamma - R Pi,  S = Theta,

which pulls any virtual start towards ``Pi x``.  On the aligned state
``xbar = Pi x`` the input is ``Gamma x + Theta u`` again, so no replayed
sample depends on R; :class:`TrackingController` records it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import is_schur, lstsq_min_norm
from .modes import StateSpaceMode, _frozen, _read_document, _write_document

__all__ = [
    "RegulationInfeasibleError",
    "GainDesignError",
    "RegulatorSolution",
    "TrackingController",
    "regulator_residuals",
    "solve_regulator_equations",
    "design_stabilizing_gain",
    "build_tracking_controller",
    "save_controller",
    "load_controller",
]


# The entries of controller.json, in file order.
_CONTROLLER_KEYS = ("Pi", "Gamma", "Theta")

# The regulator equations, in the order of regulator_residuals.
_EQUATIONS = ("A_t Pi - Pi A_s + B_t Gamma = 0", "C_t Pi = C_s", "B_t Theta = Pi B_s")

# The bound on each regulator equation's relative residual (regulator_residuals).  A
# solution that misses by r of the equations' terms puts the replayed target r off the
# source outputs, so a cloak scores about r on the target: 1e-9 keeps that a thousandfold
# below classify's ACCEPT_TOL.  It is 4.5e6 eps, far above the few eps that a
# backward-stable solve of the equilibrated system leaves, and far below the order-one
# miss of a target that cannot imitate the source.
_REGULATOR_RTOL = 1e-9

# Stopping rule of the Riccati doubling in design_stabilizing_gain.
_DOUBLING_MAX_STEPS = 64
_DOUBLING_STEP_TOL = 1e-12


class RegulationInfeasibleError(RuntimeError):
    """The target mode cannot reproduce the source mode's outputs exactly."""

    def __init__(self, residual: float, equation: str):
        message = f"{equation} misses (relative residual {residual:.3e})"
        super().__init__(f"regulator equations are infeasible: {message}")
        self.residual = residual


class GainDesignError(RuntimeError):
    """No Schur-stabilizing feedback gain was obtained."""


@dataclass(frozen=True)
class RegulatorSolution:
    """A feasible (Pi, Gamma, Theta) triple with its largest relative equation residual."""

    Pi: np.ndarray
    Gamma: np.ndarray
    Theta: np.ndarray
    residual: float


@dataclass(frozen=True)
class TrackingController(RegulatorSolution):
    """A regulator solution closed by the stabilizing gain R."""

    R: np.ndarray

    @property
    def L(self) -> np.ndarray:
        return self.Gamma - self.R @ self.Pi

    @property
    def S(self) -> np.ndarray:
        return self.Theta


def _shapes(true_mode: StateSpaceMode, target_mode: StateSpaceMode) -> tuple:
    """The shapes of Pi, Gamma and Theta."""
    n_s, l_t = true_mode.n, target_mode.l
    return (target_mode.n, n_s), (l_t, n_s), (l_t, true_mode.l)


def _terms(source, target, Pi, Gamma, Theta) -> tuple:
    """The terms of the regulator equations' left sides, one tuple per equation:
    ``(A_t Pi, -Pi A_s, B_t Gamma)``, ``(C_t Pi, -C_s)`` and ``(B_t Theta, -Pi B_s)``.
    ``source`` and ``target`` are ``(A, B, C)`` triples; the unknowns may be stacks."""
    (A_s, B_s, C_s), (A_t, B_t, C_t) = source, target
    return (A_t @ Pi, -(Pi @ A_s), B_t @ Gamma), (C_t @ Pi, -C_s), (B_t @ Theta, -(Pi @ B_s))


def _vec(matrices) -> np.ndarray:
    """The column-major entries of (stacks of) matrices, side by side."""
    return np.concatenate([M.swapaxes(-1, -2).reshape(*M.shape[:-2], -1) for M in matrices], -1)


def _relative(terms) -> float:
    """Max-abs entry of the sum of ``terms`` over the max-abs entry of the largest term
    (0 when every term is 0); NaN when a term is not finite."""
    T = np.array(terms)
    size, residual = float(np.abs(T).max()), float(np.abs(T.sum(0)).max())
    return residual / size if size else residual


def regulator_residuals(
    true_mode: StateSpaceMode,
    target_mode: StateSpaceMode,
    Pi,
    Gamma,
    Theta,
) -> tuple[float, float, float]:
    """Relative residual of each regulator equation: the max-abs entry of its left side
    over the max-abs entry of its largest term, so it does not depend on the units of
    u and y; NaN, without a warning, when a term overflows.  ValueError on a misfit shape."""
    unknowns = [np.asarray(M, dtype=float) for M in (Pi, Gamma, Theta)]
    for name, M, shape in zip(_CONTROLLER_KEYS, unknowns, _shapes(true_mode, target_mode)):
        if M.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {M.shape}")
    modes = [(mode.A, mode.B, mode.C) for mode in (true_mode, target_mode)]
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(_relative(terms) for terms in _terms(*modes, *unknowns))


def _worst_equation(*args) -> tuple[str, float]:
    """The regulator equation with the largest of :func:`regulator_residuals` of
    ``args`` and that residual; a NaN counts as the largest."""
    residuals = regulator_residuals(*args)
    worst = int(np.argmax(residuals))
    return _EQUATIONS[worst], residuals[worst]


def solve_regulator_equations(
    true_mode: StateSpaceMode,
    target_mode: StateSpaceMode,
) -> RegulatorSolution:
    """Solve the regulator equations for (Pi, Gamma, Theta).

    The equations are affine in ``z = [vec(Pi); vec(Gamma); vec(Theta)]``
    (column-major): column j of their matrix is the homogeneous equations at
    the j-th unit ``z``, all evaluated in one batched call, and the right side
    is minus the equations at ``z = 0``.  The system is equilibrated first by
    the units of u and y: input channel i is divided by the smallest power of
    two ``d_i`` above the max-abs entry of column i of ``B_s`` and ``B_t``, output
    channel j by that ``g_j`` of row j of ``C_s`` and ``C_t``.  In those units
    ``Gamma`` is ``D Gamma`` and ``Theta`` is ``D Theta D^-1``; powers of two make
    the scaling exact.  Minimum-norm least squares solves the scaled system.  A
    solution is accepted as feasible iff every relative residual
    (:func:`regulator_residuals`) is at most 1e-9; otherwise the target mode
    cannot imitate the source outputs and :class:`RegulationInfeasibleError` is
    raised.

    Raises
    ------
    ValueError
        If the two modes do not share input/output dimensions.
    RegulationInfeasibleError
        If the largest relative residual exceeds 1e-9.
    """
    if true_mode.m != target_mode.m or true_mode.l != target_mode.l:
        raise ValueError("source and target modes must share m and l")
    shapes = _shapes(true_mode, target_mode)
    ends = np.cumsum([rows * cols for rows, cols in shapes])

    def unknowns(z):  # the inverse of _vec for (Pi, Gamma, Theta)
        parts = np.split(z, ends[:-1], axis=-1)
        return [p.reshape(*p.shape[:-1], c, r).swapaxes(-1, -2) for p, (r, c) in zip(parts, shapes)]

    modes = (true_mode, target_mode)
    d = np.ldexp(1.0, np.frexp(np.abs(np.vstack([mode.B for mode in modes])).max(0))[1])
    g = np.ldexp(1.0, np.frexp(np.abs(np.hstack([mode.C for mode in modes])).max(1))[1])
    source, target = [(mode.A, mode.B / d, mode.C / g[:, None]) for mode in modes]
    homogeneous = source[:2] + (0.0,)  # C_s = 0
    M = _vec(map(sum, _terms(homogeneous, target, *unknowns(np.eye(ends[-1]))))).T
    b = -_vec(map(sum, _terms(source, target, *unknowns(np.zeros(ends[-1])))))
    z, _ = lstsq_min_norm(M, b)
    Pi, Gamma, Theta = unknowns(z)
    Gamma, Theta = Gamma / d[:, None], Theta / d[:, None] * d
    equation, residual = _worst_equation(true_mode, target_mode, Pi, Gamma, Theta)
    if not residual <= _REGULATOR_RTOL:  # a NaN residual is infeasible too
        raise RegulationInfeasibleError(residual, equation)
    return RegulatorSolution(Pi=Pi, Gamma=Gamma, Theta=Theta, residual=residual)


def design_stabilizing_gain(target_mode: StateSpaceMode) -> np.ndarray:
    """Feedback gain R making ``A + B R`` Schur stable.

    R comes from the stabilizing solution P of the discrete-time Riccati
    equation with identity state and input weights,

        P = A' P A - A' P B (I + B' P B)^(-1) B' P A + I,

    computed by the structure-preserving doubling algorithm: from
    ``(A_0, G_0, H_0) = (A, B B', I)`` each step solves
    ``(I + G_k H_k) [W_A  W_G] = [A_k  G_k]`` once and sets

        A_k+1 = A_k W_A,
        G_k+1 = G_k + A_k W_G A_k',
        H_k+1 = H_k + A_k' H_k W_A.

    ``H_k`` equals the 2^k-th iterate of the Riccati fixed-point map from
    ``P = 0`` and converges quadratically to P.  The doubling stops once a
    step changes ``H_k`` by at most 1e-12 of its max-abs entry; then
    ``R = -(I + B'PB)^(-1) B'PA``.  A gain of the caller's own choosing
    goes straight to :func:`build_tracking_controller`, which checks it.
    The distorter needs no gain.

    Raises
    ------
    GainDesignError
        If an iterate overflows (an unstable mode the input cannot move),
        the doubling has not converged after 64 steps (a pole on the unit
        circle the input cannot move), or the resulting gain is not
        Schur-stabilizing (rounding can let the unit-circle case settle).
    """
    A, B, n = target_mode.A, target_mode.B, target_mode.n
    I_n = np.eye(n)
    A_k, G_k, H_k = A, B @ B.T, I_n
    # An overflowing iterate ends the synthesis, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DOUBLING_MAX_STEPS):
            W = np.linalg.solve(I_n + G_k @ H_k, np.hstack([A_k, G_k]))
            step = A_k.T @ H_k @ W[:, :n]
            A_k, G_k, H_k = A_k @ W[:, :n], G_k + A_k @ W[:, n:] @ A_k.T, H_k + step
            if not np.isfinite([A_k, G_k, H_k]).all():
                raise GainDesignError("Riccati iterate overflowed: no gain stabilizes the mode")
            if np.abs(step).max() <= _DOUBLING_STEP_TOL * np.abs(H_k).max():
                break
        else:
            raise GainDesignError(
                f"Riccati doubling did not converge in {_DOUBLING_MAX_STEPS} steps"
            )
    R = -np.linalg.solve(np.eye(target_mode.l) + B.T @ H_k @ B, B.T @ H_k @ A)
    if not is_schur(A + B @ R):
        raise GainDesignError("synthesized gain failed the stability check")
    return R


def build_tracking_controller(
    sol: RegulatorSolution, R, target_mode: StateSpaceMode
) -> TrackingController:
    """Close ``sol`` with the gain R; ``L = Gamma - R Pi`` and ``S = Theta``.

    ``R`` is any gain of shape ``(l, n)`` of the target mode that makes
    ``A + B R`` Schur stable, e.g. one from :func:`design_stabilizing_gain`.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float))
    shape = (target_mode.l, target_mode.n)
    if R.shape != shape:
        raise ValueError(f"R must have shape {shape}, got {R.shape}")
    if not is_schur(target_mode.A + target_mode.B @ R):
        raise ValueError("R must Schur-stabilize the target mode")
    return TrackingController(
        Pi=sol.Pi, Gamma=sol.Gamma, Theta=sol.Theta, residual=sol.residual, R=R
    )


def save_controller(sol: RegulatorSolution, path) -> None:
    """Write ``{"Pi", "Gamma", "Theta"}`` of a regulator solution."""
    _write_document({key: getattr(sol, key) for key in _CONTROLLER_KEYS}, path)


def load_controller(
    path, true_mode: StateSpaceMode, target_mode: StateSpaceMode
) -> RegulatorSolution:
    """Read a regulator solution and measure its residual on the mode pair.
    A missing entry, one of the wrong type or a non-finite one is a ValueError."""
    Pi, Gamma, Theta = _read_document(
        path, "controller", lambda doc: [_frozen(doc[key], key) for key in _CONTROLLER_KEYS]
    )
    residual = _worst_equation(true_mode, target_mode, Pi, Gamma, Theta)[1]
    return RegulatorSolution(Pi=Pi, Gamma=Gamma, Theta=Theta, residual=residual)
