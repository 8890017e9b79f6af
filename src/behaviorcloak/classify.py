"""Behaviour-membership classification of input-output trajectories.

A trajectory belongs to a mode's behaviour iff each of its windows of lag + 1
samples does (Willems, Automatica 1986).  The classifier scores each mode in
a bank by the parity-space residual of those windows (Chow and Willsky, IEEE
TAC 1984) over the norm of the outputs, a unit-free score, and accepts every
mode below a tolerance; several accepted modes mean the trajectory is not
classifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import stable_norm
from .modes import ModeBank, StateSpaceMode, Trajectory, build_lifted_operators

__all__ = [
    "AMBIGUOUS",
    "NONE",
    "ClassificationReport",
    "mode_residual",
    "classify",
]

AMBIGUOUS = "AMBIGUOUS"
NONE = "NONE"

# The default score below which a mode accepts a trajectory: a share of ||Y||, so it
# holds in any units.  A member of the behaviour scores rounding, a few eps per window.
ACCEPT_TOL = 1e-6


@dataclass(frozen=True)
class ClassificationReport:
    """Per-mode behaviour residuals and the accepted-mode set."""

    residuals: dict[int, float]
    accept_tol: float

    @property
    def accepted(self) -> tuple[int, ...]:
        return tuple(
            mode_id
            for mode_id, residual in self.residuals.items()
            if residual <= self.accept_tol
        )

    @property
    def verdict(self):
        """The single accepted mode id, or AMBIGUOUS / NONE."""
        accepted = self.accepted
        if len(accepted) == 1:
            return accepted[0]
        return AMBIGUOUS if accepted else NONE

    def to_dict(self) -> dict:
        """The report as JSON values: a score with no finite value is ``None``."""
        return {
            "residuals": {
                str(k): v if np.isfinite(v) else None for k, v in self.residuals.items()
            },
            "accepted": list(self.accepted),
            "verdict": str(self.verdict),
        }


def mode_residual(mode: StateSpaceMode, traj: Trajectory) -> float:
    """Relative distance of a trajectory from a mode's behaviour: the norm of the parity
    residuals of its windows of lag + 1 samples (:meth:`LiftedOperators.residual`) over
    ``||Y||``.  A trajectory with zero outputs scores 0 if its residual is 0 and inf
    otherwise.  No power of A past a window is formed, so an unstable mode scores at any
    horizon.  ValueError naming the mode if the residual plus ``||Y||`` overflows;
    :func:`classify` keeps numpy from warning."""
    residual = build_lifted_operators(mode, traj.K).residual(traj.Y, traj.U)
    norm = stable_norm(traj.Y)
    if not residual + norm < np.inf:  # a NaN fails too
        raise ValueError(f"mode {mode.mode_id} has no finite score: {residual} / {norm}")
    return residual / norm if norm else (np.inf if residual else 0.0)


def classify(
    bank: ModeBank, traj: Trajectory, accept_tol: float = ACCEPT_TOL
) -> ClassificationReport:
    """Score a trajectory against every mode of a bank."""
    if not (np.isfinite(accept_tol) and accept_tol >= 0.0):
        raise ValueError(f"accept_tol must be finite and nonnegative, got {accept_tol}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        residuals = {mode.mode_id: mode_residual(mode, traj) for mode in bank}
    return ClassificationReport(residuals=residuals, accept_tol=accept_tol)
