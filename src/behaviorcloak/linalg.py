"""Dense linear-algebra primitives shared by the rest of the package.

Thin, tolerance-aware wrappers around numpy factorizations.  Rank
decisions everywhere use one scale-aware cutoff,
``sigma_max * max_dim * machine_eps * rank_tol_factor``, so all callers
agree on what counts as numerically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "pseudoinverse",
    "nullspace_basis",
    "lstsq_min_norm",
    "eigenvalues",
    "spectral_radius",
    "is_schur",
    "matrix_exponential",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used across the package.

    Parameters
    ----------
    rank_tol_factor : float
        Multiplier on the scale-aware SVD cutoff
        ``sigma_max * max_dim * machine_eps`` used for rank decisions.
        Must be >= 1.
    residual_tol : float
        Absolute residual below which a linear equation counts as
        satisfied.
    schur_margin : float
        Stability verdicts require a spectral radius of at most
        ``1 - schur_margin``.
    """

    rank_tol_factor: float = 1.0
    residual_tol: float = 1e-9
    schur_margin: float = 1e-9

    def __post_init__(self):
        if not self.rank_tol_factor >= 1.0:
            raise ValueError("rank_tol_factor must be >= 1")
        if not (self.residual_tol > 0.0 and self.schur_margin > 0.0):
            raise ValueError("residual_tol and schur_margin must be positive")

    def rank_cutoff(self, M: np.ndarray) -> float:
        """Relative singular-value cutoff for rank decisions on ``M``."""
        return max(M.shape) * np.finfo(float).eps * self.rank_tol_factor


DEFAULT_TOL = ToleranceConfig()


def _as_matrix(M, name: str = "M") -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be at most two-dimensional")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_square(M, name: str = "M") -> np.ndarray:
    M = _as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


def pseudoinverse(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of ``M`` with a scale-aware rank cutoff."""
    M = _as_matrix(M)
    return np.linalg.pinv(M, rcond=tol.rank_cutoff(M))


def nullspace_basis(M, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the right kernel of ``M``.

    Returns an ``ncols(M) x (ncols(M) - rank(M))`` matrix whose columns
    span ``Ker[M]``; the result has zero width when the kernel is
    trivial.
    """
    M = _as_matrix(M)
    _, s, vh = np.linalg.svd(M)
    cutoff = tol.rank_cutoff(M) * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].T.copy()


def lstsq_min_norm(M, b, tol: ToleranceConfig = DEFAULT_TOL):
    """Minimum-2-norm least-squares solution of ``M x = b``.

    Parameters
    ----------
    M : (p, q) array_like
    b : (p,) array_like

    Returns
    -------
    x : (q,) ndarray
        The minimum-norm minimizer of ``||M x - b||_2``.
    residual_norm : float
        The attained ``||M x - b||_2``.
    """
    M = _as_matrix(M)
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape[0] != M.shape[0]:
        raise ValueError(
            f"b has length {b.shape[0]}, expected {M.shape[0]} rows of M"
        )
    x, _, _, _ = np.linalg.lstsq(M, b, rcond=tol.rank_cutoff(M))
    residual_norm = float(np.linalg.norm(M @ x - b))
    return x, residual_norm


def eigenvalues(M) -> np.ndarray:
    """Eigenvalues of a square matrix, as a complex vector."""
    return np.linalg.eigvals(_as_square(M))


def spectral_radius(M) -> float:
    return float(np.max(np.abs(eigenvalues(M))))


def is_schur(M, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff all eigenvalues lie at least ``schur_margin`` inside the unit circle."""
    return spectral_radius(M) <= 1.0 - tol.schur_margin


# Coefficients of the [13/13] Pade approximant of exp, normalized to b[0] = 1,
# and the 1-norm up to which it is accurate to double precision (Higham,
# SIAM J. Matrix Anal. Appl. 26(4), 2005).
_PADE13 = tuple(
    factorial(26 - k) * factorial(13) / (factorial(26) * factorial(k) * factorial(13 - k))
    for k in range(14)
)
_THETA13 = 5.371920351148152


def matrix_exponential(M) -> np.ndarray:
    """Matrix exponential by [13/13] Pade approximation with scaling and squaring."""
    A = _as_square(M)
    norm = np.linalg.norm(A, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = A / 2.0**s
    b, I = _PADE13, np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    )
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E
