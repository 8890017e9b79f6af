"""Dense linear-algebra primitives shared by the rest of the package.

Thin wrappers around numpy factorizations with fixed thresholds.  Rank
decisions everywhere drop singular values below
``sigma_max * max(M.shape) * machine_eps`` (the cutoff numpy's
``matrix_rank`` uses by default), so all callers agree on what counts as
numerically zero; a solve through the Gram ``M' M`` or ``M M'`` uses that
cutoff squared on its eigenvalues.  A matrix is Schur stable when its
spectral radius is at most ``1 - SCHUR_MARGIN``.  Whether a residual is
small is decided by each caller, relative to the data it checks; a 2-norm of
such data or of a utility row is :func:`stable_norm`, accurate wherever the
norm is a normal float.  Every product ``np.dot`` would make is :func:`product`:
over a unit inner dimension, an outer product, it is one broadcast multiply,
since numpy hands that shape to a BLAS call that takes two to three times as long.
"""

from __future__ import annotations

from math import factorial

import numpy as np

__all__ = [
    "SCHUR_MARGIN",
    "rank_cutoff",
    "nullspace_basis",
    "lstsq_min_norm",
    "gram_solve",
    "is_schur",
    "squares_normal",
    "stable_norm",
    "product",
    "matrix_exponential",
]

SCHUR_MARGIN = 1e-9

# The 2-norms whose sum of squares is a normal float: below, squares underflow; above, overflow.
_SQUARES_NORMAL = np.sqrt(np.finfo(float).tiny), np.sqrt(np.finfo(float).max)


def rank_cutoff(M: np.ndarray) -> float:
    """Relative singular-value cutoff for rank decisions on ``M``."""
    return max(M.shape) * np.finfo(float).eps


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


def nullspace_basis(M) -> np.ndarray:
    """Orthonormal basis of the right kernel of ``M``.

    Returns an ``ncols(M) x (ncols(M) - rank(M))`` matrix whose columns
    span ``Ker[M]``; the result has zero width when the kernel is
    trivial.
    """
    M = _as_matrix(M)
    _, s, vh = np.linalg.svd(M)
    cutoff = rank_cutoff(M) * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].T.copy()


def lstsq_min_norm(M, b):
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
    x, _, _, _ = np.linalg.lstsq(M, b, rcond=rank_cutoff(M))
    residual_norm = float(np.linalg.norm(M @ x - b))
    return x, residual_norm


def gram_solve(G, B, long_side: int) -> np.ndarray:
    """``G^+ B`` for the Gram ``G`` of a matrix whose longer side is
    ``long_side``, by ``eigh(G)`` with that matrix's rank cutoff squared.
    The Gram squares the condition number: recompute residuals from the
    matrix itself, never from ``G``."""
    lam, V = np.linalg.eigh(_as_square(G, "G"))
    keep = lam > lam[-1] * (long_side * np.finfo(float).eps) ** 2
    return (V[:, keep] / lam[keep]) @ (V[:, keep].T @ np.asarray(B, dtype=float))


def is_schur(M) -> bool:
    """True iff all eigenvalues lie at least ``SCHUR_MARGIN`` inside the unit circle."""
    radius = np.abs(np.linalg.eigvals(_as_square(M))).max()
    return bool(radius <= 1.0 - SCHUR_MARGIN)


def squares_normal(norm):
    """Whether data of this 2-norm have a normal float as their sum of squares, so that a
    norm or a Gram from the squares keeps its digits; False for 0, inf and NaN."""
    return (norm >= _SQUARES_NORMAL[0]) & (norm < _SQUARES_NORMAL[1])


def stable_norm(x) -> float:
    """2-norm of an array, accurate whenever the norm is a normal float: when the sum
    of squares overflows or underflows, the norm of the array over its max-abs entry,
    times that entry.  Only that case allocates; a NaN or an infinite entry gives a NaN
    or inf."""
    norm = np.linalg.norm(x)
    if not squares_normal(norm):
        peak = np.abs(x).max(initial=0.0)
        if 0.0 < peak < np.inf:
            norm = peak * np.linalg.norm(x / peak)
    return float(norm)


def product(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``np.dot(a, b)`` of two arrays of one axis or more, into ``out`` if given.  Over a
    unit inner dimension, ``(W, 1) . (1, p)`` or ``(1,) . (1, p)``, it is the broadcast
    multiply of ``a`` by the row of ``b``: numpy hands that shape to a BLAS call that
    takes two to three times as long.  Every finite entry has np.dot's bits, but a zero
    product keeps its sign, where BLAS, which adds each product to +0, returns +0."""
    if b.shape[0] == 1 and a.shape[-1] == 1 and b.ndim == 2 and a.ndim <= 2:
        return np.multiply(a, b[0], out=out)
    return np.dot(a, b, out=out)


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
