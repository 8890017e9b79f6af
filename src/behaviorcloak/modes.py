"""Operation modes, trajectories, their lifted operators and on-disk formats.

A mode is one discrete-time linear system ``x(k+1) = A x(k) + B u(k)``,
``y(k) = C x(k)``.  A bank collects the modes a device can operate in;
all modes of a bank share the input and output dimensions so that any
recorded trajectory is dimensionally compatible with every mode.

Over K samples a mode's response is ``Ot x(1) + Tt U``, with ``Ot`` the
stacked rows ``C A^k`` (k < K) and ``Tt`` the block-Toeplitz forced
response.  :class:`LiftedOperators` (response, adjoint, behaviour residual)
and :func:`simulate_mode` run it without forming either matrix, on one
block kernel: the recursion runs 16 samples at a time with two dense
products per block (pieces cached on the mode), and the block-start states
follow from one grouped recursion (:func:`_group_scan`) in O(K) work, about
log_16(K/16) levels of three products each.  The rows ``C A^k`` are the
grouped scan of an impulse (:func:`_power_rows`).  The powers of ``A`` and
of the block step are built once per mode, level by level as far as a
horizon asks, so none past the horizon is formed (it may overflow), and
entries below ``tiny`` are flushed to zero, so an underflowed power adds
exactly zero.  A forward response of w outputs peaks at 2 w arrays of K
floats and hands over its buffer (:func:`_block_response`).

Behaviour membership runs no recursion: a trajectory is in a mode's
behaviour iff each of its windows of L = lag + 1 samples is (Willems,
Automatica 1986), so the behaviour residual stacks the parity-space
residuals ``N (y_window - T_L u_window)`` of all windows (Chow and Willsky,
IEEE TAC 1984), with ``N`` and ``N T_L`` cached on the mode.

The on-disk formats are text: trajectories as CSV, everything else as one
JSON document.  A whole-horizon array crosses the disk ``_ROWS_PER_BLOCK``
rows (or JSON entries) at a time: the CSV reader hands blocks of lines to
one ``numpy.loadtxt`` call, the CSV writer formats blocks of rows, and the
JSON writer streams an array value in blocks of entries, so no side holds
the whole text or the array as a tree of Python objects.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Optional

import numpy as np

from .linalg import lstsq_min_norm, matrix_exponential, nullspace_basis, product, stable_norm

__all__ = [
    "StateSpaceMode",
    "ModeBank",
    "Trajectory",
    "AssumptionCheck",
    "ModeValidationReport",
    "validate_mode",
    "simulate_mode",
    "LiftedOperators",
    "build_lifted_operators",
    "longitudinal_vehicle_mode",
    "vehicle_demo_bank",
    "load_mode_bank",
    "save_mode_bank",
    "read_trajectory_csv",
    "write_trajectory_csv",
]


def _frozen(value, name: str, samples: int = 0) -> np.ndarray:
    """``value`` as a frozen float array, by the one rule of every record: an array
    that is read-only and owns its data, or one just built from a list, a tuple or
    another dtype, is kept; anything else is copied.  TypeError naming the array if an
    entry is not a number: a string, a bool, a null or a ragged list (numpy turns a
    bool among numbers into 0.0 or 1.0 first).  With ``samples`` it has one row per
    sample, a vector cut into rows of ``samples`` entries.  ValueError naming the
    array if it has samples but is not 1-D or 2-D or whole rows, or by its first row,
    or sample, with a non-finite entry."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} is not an array of numbers")
    if samples and arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-D or 2-D, one row per sample, got shape {arr.shape}")
    cut = samples and arr.ndim == 1
    if cut and arr.size % samples:
        raise ValueError(f"{name} has {arr.size} entries, not whole rows of {samples} inputs")
    if isinstance(value, (list, tuple)) or arr.dtype != float:  # a new array that no caller holds
        arr = arr.astype(float, copy=False)
    elif arr.flags.writeable or not arr.flags.owndata or cut:
        arr = arr.copy()
    if cut:
        arr.shape = (arr.size // samples, samples)
    arr.setflags(write=False)
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(np.atleast_1d(arr)))[0, 0] + 1
        raise ValueError(f"{name} is not finite at {'sample' if samples else 'row'} {bad}")
    return arr


def _vector(value, size: int, name: str) -> np.ndarray:
    """``value`` as a flat float vector; ValueError unless it has ``size`` entries."""
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.shape[0] != size:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {size}")
    return v


@dataclass(frozen=True)
class StateSpaceMode:
    """One operation mode ``x(k+1) = A x(k) + B u(k)``, ``y(k) = C x(k)``."""

    mode_id: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in "ABC":
            arr = _frozen(getattr(self, name), name)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
            object.__setattr__(self, name, arr)
        A, B, C = self.A, self.B, self.C
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if A.shape[0] == 0:
            raise ValueError(f"a mode needs at least one state, got A of shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError("B must have as many rows as A")
        if C.shape[1] != A.shape[0]:
            raise ValueError("C must have as many columns as A")
        if B.shape[1] == 0 or C.shape[0] == 0:
            raise ValueError(f"a mode needs inputs and outputs, got B {B.shape} and C {C.shape}")

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Output dimension."""
        return self.C.shape[0]

    @property
    def l(self) -> int:
        """Input dimension."""
        return self.B.shape[1]

    @cached_property
    def _step_powers(self) -> "_GroupPowers":
        """:class:`_GroupPowers` of ``A``, from which the rows ``C A^k`` are built."""
        return _GroupPowers(self.A)

    @cached_property
    def _block_powers(self) -> tuple:
        """:class:`_GroupPowers` of the block step ``A^b`` and of its transpose."""
        step = np.linalg.matrix_power(self.A, _BLOCK)
        return _GroupPowers(step), _GroupPowers(step.T)

    @cached_property
    def _state_blocks(self) -> tuple:
        """Transposed :func:`_block_pieces` of the states (``C = I``), then the
        transposed block step's powers."""
        pieces = _block_pieces(self.A, self.B, np.eye(self.n))
        return (*(p.T.copy() for p in pieces), self._block_powers[1])

    @cached_property
    def _output_blocks(self) -> tuple:
        """:func:`_block_pieces` of the outputs, then the block step's powers, as
        the adjoint reads them."""
        return (*_block_pieces(self.A, self.B, self.C), self._block_powers[0])

    @cached_property
    def _output_blocks_t(self) -> tuple:
        """Their contiguous transposes, as the forward response reads them."""
        return (*(p.T.copy() for p in self._output_blocks[:3]), self._block_powers[1])

    @cached_property
    def _parity(self) -> tuple:
        """``(L, N, NT)``: windows of L = lag + 1 samples, the lag the first k at which the
        rank of the rows ``O = C A^j`` (j < k) stops growing; the orthonormal left kernel
        ``N`` of ``O`` (j < L) and ``N T``, ``T`` the window's forced response, transposed
        in blocks per sample: ``N[j]`` is (m, p) and ``NT[j]`` is (l, p)."""
        O = _power_rows(self.C, self._step_powers, self.n + 1)
        ranks = [0] + [np.linalg.matrix_rank(O[: k * self.m]) for k in range(1, self.n + 2)]
        L = 1 + next(k for k in range(self.n + 1) if ranks[k + 1] == ranks[k])
        O = O[: L * self.m]
        N = nullspace_basis(O.T)
        NT, p = _block_toeplitz(O.reshape(L, self.m, self.n), self.B, L - 1).T @ N, N.shape[1]
        return L, N.reshape(L, self.m, p), NT.reshape(L - 1, self.l, p)


@dataclass(frozen=True)
class ModeBank:
    """Ordered collection of modes sharing input/output dimensions.

    Mode ids must be unique and contiguous ``1..N``.
    """

    modes: tuple[StateSpaceMode, ...]

    def __post_init__(self):
        modes = tuple(self.modes)
        if not modes:
            raise ValueError("a mode bank needs at least one mode")
        m, l = modes[0].m, modes[0].l
        for mode in modes:
            if mode.m != m or mode.l != l:
                raise ValueError(
                    "all modes in a bank must share output and input dimensions"
                )
        ids = sorted(mode.mode_id for mode in modes)
        if ids != list(range(1, len(modes) + 1)):
            raise ValueError("mode ids must be unique and contiguous 1..N")
        object.__setattr__(self, "modes", modes)

    @property
    def m(self) -> int:
        return self.modes[0].m

    @property
    def l(self) -> int:
        return self.modes[0].l

    def mode(self, mode_id: int) -> StateSpaceMode:
        for mode in self.modes:
            if mode.mode_id == mode_id:
                return mode
        raise KeyError(f"no mode with id {mode_id} in bank")

    def __iter__(self):
        return iter(self.modes)


@dataclass(frozen=True)
class Trajectory:
    """Paired input/output record over a horizon of K samples.

    ``U`` holds u(1..K-1) row-wise, ``Y`` holds y(1..K) row-wise, and
    ``X`` optionally holds the true states x(1..K) when the generator
    recorded them.
    """

    U: np.ndarray
    Y: np.ndarray
    X: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("U", "Y", "X"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _frozen(value, f"trajectory {name}", samples=1))
        if self.Y.shape[0] < 2:
            raise ValueError("a trajectory needs a horizon of at least K = 2")
        if self.U.shape[0] != self.Y.shape[0] - 1:
            raise ValueError(
                f"expected {self.Y.shape[0] - 1} input samples for {self.Y.shape[0]} outputs, "
                f"got {self.U.shape[0]}"
            )
        if self.X is not None and self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("X must record one state per output sample")

    @property
    def K(self) -> int:
        return self.Y.shape[0]

    @property
    def m(self) -> int:
        return self.Y.shape[1]

    @property
    def l(self) -> int:
        return self.U.shape[1]

    def stacked_outputs(self) -> np.ndarray:
        """col[y(1); ...; y(K)] as a flat vector of length K*m."""
        return self.Y.reshape(-1)


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    rank: int
    required: int

    @property
    def passed(self) -> bool:
        return self.rank >= self.required


@dataclass(frozen=True)
class ModeValidationReport:
    """Per-assumption rank report for one mode."""

    mode_id: int
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode_id,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "rank": c.rank,
                    "required": c.required,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


# Samples per block of the blocked state recursion.
_BLOCK = 16
# Rows per group of the grouped recursion over the block rows.
_GROUP = 16
# The smallest normal float: entries of a power below it are flushed to zero.
_TINY = np.finfo(float).tiny


def _flushed(M: np.ndarray) -> np.ndarray:
    """``M`` with its entries below ``tiny`` set to zero, in place (a nan stays):
    an underflowed power then adds exactly zero, not slow subnormals."""
    M[np.abs(M) < _TINY] = 0.0
    return M


class _GroupPowers:
    """Powers of a step ``Q`` as the grouped recursion reads them, level by level.

    Level k holds the powers ``Q_k^i`` of ``Q_k = Q^(G^k)`` for i up to the
    largest a horizon has asked for (at most G), so none past a horizon is
    formed: it may overflow.  From them it keeps ``H = [I, Q_k, ...]`` side by
    side and the block upper-triangular ``L`` with block (j, i) =
    ``Q_k^(i - j)``, rebuilt only when a level grows.
    A lock keeps the growth whole when threads share a mode.
    """

    def __init__(self, step):
        step = _flushed(np.array(step, dtype=float))
        self.powers = [[np.eye(len(step)), step]]
        self.operators = []
        self.lock = threading.Lock()

    def level(self, k: int, p: int) -> tuple:
        """``(H, L)`` of level k, holding at least the powers ``Q_k^i``, i <= p."""
        with self.lock:
            if k == len(self.powers):  # Q_k = Q_(k-1)^G
                self.powers.append([self.powers[0][0], self.powers[k - 1][_GROUP]])
            powers = self.powers[k]
            if k == len(self.operators) or len(powers) <= p:
                while len(powers) <= p:
                    powers.append(_flushed(powers[-1] @ powers[1]))
                self.operators[k : k + 1] = [_group_operators(powers)]
            return self.operators[k]

    @cached_property
    def flipped(self) -> "_GroupPowers":
        """The powers of ``J Q J``: ``Q`` with the order of its rows and columns reversed."""
        return _GroupPowers(self.powers[0][1][::-1, ::-1])


def _group_operators(powers: list) -> tuple:
    """``(H, L)`` of :class:`_GroupPowers` from the powers ``[I, Q, ...]``;
    ``L`` has one block row per power, at most G."""
    n, s = len(powers[0]), min(len(powers), _GROUP)
    H = np.concatenate(powers, axis=1)
    L = np.zeros((s * n, s * n))
    for j in range(s):
        L[j * n : (j + 1) * n, j * n :] = H[:, : (s - j) * n]
    return H, L


def _group_powers(step) -> _GroupPowers:
    """``step`` if it is a :class:`_GroupPowers` (a mode's cache), else new ones."""
    return step if isinstance(step, _GroupPowers) else _GroupPowers(step)


def _power_rows(first: np.ndarray, step, count: int) -> np.ndarray:
    """Stack ``first step^k``, k < count: the grouped scan (:func:`_group_scan`)
    of the impulse ``first`` followed by zeros."""
    impulse = np.zeros((len(first), count, first.shape[1]))
    impulse[:, 0] = first
    return _group_scan(impulse, _group_powers(step), 0).swapaxes(0, 1).reshape(-1, first.shape[1])


def _block_toeplitz(O: np.ndarray, B: np.ndarray, cols: int) -> np.ndarray:
    """Forced-response matrix of the row blocks ``O[k] = C A^k`` (k < rows):
    block (i, j) is ``O[i - j - 1] B`` below the diagonal, zero elsewhere."""
    rows, m, _ = O.shape
    lag = np.arange(rows)[:, None] - np.arange(cols)
    padded = np.concatenate([np.zeros((1, m, B.shape[1])), O[: rows - 1] @ B])
    blocks = padded[np.maximum(lag, 0)].transpose(0, 2, 1, 3)
    return blocks.reshape(rows * m, cols * B.shape[1])


def _pad_blocks(a: np.ndarray, blocks: int, width: int) -> np.ndarray:
    """``a`` zero-padded along its last axis to whole blocks: (..., blocks, width)."""
    if a.shape[-1] < blocks * width:
        padded = np.zeros(a.shape[:-1] + (blocks * width,))
        padded[..., : a.shape[-1]] = a
        a = padded
    return a.reshape(a.shape[:-1] + (blocks, width))


def _block_pieces(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> tuple:
    """``(Ob, Tb, Ctrl)`` of b = ``_BLOCK`` samples: from state s, inputs V give
    outputs ``Ob s + Tb V`` and next state ``A^b s + Ctrl V``."""
    (n, l), b = B.shape, _BLOCK
    Ob = _power_rows(C, A, b)
    Tb = _block_toeplitz(Ob.reshape(b, -1, n), B, b)
    Ctrl = _power_rows(B.T, A.T, b).reshape(b, l, n)[::-1].reshape(b * l, n).T
    return Ob, Tb, np.ascontiguousarray(Ctrl)


def _scan(S: np.ndarray, step, reverse: bool = False) -> None:
    """Grouped scan over axis -2, in place: ``S[j]`` becomes the sum of ``S[i]
    step^|j - i|`` over i <= j (i >= j if ``reverse``), by :func:`_group_scan`.
    Reversed, it scans the rows and their entries in reverse order, the order
    of the flat array backwards, in the step with its entries reversed."""
    powers = _group_powers(step)
    if reverse:
        S[..., ::-1, ::-1] = _group_scan(S[..., ::-1, ::-1], powers.flipped, 0)
    else:
        S[...] = _group_scan(S, powers, 0)


def _group_scan(S: np.ndarray, powers: _GroupPowers, level: int) -> np.ndarray:
    """The forward :func:`_scan` of ``S`` in ``Q = Q_level``, as a new array: the
    in-group partial states by one product with ``L`` (truncated for the tail
    group), the ends of all groups but the last by this routine one level up,
    in ``Q^G``, and each group's carry by one product with ``[Q, ..., Q^G]``."""
    *lead, count, n = S.shape
    full, tail = divmod(count, _GROUP)
    H, L = powers.level(level, min(_GROUP, count - 1))
    flat, w, width = np.reshape(S, (*lead, count * n)), full * _GROUP * n, _GROUP * n
    out = np.empty(flat.shape)
    groups = out[..., :w].reshape(*lead, full, width)
    if full:
        np.matmul(flat[..., :w].reshape(*lead, full, width), L, out=groups)
    if tail:
        np.matmul(flat[..., w:], L[: tail * n, : tail * n], out=out[..., w:])
    if count > _GROUP:
        ends = out.reshape(S.shape)[..., _GROUP - 1 : count - 1 : _GROUP, :]
        if ends.shape[-2] > 1:
            ends = _group_scan(ends, powers, level + 1)
        if full > 1:
            groups[..., 1:, :] += ends[..., : full - 1, :] @ H[:, n : width + n]
        if tail:
            out[..., w:] += ends[..., -1, :] @ H[:, n : (tail + 1) * n]
    return out.reshape(S.shape)


def _block_response(pieces_t: tuple, x, U, K: int) -> np.ndarray:
    """Outputs y(1..K), one row per sample in an array that owns its data, from
    state ``x`` under the K - 1 inputs ``U``: two products per block, the
    block-start states by one :func:`_scan`, and no copy of ``U`` into blocks.

    ``pieces_t`` are the :func:`_block_pieces` transposed into contiguous
    arrays (numpy's matmul is several times slower on transposed views), then
    the transposed block step's :class:`_GroupPowers`.
    """
    Ob, Tb, Ctrl, Ab = pieces_t
    nb, U = -(-K // _BLOCK), np.reshape(U, -1)
    head = U[: (nb - 1) * len(Tb)].reshape(nb - 1, len(Tb))
    S = np.concatenate([np.reshape(x, (1, len(Ob))), head @ Ctrl])
    _scan(S, Ab)
    Y = S @ Ob
    del S  # the peak below is Y and one forced product of its size
    Y[:-1] += head @ Tb
    Y[-1] += U[head.size :] @ Tb[: U.size - head.size]
    Y.resize((K, Ob.shape[1] // _BLOCK), refcheck=False)  # drop the padding in place
    return Y


@dataclass(frozen=True)
class LiftedOperators:
    """Horizon-K response ``Ot x + Tt U`` of one mode, its adjoint and the
    distance of a trajectory from the mode's behaviour.

    Only :meth:`fit` forms ``Ot``.  The response and the adjoint run the block
    kernel in O(K) work; the residual takes shifted products with the parity
    check.  The block pieces, group powers and parity check are cached on the mode.
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

    def apply(self, x, U) -> np.ndarray:
        """Stacked response ``Ot x + Tt U``, in an array that owns its data."""
        Y = _block_response(self.mode._output_blocks_t, x, U, self.K)
        Y.shape = (Y.size,)  # flat in place, not a view: a plan keeps it uncopied
        return Y

    def apply_adjoint(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Adjoint pair ``(Ot' w, Tt' w)``; a stack of weights (q, K*m) gives
        both results with the same leading axis."""
        Ob, Tb, Ctrl, Ab = self.mode._output_blocks
        w = np.reshape(np.asarray(w, dtype=float), np.shape(w)[:-1] + (self.K * self.m,))
        W = _pad_blocks(w, -(-self.K // _BLOCK), len(Ob))
        costate = W @ Ob
        _scan(costate, Ab, reverse=True)
        U_adj = W @ Tb
        U_adj[..., :-1, :] += costate[..., 1:, :] @ Ctrl
        U_adj = U_adj.reshape(W.shape[:-2] + (-1,))
        return costate[..., 0, :], U_adj[..., : (self.K - 1) * self.l]

    def _data(self, Y, U) -> tuple:
        """``Y`` as (K, m) and ``U`` as a (K - 1, l) array; ValueError otherwise."""
        K = self.K
        if np.size(Y) != K * self.m or np.shape(U) != (K - 1, self.l):
            raise ValueError(
                f"mode {self.mode.mode_id} at K = {K} expects {K * self.m} outputs and "
                f"{(K - 1, self.l)} inputs, got {np.size(Y)} and {np.shape(U)}"
            )
        return np.reshape(Y, (K, self.m)), np.asarray(U, dtype=float)

    def fit(self, Y, U) -> tuple[np.ndarray, float]:
        """Least-squares inverse of :meth:`apply` in x: ``(x, min ||Y - Ot x - Tt U||)``
        by ``lstsq_min_norm`` on ``Ot`` with its columns scaled to unit norm (a zero
        column kept), once the forced response is removed.  It forms ``Ot``: it is
        meant for short windows, such as a deadbeat reconstruction's n samples."""
        Y, U = self._data(Y, U)
        Ot = _power_rows(self.mode.C, self.mode._step_powers, self.K)
        norms = np.linalg.norm(Ot, axis=0)
        scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
        z, residual = lstsq_min_norm(Ot * scale, Y.reshape(-1) - self.apply(np.zeros(self.n), U))
        return scale * z, residual

    def residual(self, Y, U) -> float:
        """Distance of ``(U, Y)`` from the mode's behaviour: the norm of the parity residuals
        ``N (y_window - T_L u_window)`` of all windows of L samples, a sum of 2 L - 1 shifted
        products that holds two arrays of p floats per window.  Below L samples the one
        window is the horizon: the residual of :meth:`fit`."""
        Y, U = self._data(Y, U)
        L, N, NT = self.mode._parity
        if self.K < L:
            return self.fit(Y, U)[1]
        W = self.K - L + 1
        E, part = product(Y[:W], N[0]), np.empty((W, N.shape[2]))
        for j in range(1, L):
            E += product(Y[j : j + W], N[j], out=part)
        for j in range(L - 1):
            E -= product(U[j : j + W], NT[j], out=part)
        return stable_norm(E)


def build_lifted_operators(target_mode: StateSpaceMode, K: int) -> LiftedOperators:
    """The horizon-K lifted operators of a mode.  At K = 1 there are no inputs
    and ``Ot = C``."""
    if K < 1:
        raise ValueError("horizon must be at least 1")
    return LiftedOperators(target_mode, K)


def validate_mode(mode: StateSpaceMode) -> ModeValidationReport:
    """Check the standing assumptions on one mode.

    Reports the ranks of the observability and controllability matrices,
    the row rank of C, and the column rank of B.  The mode passes iff
    the pair (A, C) is observable, (A, B) is controllable, C maps onto
    the full output space, and B has a trivial kernel.  Ranks use numpy's
    default cutoff ``sigma_max * max(M.shape) * machine_eps``.
    """

    def rank(M: np.ndarray) -> int:
        return int(np.linalg.matrix_rank(M))

    # Rows C A^k and (A^k B)', k < n: observability, controllability matrix'.
    A, B, C, n = mode.A, mode.B, mode.C, mode.n
    checks = (
        AssumptionCheck("observability", rank(_power_rows(C, A, n)), n),
        AssumptionCheck("controllability", rank(_power_rows(B.T, A.T, n)), n),
        AssumptionCheck("output_row_rank", rank(mode.C), mode.m),
        AssumptionCheck("input_column_rank", rank(mode.B), mode.l),
    )
    return ModeValidationReport(mode.mode_id, checks)


def simulate_mode(mode: StateSpaceMode, x1, U) -> Trajectory:
    """Run the defining recursion from ``x1`` under the input sequence ``U``.

    ``U`` has one row per step, K-1 rows total; the returned trajectory
    records the state sequence.  The states are the block scan
    :func:`_block_response` with ``C = I``, and the outputs are ``X C'``.
    A response that is not finite, from a non-finite input or from a power of
    the block step past the float range, is one ValueError naming the mode
    and K, with no overflow warning.
    """
    x1 = _vector(x1, mode.n, "x1")
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    if U.ndim != 2 or U.shape[1] != mode.l:
        raise ValueError(f"U has shape {U.shape}, expected one row of {mode.l} inputs per step")
    with np.errstate(over="ignore", invalid="ignore"):
        X = _block_response(mode._state_blocks, x1, U, U.shape[0] + 1)
        Y = X @ mode.C.T
    X.setflags(write=False)  # handed over: the trajectory keeps both uncopied
    Y.setflags(write=False)
    try:
        return Trajectory(U=U, Y=Y, X=X)
    except ValueError as exc:
        raise ValueError(f"simulating mode {mode.mode_id} over K = {len(Y)}: {exc}") from None


def longitudinal_vehicle_mode(
    tau: float, beta: float, sample_period: float = 0.1, mode_id: int = 1
) -> StateSpaceMode:
    """ZOH-discretized third-order longitudinal vehicle model.

    States are position, velocity, and acceleration; the acceleration is
    measured and the input is an acceleration command filtered through a
    power-train lag ``tau`` with engine gain ``beta``.
    """
    if not (tau > 0.0 and beta > 0.0 and sample_period > 0.0):
        raise ValueError("tau, beta and sample_period must be positive")
    # Zero-order hold: exp([[A, B], [0, 0]] h) holds the discrete A and B in its top rows.
    aug = np.zeros((4, 4))
    aug[:3, 1:] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0 / tau, beta / tau]]
    exp_aug = matrix_exponential(aug * sample_period)
    return StateSpaceMode(mode_id, exp_aug[:3, :3], exp_aug[:3, 3:], [[0.0, 0.0, 1.0]])


def vehicle_demo_bank() -> ModeBank:
    """Two-mode demo bank at 10 Hz: a fast sports car and a sluggish average car."""
    return ModeBank(
        (
            longitudinal_vehicle_mode(0.01, 1.50, mode_id=1),
            longitudinal_vehicle_mode(0.60, 0.70, mode_id=2),
        )
    )


# --- file formats -----------------------------------------------------------

# Rows (or JSON entries) per block of every whole-horizon file read or write.
_ROWS_PER_BLOCK = 1024
_CSV = dict(delimiter=",", quotechar='"', comments=None)


def _read_document(path, kind: str, build):
    """``build(doc)`` of the JSON document at ``path``, by the one error rule of
    every document: text that is not JSON, a missing entry or one of the wrong
    type is a ValueError naming the document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{kind} document {path} is not JSON: {exc}") from None
    try:
        return build(doc)
    except KeyError as exc:
        raise ValueError(f"{kind} document has no {exc.args[0]!r} entry") from None
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"ill-formed {kind} document: {exc}") from exc


def _integer(doc, key: str) -> int:
    """Entry ``key`` of a document, which must be a JSON integer: a bool, a string
    or a float is a TypeError, which :func:`_read_document` names."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} is not an integer: {value!r}")
    return value


def _write_array(fh, a: np.ndarray) -> None:
    """Write ``json.dumps(a.tolist())`` from ``_ROWS_PER_BLOCK`` entries at a time."""
    fh.write("[")
    if a.ndim > 1:
        for i, row in enumerate(a):
            fh.write(", " if i else "")
            _write_array(fh, row)
    else:
        for lo in range(0, len(a), _ROWS_PER_BLOCK):
            fh.write(", " if lo else "")
            fh.write(json.dumps(a[lo : lo + _ROWS_PER_BLOCK].tolist())[1:-1])
    fh.write("]")


def _write_document(doc, path) -> None:
    """Write one JSON document and a newline, on one line.

    ``doc`` is a dict whose numpy-array values are written a block of entries
    at a time, so no whole-horizon array becomes a list of Python floats or
    one string; the bytes are those of ``json.dumps`` with the arrays' ``tolist()``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            if isinstance(value, np.ndarray):
                _write_array(fh, value)
            else:
                fh.write(json.dumps(value))
        fh.write("}\n")


def load_mode_bank(path) -> ModeBank:
    """Read a mode bank from its JSON document.

    The document carries the shared dimensions ``m`` and ``l`` plus one
    entry per mode with id and row-major A, B, C matrices.  A missing
    entry or one of the wrong type is a ValueError.
    """

    def build(doc) -> ModeBank:
        m, l = _integer(doc, "m"), _integer(doc, "l")
        bank = ModeBank(
            tuple(
                StateSpaceMode(mode_id=_integer(e, "id"), A=e["A"], B=e["B"], C=e["C"])
                for e in doc["modes"]
            )
        )
        if bank.m != m or bank.l != l:
            raise ValueError(
                f"declared dimensions (m={m}, l={l}) disagree with the mode "
                f"matrices (m={bank.m}, l={bank.l})"
            )
        return bank

    return _read_document(path, "mode bank", build)


def save_mode_bank(bank: ModeBank, path) -> None:
    modes = [
        {"id": mode.mode_id, "A": mode.A.tolist(), "B": mode.B.tolist(), "C": mode.C.tolist()}
        for mode in bank
    ]
    _write_document({"m": bank.m, "l": bank.l, "modes": modes}, path)


def _csv_header(l: int, m: int, n: int) -> list[str]:
    sizes = (("u", l), ("y", m), ("x", n))
    return ["k"] + [f"{kind}_{i + 1}" for kind, size in sizes for i in range(size)]


def write_csv_rows(fh, row_format: str, *columns: np.ndarray) -> None:
    """Write ``row_format % (k, *cells)`` for rows k = 1, 2, ... of the 2-D ``columns``.

    Cells are Python floats, so ``%r`` writes their shortest repr.  Rows are
    formatted a block at a time; the shortest array sets how many there are.
    """
    rows = min(len(col) for col in columns)
    for lo in range(0, rows, _ROWS_PER_BLOCK):
        hi = min(lo + _ROWS_PER_BLOCK, rows)
        k = np.arange(lo + 1, hi + 1)[:, None]
        block = np.hstack([k, *(col[lo:hi] for col in columns)])
        fh.write("".join([row_format % tuple(row) for row in block.tolist()]))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write a trajectory as CSV with header ``k,u_1..u_l,y_1..y_m[,x_1..x_n]``.

    ``k`` is 1-based and the final row carries empty input cells (there is
    no input at the last sample).  Lines end in CRLF and each value is the
    shortest ``repr`` of its float, so reading the file back is exact.  The
    rows are formatted ``_ROWS_PER_BLOCK`` at a time straight from ``U``,
    ``Y`` and ``X``, so the writer holds one block of text, never a copy of
    the columns side by side.
    """
    outputs = (traj.Y,) if traj.X is None else (traj.Y, traj.X)
    width = sum(col.shape[1] for col in outputs)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_header(traj.l, traj.m, width - traj.m)) + "\r\n")
        write_csv_rows(fh, "%d" + ",%r" * (traj.l + width) + "\r\n", traj.U, *outputs)
        last = "%d" + "," * traj.l + ",%r" * width + "\r\n"
        fh.write(last % (traj.K, *(v for col in outputs for v in col[-1].tolist())))


def _row_values(line: str, row: int, width: int, inputs: int = 0) -> list[float]:
    """Floats of data row ``row`` less its ``inputs`` input cells, which must be empty."""
    # max_rows: one line, where numpy's default sizes a 50000-row buffer (1.6 MB, 2 ms).
    cells = np.loadtxt([line], dtype=str, ndmin=1, max_rows=1, **_CSV).tolist()
    if len(cells) != width:
        raise ValueError(f"row {row} has {len(cells)} cells, expected {width}")
    if any(cell.strip() for cell in cells[1 : 1 + inputs]):
        raise ValueError("the final sample must not carry input values")
    texts = [cell.strip() for cell in cells[:1] + cells[1 + inputs :]]
    # As the body's numpy parser reads a cell: ASCII only, no "_" digit separators.
    if all(text.isascii() and "_" not in text for text in texts):
        try:
            return [float(text) for text in texts]
        except ValueError:
            pass
    raise ValueError(f"row {row} has a non-numeric cell: {line!r}")


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`.

    Accepts CRLF, LF or CR line ends, a missing final line end and quoted
    cells.  All rows but the final one (empty input cells) go
    ``_ROWS_PER_BLOCK`` lines at a time into one ``numpy.loadtxt`` call, so no
    whole-file text is held.  ValueError, by the first fault in this order and
    its first row: no header or a wrong one, fewer than two rows, a blank row,
    a wrong cell count or a non-numeric cell (the one fault that re-reads the
    file, to find its row), input on the final row, ``k`` other than ``1..K``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ValueError("empty trajectory file")
        header = header.rstrip("\n").replace('"', "").split(",")
        l = sum(1 for name in header if name.startswith("u_"))
        m = sum(1 for name in header if name.startswith("y_"))
        if header != _csv_header(l, m, len(header) - 1 - l - m):
            raise ValueError(f"unexpected trajectory header: {header}")
        width, K, blank, last = len(header), 0, 0, []

        def body(block: list) -> list:
            # Count the rows, note the first blank one, and hold back the last.
            nonlocal K, blank, last
            if not blank and "\n" in block:
                blank = K + block.index("\n") + 1
            K, lines, last = K + len(block), last + block[:-1], block[-1:]
            return lines

        blocks = map(body, iter(lambda: list(islice(fh, _ROWS_PER_BLOCK)), []))
        lines = chain(next(blocks, []), chain.from_iterable(blocks))
        if K < 2:  # decided by the first block, before loadtxt warns of no data
            raise ValueError(f"a trajectory file needs at least two data rows, got {K}")
        try:  # loadtxt would skip a blank line
            values = None if blank else np.loadtxt(lines, ndmin=2, **_CSV)
        except ValueError:
            values = None
            for _ in lines:  # the rows past the fault, for K and a blank row
                pass
        if blank:
            raise ValueError(f"row {blank} is blank")
        if values is None or values.shape != (K - 1, width):
            fh.seek(0)  # loadtxt numbers rows its own way: find the first bad one
            for row, line in enumerate(islice(fh, 1, K), 1):
                _row_values(line.rstrip("\n"), row, width)
            raise ValueError("unreadable trajectory rows")
    cells = _row_values(last[0].rstrip("\n"), K, width, inputs=l)
    if not (np.array_equal(values[:, 0], np.arange(1, K)) and cells[0] == K):
        raise ValueError("sample indices must be contiguous and 1-based")
    final = np.array([cells[:1] + [0.0] * l + cells[1:]])  # at full width, no input

    def column(lo: int, hi: int, parts: list) -> np.ndarray:
        # A frozen owner of its own column: the trajectory keeps it uncopied.
        arr = np.concatenate([part[:, lo:hi] for part in parts])
        arr.setflags(write=False)
        return arr

    U = column(1, 1 + l, [values])
    Y = column(1 + l, 1 + l + m, [values, final])
    X = column(1 + l + m, width, [values, final]) if width > 1 + l + m else None
    return Trajectory(U=U, Y=Y, X=X)
