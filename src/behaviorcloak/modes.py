"""Operation modes, trajectories, discretization, and their on-disk formats.

A mode is one discrete-time linear system ``x(k+1) = A x(k) + B u(k)``,
``y(k) = C x(k)``.  A bank collects the modes a device can operate in;
all modes of a bank share the input and output dimensions so that any
recorded trajectory is dimensionally compatible with every mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import gram_solve, matrix_exponential

__all__ = [
    "StateSpaceMode",
    "ModeBank",
    "Trajectory",
    "ContinuousMode",
    "AssumptionCheck",
    "ModeValidationReport",
    "validate_mode",
    "discretize_zoh",
    "simulate_mode",
    "longitudinal_vehicle_mode",
    "vehicle_demo_bank",
    "load_mode_bank",
    "save_mode_bank",
    "read_trajectory_csv",
    "write_trajectory_csv",
]


def _frozen(value, name: str, samples: bool = False) -> np.ndarray:
    """``value`` as a frozen float array, by the one rule of every record: an array
    that is read-only and owns its data is kept, anything else is copied.  With
    ``samples`` it has one row per sample (a vector becomes a column).  ValueError
    naming the array and its first row, or sample, with a non-finite entry."""
    arr = np.asarray(value, dtype=float)
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(np.atleast_1d(arr)))[0, 0] + 1
        raise ValueError(f"{name} is not finite at {'sample' if samples else 'row'} {bad}")
    return arr.reshape(-1, 1) if samples and arr.ndim == 1 else arr


def _matrices(record) -> tuple:
    """Freeze a model's ``A``, ``B`` and ``C`` in place; each must be 2-dimensional."""
    for name in "ABC":
        arr = _frozen(getattr(record, name), name)
        if arr.ndim != 2:
            raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
        object.__setattr__(record, name, arr)
    return record.A, record.B, record.C


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
    _gram_factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B, C = _matrices(self)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if A.shape[0] == 0:
            raise ValueError(f"a mode needs at least one state, got A of shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError("B must have as many rows as A")
        if C.shape[1] != A.shape[0]:
            raise ValueError("C must have as many columns as A")

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
    def _state_blocks(self) -> tuple:
        """Transposed :func:`_block_pieces` of the states (``C = I``)."""
        return tuple(p.T.copy() for p in _block_pieces(self.A, self.B, np.eye(self.n)))

    @cached_property
    def _output_blocks(self) -> tuple:
        """:func:`_block_pieces` of the outputs, as the adjoint reads them."""
        return _block_pieces(self.A, self.B, self.C)

    @cached_property
    def _output_blocks_t(self) -> tuple:
        """Their contiguous transposes, as the forward response reads them."""
        return tuple(p.T.copy() for p in self._output_blocks)

    def _gram_factor(self, K: int) -> tuple:
        """``(s, P, steps)`` of the horizon-K observability Gramian ``W``, cached
        per K: ``s = diag(W)^(-1/2)`` (1 where zero), ``P = (S W S)^+`` with
        ``S = diag(s)``, and 2 fit steps if ``S W S`` is ill-conditioned."""
        if K not in self._gram_factors:
            with np.errstate(over="ignore", invalid="ignore"):
                W = _gramian(self.C, self.A, K)
            if not np.isfinite(W).all():
                raise ValueError(f"the Gramian of mode {self.mode_id} at K = {K} is not finite")
            d = np.diag(W)
            s = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
            W = s[:, None] * W * s
            P = gram_solve(W, np.eye(self.n), max(K * self.m, self.n))
            cond = np.linalg.norm(W, 2) * np.linalg.norm(P, 2)
            self._gram_factors[K] = s, P, 1 + int(cond > _REFINE_COND)
        return self._gram_factors[K]


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
    def N(self) -> int:
        return len(self.modes)

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
                object.__setattr__(self, name, _frozen(value, f"trajectory {name}", samples=True))
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
class ContinuousMode:
    """Continuous-time model ``dx/dt = A x + B u``, ``y = C x`` plus a sample period."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    sample_period: float

    def __post_init__(self):
        A, B, C = _matrices(self)
        if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0] or C.shape[1] != A.shape[0]:
            raise ValueError("inconsistent continuous-time model dimensions")
        if not self.sample_period > 0.0:
            raise ValueError("sample_period must be positive")


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
# The smallest normal float: the threshold of :func:`_underflows`.
_TINY = np.finfo(float).tiny
# A fit refines once with the same factor if the equilibrated Gramian's
# condition number (the first step loses cond * eps) is above this.
_REFINE_COND = 1e3


def _underflows(M: np.ndarray) -> bool:
    """Every entry of ``M`` below ``tiny`` (never with a nan): a power to drop, not
    carry as slow subnormals.  One entry goes first, at a tenth of the cost."""
    return abs(M[0, 0]) < _TINY and np.abs(M).max() < _TINY


def _power_rows(first: np.ndarray, A: np.ndarray, count: int) -> np.ndarray:
    """Stack ``first A^k``, k < count, by block doubling: the first s blocks
    times ``A^s`` give the next s, so it takes O(log count) products.  Rows from
    an ``A^s`` below ``tiny`` on are zero: below n * tiny * max|rows before|."""
    r = first.shape[0]
    out = np.zeros((count * r, A.shape[0]))
    out[:r] = first
    power, s = A, 1
    while s < count and not _underflows(power):
        t = min(s, count - s)
        out[s * r : (s + t) * r] = out[: t * r] @ power
        s += t
        if s < count:  # no power past the last one used: it may overflow
            power = power @ power
    return out


def _gramian(C: np.ndarray, A: np.ndarray, count: int) -> np.ndarray:
    """``O' O`` for the rows ``O`` of :func:`_power_rows` (``C``, ``A``, ``count``),
    by binary doubling of the horizon in O(log count) products."""
    W, power, bits = C.T @ C, A, bin(count)[3:]
    for i, bit in enumerate(bits):
        W = W + power.T @ W @ power  # horizon s -> 2 s
        if bit == "1":
            W = C.T @ C + A.T @ W @ A  # 2 s -> 2 s + 1
        if i + 1 < len(bits):  # no power past the last one used: it may overflow
            power = power @ power @ A if bit == "1" else power @ power
    return W


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
    """``(Ob, Tb, Ctrl, A^b)`` of b = ``_BLOCK`` samples: from state s, inputs V
    give outputs ``Ob s + Tb V`` and next state ``A^b s + Ctrl V``."""
    (n, l), b = B.shape, _BLOCK
    Ob = _power_rows(C, A, b)
    Tb = _block_toeplitz(Ob.reshape(b, -1, n), B, b)
    Ctrl = _power_rows(B.T, A.T, b).reshape(b, l, n)[::-1].reshape(b * l, n).T
    return Ob, Tb, np.ascontiguousarray(Ctrl), np.linalg.matrix_power(A, b)


def _scan(S: np.ndarray, step: np.ndarray, reverse: bool = False) -> None:
    """Doubling scan over axis -2, in place: ``S[j]`` becomes the sum of ``S[i]
    step^|j - i|`` over i <= j (i >= j if ``reverse``), in O(log) products.  A
    step below ``tiny`` ends it: that pass would add below n * tiny * max|S|."""
    count, s = S.shape[-2], 1
    while s < count and not _underflows(step):
        if reverse:
            S[..., :-s, :] += S[..., s:, :] @ step
        else:
            S[..., s:, :] += S[..., :-s, :] @ step
        s *= 2
        if s < count:  # no power past the last pass: it may overflow
            step = step @ step


def _block_response(pieces_t: tuple, x, U, K: int) -> np.ndarray:
    """Stacked outputs y(1..K) from state ``x`` under the K - 1 inputs ``U``: two
    products per block, and the block-start states by one :func:`_scan`.  Every
    input block but the last is full, so ``U`` is never copied into padded blocks.

    ``pieces_t`` are the :func:`_block_pieces` transposed into contiguous
    arrays: numpy's matmul is several times slower on transposed views.
    """
    Ob, Tb, Ctrl, Ab = pieces_t
    nb, U = -(-K // _BLOCK), np.reshape(U, -1)
    head = U[: (nb - 1) * len(Tb)].reshape(nb - 1, len(Tb))
    S = np.concatenate([np.reshape(x, (1, len(Ab))), head @ Ctrl])
    _scan(S, Ab)
    Y = S @ Ob
    Y[:-1] += head @ Tb
    Y[-1] += U[head.size :] @ Tb[: U.size - head.size]
    return Y.reshape(-1)[: K * Ob.shape[1] // _BLOCK]


def _free_response(pieces_t: tuple, x, K: int) -> np.ndarray:
    """Stacked outputs y(1..K) from state ``x`` under zero input: the block-start
    states ``x (A^b)^j`` by :func:`_power_rows`, then one product with ``Ob``."""
    Ob, _, _, Ab = pieces_t
    S = _power_rows(np.reshape(x, (1, len(Ab))), Ab, -(-K // _BLOCK))
    return (S @ Ob).reshape(-1)[: K * Ob.shape[1] // _BLOCK]


def _fold(c: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``sum_j c[j] step^j`` over the rows of ``c``, in place: the rows from h = 2^i
    on, times ``step^h``, fold onto the first ones, in O(log) products.  Powers
    stop at the last one used, or at one below ``tiny``: the rows from there on
    would add below n * tiny * max|c|."""
    powers, power = [], step
    while 2 ** len(powers) < len(c) and not _underflows(power):
        powers.append(power)
        if 2 ** len(powers) < len(c):  # no power past the last one used: it may overflow
            power = power @ power
    count = min(len(c), 2 ** len(powers))
    for i in reversed(range(len(powers))):
        c[: count - 2**i] += c[2**i : count] @ powers[i]
        count = 2**i
    return c[0]


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


def discretize_zoh(cm: ContinuousMode, mode_id: int = 1) -> StateSpaceMode:
    """Exact zero-order-hold discretization at the model's sample period.

    Computes the exponential of the augmented matrix ``[[A, B], [0, 0]] * h``;
    its top-left block is the discrete state matrix and its top-right block
    the discrete input matrix.  The output matrix is unchanged.
    """
    n, l = cm.A.shape[0], cm.B.shape[1]
    aug = np.zeros((n + l, n + l))
    aug[:n, :n] = cm.A
    aug[:n, n:] = cm.B
    exp_aug = matrix_exponential(aug * cm.sample_period)
    return StateSpaceMode(
        mode_id=mode_id, A=exp_aug[:n, :n], B=exp_aug[:n, n:], C=cm.C
    )


def simulate_mode(mode: StateSpaceMode, x1, U) -> Trajectory:
    """Run the defining recursion from ``x1`` under the input sequence ``U``.

    ``U`` has one row per step, K-1 rows total; the returned trajectory
    records the state sequence.  The states are the block scan
    :func:`_block_response` with ``C = I``, and the outputs are ``X C'``.
    """
    x1 = _vector(x1, mode.n, "x1")
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    if U.shape[1] != mode.l:
        raise ValueError(f"U has {U.shape[1]} input channels, expected {mode.l}")
    K = U.shape[0] + 1
    X = _block_response(mode._state_blocks, x1, U, K).reshape(K, mode.n)
    return Trajectory(U=U, Y=X @ mode.C.T, X=X)


def longitudinal_vehicle_mode(
    tau: float, beta: float, sample_period: float = 0.1, mode_id: int = 1
) -> StateSpaceMode:
    """ZOH-discretized third-order longitudinal vehicle model.

    States are position, velocity, and acceleration; the acceleration is
    measured and the input is an acceleration command filtered through a
    power-train lag ``tau`` with engine gain ``beta``.
    """
    if tau <= 0.0 or beta <= 0.0:
        raise ValueError("tau and beta must be positive")
    cm = ContinuousMode(
        A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0 / tau]],
        B=[[0.0], [0.0], [beta / tau]],
        C=[[0.0, 0.0, 1.0]],
        sample_period=sample_period,
    )
    return discretize_zoh(cm, mode_id=mode_id)


def vehicle_demo_bank(sample_period: float = 0.1) -> ModeBank:
    """Two-mode demo bank: a fast sports car and a sluggish average car."""
    return ModeBank(
        (
            longitudinal_vehicle_mode(0.01, 1.50, sample_period, mode_id=1),
            longitudinal_vehicle_mode(0.60, 0.70, sample_period, mode_id=2),
        )
    )


# --- file formats -----------------------------------------------------------


def load_mode_bank(path) -> ModeBank:
    """Read a mode bank from its JSON document.

    The document carries the shared dimensions ``m`` and ``l`` plus one
    entry per mode with id and row-major A, B, C matrices.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        m, l = int(doc["m"]), int(doc["l"])
        entries = doc["modes"]
        modes = tuple(
            StateSpaceMode(
                mode_id=int(e["id"]), A=e["A"], B=e["B"], C=e["C"]
            )
            for e in entries
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"ill-formed mode bank document: {exc}") from exc
    bank = ModeBank(modes)
    if bank.m != m or bank.l != l:
        raise ValueError(
            f"declared dimensions (m={m}, l={l}) disagree with the mode "
            f"matrices (m={bank.m}, l={bank.l})"
        )
    return bank


def save_mode_bank(bank: ModeBank, path) -> None:
    doc = {
        "m": bank.m,
        "l": bank.l,
        "modes": [
            {
                "id": mode.mode_id,
                "A": mode.A.tolist(),
                "B": mode.B.tolist(),
                "C": mode.C.tolist(),
            }
            for mode in bank
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


_ROWS_PER_BLOCK = 4096
_CSV = dict(delimiter=",", quotechar='"', comments=None)


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
    shortest ``repr`` of its float, so reading the file back is exact.
    """
    outputs = traj.Y if traj.X is None else np.hstack([traj.Y, traj.X])
    width = outputs.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_csv_header(traj.l, traj.m, width - traj.m)) + "\r\n")
        write_csv_rows(fh, "%d" + ",%r" * (traj.l + width) + "\r\n", traj.U, outputs)
        last = "%d" + "," * traj.l + ",%r" * width + "\r\n"
        fh.write(last % (traj.K, *outputs[-1].tolist()))


def _row_values(line: str, row: int, width: int, inputs: int = 0) -> list[float]:
    """Floats of data row ``row`` less its ``inputs`` input cells, which must be empty."""
    cells = np.loadtxt([line], dtype=str, ndmin=1, **_CSV).tolist()
    if len(cells) != width:
        raise ValueError(f"row {row} has {len(cells)} cells, expected {width}")
    if any(cell.strip() for cell in cells[1 : 1 + inputs]):
        raise ValueError("the final sample must not carry input values")
    try:
        return [float(cell) for cell in cells[:1] + cells[1 + inputs :]]
    except ValueError:
        raise ValueError(f"row {row} has a non-numeric cell: {line!r}") from None


def read_trajectory_csv(path) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`.

    Accepts CRLF or LF lines, a missing final line end and quoted cells.
    One ``numpy.loadtxt`` call parses all rows but the last, whose input
    cells must be empty.  A malformed file raises ValueError: no header or
    a wrong one, fewer than two rows, a blank row, a wrong cell count, a
    non-numeric cell, ``k`` other than ``1..K``, input on the final row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty trajectory file")
    header = lines[0].replace('"', "").split(",")
    l = sum(1 for name in header if name.startswith("u_"))
    m = sum(1 for name in header if name.startswith("y_"))
    if header != _csv_header(l, m, len(header) - 1 - l - m):
        raise ValueError(f"unexpected trajectory header: {header}")
    K, width = len(lines) - 1, len(header)
    if K < 2:
        raise ValueError(f"a trajectory file needs at least two data rows, got {K}")
    if "" in lines:  # loadtxt would skip a blank line
        raise ValueError(f"row {lines.index('')} is blank")
    try:
        body = np.loadtxt(lines[1:-1], ndmin=2, **_CSV)
    except ValueError:
        body = None
    if body is None or body.shape != (K - 1, width):
        # loadtxt numbers rows its own way: find and name the first bad row.
        for row in range(1, K):
            _row_values(lines[row], row, width)
        raise ValueError("unreadable trajectory rows")
    final = _row_values(lines[K], K, width, inputs=l)
    if not np.array_equal(np.append(body[:, 0], final[0]), np.arange(1, K + 1)):
        raise ValueError("sample indices must be contiguous and 1-based")
    outputs = np.vstack([body[:, 1 + l :], final[1:]])
    X = outputs[:, m:] if width > 1 + l + m else None
    return Trajectory(U=body[:, 1 : 1 + l], Y=outputs[:, :m], X=X)
