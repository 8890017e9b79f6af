"""The pipeline, :func:`design` then :func:`cloak`, and the streaming distorter.

:func:`cloak` is the one place that checks ``F Ybar == F Y``.  The engine
consumes (u, y, x) samples and emits cloaked (ubar, ybar).

The replay maps are the regulator solution (Pi, Gamma, Theta): the
target driven by ``Gamma x(k) + Theta u(k)`` from ``Pi x(1)`` stays at
``Pi x(k)`` and emits ``y(k)``.  No feedback gain is involved.  Adding
the off-line kernel plan, whose response the utility cannot see, gives
the affine replay

    ubar(k) = Gamma x(k) + Theta u(k) + U2(k),   ybar(k) = y(k) + dY(k),

an exact trajectory of the target mode.  :func:`run_offline` evaluates it
for all samples at once and :meth:`DistortionEngine.step` for one sample.
Their ``Ybar`` agree bitwise, their ``Ubar`` bitwise for scalar modes with
recorded states and otherwise to rounding (a row's products round unlike a batch's).
Then the first n samples are withheld: they recover the start state by
deadbeat reconstruction, and the source model runs on from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .invariance import KernelPlan, UtilitySpec, _utility_kept, solve_utility_invariance
from .linalg import product, stable_norm
from .modes import (
    StateSpaceMode,
    Trajectory,
    _frozen,
    _vector,
    build_lifted_operators,
    simulate_mode,
)
from .regulation import (
    _REGULATOR_RTOL,
    RegulatorSolution,
    _worst_equation,
    solve_regulator_equations,
)

__all__ = [
    "HorizonExhaustedError",
    "InconsistentDataError",
    "UtilityChangedError",
    "DistortionConfig",
    "DistortionEngine",
    "DistortedTrajectory",
    "run_offline",
    "reconstruct_state",
    "design",
    "cloak",
]

# reconstruct_state's bound on a window's fit residual per ||Y||: an exact window fits
# to a few eps of ||Y||, a window the mode does not explain misses by a share of it.
_WINDOW_RTOL = 1e-9


class HorizonExhaustedError(RuntimeError):
    """A sample arrived after the configured horizon was completed."""


class InconsistentDataError(RuntimeError):
    """An I/O window is not explainable by the claimed mode."""

    def __init__(self, residual: float):
        super().__init__(
            f"window is inconsistent with the mode (residual {residual:.3e})"
        )
        self.residual = residual


class UtilityChangedError(RuntimeError):
    """A cloaked trajectory would change the utility ``F Y + mu``."""


@dataclass(frozen=True)
class DistortionConfig:
    """Everything a distortion run needs: modes, regulator solution, plan, horizon."""

    true_mode: StateSpaceMode
    target_mode: StateSpaceMode
    regulator: RegulatorSolution
    plan: KernelPlan
    K: int

    def __post_init__(self):
        s, t, r, p = self.true_mode, self.target_mode, self.regulator, self.plan
        if s.m != t.m or s.l != t.l:
            raise ValueError("source and target modes must share m and l")
        equation, residual = _worst_equation(s, t, r.Pi, r.Gamma, r.Theta)
        if not residual <= _REGULATOR_RTOL:  # a NaN residual fails too
            raise ValueError(
                f"the regulator solution does not solve the equations of modes {s.mode_id} -> "
                f"{t.mode_id}: {equation} misses (relative residual {residual:.3e})"
            )
        if self.K < 2:
            raise ValueError("horizon must be at least 2")
        if p.K != self.K:
            raise ValueError(f"plan is bound to horizon {p.K}, configured {self.K}")
        if p.x2_init.shape[0] != t.n or p.U2.shape[1] != t.l:
            raise ValueError("plan dimensions do not match the target mode")
        if p.delta_Y.shape[0] != self.K * t.m:
            raise ValueError("plan distortion length does not match the horizon")

    def replay_maps(self):
        """``(Gamma, Theta, U2, dY)`` of the affine replay; ``dY`` has K rows."""
        dY = self.plan.delta_Y.reshape(self.K, self.true_mode.m)
        return self.regulator.Gamma, self.regulator.Theta, self.plan.U2, dY


def reconstruct_state(mode: StateSpaceMode, U_window, Y_window) -> np.ndarray:
    """Recover a window-start state of a mode from I/O samples.

    ``Y_window`` holds at least n consecutive outputs and ``U_window`` the
    inputs between them (one fewer), one row per sample; a vector is one
    column.  The state is the least squares fit of the lifted response
    equations, :meth:`LiftedOperators.fit`: the minimum-norm state (in the
    fit's column scaling) that explains the window.  It is the true state for
    noise-free data of an observable mode; otherwise the two differ by a
    direction no output sees, and the mode emits the same outputs from both.

    Raises
    ------
    InconsistentDataError
        If the window is not explainable by this mode, i.e. the fit
        residual exceeds ``1e-9 ||Y||``.
    """
    Y = _frozen(Y_window, "window Y", samples=1)
    U = _frozen(U_window, "window U", samples=1)
    if U.size == 0:  # n = 1: no inputs, of any width
        U = U.reshape(0, mode.l)
    w = Y.shape[0]
    if w < mode.n:
        raise ValueError(f"need at least {mode.n} output samples, got {w}")
    x1, residual = build_lifted_operators(mode, w).fit(Y, U)
    if not residual <= _WINDOW_RTOL * stable_norm(Y):  # a NaN residual fails too
        raise InconsistentDataError(residual)
    return x1


class DistortionEngine:
    """Single-owner streaming state of one distortion run.

    Feed samples in arrival order with :meth:`step`; the engine either
    emits the cloaked pair or withholds (returns None) until it knows the
    source state, which it learns only through :meth:`step`.  Its state is
    the sample index, the source state estimate and the reconstruction buffers.
    """

    def __init__(self, cfg: DistortionConfig):
        self.cfg = cfg
        self._Gamma, self._Theta, self._U2, self._dY = cfg.replay_maps()
        self._n, self._m, self._l = cfg.true_mode.n, cfg.true_mode.m, cfg.true_mode.l
        self._k = 1
        self._xhat: Optional[np.ndarray] = None
        self._u_buf: list[np.ndarray] = []
        self._y_buf: list[np.ndarray] = []

    def step(self, u, y, x=None):
        """Consume sample k and return (ubar, ybar), or None while withheld.

        ``x``, when given, is the source state at sample k: it replaces the
        engine's estimate and ends reconstruction at any k, though samples
        already withheld stay withheld.  Without a state the engine buffers
        samples until it holds n outputs, reconstructs the state from them and
        withholds all n.  ``u`` must be None at the final step k = K (there is
        no input there) and the returned pair is then (None, ybar).  A sample
        with a NaN or an infinity is refused with a ValueError naming the array
        and k, and one that completes a window the source mode does not explain
        with InconsistentDataError; a refused sample is not consumed.
        """
        cfg, k = self.cfg, self._k
        if k > cfg.K:
            raise HorizonExhaustedError(f"horizon K = {cfg.K} already completed")
        last = k == cfg.K
        y = _vector(y, self._m, "y")
        if last and u is not None:
            raise ValueError("no input exists at the final sample")
        u = None if last else _vector(u, self._l, "u")
        x = None if x is None else _vector(x, self._n, "x")
        # One test per sample: math.isfinite over its few floats beats numpy's reductions.
        values = y.tolist() if last else y.tolist() + u.tolist()
        if not all(map(math.isfinite, values if x is None else values + x.tolist())):
            sample = (("y", y), ("u", u), ("x", x))
            bad = next(name for name, a in sample if a is not None and not np.isfinite(a).all())
            raise ValueError(f"{bad} is not finite at sample {k}")
        if x is not None:
            self._xhat = x

        src = cfg.true_mode
        if self._xhat is None:
            # Reconstruction mode: buffer until n outputs are available, then recover
            # the state and carry it past the withheld window.
            U, Y = self._u_buf + [u], self._y_buf + [y]
            if len(Y) == src.n:
                x = reconstruct_state(src, np.array(U[:-1]), np.array(Y))
                if not last:
                    self._xhat = simulate_mode(src, x, np.array(U)).X[-1]
            self._u_buf, self._y_buf, self._k = U, Y, k + 1
            return None

        self._k += 1
        ybar = y + self._dY[k - 1]
        if last:
            return None, ybar
        x = self._xhat
        ubar = self._Gamma @ x + self._Theta @ u + self._U2[k - 1]
        self._xhat = src.A @ x + src.B @ u
        return ubar, ybar


@dataclass(frozen=True)
class DistortedTrajectory:
    """The emitted cloaked trajectory.

    ``k_start`` is the 1-based index of the first emitted sample; it is
    greater than one when the engine spent a reconstruction window
    withholding output.
    """

    Ubar: np.ndarray
    Ybar: np.ndarray
    k_start: int = 1

    @cached_property
    def _trajectory(self) -> Trajectory:
        return Trajectory(U=self.Ubar, Y=self.Ybar)

    def to_trajectory(self) -> Trajectory:
        """The emitted pair as a frozen :class:`Trajectory`, built on the first
        call; it keeps frozen float arrays (``run_offline``'s) uncopied."""
        return self._trajectory


def run_offline(cfg: DistortionConfig, traj: Trajectory) -> DistortedTrajectory:
    """Cloak a recorded trajectory with the affine replay, all samples at once.

    Folding :meth:`DistortionEngine.step` over the samples in order gives
    the same rows: ``Ybar`` bitwise, ``Ubar`` to rounding (see the module).
    Then the first n samples are withheld: they recover the start state,
    and :func:`simulate_mode` runs the source model on from it.
    """
    if traj.K != cfg.K:
        raise ValueError(f"trajectory horizon {traj.K} does not match configured {cfg.K}")
    src = cfg.true_mode
    if traj.m != src.m or traj.l != src.l:
        raise ValueError("trajectory dimensions do not match the source mode")
    if traj.X is not None:
        if traj.X.shape[1] != src.n:
            raise ValueError(f"states have dimension {traj.X.shape[1]}, expected {src.n}")
        s, X = 0, traj.X
    elif src.n >= traj.K:
        raise ValueError("stateless trajectory is too short for deadbeat reconstruction")
    else:
        s = src.n
        x1 = reconstruct_state(src, traj.U[: s - 1], traj.Y[:s])
        X = simulate_mode(src, x1, traj.U).X[s:]
    # X now holds the source states from sample s + 1 on.
    Gamma, Theta, U2, dY = cfg.replay_maps()
    U = traj.U[s:]
    Ubar = X[:-1] @ Gamma.T + product(U, Theta.T) + U2[s:]
    Ybar = traj.Y[s:] + dY[s:]
    Ubar.setflags(write=False)  # frozen owners: to_trajectory() keeps them uncopied
    Ybar.setflags(write=False)
    return DistortedTrajectory(Ubar=Ubar, Ybar=Ybar, k_start=s + 1)


def design(true_mode, target_mode, utility, magnitude=1.0, seed=0) -> DistortionConfig:
    """The regulator solution of a mode pair, then a plan in Ker[F] for the target over the
    utility's horizon whose response has 2-norm ``magnitude``, in the units of the outputs;
    an infeasible pair raises before any plan is tried."""
    sol = solve_regulator_equations(true_mode, target_mode)
    ops = build_lifted_operators(target_mode, utility.K)
    plan = solve_utility_invariance(ops, utility, magnitude=magnitude, seed=seed)
    return DistortionConfig(true_mode, target_mode, sol, plan, utility.K)


def cloak(cfg: DistortionConfig, traj: Trajectory, utility: UtilitySpec) -> DistortedTrajectory:
    """:func:`run_offline` of a trajectory with states under a utility of its K and m (else
    ValueError); UtilityChangedError unless ``|F_i Ybar - F_i Y| <= 1e-8 ||F_i|| (||Y|| +
    ||Ybar||)`` for every row ``F_i``: the plan's test, ``invariance._utility_kept``.  A
    ValueError names ``F`` when a ``||F_i||`` overflows and ``Y`` when ``||Y|| + ||Ybar||``
    does (:func:`~behaviorcloak.linalg.stable_norm`)."""
    if traj.X is None:
        raise ValueError("the input trajectory must carry state columns")
    if utility.K != cfg.K or utility.m != cfg.true_mode.m:
        raise ValueError(
            f"utility is bound to K = {utility.K}, m = {utility.m}; "
            f"the configuration has K = {cfg.K}, m = {cfg.true_mode.m}"
        )
    distorted = run_offline(cfg, traj)
    F, Y, Ybar = utility.F, traj.Y.reshape(-1), distorted.Ybar.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is _utility_kept's to judge
        change, size = F @ Ybar - F @ Y, stable_norm(Y) + stable_norm(Ybar)
    if not _utility_kept(F, change, size)[0]:
        raise UtilityChangedError(f"the plan changes this utility by {np.max(np.abs(change)):.3e}")
    return distorted
