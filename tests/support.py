"""Shared generators and reference constructions for the test suite."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import behaviorcloak
from behaviorcloak import (
    DistortionConfig,
    InvarianceInfeasibleError,
    KernelPlan,
    StateSpaceMode,
    Trajectory,
    UtilitySpec,
    build_lifted_operators,
    build_tracking_controller,
    design_stabilizing_gain,
    nullspace_basis,
    run_offline,
    simulate_mode,
    validate_mode,
    vehicle_demo_bank,
)
from behaviorcloak import modes
from behaviorcloak.linalg import lstsq_min_norm, rank_cutoff
from behaviorcloak.modes import _block_toeplitz

# The tests' bound on the residual of a linear identity (a Penrose identity, a
# least-squares fit), times the scale each check states.
RESIDUAL_TOL = 1e-9


def pseudoinverse(M) -> np.ndarray:
    """Moore-Penrose inverse of ``M`` by SVD, with the package's scale-aware rank
    cutoff; ValueError on a non-finite entry.  An oracle for the Gram solves."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.isfinite(M).all():
        raise ValueError("M contains non-finite entries")
    return np.linalg.pinv(M, rcond=rank_cutoff(M))


def random_valid_mode(rng, n=3, m=1, l=1, mode_id=1, radius=0.9):
    """Draw a mode passing all standing assumptions.

    The state matrix is rescaled to a spectral radius below ``radius`` so
    long simulations stay bounded.  When m <= l the draw is repeated until
    C B has full row rank, which makes every output sequence trackable and
    keeps kernel-steering problems feasible.
    """
    if n < max(m, l):
        raise ValueError("full-rank C and B need n >= max(m, l)")
    for _ in range(100):
        A = rng.standard_normal((n, n))
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        if rho > 0:
            A = A * (radius * rng.uniform(0.3, 1.0) / rho)
        B = rng.standard_normal((n, l))
        C = rng.standard_normal((m, n))
        mode = StateSpaceMode(mode_id, A, B, C)
        if not validate_mode(mode).passed:
            continue
        if m <= l and np.linalg.matrix_rank(C @ B) < m:
            continue
        return mode
    raise RuntimeError("failed to draw a valid random mode")


def random_trajectory(rng, mode, K, input_scale=1.0) -> Trajectory:
    """Simulate the mode from a random state under bounded random inputs."""
    x1 = rng.standard_normal(mode.n)
    U = rng.uniform(-input_scale, input_scale, size=(K - 1, mode.l))
    return simulate_mode(mode, x1, U)


def loop_simulate(mode, x1, U):
    """States and outputs ``(X, Y)`` of the defining recursion, one sample at a
    time in Python; the reference for ``simulate_mode``."""
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U.reshape(-1, 1)
    K = U.shape[0] + 1
    X = np.empty((K, mode.n))
    Y = np.empty((K, mode.m))
    x = x1
    for k in range(K):
        X[k] = x
        Y[k] = mode.C @ x
        if k < K - 1:
            x = mode.A @ x + mode.B @ U[k]
    return X, Y


def double_integrator(mode_id=1, h=0.1) -> StateSpaceMode:
    """Observable, controllable double integrator with position output."""
    return StateSpaceMode(
        mode_id, A=[[1.0, h], [0.0, 1.0]], B=[[0.0], [h]], C=[[1.0, 0.0]]
    )


def scalar_mode(a, b=1.0, c=1.0, mode_id=1) -> StateSpaceMode:
    return StateSpaceMode(mode_id, A=[[a]], B=[[b]], C=[[c]])


def fixed_point_riccati_gain(mode):
    """Riccati gain by the plain fixed-point iteration; the slow reference.

    Iterates ``P <- A'PA - A'PB (I + B'PB)^(-1) B'PA + I`` from ``P = I``
    until successive iterates differ by at most 1e-12 in max-abs norm
    (at most 10000 steps), then returns ``R = -(I + B'PB)^(-1) B'PA``.
    """
    A, B = mode.A, mode.B
    I_n, I_l = np.eye(mode.n), np.eye(mode.l)
    P = I_n
    for _ in range(10000):
        BtPA = B.T @ P @ A
        P_next = A.T @ P @ A - BtPA.T @ np.linalg.solve(I_l + B.T @ P @ B, BtPA) + I_n
        P_next = 0.5 * (P_next + P_next.T)
        step = np.max(np.abs(P_next - P))
        P = P_next
        if step <= 1e-12:
            return -np.linalg.solve(I_l + B.T @ P @ B, B.T @ P @ A)
    raise RuntimeError("Riccati fixed-point iteration did not converge")


def iterated_observability(mode, K):
    """Stacked observability matrix (rows ``C A^k``, k < K) by iterated
    multiplication, one step at a time, in the layout of the stacked
    outputs."""
    Ot = np.empty((K * mode.m, mode.n))
    row = mode.C
    for k in range(K):
        Ot[k * mode.m : (k + 1) * mode.m] = row
        row = row @ mode.A
    return Ot


def dense_Tt(ops):
    """The dense block-Toeplitz ``Tt`` of lifted operators, from the blocks of
    :func:`iterated_observability`; small horizons only."""
    blocks = iterated_observability(ops.mode, ops.K).reshape(ops.K, ops.m, ops.n)
    return _block_toeplitz(blocks, ops.mode.B, ops.K - 1)


def dense_M(ops):
    """The dense response matrix ``[Ot  Tt]``; small horizons only."""
    return np.hstack([iterated_observability(ops.mode, ops.K), dense_Tt(ops)])


def applied_columns(ops):
    """``[Ot  Tt]`` column by column, as ``ops.apply`` gives it on unit vectors."""
    eye = np.eye(ops.n + (ops.K - 1) * ops.l)
    return np.column_stack([ops.apply(z[: ops.n], z[ops.n :]) for z in eye])


def dense_fit(ops, Y, U):
    """Start-state fit ``(x, residual)`` by the SVD-based ``lstsq_min_norm`` on
    the dense ``Ot``, its columns scaled to unit norm (zero columns kept);
    the reference for ``LiftedOperators.fit``.  Without the scaling an
    unstable mode's columns differ by more than the rank cutoff at K = 1000."""
    Ot = iterated_observability(ops.mode, ops.K)
    norms = np.linalg.norm(Ot, axis=0)
    scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
    free = np.reshape(Y, -1) - ops.apply(np.zeros(ops.n), U)
    z, residual = lstsq_min_norm(Ot * scale, free)
    return scale * z, residual


def windowed_residual(mode, Y, U):
    """The windowed behaviour residual by dense least squares; the reference for
    ``LiftedOperators.residual``.  The lag is the first k at which the rank of
    ``iterated_observability(mode, k)`` stops growing; every window of L = lag + 1
    samples (the whole horizon if shorter) gives ``r = y_window - T_L u_window``,
    and its distance from the range of ``O_L`` is an SVD ``lstsq`` with one
    right-hand side per window.  The result is the norm of those distances."""
    K = np.size(Y) // mode.m
    Y, U = np.reshape(Y, (K, mode.m)), np.reshape(U, (K - 1, mode.l))
    ranks = [0] + [np.linalg.matrix_rank(iterated_observability(mode, k)) for k in range(1, mode.n + 2)]
    L = min(K, 1 + next(k for k in range(mode.n + 1) if ranks[k + 1] == ranks[k]))
    W = K - L + 1
    O, T = iterated_observability(mode, L), dense_Tt(build_lifted_operators(mode, L))
    Yw = np.hstack([Y[j : j + W] for j in range(L)])
    Uw = np.hstack([np.zeros((W, 0))] + [U[j : j + W] for j in range(L - 1)])
    R = (Yw - Uw @ T.T).T
    X = np.linalg.lstsq(O, R, rcond=rank_cutoff(O))[0]
    return float(np.linalg.norm(O @ X - R))


def dot_windowed_residual(mode, Y, U):
    """``LiftedOperators.residual`` summed the same way with ``np.dot`` for every
    window product: its bitwise reference at K >= L."""
    L, N, NT = mode._parity
    K = np.size(Y) // mode.m
    Y, U = np.reshape(Y, (K, mode.m)), np.reshape(U, (K - 1, mode.l))
    W = K - L + 1
    E = np.dot(Y[:W], N[0])
    for j in range(1, L):
        E += np.dot(Y[j : j + W], N[j])
    for j in range(L - 1):
        E -= np.dot(U[j : j + W], NT[j])
    return float(np.linalg.norm(E))


def run_python(*argv, check=False) -> subprocess.CompletedProcess:
    """``python -W error::RuntimeWarning *argv`` in a fresh interpreter that imports
    this package from the tree under test, with its output captured as text."""
    src = str(Path(behaviorcloak.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        check=check,
        timeout=120,
    )


def traced_peak(call) -> float:
    """tracemalloc peak of ``call()`` above what was allocated before it, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def frozen_copies(monkeypatch, *modules) -> list:
    """Spy on ``_frozen`` where ``modules`` bind it.  Each call appends ``(name,
    copied)``: whether the result is a copy of the array that ``np.asarray`` made
    of the value (the value itself when it is an array, a new one from a list)."""
    calls, made, frozen = [], [], modes._frozen

    class Numpy:  # numpy, remembering what ``asarray`` returns
        def __getattr__(self, name):
            return getattr(np, name)

        def asarray(self, *args, **kwargs):
            made.append(np.asarray(*args, **kwargs))
            return made[-1]

    def spy(value, name, samples=0):
        result = frozen(value, name, samples)
        calls.append((name, not np.shares_memory(result, made[-1])))
        return result

    monkeypatch.setattr(modes, "np", Numpy())
    for module in modules:
        monkeypatch.setattr(module, "_frozen", spy)
    return calls


def unstable_pair():
    """Two modes sharing the pole 1.05, which the input ``B = [0; 1]`` cannot
    move; the output ``C = [1 1]`` sees it."""
    B, C = [[0.0], [1.0]], [[1.0, 1.0]]
    return (
        StateSpaceMode(1, np.diag([1.05, 0.5]), B, C),
        StateSpaceMode(2, np.diag([1.05, 0.7]), B, C),
    )


def unstable_twin():
    """The source ``(diag(1.05, 0.5), [1; 1], [1 1])`` and its feedback twin
    ``A + B [0.02 0.1]``, with poles 1.074 and 0.596: the input reaches the
    unstable pole of both."""
    source = StateSpaceMode(1, np.diag([1.05, 0.5]), [[1.0], [1.0]], [[1.0, 1.0]])
    return source, StateSpaceMode(2, source.A + source.B @ [[0.02, 0.1]], source.B, source.C)


def stabilized_drive(source, K, norm=0.3, seed=0) -> Trajectory:
    """A small drive of :func:`unstable_pair`'s or :func:`unstable_twin`'s source:
    from ``x(1) = (0, 1)`` under ``u = -0.1 x_1 + r`` for a uniform ``r``, which holds
    the twin's unstable state at pole 0.95 and leaves the pair's at zero; the whole
    trajectory scaled so that ``||Y|| = norm``."""
    G = np.array([[0.1, 0.0]])
    closed = StateSpaceMode(source.mode_id, source.A - source.B @ G, source.B, source.C)
    R = np.random.default_rng(seed).uniform(-0.1, 0.1, (K - 1, source.l))
    run = simulate_mode(closed, [0.0, 1.0], R)
    c = norm / np.linalg.norm(run.Y)
    return Trajectory(U=c * (R - run.X[:-1] @ G.T), Y=c * run.Y, X=c * run.X)


def row_utility(F) -> UtilitySpec:
    """A utility spec of the rows ``F``, one output over as many samples as columns."""
    F = np.atleast_2d(F)
    return UtilitySpec(F=F, mu=np.zeros(len(F)), K=F.shape[1])


def scaled_vehicles(c=1.0, b=1.0):
    """The demo vehicles (sports, average) with ``C`` scaled by ``c`` and ``B`` by ``b``."""
    return tuple(StateSpaceMode(m.mode_id, m.A, b * m.B, c * m.C) for m in vehicle_demo_bank())


def free_response_plan(target, K, x2=(0.0, 0.0, 5.0)) -> KernelPlan:
    """A forged plan: the target's free response from ``x2``.  It is an exact
    target response, but not one in the kernel of an average."""
    U2 = np.zeros((K - 1, target.l))
    delta = build_lifted_operators(target, K).apply(np.asarray(x2), U2)
    return KernelPlan(x2_init=x2, U2=U2, delta_Y=delta, residual=0.0)


def dense_kernel_plan(ops, spec, magnitude, seed) -> KernelPlan:
    """Plan drawn from the dense nullspace of the feasibility system.

    The nullspace of ``[Ot  Tt  F^+F - I]`` holds exactly the triples
    ``(x, U, theta)`` whose response ``Ot x + Tt U`` equals the Ker[F]
    part of ``theta``.  One seeded combination of its basis is scaled to
    the requested response norm.  Small horizons only.
    """
    dim = spec.F.shape[1]
    P_row = pseudoinverse(spec.F) @ spec.F
    basis = nullspace_basis(np.hstack([dense_M(ops), P_row - np.eye(dim)]))
    if basis.shape[1] == 0:
        raise InvarianceInfeasibleError("the feasibility system has no solutions")
    v = basis @ np.random.default_rng(seed).standard_normal(basis.shape[1])
    n, width = ops.n, (ops.K - 1) * ops.l
    x, U, theta = v[:n], v[n : n + width], v[n + width :]
    delta = ops.apply(x, U)
    norm = np.linalg.norm(delta)
    if norm <= 1e-12 * np.linalg.norm(v):
        raise InvarianceInfeasibleError("the nullspace draw has a zero response")
    scale = magnitude / norm
    x, U, theta, delta = x * scale, U * scale, theta * scale, delta * scale
    return KernelPlan(
        x2_init=x,
        U2=U.reshape(ops.K - 1, ops.l),
        delta_Y=delta,
        residual=float(np.linalg.norm(delta - (theta - P_row @ theta))),
    )


def feedback_twin_pair(rng, n=4, m=2, l=2):
    """A valid source mode and a distinct target that can imitate it exactly.

    The target is the source under state feedback ``u -> u + G x``, written
    in another state basis ``T``.  The regulator equations then have the
    exact solution ``(Pi, Gamma, Theta) = (T^-1, -G, I)`` while the two
    behaviours differ.  Both modes stay Schur stable.
    """
    source = random_valid_mode(rng, n=n, m=m, l=l, radius=0.8)
    for _ in range(100):
        G = 0.5 * rng.standard_normal((l, n))
        T = rng.standard_normal((n, n))
        A_fb = source.A + source.B @ G
        if np.max(np.abs(np.linalg.eigvals(A_fb))) >= 0.95 or np.linalg.cond(T) > 20:
            continue
        T_inv = np.linalg.inv(T)
        target = StateSpaceMode(2, T_inv @ A_fb @ T, T_inv @ source.B, source.C @ T)
        if validate_mode(target).passed:
            return source, target
    raise RuntimeError("failed to draw a feedback twin")


def kronecker_regulator_solution(true_mode, target_mode):
    """Reference solve of the regulator equations: ``(Pi, Gamma, Theta, residual)``.

    The three matrix equations are vectorized by Kronecker products into one
    linear system in ``z = [vec(Pi); vec(Gamma); vec(Theta)]`` (column-major)
    and solved by ``lstsq_min_norm``, in the units the solver uses: input
    channel i divided by the power of two ``d_i`` just above the max-abs entry
    of column i of both B, output channel j by that ``g_j`` of row j of both C,
    so that the unknowns are ``(Pi, D Gamma, D Theta D^-1)``.  ``residual`` is
    the largest relative residual of the three equations at the solution: the
    max-abs entry of each over the max-abs entry of its largest term.
    """
    n_s, n_t, m, l = true_mode.n, target_mode.n, true_mode.m, true_mode.l
    d = np.ldexp(1.0, np.frexp(np.abs(np.vstack([true_mode.B, target_mode.B])).max(0))[1])
    g = np.ldexp(1.0, np.frexp(np.abs(np.hstack([true_mode.C, target_mode.C])).max(1))[1])
    A_s, B_s, C_s = true_mode.A, true_mode.B / d, true_mode.C / g[:, None]
    A_t, B_t, C_t = target_mode.A, target_mode.B / d, target_mode.C / g[:, None]
    n_pi, n_gamma = n_t * n_s, l * n_s
    M = np.zeros((n_t * n_s + m * n_s + n_t * l, n_pi + n_gamma + l * l))
    b = np.zeros(len(M))
    I_ns, I_nt, I_l = np.eye(n_s), np.eye(n_t), np.eye(l)
    r0 = n_t * n_s  # A_t Pi - Pi A_s + B_t Gamma = 0
    M[:r0, :n_pi] = np.kron(I_ns, A_t) - np.kron(A_s.T, I_nt)
    M[:r0, n_pi : n_pi + n_gamma] = np.kron(I_ns, B_t)
    r1 = r0 + m * n_s  # C_t Pi = C_s
    M[r0:r1, :n_pi] = np.kron(I_ns, C_t)
    b[r0:r1] = C_s.reshape(-1, order="F")
    M[r1:, :n_pi] = -np.kron(B_s.T, I_nt)  # B_t Theta - Pi B_s = 0
    M[r1:, n_pi + n_gamma :] = np.kron(I_l, B_t)
    z, _ = lstsq_min_norm(M, b)
    Pi = z[:n_pi].reshape(n_t, n_s, order="F")
    Gamma = z[n_pi : n_pi + n_gamma].reshape(l, n_s, order="F") / d[:, None]
    Theta = z[n_pi + n_gamma :].reshape(l, l, order="F") / d[:, None] * d
    A_s, B_s, C_s, A_t, B_t, C_t = (
        getattr(mode, name) for mode in (true_mode, target_mode) for name in "ABC"
    )
    terms = (
        (A_t @ Pi, Pi @ A_s, B_t @ Gamma, A_t @ Pi - Pi @ A_s + B_t @ Gamma),
        (C_t @ Pi, C_s, C_t @ Pi - C_s),
        (B_t @ Theta, Pi @ B_s, B_t @ Theta - Pi @ B_s),
    )
    residuals = []
    for *parts, left in terms:
        size = max(float(abs(T).max()) for T in parts)
        residuals.append(float(abs(left).max()) / size if size else 0.0)
    return Pi, Gamma, Theta, max(residuals)


def pipeline_replay(true_mode, target_mode, sol, traj) -> Trajectory:
    """The target's own trajectory from ``Pi x(1)`` under the pipeline's replay of a
    trajectory with states: ``run_offline``'s ``Ubar`` with the zero plan, run by
    ``simulate_mode``.  Its outputs track ``traj.Y`` exactly; ``cli demo`` reports
    the same difference as ``max_tracking_error``."""
    zero = KernelPlan.zero(target_mode, traj.K)
    cfg = DistortionConfig(true_mode, target_mode, sol, zero, traj.K)
    return simulate_mode(target_mode, sol.Pi @ traj.X[0], run_offline(cfg, traj).Ubar)


def two_copy_replay(cfg, traj):
    """Cloaked pair from two virtual copies of the target mode, step by step.

    The first copy runs from ``Pi x(1)`` under the paper's tracking
    controller, closed with a synthesized gain, and reproduces the source
    output; the second replays the plan from ``x2_init``.  The emitted
    pair is their superposition.  The trajectory must carry states.
    """
    target, plan = cfg.target_mode, cfg.plan
    gain = design_stabilizing_gain(target)
    ctrl = build_tracking_controller(cfg.regulator, gain, target)
    K = traj.K
    Ubar = np.empty((K - 1, target.l))
    Ybar = np.empty((K, target.m))
    x1bar = ctrl.Pi @ traj.X[0]
    x2bar = plan.x2_init.copy()
    for k in range(K):
        Ybar[k] = target.C @ x1bar + target.C @ x2bar
        if k < K - 1:
            u1 = ctrl.R @ x1bar + ctrl.L @ traj.X[k] + ctrl.S @ traj.U[k]
            u2 = plan.U2[k]
            x1bar = target.A @ x1bar + target.B @ u1
            x2bar = target.A @ x2bar + target.B @ u2
            Ubar[k] = u1 + u2
    return Ubar, Ybar


def csv_write_trajectory(traj, path):
    """Trajectory CSV written cell by cell through the ``csv`` module.

    The reference for the byte format: CRLF lines, ``repr`` floats and
    empty input cells on the final row.
    """
    header = (
        ["k"]
        + [f"u_{i + 1}" for i in range(traj.l)]
        + [f"y_{i + 1}" for i in range(traj.m)]
    )
    n = traj.X.shape[1] if traj.X is not None else 0
    header += [f"x_{i + 1}" for i in range(n)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.K):
            row = [str(k + 1)]
            if k < traj.K - 1:
                row += [repr(float(v)) for v in traj.U[k]]
            else:
                row += [""] * traj.l
            row += [repr(float(v)) for v in traj.Y[k]]
            if traj.X is not None:
                row += [repr(float(v)) for v in traj.X[k]]
            writer.writerow(row)


def csv_read_trajectory(path):
    """Trajectory CSV parsed row by row through the ``csv`` module."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    l = sum(1 for name in header if name.startswith("u_"))
    m = sum(1 for name in header if name.startswith("y_"))
    n = sum(1 for name in header if name.startswith("x_"))
    K = len(rows)
    U = np.empty((K - 1, l))
    Y = np.empty((K, m))
    X = np.empty((K, n)) if n else None
    for idx, row in enumerate(rows):
        assert len(row) == len(header) and int(row[0]) == idx + 1
        if idx < K - 1:
            U[idx] = [float(v) for v in row[1 : 1 + l]]
        Y[idx] = [float(v) for v in row[1 + l : 1 + l + m]]
        if X is not None:
            X[idx] = [float(v) for v in row[1 + l + m :]]
    return Trajectory(U=U, Y=Y, X=X)


def figure_csv(path, header, *columns):
    """Figure CSV written one row at a time: the index, then column 0 of each array."""
    rows = min(col.shape[0] for col in columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(rows):
            cells = [str(k + 1)] + [repr(float(col[k][0])) for col in columns]
            fh.write(",".join(cells) + "\n")


def json_dump_file(doc, path):
    """JSON file written by the streaming ``json.dump`` encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def json_load_file(path):
    """JSON document read by the ``json`` module."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
