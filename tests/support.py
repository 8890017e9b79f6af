"""Shared generators and reference constructions for the test suite."""

import csv
import json

import numpy as np

from behaviorcloak import (
    InvarianceInfeasibleError,
    KernelPlan,
    StateSpaceMode,
    Trajectory,
    build_tracking_controller,
    design_stabilizing_gain,
    lstsq_min_norm,
    nullspace_basis,
    pseudoinverse,
    simulate_mode,
    validate_mode,
)


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
    multiplication, one step at a time, in the layout of
    ``LiftedOperators.Ot``."""
    Ot = np.empty((K * mode.m, mode.n))
    row = mode.C
    for k in range(K):
        Ot[k * mode.m : (k + 1) * mode.m] = row
        row = row @ mode.A
    return Ot


def dense_fit(ops, Y, U):
    """Start-state fit ``(x, residual)`` by the SVD-based ``lstsq_min_norm`` on
    the dense ``Ot``, its columns scaled to unit norm (zero columns kept);
    the reference for ``LiftedOperators.fit``.  Without the scaling an
    unstable mode's columns differ by more than the rank cutoff at K = 1000."""
    norms = np.linalg.norm(ops.Ot, axis=0)
    scale = 1.0 / np.where(norms > 0.0, norms, 1.0)
    free = np.reshape(Y, -1) - ops.apply(np.zeros(ops.n), U)
    z, residual = lstsq_min_norm(ops.Ot * scale, free)
    return scale * z, residual


def unstable_pair():
    """Two modes sharing the pole 1.05, which the input ``B = [0; 1]`` cannot
    move; the output ``C = [1 1]`` sees it."""
    B, C = [[0.0], [1.0]], [[1.0, 1.0]]
    return (
        StateSpaceMode(1, np.diag([1.05, 0.5]), B, C),
        StateSpaceMode(2, np.diag([1.05, 0.7]), B, C),
    )


def dense_kernel_plan(ops, spec, magnitude, seed) -> KernelPlan:
    """Plan drawn from the dense nullspace of the feasibility system.

    The nullspace of ``[Ot  Tt  F^+F - I]`` holds exactly the triples
    ``(x, U, theta)`` whose response ``Ot x + Tt U`` equals the Ker[F]
    part of ``theta``.  One seeded combination of its basis is scaled to
    the requested response norm.  Small horizons only.
    """
    dim = spec.F.shape[1]
    P_row = pseudoinverse(spec.F) @ spec.F
    basis = nullspace_basis(np.hstack([ops.Ot, ops.Tt, P_row - np.eye(dim)]))
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
        seed=seed,
        magnitude=magnitude,
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
