"""Shared generators and reference constructions for the test suite."""

import numpy as np

from behaviorcloak import (
    InvarianceInfeasibleError,
    KernelPlan,
    StateSpaceMode,
    Trajectory,
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


def double_integrator(mode_id=1, h=0.1) -> StateSpaceMode:
    """Observable, controllable double integrator with position output."""
    return StateSpaceMode(
        mode_id, A=[[1.0, h], [0.0, 1.0]], B=[[0.0], [h]], C=[[1.0, 0.0]]
    )


def scalar_mode(a, b=1.0, c=1.0, mode_id=1) -> StateSpaceMode:
    return StateSpaceMode(mode_id, A=[[a]], B=[[b]], C=[[c]])


def iterated_lifted_blocks(mode, K):
    """Lifted blocks by iterated multiplication, one step at a time.

    Returns the stacked observability matrix (rows ``C A^k``, k < K) and
    the Markov parameters ``C A^i B`` (i < K - 1) with the layout of
    ``LiftedOperators.Ot`` and ``LiftedOperators.markov``.
    """
    Ot = np.empty((K * mode.m, mode.n))
    markov = np.empty((K - 1, mode.m, mode.l))
    row = mode.C
    for k in range(K):
        Ot[k * mode.m : (k + 1) * mode.m] = row
        if k < K - 1:
            markov[k] = row @ mode.B
            row = row @ mode.A
    return Ot, markov


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
        theta=theta,
        residual=float(np.linalg.norm(delta - (theta - P_row @ theta))),
        seed=seed,
        magnitude=magnitude,
    )
