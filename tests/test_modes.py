import sys
import threading
import warnings

import numpy as np
import pytest

import support
from behaviorcloak import (
    ModeBank,
    StateSpaceMode,
    Trajectory,
    build_lifted_operators,
    classify,
    load_mode_bank,
    longitudinal_vehicle_mode,
    read_trajectory_csv,
    reconstruct_state,
    save_mode_bank,
    simulate_mode,
    validate_mode,
    vehicle_demo_bank,
    write_trajectory_csv,
)
from behaviorcloak import modes
from behaviorcloak.modes import _ROWS_PER_BLOCK, _power_rows, _scan

# Printed discrete-time vehicle blocks, columns A | B.
SPORTS_AB = np.array(
    [
        [1.0, 0.1, 0.0009000, 0.0061499],
        [0.0, 1.0, 0.0099995, 0.1350010],
        [0.0, 0.0, 0.0000453, 1.4999300],
    ]
)
AVERAGE_AB = np.array(
    [
        [1.0, 0.1, 0.0047334, 0.0001866],
        [0.0, 1.0, 0.0921110, 0.0055223],
        [0.0, 0.0, 0.8464820, 0.1074630],
    ]
)


class TestStateSpaceMode:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            StateSpaceMode(1, A=[[1.0, 0.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError):
            StateSpaceMode(1, A=np.eye(2), B=[[1.0]], C=[[1.0, 0.0]])
        with pytest.raises(ValueError):
            StateSpaceMode(1, A=np.eye(2), B=[[1.0], [0.0]], C=[[1.0]])

    def test_rejects_zero_states(self):
        # A 0 x 0 A is square, but no recursion can run on it: refused by name.
        with pytest.raises(ValueError, match=r"at least one state, got A of shape \(0, 0\)"):
            StateSpaceMode(1, np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))

    @pytest.mark.parametrize(
        "B, C, message",
        [
            (np.zeros((2, 0)), np.ones((1, 2)), r"inputs and outputs, got B \(2, 0\) and C \(1, 2\)"),
            (np.ones((2, 1)), np.zeros((0, 2)), r"inputs and outputs, got B \(2, 1\) and C \(0, 2\)"),
        ],
        ids=["no-inputs", "no-outputs"],
    )
    def test_rejects_zero_inputs_or_outputs(self, B, C, message):
        # Nothing to cloak without an input to regulate or an output to send.
        with pytest.raises(ValueError, match=message):
            StateSpaceMode(1, 0.5 * np.eye(2), B, C)

    def test_arrays_frozen(self):
        mode = support.double_integrator()
        with pytest.raises(ValueError):
            mode.A[0, 0] = 2.0

    def test_dimensions(self):
        mode = support.double_integrator()
        assert (mode.n, mode.m, mode.l) == (2, 1, 1)


class TestModeBank:
    def test_requires_contiguous_ids(self):
        a = support.scalar_mode(0.5, mode_id=1)
        b = support.scalar_mode(0.8, mode_id=3)
        with pytest.raises(ValueError):
            ModeBank((a, b))

    def test_requires_shared_dimensions(self):
        a = support.scalar_mode(0.5, mode_id=1)
        b = support.double_integrator(mode_id=2)
        # double integrator shares m = l = 1, so this is fine
        bank = ModeBank((a, b))
        assert len(bank.modes) == 2 and bank.m == 1 and bank.l == 1
        c = StateSpaceMode(2, A=np.eye(2), B=np.eye(2), C=np.eye(2))
        with pytest.raises(ValueError):
            ModeBank((a, c))

    @pytest.mark.parametrize(
        "modes, message",
        [
            ((), "a mode bank needs at least one mode"),
            (
                (support.scalar_mode(0.5), StateSpaceMode(2, np.eye(2), np.eye(2), np.eye(2))),
                "all modes in a bank must share output and input dimensions",
            ),
            (
                (support.scalar_mode(0.5), support.scalar_mode(0.8, mode_id=3)),
                r"mode ids must be unique and contiguous 1\.\.N",
            ),
        ],
        ids=["empty", "dimensions", "ids"],
    )
    def test_refusals_are_named(self, modes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModeBank(modes)

    def test_lookup(self):
        bank = vehicle_demo_bank()
        assert bank.mode(2).mode_id == 2
        with pytest.raises(KeyError):
            bank.mode(9)


class TestValidateMode:
    def test_double_integrator_passes(self):
        report = validate_mode(support.double_integrator())
        assert report.passed
        assert [c.name for c in report.checks] == [
            "observability",
            "controllability",
            "output_row_rank",
            "input_column_rank",
        ]

    def test_decoupled_state_fails_observability(self):
        mode = StateSpaceMode(1, A=np.eye(2), B=[[1.0], [0.0]], C=[[1.0, 0.0]])
        report = validate_mode(mode)
        by_name = {c.name: c for c in report.checks}
        assert not report.passed
        assert by_name["observability"].rank == 1
        assert by_name["observability"].required == 2

    def test_vehicle_modes_report(self):
        # The acceleration output sees only the acceleration state: the
        # vehicle pair is controllable with full-rank C and B but NOT
        # observable (rank 1 of 3).  The report spells that out.
        for mode in vehicle_demo_bank():
            by_name = {c.name: c for c in validate_mode(mode).checks}
            assert by_name["controllability"].passed
            assert by_name["output_row_rank"].passed
            assert by_name["input_column_rank"].passed
            assert not by_name["observability"].passed
            assert by_name["observability"].rank == 1

    def test_invariant_under_similarity_transform(self):
        rng = np.random.default_rng(5)
        passing = support.random_valid_mode(rng)
        failing = StateSpaceMode(1, A=np.eye(2), B=[[1.0], [0.0]], C=[[1.0, 0.0]])
        for mode in (passing, failing):
            expected = validate_mode(mode).passed
            for case in range(25):
                Q, _ = np.linalg.qr(rng.standard_normal((mode.n, mode.n)))
                scale = np.diag(rng.uniform(0.5, 2.0, size=mode.n))
                T = Q @ scale
                T_inv = np.linalg.inv(T)
                transformed = StateSpaceMode(
                    1, A=T @ mode.A @ T_inv, B=T @ mode.B, C=mode.C @ T_inv
                )
                assert validate_mode(transformed).passed == expected


    def test_ranks_need_only_the_numpy_1x_signature(self, monkeypatch):
        # numpy < 2 has no ``rtol`` keyword; ranks must come from the
        # default cutoff, which numpy 1.x and 2.x share.
        full_rank = np.linalg.matrix_rank

        def matrix_rank_1x(A, tol=None, hermitian=False):
            return full_rank(A, tol=tol, hermitian=hermitian)

        monkeypatch.setattr(np.linalg, "matrix_rank", matrix_rank_1x)
        assert validate_mode(support.double_integrator()).passed


class TestDiscretizeZoh:
    @pytest.mark.parametrize(
        "tau, beta, h", [(0.0, 1.0, 0.1), (0.5, -1.0, 0.1), (0.5, 1.0, 0.0), (0.5, 1.0, np.nan)]
    )
    def test_rejects_non_positive_parameters(self, tau, beta, h):
        with pytest.raises(ValueError, match="must be positive"):
            longitudinal_vehicle_mode(tau, beta, sample_period=h)

    @pytest.mark.parametrize(
        "tau, beta, printed",
        [(0.01, 1.50, SPORTS_AB), (0.60, 0.70, AVERAGE_AB)],
    )
    def test_vehicle_blocks_match_printed_values(self, tau, beta, printed):
        mode = longitudinal_vehicle_mode(tau, beta, sample_period=0.1)
        np.testing.assert_allclose(
            np.hstack([mode.A, mode.B]), printed, atol=5e-5
        )

    def test_matches_fine_step_rk4_oracle(self):
        # Integrate the continuous model with RK4 at 1/1000 of the sample
        # period and compare state trajectories at the sampling instants.
        rng = np.random.default_rng(6)
        for tau, beta in [(0.01, 1.50), (0.60, 0.70)]:
            h = 0.1
            A_c = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0 / tau]])
            B_c = np.array([[0.0], [0.0], [beta / tau]])
            mode = longitudinal_vehicle_mode(tau, beta, sample_period=h)
            x_exact = rng.standard_normal(3)
            x_rk4 = x_exact.copy()
            for step in range(20):
                u = rng.uniform(-1.0, 1.0, size=1)
                x_exact = mode.A @ x_exact + mode.B @ u

                def f(x):
                    return A_c @ x + (B_c @ u)

                dt = h / 1000.0
                for _ in range(1000):
                    k1 = f(x_rk4)
                    k2 = f(x_rk4 + 0.5 * dt * k1)
                    k3 = f(x_rk4 + 0.5 * dt * k2)
                    k4 = f(x_rk4 + dt * k3)
                    x_rk4 = x_rk4 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                np.testing.assert_allclose(x_exact, x_rk4, rtol=1e-6, atol=1e-9)


def oracle_mode(case):
    if case in ("sports", "average"):
        return vehicle_demo_bank().mode(1 if case == "sports" else 2)
    if case == "mimo":
        return support.random_valid_mode(np.random.default_rng(9), n=4, m=2, l=2)
    if case == "random":
        return support.random_valid_mode(np.random.default_rng(7))
    if case == "decaying":  # (A^16)^(2^j) underflows within the one-hour scan
        return StateSpaceMode(1, np.diag([0.5, 0.3, 0.2]), np.ones((3, 1)), np.ones((1, 3)))
    if case == "underflow":  # the block step's G-th power, 0.06^256, is subnormal; 0.06^240 is not
        return StateSpaceMode(1, np.diag([0.06, 0.5]), np.ones((2, 1)), np.ones((1, 2)))
    return StateSpaceMode(1, A=np.diag([1.05, 0.7]), B=[[0.0], [1.0]], C=[[1.0, 1.0]])


# Block counts at the boundaries of the grouped recursion: G - 1, G and
# G + 1 blocks, G^2 and G^2 + 1; and the horizons of that many blocks.
G = modes._GROUP
GROUP_COUNTS = [G - 1, G, G + 1, G * G, G * G + 1]
GROUP_HORIZONS = tuple(modes._BLOCK * count for count in GROUP_COUNTS)

# Modes and horizons on which simulate_mode is checked against the
# sample-by-sample recursion.
ORACLE_CASES = [
    (case, K)
    for case, horizons in (
        ("sports", (2, 17, 500, 36000)),
        ("average", (2, 17, 500, 36000)),
        ("mimo", (2, 17, 500, 36000)),
        ("unstable", (2, 17, 600, 2000, 4113)),
        ("random", (40,)),
        ("decaying", (17, 500, 36000)),
        ("underflow", ()),
    )
    for K in horizons + GROUP_HORIZONS
]


class TestSimulateMode:
    def test_geometric_decay(self):
        traj = simulate_mode(support.scalar_mode(0.5), [1.0], np.zeros((2, 1)))
        np.testing.assert_allclose(traj.Y.ravel(), [1.0, 0.5, 0.25])

    def test_direct_recursion(self):
        traj = simulate_mode(support.scalar_mode(0.5), [0.0], np.ones((2, 1)))
        np.testing.assert_allclose(traj.Y.ravel(), [0.0, 1.0, 1.5])

    def test_zero_everything(self):
        mode = support.double_integrator()
        traj = simulate_mode(mode, np.zeros(2), np.zeros((9, 1)))
        np.testing.assert_array_equal(traj.Y, np.zeros((10, 1)))

    def test_defining_recursion_is_exact(self):
        # The block scan matches the recursion one sample at a time: states
        # and outputs to 1e-12 of the recursion's largest entry.
        for case, K in ORACLE_CASES:
            mode = oracle_mode(case)
            rng = np.random.default_rng(K)
            x1, U = rng.standard_normal(mode.n), rng.uniform(-1.0, 1.0, (K - 1, mode.l))
            traj = simulate_mode(mode, x1, U)
            X, Y = support.loop_simulate(mode, x1, U)
            assert np.max(np.abs(traj.X - X)) <= 1e-12 * np.max(np.abs(X)), (case, K)
            assert np.max(np.abs(traj.Y - Y)) <= 1e-12 * np.max(np.abs(Y)), (case, K)

    def test_unstable_long_horizon_raises_no_overflow(self):
        # 1.05^14000 is about 1e296: finite, but one squaring past the last
        # power used overflows.
        mode = oracle_mode("unstable")
        K = 14000
        rng = np.random.default_rng(8)
        x, U = rng.standard_normal(2), rng.uniform(-1.0, 1.0, (K - 1, 1))
        ops = build_lifted_operators(mode, K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [
                simulate_mode(mode, x, U).X,
                ops.apply(x, U),
                *ops.apply_adjoint(rng.standard_normal(K)),
                _power_rows(mode.C, mode.A, K),
                ops.apply(x, np.zeros_like(U)),
            ]
        assert all(np.isfinite(r).all() for r in results)
        assert np.max(np.abs(results[0])) > 1e290

    def test_bounded_response_of_unstable_mode(self):
        # The input never reaches the state at the pole 1.05 and x1 starts off
        # it, so |y| < 4 although 1.05^20000 overflows: the recursion forms no
        # power past those the horizon composes, the largest (A^4096)^3.  At
        # K = 36000 a composed power overflows and 0 * inf spoils the states:
        # one ValueError names the mode and K, with no warning, and the mode's
        # cached powers still give K = 20000 exactly afterwards.
        mode = oracle_mode("unstable")
        K = 20000
        U = np.random.default_rng(20).uniform(-1.0, 1.0, (36000 - 1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="simulating mode 1 over K = 36000: trajectory Y"):
                simulate_mode(mode, [0.0, 1.0], U)
            traj = simulate_mode(mode, [0.0, 1.0], U[: K - 1])
        X, Y = support.loop_simulate(mode, [0.0, 1.0], U[: K - 1])
        assert np.max(np.abs(Y)) < 4.0
        assert np.max(np.abs(traj.X - X)) <= 1e-14 and np.max(np.abs(traj.Y - Y)) <= 1e-14

    def test_hands_over_its_arrays(self):
        # In arrays of K floats: the trajectory keeps U's copy, Y and the three
        # state columns; at its peak the scan holds the states and one forced
        # product of their size, six arrays and a few small objects (about
        # 2 KB).  X and Y are the arrays the scan and the output product made.
        mode = vehicle_demo_bank().mode(1)
        K = 36000
        rng = np.random.default_rng(9)
        x1, U = rng.standard_normal(3), rng.uniform(-1.0, 1.0, (K - 1, 1))
        simulate_mode(mode, x1, U)  # caches the mode's pieces
        kept = []
        peak = support.traced_peak(lambda: kept.append(simulate_mode(mode, x1, U)))
        assert peak <= 6 * K * 8 + 4096
        traj = kept[0]
        for arr in (traj.X, traj.Y):
            assert arr.flags.owndata and not arr.flags.writeable
        np.testing.assert_array_equal(traj.Y, traj.X @ mode.C.T)

    def test_dimension_mismatch(self):
        mode = support.double_integrator()
        with pytest.raises(ValueError):
            simulate_mode(mode, [1.0], np.zeros((3, 1)))
        with pytest.raises(ValueError):
            simulate_mode(mode, [1.0, 0.0], np.zeros((3, 2)))


class TestBlockKernels:
    """The fold ``sum_j c[j] step^j``, the rows ``first step^k`` and the free
    response ``Ot x = apply(x, 0)`` against explicit sums and the sample-by-sample
    recursion."""

    @staticmethod
    def fold(c, step):
        """``sum_j c[j] step^j``, the first row of the reverse scan of ``c``: how
        ``apply_adjoint`` gets ``Ot' w``."""
        _scan(c, step, reverse=True)
        return c[0]

    @pytest.mark.parametrize("count", sorted({1, 2, 3, 33, *GROUP_COUNTS}))
    @pytest.mark.parametrize("radius", [0.9, 1.05, 1e-20])  # 1e-20: step^G underflows
    def test_fold_matches_explicit_sum(self, count, radius):
        rng = np.random.default_rng(count)
        step = rng.standard_normal((3, 3))
        step *= radius / np.max(np.abs(np.linalg.eigvals(step)))
        c = rng.standard_normal((count, 3))
        powers = [np.linalg.matrix_power(step, j) for j in range(count)]
        expected = sum(c[j] @ powers[j] for j in range(count))
        got = self.fold(c.copy(), step)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        # The rows first step^k, k < count, as the grouped scan of an impulse.
        first = rng.standard_normal((2, 3))
        expected = np.vstack([first @ power for power in powers])
        got = _power_rows(first, step, count)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("K", [1, 2, 17, 500, *GROUP_HORIZONS])
    @pytest.mark.parametrize("case", ["sports", "mimo", "unstable", "decaying", "underflow"])
    def test_free_response_matches_recursion(self, case, K):
        mode = oracle_mode(case)
        x = np.random.default_rng(K).standard_normal(mode.n)
        zeros = np.zeros((K - 1, mode.l))
        _, Y = support.loop_simulate(mode, x, zeros)
        got = build_lifted_operators(mode, K).apply(x, zeros)
        assert got.shape == (K * mode.m,)
        assert np.max(np.abs(got - Y.reshape(-1))) <= 1e-12 * np.max(np.abs(Y))

    def test_group_operators_are_built_once_per_mode(self, monkeypatch):
        # Every recursion reads the powers and operators cached on the mode: a
        # second round of calls at the same horizon builds none.  Where the
        # block step's G-th power underflows, it is flushed to exactly zero.
        built, build = [], modes._group_operators
        monkeypatch.setattr(modes, "_group_operators", lambda p: built.append(len(p)) or build(p))
        mode = oracle_mode("underflow")
        K = modes._BLOCK * (G * G + 1)
        ops = build_lifted_operators(mode, K)
        rng = np.random.default_rng(5)
        x, U = rng.standard_normal(2), rng.uniform(-1.0, 1.0, (K - 1, 1))

        def calls():
            simulate_mode(mode, x, U)
            ops.apply_adjoint(rng.standard_normal((3, K)))
            Y = ops.apply(x, U)
            ops.apply(Y[: mode.n], np.zeros_like(U))
            ops.fit(Y, U)
            reconstruct_state(mode, U[: mode.n - 1], Y[: mode.n])

        calls()
        first = len(built)
        calls()
        assert first > 0 and len(built) == first
        power = mode._block_powers[1].powers[0][G]  # the forward recursions' powers
        np.testing.assert_array_equal(power, np.diag([0.0, 0.5**256]))

    def test_group_powers_grow_whole_when_threads_share_them(self):
        # Eight threads grow one cache at once, with a thread switch every
        # microsecond; each time the level holds the powers in order.
        step = np.array([[0.9, 0.1], [0.0, 0.5]])
        expected = [np.linalg.matrix_power(step, i) for i in range(G + 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                powers = modes._GroupPowers(step)
                threads = [threading.Thread(target=powers.level, args=(0, G)) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                np.testing.assert_allclose(powers.powers[0], expected, rtol=1e-12, atol=0)
        finally:
            sys.setswitchinterval(interval)

    def test_underflowed_powers_are_dropped(self):
        # 1e-160 squared is the subnormal 1e-320: each kernel flushes it, so
        # the k = 2 term is exactly zero rather than carried as a subnormal.
        step = np.array([[1e-160]])
        rows = _power_rows(np.ones((1, 1)), step, 4)
        np.testing.assert_array_equal(rows.ravel(), [1.0, 1e-160, 0.0, 0.0])
        S = np.array([[1.0], [0.0], [0.0], [0.0]])
        _scan(S, step)
        np.testing.assert_array_equal(S.ravel(), [1.0, 1e-160, 0.0, 0.0])

    @pytest.mark.parametrize("step", [[[np.nan]], [[0.0, 1.0], [1.0, 0.0]]], ids=["nan", "zero_corner"])
    def test_only_underflow_stops_the_powers(self, step):
        # A nan step still reaches the loud non-finite errors, and a zero first
        # entry (the cheap half of the test) is not an underflowed power.
        step = np.array(step)
        rows = np.vstack([np.ones(len(step)) @ np.linalg.matrix_power(step, k) for k in range(4)])
        np.testing.assert_array_equal(_power_rows(rows[:1], step, 4), rows)
        S = np.zeros_like(rows)
        S[0] = rows[0]
        _scan(S, step)
        np.testing.assert_array_equal(S, rows)

    @pytest.mark.parametrize("K", [17, 500, 36000, 36001])
    def test_decaying_mode_matches_dense_oracles(self, tmp_path, K):
        # The block step's powers underflow well inside these horizons; at
        # K = 36001 the last block holds one sample.  A drive read back from its
        # file is classified as the mode.
        mode = oracle_mode("decaying")
        rng = np.random.default_rng(K)
        x, w = rng.standard_normal(3), rng.standard_normal(K)
        U = rng.uniform(-1.0, 1.0, (K - 1, 1))
        ops = build_lifted_operators(mode, K)
        Ot = support.iterated_observability(mode, K)
        _, Y = support.loop_simulate(mode, x, U)
        Y = Y.reshape(-1)
        assert np.max(np.abs(ops.apply(x, U) - Y)) <= 1e-12 * np.max(np.abs(Y))
        x_adj, U_adj = ops.apply_adjoint(w)
        assert np.linalg.norm(x_adj - Ot.T @ w) <= 1e-12 * np.linalg.norm(Ot.T @ w)
        if K <= 500:
            Tt = support.dense_Tt(ops)
            assert np.max(np.abs(Ot @ x + Tt @ U.reshape(-1) - Y)) <= 1e-12 * np.max(np.abs(Y))
            assert np.linalg.norm(U_adj - Tt.T @ w) <= 1e-12 * np.linalg.norm(Tt.T @ w)
        for data in (Y, Y + rng.standard_normal(K)):
            x_fit, residual = ops.fit(data, U)
            x_ref, expected = support.dense_fit(ops, data, U)
            assert np.linalg.norm(x_fit - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
            assert abs(residual - expected) <= 1e-12 * np.linalg.norm(data)
        path = tmp_path / "drive.csv"
        write_trajectory_csv(simulate_mode(mode, x, U), path)
        assert classify(ModeBank((mode,)), read_trajectory_csv(path)).verdict == 1


class TestTrajectory:
    def test_length_invariants(self):
        with pytest.raises(ValueError):
            Trajectory(U=np.zeros((3, 1)), Y=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Trajectory(U=np.zeros((0, 1)), Y=np.zeros((1, 1)))

    @pytest.mark.parametrize(
        "arrays, name, shape",
        [
            (dict(U=[[0.0]], Y=3.0), "Y", r"\(\)"),
            (dict(U=np.zeros((2, 1, 1)), Y=np.zeros((3, 1))), "U", r"\(2, 1, 1\)"),
            (dict(U=np.zeros((2, 1)), Y=np.zeros((3, 1)), X=np.zeros((3, 2, 1))), "X", r"\(3, 2, 1\)"),
        ],
        ids=["scalar-Y", "3d-U", "3d-X"],
    )
    def test_samples_are_rows(self, arrays, name, shape):
        # A scalar once raised IndexError, and a (K - 1, 1, 1) U was accepted.
        with pytest.raises(ValueError, match=f"trajectory {name} must be 1-D or 2-D.*{shape}"):
            Trajectory(**arrays)

    @pytest.mark.parametrize(
        "arrays, message",
        [
            (
                dict(U=np.zeros((0, 1)), Y=np.zeros((1, 1))),
                "a trajectory needs a horizon of at least K = 2",
            ),
            (
                dict(U=np.zeros((3, 1)), Y=np.zeros((3, 1))),
                "expected 2 input samples for 3 outputs, got 3",
            ),
            (
                dict(U=np.zeros((2, 1)), Y=np.zeros((3, 1)), X=np.zeros((2, 2))),
                "X must record one state per output sample",
            ),
        ],
        ids=["short-horizon", "input-count", "state-rows"],
    )
    def test_refusals_are_named(self, arrays, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Trajectory(**arrays)

    def test_stacking_order(self):
        traj = Trajectory(U=[[1.0], [2.0]], Y=[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        np.testing.assert_array_equal(
            traj.stacked_outputs(), [1.0, 10.0, 2.0, 20.0, 3.0, 30.0]
        )


class TestFileFormats:
    def test_bank_roundtrip(self, tmp_path):
        bank = vehicle_demo_bank()
        path = tmp_path / "bank.json"
        save_mode_bank(bank, path)
        loaded = load_mode_bank(path)
        assert len(loaded.modes) == len(bank.modes)
        for original, read in zip(bank, loaded):
            np.testing.assert_array_equal(original.A, read.A)
            np.testing.assert_array_equal(original.B, read.B)
            np.testing.assert_array_equal(original.C, read.C)

    def test_bank_rejects_inconsistent_declared_dims(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text(
            '{"m": 2, "l": 1, "modes": [{"id": 1, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}]}'
        )
        with pytest.raises(ValueError):
            load_mode_bank(path)

    @pytest.mark.parametrize(
        "A, C, name",
        [('[["0.5"]]', "[[1.0]]", "A"), ("[[0.5]]", "[[true]]", "C"), ("[[0.5]]", "[[null]]", "C")],
        ids=["A-string", "C-bool", "C-null"],
    )
    def test_bank_entries_are_json_numbers(self, tmp_path, A, C, name):
        path = tmp_path / "bank.json"
        mode = '{"id": 1, "A": %s, "B": [[1.0]], "C": %s}' % (A, C)
        path.write_text('{"m": 1, "l": 1, "modes": [%s]}' % mode)
        message = f"^ill-formed mode bank document: {name} is not an array of numbers$"
        with pytest.raises(ValueError, match=message):
            load_mode_bank(path)

    def test_bank_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text('{"m": 1, "modes": []}')
        with pytest.raises(ValueError):
            load_mode_bank(path)

    @pytest.mark.parametrize(
        "m, l, mode_id, key",
        [
            ("1.9", "1", "1", "m"),
            ("1", "true", "1", "l"),
            ("1", '"1"', "1", "l"),
            ("1", "1", "1.7", "id"),
            ("1", "1", '"1"', "id"),
            ("1", "1", "true", "id"),
        ],
        ids=["m-float", "l-bool", "l-string", "id-float", "id-string", "id-bool"],
    )
    def test_bank_integer_entries_are_json_integers(self, tmp_path, m, l, mode_id, key):
        path = tmp_path / "bank.json"
        mode = '{"id": %s, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}' % mode_id
        path.write_text('{"m": %s, "l": %s, "modes": [%s]}' % (m, l, mode))
        message = f"ill-formed mode bank document: '{key}' is not an integer"
        with pytest.raises(ValueError, match=message):
            load_mode_bank(path)

    def test_trajectory_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        mode = support.random_valid_mode(rng, n=2, m=2, l=2)
        traj = support.random_trajectory(rng, mode, K=7)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        loaded = read_trajectory_csv(path)
        np.testing.assert_array_equal(loaded.U, traj.U)
        np.testing.assert_array_equal(loaded.Y, traj.Y)
        np.testing.assert_array_equal(loaded.X, traj.X)

    def test_final_row_has_empty_inputs(self, tmp_path):
        traj = simulate_mode(support.scalar_mode(0.5), [1.0], np.ones((2, 1)))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,u_1,y_1,x_1"
        assert lines[-1].split(",")[1] == ""

    def test_reader_rejects_gapped_indices(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("k,u_1,y_1\n1,0.0,1.0\n3,,0.5\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)

    def test_reader_rejects_input_on_final_row(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("k,u_1,y_1\n1,0.0,1.0\n2,9.0,0.5\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)


# Values whose repr takes each of Python's float formats: signed zero,
# subnormal, exponent form at and above 1e16, and the smallest subnormal.
SPECIAL_VALUES = [-0.0, 1e-300, 1e16, 1.5e17, 5e-324, 0.1, -123456.789, 2.0**-1074 * 3]


def special_trajectory(K, l, m, n):
    rng = np.random.default_rng(K + 10 * l + 100 * m + 1000 * n)

    def draw(rows, cols):
        scale = 10.0 ** rng.integers(-30, 30, (rows, cols))
        values = rng.standard_normal((rows, cols)) * scale
        count = min(values.size, len(SPECIAL_VALUES))
        values.flat[:count] = SPECIAL_VALUES[:count]
        return values

    return Trajectory(U=draw(K - 1, l), Y=draw(K, m), X=draw(K, n) if n else None)


CSV_SHAPES = [
    pytest.param(2, 1, 1, 3, id="K2"),
    pytest.param(9, 3, 2, 4, id="mimo"),
    pytest.param(_ROWS_PER_BLOCK - 1, 1, 1, 3, id="block-1"),
    pytest.param(_ROWS_PER_BLOCK, 1, 1, 3, id="block"),
    pytest.param(_ROWS_PER_BLOCK + 1, 2, 1, 2, id="block+1"),
    pytest.param(2 * _ROWS_PER_BLOCK + 2, 1, 2, 1, id="2block+2"),
]


def assert_same_arrays(got, want):
    for a, b in ((got.U, want.U), (got.Y, want.Y), (got.X, want.X)):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTrajectoryCsvAgainstOracle:
    """The array-speed reader and writer against the csv-module oracles."""

    @pytest.mark.parametrize("states", [True, False], ids=["states", "stateless"])
    @pytest.mark.parametrize("K, l, m, n", CSV_SHAPES)
    def test_writer_bytes_and_reader_arrays(self, tmp_path, K, l, m, n, states):
        traj = special_trajectory(K, l, m, n if states else 0)
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        write_trajectory_csv(traj, ours)
        support.csv_write_trajectory(traj, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        assert_same_arrays(read_trajectory_csv(oracle), support.csv_read_trajectory(oracle))
        assert_same_arrays(read_trajectory_csv(oracle), traj)

    def test_reader_hands_over_its_own_columns(self, tmp_path, monkeypatch):
        # U, Y and X are each built as a frozen owner from the parsed blocks: none is copied.
        rng = np.random.default_rng(8)
        traj = support.random_trajectory(rng, support.random_valid_mode(rng), 50)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        calls = support.frozen_copies(monkeypatch, modes)
        loaded = read_trajectory_csv(path)
        assert calls == [("trajectory U", False), ("trajectory Y", False), ("trajectory X", False)]
        assert_same_arrays(loaded, traj)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda b: b.replace(b"\r\n", b"\n"),
            lambda b: b[:-2],
            lambda b: b.replace(b"\r\n", b"\n")[:-1],
            lambda b: b"\r\n".join(
                b",".join(b'"' + cell + b'"' for cell in line.split(b","))
                for line in b.split(b"\r\n")[:-1]
            ),
            # Every data line's last cell ends in a form feed or a vertical tab:
            # not a line break in the file, nor to the csv module.
            lambda b: b.replace(b"\r\n", b"\x0c\r\n").replace(b"\x0c\r\n", b"\r\n", 1),
            lambda b: b.replace(b"\r\n", b"\x0b\n").replace(b"\x0b\n", b"\n", 1),
        ],
        ids=["lf", "no-final-crlf", "lf-no-final-lf", "quoted", "form-feed", "vertical-tab"],
    )
    def test_reader_accepts_what_the_csv_module_accepts(self, tmp_path, rewrite):
        path = tmp_path / "traj.csv"
        support.csv_write_trajectory(special_trajectory(9, 3, 2, 4), path)
        path.write_bytes(rewrite(path.read_bytes()))
        assert_same_arrays(read_trajectory_csv(path), support.csv_read_trajectory(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty trajectory file"),
            ("k,u_1,z_1\n1,0,1\n2,,1\n", "header"),
            ("k,u_1,y_1,note\n1,0,1,2\n2,,1,2\n", "header"),
            ("k,u_1,y_1\n", "at least two data rows, got 0"),
            ("k,u_1,y_1\n1,,1\n", "at least two data rows, got 1"),
            ("k,u_1,y_1\n1,0,1\n\n3,0,1\n4,,1\n", "row 2 is blank"),
            ("k,u_1,y_1\n1,0,1\n2,,1\n\n", "row 3 is blank"),
            ("k,u_1,y_1\n1,0\n2,,1\n", "row 1 has 2 cells, expected 3"),
            ("k,u_1,y_1\n1,0,1\n2,0,1,5\n3,,1\n", "row 2 has 4 cells, expected 3"),
            ("k,u_1,y_1\n1,0,1,5\n2,0,1,5\n3,,1\n", "row 1 has 4 cells, expected 3"),
            ("k,u_1,y_1\n1,0,1\n2,,1,5\n", "row 2 has 4 cells, expected 3"),
            ("k,u_1,y_1\n1,0,1\n# note\n3,,1\n", "row 2 has 1 cells, expected 3"),
            ("k,u_1,y_1\n1,0,1\n2,abc,1\n3,,1\n", "row 2 has a non-numeric cell"),
            ("k,u_1,y_1\n1,,1\n2,,1\n", "row 1 has a non-numeric cell"),
            ("k,u_1,y_1\n1,0,1\n2,,x\n", "row 2 has a non-numeric cell"),
            # float() reads "1_0" as 10; numpy's parser, and so the body's, does not.
            ("k,u_1,y_1\n1,1_0,1\n2,,1\n", "row 1 has a non-numeric cell"),
            ("k,u_1,y_1\n1,0,1\n2,,1_0\n", "row 2 has a non-numeric cell"),
            ("k,u_1,y_1\n1,0,1\n2.5,,1\n", "contiguous and 1-based"),
            ("k,u_1,y_1\n0,0,1\n1,,1\n", "contiguous and 1-based"),
            ("k,u_1,y_1\n\n\n", "row 1 is blank"),
            ("\nk,u_1,y_1\n1,0,1\n2,,1\n", r"unexpected trajectory header: \[''\]"),
        ],
        ids=[
            "empty-file", "bad-header", "unknown-column", "no-rows", "one-row",
            "blank-body-row", "blank-last-line", "short-row", "extra-cell-one-row",
            "extra-cell-every-row", "extra-cell-final-row", "comment-line",
            "non-numeric-body", "empty-body-cell", "non-numeric-final",
            "digit-separator-body", "digit-separator-final",
            "non-integral-k", "zero-based-k", "blank-body", "blank-header",
        ],
    )
    def test_reader_rejects(self, tmp_path, text, message):
        # Only the ValueError: no warning (numpy's "no data" one) escapes.
        path = tmp_path / "traj.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                read_trajectory_csv(path)
        assert seen == []


# Data rows around the first block boundary, one well inside the last block,
# and the final row, of a file whose K - 1 body rows span two whole blocks.
B = _ROWS_PER_BLOCK
BLOCK_K = 2 * B + 2
BLOCK_ROWS = [B - 1, B, B + 1, 2 * B + 1, BLOCK_K]


def block_file_lines(K, l=1, m=1, n=2):
    """Lines of a K-row trajectory file with states, the header first."""
    traj = special_trajectory(K, l, m, n)
    lines = [",".join(["k"] + [f"u_{i + 1}" for i in range(l)]
                      + [f"y_{i + 1}" for i in range(m)] + [f"x_{i + 1}" for i in range(n)])]
    for k in range(K):
        inputs = traj.U[k].tolist() if k < K - 1 else [""] * l
        cells = [k + 1] + inputs + traj.Y[k].tolist() + traj.X[k].tolist()
        lines.append(",".join(c if c == "" else repr(c) for c in cells))
    return lines


def spoil(lines, fault, row):
    """Spoil data row ``row`` (1-based) by ``fault``; the reader's message for it."""
    width = lines[0].count(",") + 1
    if fault == "blank":
        lines[row] = ""
        return f"row {row} is blank"
    if fault == "non-numeric":
        cells = lines[row].split(",")
        cells[2] = "abc"  # the first output cell
        lines[row] = ",".join(cells)
        return f"row {row} has a non-numeric cell: {lines[row]!r}"
    if fault == "cell-count":
        lines[row] += ",5"
        return f"row {row} has {width + 1} cells, expected {width}"
    if fault == "final-input":
        lines[row] = lines[row].replace(",", ",1.5", 1)
        return "the final sample must not carry input values"
    if fault == "k-gap":
        lines[row] = "99" + lines[row][lines[row].index(","):]
        return "sample indices must be contiguous and 1-based"
    raise AssertionError(fault)


def write_lines(path, lines, newline):
    path.write_bytes((newline.join(lines) + newline).encode())


class TestTrajectoryCsvBlocks:
    """The reader's messages and arrays do not depend on where its blocks fall."""

    @pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
    @pytest.mark.parametrize("row", BLOCK_ROWS)
    @pytest.mark.parametrize("fault", ["blank", "non-numeric", "cell-count"])
    def test_fault_named_at_its_row(self, tmp_path, fault, row, newline):
        lines = block_file_lines(BLOCK_K)
        message = spoil(lines, fault, row)
        path = tmp_path / "traj.csv"
        write_lines(path, lines, newline)
        with pytest.raises(ValueError) as err:
            read_trajectory_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
    @pytest.mark.parametrize("K", [2 * B, 2 * B + 1, 2 * B + 2])
    def test_input_on_final_row(self, tmp_path, K, newline):
        # At K = 2 B + 1 the K - 1 body rows fill whole blocks: the final row
        # is alone in the last one.
        lines = block_file_lines(K)
        message = spoil(lines, "final-input", K)
        path = tmp_path / "traj.csv"
        write_lines(path, lines, newline)
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "faults, first",
        [
            ([("non-numeric", 2), ("blank", 2 * B + 1)], 1),
            ([("cell-count", 2 * B + 1), ("non-numeric", B + 1)], 1),
            ([("k-gap", 2), ("non-numeric", 2 * B + 1)], 1),
            ([("k-gap", B + 1), ("final-input", BLOCK_K)], 1),
            ([("non-numeric", BLOCK_K), ("cell-count", B)], 1),
            ([("blank", BLOCK_K), ("cell-count", 3)], 0),
        ],
        ids=["blank-later", "body-order", "k-after-cells", "k-after-final",
             "body-before-final", "blank-final"],
    )
    def test_first_fault_in_todays_order(self, tmp_path, faults, first):
        # A blank row anywhere is named before any cell fault, a body row before
        # the final row, and every cell fault before the sample indices.
        lines = block_file_lines(BLOCK_K)
        messages = [spoil(lines, fault, row) for fault, row in faults]
        path = tmp_path / "traj.csv"
        write_lines(path, lines, "\r\n")
        with pytest.raises(ValueError) as err:
            read_trajectory_csv(path)
        assert str(err.value) == messages[first]

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda b: b,
            lambda b: b.replace(b"\r\n", b"\n"),
            lambda b: b[:-2],
            lambda b: b.replace(b"\r\n", b"\n")[:-1],
            lambda b: b"\r\n".join(
                b",".join(b'"' + cell + b'"' for cell in line.split(b","))
                for line in b.split(b"\r\n")[:-1]
            ),
        ],
        ids=["crlf", "lf", "no-final-crlf", "lf-no-final-lf", "quoted"],
    )
    @pytest.mark.parametrize("K", [2 * B, 2 * B + 1, 2 * B + 2])
    def test_line_ends_and_quotes(self, tmp_path, K, rewrite):
        path = tmp_path / "traj.csv"
        support.csv_write_trajectory(special_trajectory(K, 1, 1, 2), path)
        path.write_bytes(rewrite(path.read_bytes()))
        assert_same_arrays(read_trajectory_csv(path), support.csv_read_trajectory(path))


class TestTrajectoryCsvMemory:
    """An hour's trajectory goes to disk and back without a whole-file object tree."""

    @staticmethod
    def drive(K):
        rng = np.random.default_rng(K)
        mode = vehicle_demo_bank().mode(1)
        return simulate_mode(mode, rng.standard_normal(3), rng.uniform(-1.0, 1.0, (K - 1, 1)))

    def test_writer_peak_does_not_grow_with_K(self, tmp_path):
        # One block of text at a time: the columns are never stacked side by side.
        peaks = []
        for K in (9000, 36000):
            traj, path = self.drive(K), tmp_path / f"{K}.csv"
            peaks.append(support.traced_peak(lambda: write_trajectory_csv(traj, path)))
        assert peaks[1] <= peaks[0] + 16 * 1024

    def test_reader_parses_the_body_in_one_loadtxt_call(self, tmp_path, monkeypatch):
        # One call for the K - 1 body rows, one for the final row's cells.
        K = 36000
        traj, path = self.drive(K), tmp_path / "drive.csv"
        write_trajectory_csv(traj, path)
        loadtxt, dtypes = np.loadtxt, []

        def spy(*args, **kwargs):
            dtypes.append(kwargs.get("dtype", float))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        assert_same_arrays(read_trajectory_csv(path), traj)
        assert dtypes == [float, str]

    def test_reader_peak_is_a_few_copies_of_the_data(self, tmp_path):
        # The parsed blocks and the trajectory's own arrays, not the file's text
        # and one string per line.
        K = 36000
        traj, path = self.drive(K), tmp_path / "drive.csv"
        write_trajectory_csv(traj, path)
        data = 8 * (traj.U.size + traj.Y.size + traj.X.size)
        kept = []
        assert support.traced_peak(lambda: kept.append(read_trajectory_csv(path))) <= 3 * data
        assert_same_arrays(kept[0], traj)
