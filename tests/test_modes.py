import warnings

import numpy as np
import pytest

import support
from behaviorcloak import (
    ContinuousMode,
    ModeBank,
    StateSpaceMode,
    Trajectory,
    build_lifted_operators,
    discretize_zoh,
    load_mode_bank,
    longitudinal_vehicle_mode,
    read_trajectory_csv,
    save_mode_bank,
    simulate_mode,
    validate_mode,
    vehicle_demo_bank,
    write_trajectory_csv,
)
from behaviorcloak.modes import _ROWS_PER_BLOCK, _fold, _free_response, _power_rows, _scan

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
        assert bank.N == 2 and bank.m == 1 and bank.l == 1
        c = StateSpaceMode(2, A=np.eye(2), B=np.eye(2), C=np.eye(2))
        with pytest.raises(ValueError):
            ModeBank((a, c))

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
    def test_pure_gain_integrator(self):
        cm = ContinuousMode(
            A=np.zeros((2, 2)), B=[[1.0], [2.0]], C=[[1.0, 0.0]], sample_period=0.25
        )
        mode = discretize_zoh(cm)
        np.testing.assert_allclose(mode.A, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(mode.B, [[0.25], [0.5]], atol=1e-15)
        np.testing.assert_array_equal(mode.C, cm.C)

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
    return StateSpaceMode(1, A=np.diag([1.05, 0.7]), B=[[0.0], [1.0]], C=[[1.0, 1.0]])


# Modes and horizons on which simulate_mode is checked against the
# sample-by-sample recursion.
ORACLE_CASES = [
    (case, K)
    for case, horizons in (
        ("sports", (2, 17, 500, 36000)),
        ("average", (2, 17, 500, 36000)),
        ("mimo", (2, 17, 500, 36000)),
        ("unstable", (2, 17, 600, 2000)),
        ("random", (40,)),
        ("decaying", (17, 500, 36000)),
    )
    for K in horizons
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
                _free_response(mode._output_blocks_t, x, K),
                _fold(rng.standard_normal((K // 16, 2)), mode._output_blocks[3]),
            ]
        assert all(np.isfinite(r).all() for r in results)
        assert np.max(np.abs(results[0])) > 1e290

    def test_dimension_mismatch(self):
        mode = support.double_integrator()
        with pytest.raises(ValueError):
            simulate_mode(mode, [1.0], np.zeros((3, 1)))
        with pytest.raises(ValueError):
            simulate_mode(mode, [1.0, 0.0], np.zeros((3, 2)))


class TestBlockKernels:
    """The fold ``sum_j c[j] step^j`` and the free response ``Ot x`` against
    explicit sums and the sample-by-sample recursion."""

    @pytest.mark.parametrize("count", [1, 2, 3, 16, 17, 33])
    @pytest.mark.parametrize("radius", [0.9, 1.05])
    def test_fold_matches_explicit_sum(self, count, radius):
        rng = np.random.default_rng(count)
        step = rng.standard_normal((3, 3))
        step *= radius / np.max(np.abs(np.linalg.eigvals(step)))
        c = rng.standard_normal((count, 3))
        expected = sum(c[j] @ np.linalg.matrix_power(step, j) for j in range(count))
        got = _fold(c.copy(), step)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("K", [1, 2, 17, 500])
    @pytest.mark.parametrize("case", ["sports", "mimo", "unstable", "decaying"])
    def test_free_response_matches_recursion(self, case, K):
        mode = oracle_mode(case)
        x = np.random.default_rng(K).standard_normal(mode.n)
        _, Y = support.loop_simulate(mode, x, np.zeros((K - 1, mode.l)))
        got = _free_response(mode._output_blocks_t, x, K)
        assert got.shape == (K * mode.m,)
        assert np.max(np.abs(got - Y.reshape(-1))) <= 1e-12 * np.max(np.abs(Y))

    def test_underflowed_powers_are_dropped(self):
        # 1e-160 squared is the subnormal 1e-320: each kernel stops there, so
        # the k = 2 term is exactly zero rather than carried as a subnormal.
        step = np.array([[1e-160]])
        rows = _power_rows(np.ones((1, 1)), step, 4)
        np.testing.assert_array_equal(rows.ravel(), [1.0, 1e-160, 0.0, 0.0])
        S = np.array([[1.0], [0.0], [0.0], [0.0]])
        _scan(S, step)
        np.testing.assert_array_equal(S.ravel(), [1.0, 1e-160, 0.0, 0.0])
        assert _fold(np.array([[0.0], [0.0], [1.0]]), step)[0] == 0.0
        assert _fold(np.array([[0.0], [2.0], [1.0]]), step)[0] == 2e-160

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
        np.testing.assert_array_equal(_fold(np.ones((3, len(step))), step), rows[:3].sum(axis=0))

    @pytest.mark.parametrize("K", [17, 500, 36000])
    def test_decaying_mode_matches_dense_oracles(self, K):
        # The block step's powers underflow well inside these horizons.
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
            Tt = ops.Tt
            assert np.max(np.abs(Ot @ x + Tt @ U.reshape(-1) - Y)) <= 1e-12 * np.max(np.abs(Y))
            assert np.linalg.norm(U_adj - Tt.T @ w) <= 1e-12 * np.linalg.norm(Tt.T @ w)
        for data in (Y, Y + rng.standard_normal(K)):
            x_fit, residual = ops.fit(data, U)
            x_ref, expected = support.dense_fit(ops, data, U)
            assert np.linalg.norm(x_fit - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
            assert abs(residual - expected) <= 1e-12 * np.linalg.norm(data)


class TestTrajectory:
    def test_length_invariants(self):
        with pytest.raises(ValueError):
            Trajectory(U=np.zeros((3, 1)), Y=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            Trajectory(U=np.zeros((0, 1)), Y=np.zeros((1, 1)))

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
        assert loaded.N == bank.N
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

    def test_bank_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text('{"m": 1, "modes": []}')
        with pytest.raises(ValueError):
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
        ],
        ids=["lf", "no-final-crlf", "lf-no-final-lf", "quoted"],
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
            ("k,u_1,y_1\n1,0,1\n2.5,,1\n", "contiguous and 1-based"),
            ("k,u_1,y_1\n0,0,1\n1,,1\n", "contiguous and 1-based"),
        ],
        ids=[
            "empty-file", "bad-header", "unknown-column", "no-rows", "one-row",
            "blank-body-row", "blank-last-line", "short-row", "extra-cell-one-row",
            "extra-cell-every-row", "extra-cell-final-row", "comment-line",
            "non-numeric-body", "empty-body-cell", "non-numeric-final",
            "non-integral-k", "zero-based-k",
        ],
    )
    def test_reader_rejects(self, tmp_path, text, message):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(path)
