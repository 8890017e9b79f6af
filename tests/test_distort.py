import dataclasses
import warnings

import numpy as np
import pytest

import support
from behaviorcloak import (
    DistortionConfig,
    DistortionEngine,
    HorizonExhaustedError,
    InconsistentDataError,
    KernelPlan,
    RegulatorSolution,
    Trajectory,
    UtilityChangedError,
    UtilitySpec,
    build_lifted_operators,
    build_tracking_controller,
    cloak,
    design,
    design_stabilizing_gain,
    longitudinal_vehicle_mode,
    mode_residual,
    reconstruct_state,
    run_offline,
    simulate_mode,
    solve_regulator_equations,
    solve_utility_invariance,
    vehicle_demo_bank,
)
from behaviorcloak import distort, invariance, modes


def make_config(true_mode, target_mode, K, magnitude=0.0, seed=0):
    # Magnitude 0 designs the zero plan.
    return design(true_mode, target_mode, UtilitySpec.average(K, target_mode.m), magnitude, seed)


def identical_pair(rng, n=3):
    mode = support.random_valid_mode(rng, n=n)
    twin = type(mode)(2, mode.A, mode.B, mode.C)
    return mode, twin


class TestDistortionConfig:
    def test_rejects_horizon_mismatch(self):
        rng = np.random.default_rng(40)
        true, target = identical_pair(rng)
        cfg = make_config(true, target, K=10)
        with pytest.raises(ValueError):
            DistortionConfig(true, target, cfg.regulator, cfg.plan, 11)

    def test_rejects_mismatched_controller(self):
        rng = np.random.default_rng(41)
        true, target = identical_pair(rng)
        cfg = make_config(true, target, K=10)
        other = support.random_valid_mode(np.random.default_rng(1), n=2)
        with pytest.raises(ValueError, match=r"Pi must have shape \(3, 2\)"):
            DistortionConfig(other, target, cfg.regulator, cfg.plan, 10)

    def test_rejects_solution_of_another_pair(self):
        # A solution for (3 -> 2) has the shapes of one for (1 -> 2), yet
        # replaying it would leave the target behaviour.
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        other = longitudinal_vehicle_mode(tau=0.2, beta=1.0, mode_id=3)
        foreign = solve_regulator_equations(other, average)
        cfg = make_config(sports, average, K=10)
        DistortionConfig(sports, average, cfg.regulator, cfg.plan, 10)
        with pytest.raises(ValueError, match="modes 1 -> 2"):
            DistortionConfig(sports, average, foreign, cfg.plan, 10)

    def test_rejects_non_finite_solution(self):
        # A NaN Gamma makes the residual NaN, which no bound test may pass.
        rng = np.random.default_rng(42)
        true, target = identical_pair(rng)
        cfg = make_config(true, target, K=10)
        Gamma = cfg.regulator.Gamma.copy()
        Gamma[0, 0] = np.nan
        spoiled = dataclasses.replace(cfg.regulator, Gamma=Gamma)
        with pytest.raises(ValueError, match=r"residual nan"):
            DistortionConfig(true, target, spoiled, cfg.plan, 10)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("m-l", "source and target modes must share m and l"),
            (
                "nan-Theta",
                r"the regulator solution does not solve the equations of modes 1 -> 2: "
                r"B_t Theta = Pi B_s misses \(relative residual nan\)",
            ),
            ("K-below-2", "horizon must be at least 2"),
            ("plan-horizon", "plan is bound to horizon 10, configured 11"),
            ("plan-width", "plan dimensions do not match the target mode"),
            ("plan-delta-Y", "plan distortion length does not match the horizon"),
        ],
    )
    def test_refusals_are_named(self, case, message):
        # A NaN in Theta alone leaves the first two equations exact; the NaN
        # residual of the third still refuses the solution.
        true, target = identical_pair(np.random.default_rng(40))
        cfg = make_config(true, target, K=10)
        reg, plan = cfg.regulator, cfg.plan
        args = dict(true_mode=true, target_mode=target, regulator=reg, plan=plan, K=10)
        args |= {
            "m-l": {"target_mode": support.random_valid_mode(np.random.default_rng(0), l=2)},
            "nan-Theta": {"regulator": dataclasses.replace(reg, Theta=np.full((1, 1), np.nan))},
            "K-below-2": {"K": 1},
            "plan-horizon": {"K": 11},
            "plan-width": {"plan": KernelPlan(np.zeros(3), np.zeros((9, 2)), plan.delta_Y, 0.0)},
            "plan-delta-Y": {"plan": KernelPlan(np.zeros(3), plan.U2, np.zeros(11), 0.0)},
        }[case]
        with pytest.raises(ValueError, match=f"^{message}$"):
            DistortionConfig(**args)

    def test_tracking_controller_replays_its_solution(self):
        # The closed-loop controller is a regulator solution: the replay
        # uses its Gamma and Theta, whatever the gain.
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        K = 50
        cfg = make_config(sports, average, K, magnitude=1.0, seed=1)
        ctrl = build_tracking_controller(
            cfg.regulator, design_stabilizing_gain(average), average
        )
        traj = support.random_trajectory(np.random.default_rng(56), sports, K)
        out = run_offline(cfg, traj)
        closed = run_offline(DistortionConfig(sports, average, ctrl, cfg.plan, K), traj)
        np.testing.assert_array_equal(closed.Ubar, out.Ubar)
        np.testing.assert_array_equal(closed.Ybar, out.Ybar)


class TestEngineStep:
    def test_identical_modes_zero_plan_is_identity(self):
        # With the exact solution (Pi, Gamma, Theta) = (I, 0, I) the
        # replay is bitwise the identity.
        rng = np.random.default_rng(42)
        true, target = identical_pair(rng)
        K = 60
        sol = RegulatorSolution(
            Pi=np.eye(true.n),
            Gamma=np.zeros((true.l, true.n)),
            Theta=np.eye(true.l),
            residual=0.0,
        )
        plan = KernelPlan.zero(target, K)
        cfg = DistortionConfig(true, target, sol, plan, K)
        traj = support.random_trajectory(rng, true, K)
        out = run_offline(cfg, traj)
        assert out.k_start == 1
        np.testing.assert_array_equal(out.Ubar, traj.U)
        np.testing.assert_array_equal(out.Ybar, traj.Y)
        np.testing.assert_array_equal(out.Ubar - traj.U, np.zeros_like(traj.U))

    def test_scalar_pair_zero_plan_tracks_and_lands_in_target(self):
        rng = np.random.default_rng(43)
        true = support.scalar_mode(0.5)
        target = support.scalar_mode(0.8, mode_id=2)
        K = 200
        cfg = make_config(true, target, K)
        traj = support.random_trajectory(rng, true, K)
        out = run_offline(cfg, traj)
        np.testing.assert_allclose(out.Ybar, traj.Y, atol=1e-9 * np.max(np.abs(traj.Y)))
        assert mode_residual(target, out.to_trajectory()) <= 1e-8

    def test_vehicle_pair_distortion_stays_in_kernel(self):
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        K = 300
        rng = np.random.default_rng(44)
        cfg = make_config(sports, average, K, magnitude=1.0, seed=9)
        traj = support.random_trajectory(rng, sports, K)
        out = run_offline(cfg, traj)
        delta = (out.Ybar - traj.Y).reshape(-1)
        spec = UtilitySpec.average(K)
        assert abs(spec.F @ delta) <= 1e-8
        assert np.linalg.norm(delta) == pytest.approx(1.0, abs=1e-6)
        assert mode_residual(average, out.to_trajectory()) <= 1e-8

    def test_to_trajectory_is_built_once(self):
        # Two calls return the same frozen arrays, which are run_offline's
        # own: classifying a cloaked trajectory copies nothing.
        bank = vehicle_demo_bank()
        K = 300
        cfg = make_config(bank.mode(1), bank.mode(2), K, magnitude=1.0, seed=3)
        drive = support.random_trajectory(np.random.default_rng(47), bank.mode(1), K)
        out = run_offline(cfg, drive)
        first, second = out.to_trajectory(), out.to_trajectory()
        assert first is second
        for a, b in ((out.Ubar, first.U), (out.Ybar, first.Y)):
            assert np.shares_memory(a, b)
            assert not a.flags.writeable and not b.flags.writeable

    def test_run_offline_equals_stepping(self):
        rng = np.random.default_rng(45)
        true = support.scalar_mode(0.5)
        target = support.scalar_mode(0.8, mode_id=2)
        K = 50
        cfg = make_config(true, target, K, magnitude=0.5, seed=4)
        traj = support.random_trajectory(rng, true, K)
        out = run_offline(cfg, traj)
        engine = DistortionEngine(cfg)
        for k in range(1, K + 1):
            u = traj.U[k - 1] if k < K else None
            ubar, ybar = engine.step(u, traj.Y[k - 1], x=traj.X[k - 1])
            np.testing.assert_array_equal(ybar, out.Ybar[k - 1])
            if k < K:
                np.testing.assert_array_equal(ubar, out.Ubar[k - 1])
            else:
                assert ubar is None

    def test_horizon_exhaustion(self):
        rng = np.random.default_rng(46)
        true, target = identical_pair(rng)
        K = 5
        cfg = make_config(true, target, K)
        traj = support.random_trajectory(rng, true, K)
        engine = DistortionEngine(cfg)
        for k in range(1, K + 1):
            u = traj.U[k - 1] if k < K else None
            engine.step(u, traj.Y[k - 1], x=traj.X[k - 1])
        with pytest.raises(HorizonExhaustedError):
            engine.step(None, traj.Y[-1])

    def test_final_step_rejects_input(self):
        rng = np.random.default_rng(47)
        true, target = identical_pair(rng)
        K = 3
        cfg = make_config(true, target, K)
        traj = support.random_trajectory(rng, true, K)
        engine = DistortionEngine(cfg)
        engine.step(traj.U[0], traj.Y[0], x=traj.X[0])
        engine.step(traj.U[1], traj.Y[1], x=traj.X[1])
        with pytest.raises(ValueError):
            engine.step(traj.U[1], traj.Y[2])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("bad", ["u", "y", "x"])
    def test_non_finite_sample_is_refused_and_not_consumed(self, bad, value):
        # The state is given at sample 1 and at the refused sample k only, so the
        # engine carries it in between; a consumed bad sample would shift or
        # poison every later row.
        sports, average = vehicle_demo_bank()
        K, k_bad = 50, 21
        cfg = make_config(sports, average, K, magnitude=1.0, seed=3)
        traj = support.random_trajectory(np.random.default_rng(3), sports, K)
        clean, probed = DistortionEngine(cfg), DistortionEngine(cfg)
        for k in range(1, K + 1):
            sample = {
                "u": traj.U[k - 1] if k < K else None,
                "y": traj.Y[k - 1],
                "x": traj.X[k - 1] if k in (1, k_bad) else None,
            }
            if k == k_bad:
                broken = dict(sample, **{bad: sample[bad].copy()})
                broken[bad][0] = value
                with pytest.raises(ValueError, match=f"^{bad} is not finite at sample {k}$"):
                    probed.step(**broken)
            expected, got = clean.step(**sample), probed.step(**sample)
            for want, have in zip(expected, got):
                np.testing.assert_array_equal(have, want)

    def test_superposition_of_plans(self):
        rng = np.random.default_rng(48)
        true, target = identical_pair(rng)
        K = 80
        cfg_zero = make_config(true, target, K)
        cfg_plan = make_config(true, target, K, magnitude=2.0, seed=6)
        traj = support.random_trajectory(rng, true, K)
        base = run_offline(cfg_zero, traj)
        shifted = run_offline(cfg_plan, traj)
        extra = simulate_mode(
            target, cfg_plan.plan.x2_init, cfg_plan.plan.U2
        )
        np.testing.assert_allclose(
            shifted.Ybar - base.Ybar, extra.Y, rtol=1e-9, atol=1e-12
        )


def rel_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def fold_steps(cfg, traj):
    """Cloaked rows from feeding every sample to a fresh engine."""
    engine = DistortionEngine(cfg)
    ubars, ybars = [], []
    for k in range(1, cfg.K + 1):
        u = traj.U[k - 1] if k < cfg.K else None
        x = None if traj.X is None else traj.X[k - 1]
        out = engine.step(u, traj.Y[k - 1], x=x)
        if out is not None:
            if out[0] is not None:
                ubars.append(out[0])
            ybars.append(out[1])
    return np.array(ubars), np.array(ybars)


class TestAffineReplay:
    """The closed-form replay against the two-copy recursion it replaces."""

    @pytest.fixture(scope="class")
    def mimo(self):
        rng = np.random.default_rng(54)
        source, target = support.feedback_twin_pair(rng)
        cfg = make_config(source, target, K=300, magnitude=1.0, seed=3)
        return cfg, support.random_trajectory(rng, source, 300)

    def test_vehicle_pair_matches_two_copy_oracle(self):
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        K = 2000
        cfg = make_config(sports, average, K, magnitude=1.0, seed=12)
        traj = support.random_trajectory(np.random.default_rng(55), sports, K)
        out = run_offline(cfg, traj)
        Ubar, Ybar = support.two_copy_replay(cfg, traj)
        assert rel_gap(out.Ubar, Ubar) <= 1e-9
        assert rel_gap(out.Ybar, Ybar) <= 1e-9
        assert mode_residual(average, out.to_trajectory()) <= 1e-8

    @pytest.mark.parametrize("stateless", [False, True], ids=["states", "stateless"])
    def test_mimo_pair_matches_two_copy_oracle(self, mimo, stateless):
        cfg, traj = mimo
        Ubar, Ybar = support.two_copy_replay(cfg, traj)
        skip = cfg.true_mode.n if stateless else 0
        if stateless:
            traj = Trajectory(U=traj.U, Y=traj.Y)
        out = run_offline(cfg, traj)
        assert out.k_start == skip + 1
        assert rel_gap(out.Ubar, Ubar[skip:]) <= 1e-9
        assert rel_gap(out.Ybar, Ybar[skip:]) <= 1e-9
        assert mode_residual(cfg.target_mode, out.to_trajectory()) <= 1e-8

    @pytest.mark.parametrize("stateless", [False, True], ids=["states", "stateless"])
    def test_mimo_stepping_matches_batch(self, mimo, stateless):
        # Per-row gemv and batched gemm may round differently for n > 1.
        cfg, traj = mimo
        if stateless:
            traj = Trajectory(U=traj.U, Y=traj.Y)
        out = run_offline(cfg, traj)
        Ubar, Ybar = fold_steps(cfg, traj)
        assert Ubar.shape == out.Ubar.shape and Ybar.shape == out.Ybar.shape
        assert rel_gap(Ubar, out.Ubar) <= 1e-12
        assert rel_gap(Ybar, out.Ybar) <= 1e-12


class TestReconstructionMode:
    def test_unprimed_engine_withholds_then_matches_primed_run(self):
        mode = support.double_integrator()
        twin = support.double_integrator(mode_id=2)
        K = 30
        rng = np.random.default_rng(49)
        cfg = make_config(mode, twin, K, magnitude=1.0, seed=2)
        traj = support.random_trajectory(rng, mode, K)
        primed = run_offline(cfg, traj)
        stateless = Trajectory(U=traj.U, Y=traj.Y)
        blind = run_offline(cfg, stateless)
        assert blind.k_start == mode.n + 1
        skip = mode.n
        np.testing.assert_allclose(
            blind.Ybar, primed.Ybar[skip:], rtol=1e-9, atol=1e-10
        )
        np.testing.assert_allclose(
            blind.Ubar, primed.Ubar[skip:], rtol=1e-9, atol=1e-10
        )

    def test_withheld_steps_return_none(self):
        mode = support.double_integrator()
        twin = support.double_integrator(mode_id=2)
        K = 10
        rng = np.random.default_rng(50)
        cfg = make_config(mode, twin, K)
        traj = support.random_trajectory(rng, mode, K)
        engine = DistortionEngine(cfg)
        assert engine.step(traj.U[0], traj.Y[0]) is None
        assert engine.step(traj.U[1], traj.Y[1]) is None
        ubar, ybar = engine.step(traj.U[2], traj.Y[2])
        out = run_offline(cfg, Trajectory(U=traj.U, Y=traj.Y))
        assert rel_gap(ubar, out.Ubar[0]) <= 1e-12
        assert rel_gap(ybar, out.Ybar[0]) <= 1e-12

    def test_state_passed_mid_window_ends_reconstruction(self):
        # A state passed to ``step`` is the source state at that sample, at any k:
        # here k = 2 < n + 1, so only the first sample stays withheld.
        mode = support.double_integrator()
        K = 30
        cfg = make_config(mode, support.double_integrator(mode_id=2), K, magnitude=1.0, seed=2)
        traj = support.random_trajectory(np.random.default_rng(57), mode, K)
        out = run_offline(cfg, traj)
        engine = DistortionEngine(cfg)
        assert engine.step(traj.U[0], traj.Y[0]) is None
        rows = [
            engine.step(traj.U[k - 1] if k < K else None, traj.Y[k - 1], x=traj.X[k - 1])
            for k in range(2, K + 1)
        ]
        assert all(row is not None for row in rows)
        np.testing.assert_array_equal(np.array([row[1] for row in rows]), out.Ybar[1:])
        assert rel_gap(np.array([row[0] for row in rows[:-1]]), out.Ubar[1:]) <= 1e-12

    @pytest.mark.parametrize("bad", ["y", "u"])
    def test_non_finite_window_is_refused(self, bad):
        # A NaN in the window gives a NaN start state; the engine must not
        # report itself primed and emit NaN for the rest of the drive.
        mode = support.double_integrator()
        K = 10
        cfg = make_config(mode, support.double_integrator(mode_id=2), K)
        traj = support.random_trajectory(np.random.default_rng(51), mode, K)
        U, Y = traj.U.copy(), traj.Y.copy()
        (Y if bad == "y" else U)[1] = np.nan
        engine = DistortionEngine(cfg)
        assert engine.step(U[0], Y[0]) is None
        with pytest.raises(ValueError, match="not finite"):
            engine.step(U[1], Y[1])
        assert engine.step(U[2], Y[2]) is None

    @staticmethod
    def spoiled(shifted):
        """A MIMO pair with n = 4, a drive whose output ``shifted`` (0-based) moved by 1e-3,
        and an engine that has withheld samples 1 to n - 1 and refused sample n."""
        rng = np.random.default_rng(7)
        source, target = support.feedback_twin_pair(rng)
        cfg = make_config(source, target, 60, magnitude=1.0, seed=3)
        traj = support.random_trajectory(rng, source, 60)
        Y = traj.Y.copy()
        Y[shifted, 0] += 1e-3
        engine, n = DistortionEngine(cfg), source.n
        for k in range(n - 1):
            assert engine.step(traj.U[k], Y[k]) is None
        with pytest.raises(InconsistentDataError):
            engine.step(traj.U[n - 1], Y[n - 1])
        return cfg, traj, Y, engine

    def test_refused_window_then_state_emits_every_later_sample(self):
        # The refused sample is not consumed: given again with its state it emits,
        # and no later sample is withheld.
        cfg, traj, Y, engine = self.spoiled(1)
        n, K = cfg.true_mode.n, cfg.K
        rows = [engine.step(traj.U[n - 1], Y[n - 1], x=traj.X[n - 1])]
        rows += [engine.step(traj.U[k] if k < K - 1 else None, Y[k]) for k in range(n, K)]
        assert all(row is not None for row in rows)
        dY = cfg.plan.delta_Y.reshape(K, -1)
        np.testing.assert_array_equal(np.array([row[1] for row in rows]), Y[n - 1 :] + dY[n - 1 :])
        out = run_offline(cfg, traj)
        assert rel_gap(np.array([row[0] for row in rows[:-1]]), out.Ubar[n - 1 :]) <= 1e-12

    def test_refused_window_then_corrected_sample_reconstructs(self):
        # The shifted sample is the one refused: its corrected value completes the
        # window, and the engine emits the stateless replay of the clean drive.
        cfg, traj, _, engine = self.spoiled(3)
        n, K = cfg.true_mode.n, cfg.K
        assert engine.step(traj.U[n - 1], traj.Y[n - 1]) is None
        rows = [engine.step(traj.U[k] if k < K - 1 else None, traj.Y[k]) for k in range(n, K)]
        out = run_offline(cfg, Trajectory(U=traj.U, Y=traj.Y))
        np.testing.assert_array_equal(np.array([row[1] for row in rows]), out.Ybar)
        assert rel_gap(np.array([row[0] for row in rows[:-1]]), out.Ubar) <= 1e-12

    def test_scalar_stream_withholds_one_sample(self):
        # n = 1: the window is a single output and no input (K = 1 operators).
        true = support.scalar_mode(0.5)
        target = support.scalar_mode(0.8, mode_id=2)
        K = 40
        cfg = make_config(true, target, K, magnitude=1.0, seed=5)
        full = support.random_trajectory(np.random.default_rng(56), true, K)
        traj = Trajectory(U=full.U, Y=full.Y)
        out = run_offline(cfg, traj)
        Ubar, Ybar = fold_steps(cfg, traj)
        assert out.k_start == 2
        assert Ubar.shape == (K - 2, 1) and Ybar.shape == (K - 1, 1)
        # Past the window the engine carries the state sample by sample,
        # run_offline by the block scan: the outputs agree bitwise, the inputs to rounding.
        scale = np.max(np.abs(out.Ubar))
        np.testing.assert_allclose(Ubar, out.Ubar, rtol=0, atol=1e-13 * scale)
        np.testing.assert_array_equal(Ybar, out.Ybar)

    @pytest.mark.parametrize("K", [200, 2000])
    def test_unobservable_source_is_cloaked_without_states(self, K):
        # The vehicles measure acceleration only (observability rank 1 of 3).  The
        # fit returns the minimum-norm start state that explains the window, not
        # the true one; the two differ by a direction the outputs never see, so
        # the replay from it is still a trajectory of the target.
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        cfg = make_config(sports, average, K, magnitude=1.0, seed=3)
        rng = np.random.default_rng(5)
        full = simulate_mode(sports, rng.normal(size=3), rng.uniform(-1.0, 1.0, (K - 1, 1)))
        traj = Trajectory(U=full.U, Y=full.Y)
        x1 = reconstruct_state(sports, traj.U[:2], traj.Y[:3])
        assert np.linalg.norm(x1) < np.linalg.norm(full.X[0])
        np.testing.assert_allclose(simulate_mode(sports, x1, traj.U).Y, traj.Y, rtol=0, atol=1e-9)
        out = run_offline(cfg, traj)
        Ubar, Ybar = fold_steps(cfg, traj)
        assert out.k_start == 4 and Ybar.shape == (K - 3, 1)
        dY = cfg.plan.delta_Y.reshape(K, 1)
        np.testing.assert_array_equal(out.Ybar, traj.Y[3:] + dY[3:])
        np.testing.assert_array_equal(Ybar, out.Ybar)
        np.testing.assert_allclose(Ubar, out.Ubar, rtol=0, atol=1e-13 * np.max(np.abs(out.Ubar)))
        cloaked = out.to_trajectory()
        assert mode_residual(average, cloaked) <= 1e-12 < 1.0 < mode_residual(sports, cloaked)

    def test_stateless_run_too_short(self):
        mode = support.double_integrator()
        twin = support.double_integrator(mode_id=2)
        cfg = make_config(mode, twin, K=2)
        stateless = Trajectory(U=np.zeros((1, 1)), Y=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            run_offline(cfg, stateless)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("horizon", "trajectory horizon 11 does not match configured 10"),
            ("outputs", "trajectory dimensions do not match the source mode"),
            ("states", "states have dimension 2, expected 3"),
        ],
    )
    def test_run_offline_refusals_are_named(self, case, message):
        true, target = identical_pair(np.random.default_rng(40))
        cfg = make_config(true, target, K=10)
        rng = np.random.default_rng(57)
        traj = support.random_trajectory(rng, true, 10)
        bad = {
            "horizon": support.random_trajectory(rng, true, 11),
            "outputs": Trajectory(U=traj.U, Y=np.hstack([traj.Y, traj.Y]), X=traj.X),
            "states": Trajectory(U=traj.U, Y=traj.Y, X=traj.X[:, :2]),
        }[case]
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_offline(cfg, bad)


class TestReconstructState:
    def test_scalar_single_sample(self):
        mode = support.scalar_mode(0.5)
        x1 = reconstruct_state(mode, np.zeros((0, 1)), [[0.25]])
        np.testing.assert_allclose(x1, [0.25])

    def test_double_integrator_two_samples(self):
        # y(1) = x1, y(2) = x1 + 0.1 x2: from (1, 1.1) the start state is (1, 1).
        mode = support.double_integrator()
        x1 = reconstruct_state(mode, np.zeros((1, 1)), [[1.0], [1.1]])
        np.testing.assert_allclose(x1, [1.0, 1.0], atol=1e-10)

    def test_propagates_with_inputs(self):
        rng = np.random.default_rng(51)
        mode = support.random_valid_mode(rng, n=3)
        traj = support.random_trajectory(rng, mode, K=6)
        x1 = reconstruct_state(mode, traj.U, traj.Y)
        np.testing.assert_allclose(x1, traj.X[0], atol=1e-8)
        propagated = simulate_mode(mode, x1, traj.U).X[-1]
        np.testing.assert_allclose(propagated, traj.X[-1], atol=1e-8)

    def test_foreign_window_rejected(self):
        # Output data from a clearly different mode is not explainable.
        rng = np.random.default_rng(52)
        mode = support.double_integrator()
        other = support.random_valid_mode(rng, n=2)
        foreign = support.random_trajectory(rng, other, K=6)
        with pytest.raises(InconsistentDataError):
            reconstruct_state(mode, foreign.U, foreign.Y)

    def test_window_of_another_rank_rejected(self):
        mode = support.double_integrator()
        with pytest.raises(ValueError, match=r"window Y must be 1-D or 2-D.*\(2, 1, 1\)"):
            reconstruct_state(mode, np.zeros((1, 1)), np.ones((2, 1, 1)))
        with pytest.raises(ValueError, match=r"window U must be 1-D or 2-D.*\(\)"):
            reconstruct_state(mode, 0.0, [[1.0], [1.1]])

    def test_window_shorter_than_state_rejected(self):
        mode = support.double_integrator()
        with pytest.raises(ValueError):
            reconstruct_state(mode, np.zeros((0, 1)), [[1.0]])


class TestDeterminism:
    def test_bitwise_identical_runs(self):
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        K = 120
        rng = np.random.default_rng(53)
        traj = support.random_trajectory(rng, sports, K)
        first = run_offline(make_config(sports, average, K, 1.0, seed=11), traj)
        second = run_offline(make_config(sports, average, K, 1.0, seed=11), traj)
        assert np.array_equal(first.Ubar, second.Ubar)
        assert np.array_equal(first.Ybar, second.Ybar)

    def test_replay_is_np_dots_bit_for_bit(self, monkeypatch):
        # U Theta' is an outer product, (K - 1, 1) by (1, 1): linalg.product, not BLAS.
        bank = vehicle_demo_bank()
        K = 500
        traj = support.random_trajectory(np.random.default_rng(54), bank.mode(1), K)
        cfg = make_config(bank.mode(1), bank.mode(2), K, 1.0, seed=12)
        cloaked = run_offline(cfg, traj)
        monkeypatch.setattr(distort, "product", np.dot)
        reference = run_offline(cfg, traj)
        assert cloaked.Ubar.tobytes() == reference.Ubar.tobytes()
        assert cloaked.Ybar.tobytes() == reference.Ybar.tobytes()


class TestPipeline:
    K = 200

    @pytest.fixture()
    def scenario(self):
        bank = vehicle_demo_bank()
        sports, average = bank.mode(1), bank.mode(2)
        traj = support.random_trajectory(np.random.default_rng(71), sports, self.K)
        spec = UtilitySpec.average(self.K)
        return sports, average, traj, spec, design(sports, average, spec, 1.0, seed=4)

    def test_design_equals_hand_composition(self, scenario):
        sports, average, _, spec, cfg = scenario
        sol = solve_regulator_equations(sports, average)
        plan = solve_utility_invariance(
            build_lifted_operators(average, self.K), spec, magnitude=1.0, seed=4
        )
        assert cfg.K == self.K
        for name in ("Pi", "Gamma", "Theta"):
            assert np.array_equal(getattr(cfg.regulator, name), getattr(sol, name))
        for name in ("x2_init", "U2", "delta_Y"):
            assert np.array_equal(getattr(cfg.plan, name), getattr(plan, name))

    def test_design_and_cloak_judge_by_one_rule(self, scenario, monkeypatch):
        # design keeps a plan, and cloak a trajectory, by the one row test of
        # invariance._utility_kept: at the plan's norm, then at ||Y|| + ||Ybar||.
        sports, average, traj, spec, _ = scenario
        sizes, kept = [], invariance._utility_kept

        def spy(utility, change, size):
            assert utility is spec
            sizes.append(size)
            return kept(utility, change, size)

        for module in (invariance, distort):
            monkeypatch.setattr(module, "_utility_kept", spy)
        cloaked = cloak(design(sports, average, spec, 1.0, seed=4), traj, spec)
        norms = np.linalg.norm(traj.Y) + np.linalg.norm(cloaked.Ybar)
        assert len(sizes) == 2 and sizes[1] == pytest.approx(norms, rel=1e-15)
        assert not hasattr(distort, "_UTILITY_RTOL")

    def test_row_norms_are_measured_once_per_spec(self, scenario, monkeypatch):
        # A design and a cloak on one spec measure its one row once; a second design on
        # the same spec measures none.  A new spec: the scenario's design measured its own.
        sports, average, traj, _, _ = scenario
        spec, rows, norm = UtilitySpec.average(self.K), [], invariance.stable_norm

        def spy(x):
            rows.append(np.shares_memory(x, spec.F))
            return norm(x)

        monkeypatch.setattr(invariance, "stable_norm", spy)
        cloak(design(sports, average, spec, 1.0, seed=4), traj, spec)
        assert rows == [True]
        design(sports, average, spec, 1.0, seed=5)
        assert rows == [True]

    def test_overflowing_utility_row_is_refused_before_the_plan(self, scenario, monkeypatch):
        # A row of 1e308s has a norm past the float range: no change to it can be bounded.
        # design names F, not the plan of the mode, and runs no adjoint.
        sports, average, _, _, _ = scenario
        spec = UtilitySpec(F=np.full((1, self.K), 1e308), mu=[0.0], K=self.K)
        adjoint = []
        monkeypatch.setattr(modes.LiftedOperators, "apply_adjoint", lambda *a: adjoint.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the norm of F is not finite"):
                design(sports, average, spec, 1.0, seed=4)
        assert adjoint == []

    def test_cloak_equals_run_offline(self, scenario):
        _, _, traj, spec, cfg = scenario
        cloaked, offline = cloak(cfg, traj, spec), run_offline(cfg, traj)
        assert np.array_equal(cloaked.Ubar, offline.Ubar)
        assert np.array_equal(cloaked.Ybar, offline.Ybar)
        assert cloaked.k_start == 1

    def test_foreign_utility_fails_loudly(self, scenario):
        # The plan keeps the average; a ramp-weighted sum sees its distortion, which is
        # small enough here that a tolerance a million times too loose would miss it.
        sports, average, traj, spec, _ = scenario
        cfg = design(sports, average, spec, magnitude=1e-4, seed=4)
        ramp = UtilitySpec(F=[np.arange(1.0, self.K + 1) / self.K], mu=[0.0], K=self.K)
        with pytest.raises(UtilityChangedError, match="changes this utility by"):
            cloak(cfg, traj, ramp)

    @pytest.mark.parametrize("shift, kept", [(1e-11, True), (1e-6, False)])
    def test_check_tolerance(self, scenario, shift, kept):
        # A constant output shift of ``shift (1 + |F Y|)`` moves the average by as
        # much; the check allows 1e-8 ||F|| (||Y|| + ||Ybar||), 1.7e-8 here.
        _, _, traj, spec, cfg = scenario
        size = shift * (1.0 + abs(spec.F @ traj.Y.reshape(-1))[0])
        plan = KernelPlan(
            x2_init=np.zeros(3), U2=np.zeros((self.K - 1, 1)),
            delta_Y=np.full(self.K, size), residual=0.0,
        )
        shifted = DistortionConfig(cfg.true_mode, cfg.target_mode, cfg.regulator, plan, self.K)
        if kept:
            cloak(shifted, traj, spec)
        else:
            with pytest.raises(UtilityChangedError):
                cloak(shifted, traj, spec)

    @staticmethod
    def scaled_scenario(c, b):
        """The vehicles with C scaled by c and B by b, a drive, an average and a design."""
        sports, average = support.scaled_vehicles(c, b)
        K = 2000
        traj = support.random_trajectory(np.random.default_rng(72), sports, K)
        spec = UtilitySpec.average(K)
        return traj, spec, design(sports, average, spec, seed=4)

    @pytest.mark.parametrize(
        "c, b", [(1e-9, 1.0), (1e-3, 1.0), (1.0, 1.0), (1e3, 1.0), (1e6, 1.0), (1.0, 1e-9), (1e-9, 1e9)]
    )
    def test_designed_plans_pass_at_any_scale(self, c, b):
        traj, spec, cfg = self.scaled_scenario(c, b)
        cloak(cfg, traj, spec)

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e6])
    def test_forged_plan_is_refused_at_any_scale(self, c):
        # The target's free response from (0, 0, 5) moves this drive's average by
        # 119 % at every scale; at c = 1e-9 that is 1.6e-11, inside an absolute
        # 1e-8 bound.
        traj, spec, cfg = self.scaled_scenario(c, 1.0)
        forged = dataclasses.replace(cfg, plan=support.free_response_plan(cfg.target_mode, cfg.K))
        with pytest.raises(UtilityChangedError, match="changes this utility by"):
            cloak(forged, traj, spec)

    @pytest.mark.parametrize("name", ["Y", "F"])
    def test_overflowing_norm_is_refused_by_name(self, scenario, name):
        # An infinite ||Y|| + ||Ybar|| (a finite 1e308 output) or ||F_i|| (a row of
        # 1e308s) makes the bound hold for any gap; the check refuses by name, with no
        # warning.
        _, _, traj, spec, cfg = scenario
        if name == "Y":
            Y = traj.Y.copy()
            Y[6, 0] = 1e308
            traj = Trajectory(U=traj.U, Y=Y, X=traj.X)
        else:
            spec = UtilitySpec(F=[np.full(self.K, 1e308)], mu=[0.0], K=self.K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"the norm of {name} is not finite"):
                cloak(cfg, traj, spec)

    def test_stateless_trajectory_is_refused(self, scenario):
        _, _, traj, spec, cfg = scenario
        with pytest.raises(ValueError, match="must carry state columns"):
            cloak(cfg, Trajectory(U=traj.U, Y=traj.Y), spec)

    def test_input_of_another_rank_is_refused(self, scenario):
        # A (K - 1, 1, 1) input once replayed into a (K - 1, K - 1, 1) Ubar that
        # passed the utility check; no such trajectory reaches the cloak.
        _, _, traj, spec, cfg = scenario
        with pytest.raises(ValueError, match=r"trajectory U must be 1-D or 2-D.*\(199, 1, 1\)"):
            cloak(cfg, Trajectory(U=traj.U[:, :, None], Y=traj.Y, X=traj.X), spec)

    @pytest.mark.parametrize("K, m", [(199, 1), (200, 2)])
    def test_utility_of_another_shape_is_refused(self, scenario, K, m):
        _, _, traj, _, cfg = scenario
        with pytest.raises(ValueError, match=f"bound to K = {K}, m = {m}; .* K = 200, m = 1"):
            cloak(cfg, traj, UtilitySpec.average(K, m))
