"""Making one car impersonate another, output-for-output.

The virtual average car must reproduce the sports car's measured
acceleration exactly, sample by sample, while staying an honest
trajectory of its own dynamics.  Solving three coupled matrix equations
gives the maps (Pi, Gamma, Theta).  The pipeline replays them as
ubar1(k) = Gamma x(k) + Theta u(k); with a stabilizing feedback gain they
assemble into the paper's static controller u1(k) = R xbar(k) + L x(k) + S u(k),
which emits the same input on the aligned state xbar = Pi x.
"""

import numpy as np

from behaviorcloak import (
    DistortionConfig,
    KernelPlan,
    build_tracking_controller,
    design_stabilizing_gain,
    run_offline,
    simulate_mode,
    solve_regulator_equations,
    vehicle_demo_bank,
)
from behaviorcloak.regulation import regulator_residuals

np.set_printoptions(precision=4, suppress=True)

print(__doc__)

bank = vehicle_demo_bank()
sports, average = bank.mode(1), bank.mode(2)

sol = solve_regulator_equations(sports, average)
print("Pi =")
print(sol.Pi)
print("Gamma =", sol.Gamma.ravel())
print("Theta =", sol.Theta.ravel())
residuals = regulator_residuals(sports, average, sol.Pi, sol.Gamma, sol.Theta)
print("relative equation residual (max-abs residual over max-abs term):", max(residuals))

gain = design_stabilizing_gain(average)
print()
print("feedback gain R =", gain.ravel())
print("closed-loop spectral radius:", np.abs(np.linalg.eigvals(average.A + average.B @ gain)).max())

ctrl = build_tracking_controller(sol, gain, average)
print("L =", ctrl.L.ravel(), " S =", ctrl.S.ravel())

print()
print("Replaying a seeded 500-sample drive through the virtual car:")
K = 500
rng = np.random.default_rng(1)
traj = simulate_mode(sports, rng.normal(size=3), rng.uniform(-1, 1, size=(K - 1, 1)))
zero = KernelPlan.zero(average, K)  # no distortion: ubar1 only
ubar1 = run_offline(DistortionConfig(sports, average, sol, zero, K), traj).Ubar
virtual = simulate_mode(average, sol.Pi @ traj.X[0], ubar1)  # the virtual car's own run
max_r = np.max(np.abs(virtual.Y - traj.Y))
max_e = np.max(np.linalg.norm(virtual.X - traj.X @ sol.Pi.T, axis=1))
print(f"  max |ybar1(k) - y(k)| = {max_r:.3e}   (traces are indistinguishable)")
print(f"  max state-alignment error = {max_e:.3e}")

print()
print("A perturbed virtual start decays geometrically instead of tracking:")
closed_loop = average.A + average.B @ ctrl.R
d = np.array([0.0, 0.0, 1.0])
for k in range(0, 60, 10):
    e = np.linalg.norm(np.linalg.matrix_power(closed_loop, k) @ d)
    print(f"  k={k + 1:3d}  ||e(k)|| = {e:.3e}")
