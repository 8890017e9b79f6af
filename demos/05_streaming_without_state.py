"""Streaming with nothing but the sensor feed.

The replay ubar = Gamma x(k) + Theta u(k) wants a state x(k).
When only (u, y) samples arrive, the engine fits one after n samples by
deadbeat reconstruction; until then it withholds output.  The fit is the
minimum-norm state that explains those samples: for an observable mode it
is the true state, and otherwise it differs from it only where no output
can see, so the replay stays exact either way.  We use a double integrator
(position measured, n = 2), so exactly the first two samples are withheld.
"""

import numpy as np

from behaviorcloak import (
    DistortionConfig,
    DistortionEngine,
    KernelPlan,
    StateSpaceMode,
    reconstruct_state,
    simulate_mode,
    solve_regulator_equations,
)

print(__doc__)

plant = StateSpaceMode(1, A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.0], [0.1]], C=[[1.0, 0.0]])
target = StateSpaceMode(2, A=plant.A, B=plant.B, C=plant.C)

K = 12
rng = np.random.default_rng(4)
drive = simulate_mode(plant, rng.normal(size=2), rng.uniform(-1, 1, size=(K - 1, 1)))

sol = solve_regulator_equations(plant, target)
cfg = DistortionConfig(plant, target, sol, KernelPlan.zero(target, K), K)

engine = DistortionEngine(cfg)  # no initial state supplied
print("feeding samples;", f"state dimension n = {plant.n}")
for k in range(1, K + 1):
    u = drive.U[k - 1] if k < K else None
    out = engine.step(u, drive.Y[k - 1])
    if out is None:
        print(f"  k={k:2d}  withheld (reconstructing)")
    else:
        ubar, ybar = out
        shown = "-" if ubar is None else f"{ubar[0]: .4f}"
        print(f"  k={k:2d}  emit  ubar={shown}  ybar={ybar[0]: .4f}  y={drive.Y[k - 1, 0]: .4f}")

print()
print("Deadbeat reconstruction on its own:")
x1 = reconstruct_state(plant, drive.U[:3], drive.Y[:4])
print("  estimated start state :", x1)
print("  true start state      :", drive.X[0])
x4 = simulate_mode(plant, x1, drive.U[:3]).X[-1]
print("  simulated to sample 4 :", x4, " true:", drive.X[3])
