"""Distortion the utility cannot see.

The cloud must compute our average acceleration correctly, so any
distortion we add to the output trace has to average to zero, and it must
itself be a free response of the target car (otherwise the combined
trajectory would leave the target behaviour).  We steer the target
model's response into the kernel of the averaging map and can make the
distortion as large as we like.
"""

import numpy as np

from behaviorcloak import (
    UtilitySpec,
    build_lifted_operators,
    simulate_mode,
    solve_utility_invariance,
    vehicle_demo_bank,
)

np.set_printoptions(precision=5, suppress=True)

print(__doc__)

average_car = vehicle_demo_bank().mode(2)
K = 200
spec = UtilitySpec.average(K)
ops = build_lifted_operators(average_car, K)

print(f"horizon K = {K}, utility = per-trajectory mean")
print()

for magnitude in (1.0, 1e3, 1e6):
    plan = solve_utility_invariance(ops, spec, magnitude=magnitude, seed=5)
    delta = plan.delta_Y
    replay = simulate_mode(average_car, plan.x2_init, plan.U2)
    print(f"magnitude {magnitude:>9.1e}:")
    print(f"  ||delta||          = {np.linalg.norm(delta):.6e}")
    print(f"  mean(delta)        = {delta.mean(): .3e}   (invisible to the utility)")
    print(f"  solve residual     = {plan.residual:.3e}")
    print(
        "  replay check       =",
        np.max(np.abs(replay.stacked_outputs() - delta)),
        " (plan is an honest free response)",
    )

print()
print("Scaling closure: doubling a plan stays feasible (solutions form a subspace).")
plan = solve_utility_invariance(ops, spec, magnitude=1.0, seed=5)
doubled = simulate_mode(average_car, 2.0 * plan.x2_init, 2.0 * plan.U2)
print("  mean of doubled response:", doubled.stacked_outputs().mean())

print()
print("If the utility pins every sample (F invertible), only the zero plan exists:")
pinned = UtilitySpec(F=np.eye(3), mu=np.zeros(3), K=3)
ops3 = build_lifted_operators(average_car, 3)
try:
    solve_utility_invariance(ops3, pinned, magnitude=1.0, seed=0)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
