"""Two vehicles, one sensor: building and inspecting operation modes.

A fitness tracker has modes for walking and running; our device is a car
whose "mode" is its powertrain character.  We model a sports car (tiny
power-train lag, strong engine) and an average car (sluggish lag, weak
engine) as third-order longitudinal models, discretize them exactly at
10 Hz, and check which standing assumptions they satisfy.
"""

import numpy as np

from behaviorcloak import (
    longitudinal_vehicle_mode,
    simulate_mode,
    validate_mode,
    vehicle_demo_bank,
)

np.set_printoptions(precision=7, suppress=True)

print(__doc__)

sports = longitudinal_vehicle_mode(tau=0.01, beta=1.50, sample_period=0.1, mode_id=1)
average = longitudinal_vehicle_mode(tau=0.60, beta=0.70, sample_period=0.1, mode_id=2)

for name, mode in [("sports car", sports), ("average car", average)]:
    print(f"--- {name} (mode {mode.mode_id}) ---")
    print("A | B =")
    print(np.hstack([mode.A, mode.B]))
    print("C =", mode.C)

print()
print("Assumption checks")
print("-----------------")
for mode in vehicle_demo_bank():
    report = validate_mode(mode)
    verdict = "all hold" if report.passed else "some fail"
    print(f"mode {mode.mode_id}: {verdict}")
    for check in report.checks:
        status = "ok " if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: rank {check.rank} of {check.required}")

print()
print(
    "Note the observability failure: the sensor measures acceleration only,\n"
    "so absolute position and velocity are invisible.  Cloaking does not need\n"
    "them: without recorded states, deadbeat reconstruction (demo 05) fits\n"
    "the minimum-norm state that explains the first n samples, which emits\n"
    "the same outputs as the true one, so the replay stays exact."
)

print()
print("A short drive (seeded), acceleration trace of the sports car:")
rng = np.random.default_rng(0)
traj = simulate_mode(sports, rng.normal(size=3), rng.uniform(-1, 1, size=(9, 1)))
for k in range(traj.K):
    print(f"  k={k + 1:2d}  y={traj.Y[k, 0]: .5f}")
