"""One hour of driving at 10 Hz: the K = 36000 horizon.

At this length the dense lifted Toeplitz matrix would hold 1.3 billion
entries, so it is never formed: the target model's state recursion is
run a block of samples at a time, with small dense products inside each
block.  The plan is one projection of a seeded input-space draw onto the
inputs whose response leaves the utility unchanged, built from one
batched adjoint apply over the utility rows.  The replay is closed form:
each cloaked sample is an affine function of the recorded sample and the
plan, evaluated for all 36000 samples at once.
"""

import time

import numpy as np

from behaviorcloak import UtilitySpec, classify, cloak, design, simulate_mode, vehicle_demo_bank

print(__doc__)

K = 36000
bank = vehicle_demo_bank()
sports, average = bank.mode(1), bank.mode(2)


def stage(label, fn):
    start = time.perf_counter()
    result = fn()
    print(f"  {label:<28s} {time.perf_counter() - start:6.2f}s")
    return result


print(f"horizon K = {K} (one hour at 0.1 s sampling)")
rng = np.random.default_rng(6)
drive = stage(
    "simulate the drive",
    lambda: simulate_mode(
        sports, rng.normal(size=3), rng.uniform(-1, 1, size=(K - 1, 1))
    ),
)
spec = UtilitySpec.average(K)
cfg = stage("regulator equations and plan", lambda: design(sports, average, spec, seed=7))
cloaked = stage("affine replay and check", lambda: cloak(cfg, drive, spec))
report = stage("classification", lambda: classify(bank, cloaked.to_trajectory()))

print()
print(f"plan residual ||F+ F dY||  : {cfg.plan.residual:.2e}")
print(f"plan input effort ||U2||   : {np.linalg.norm(cfg.plan.U2):.3f}")
print(f"||Ybar - Y||               : {np.linalg.norm(cloaked.Ybar - drive.Y):.9f}")
print(f"mean(Y) - mean(Ybar)       : {drive.Y.mean() - cloaked.Ybar.mean():.2e}")
print(f"cloaked verdict            : {report.verdict}")
print(f"residual vs true mode      : {report.residuals[1]:.3e}")
print(f"residual vs target mode    : {report.residuals[2]:.3e}")
