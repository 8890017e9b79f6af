"""Utility-preserving trajectory distortion for switched linear systems.

Given input-output data generated by one operation mode of a device, the
toolkit distorts it, in batch or sample by sample, so that the result is
exactly consistent with a chosen target mode while a known affine
functional of the output trajectory keeps its value.  A classifier
module scores trajectories by behaviour membership to verify that the
cloaking works.  The package root names what the demos, the README, the
benchmark and the acceptance tests use; the rest imports from its module.
"""

from .classify import classify, mode_residual
from .distort import (
    DistortionConfig,
    DistortionEngine,
    HorizonExhaustedError,
    InconsistentDataError,
    UtilityChangedError,
    cloak,
    design,
    reconstruct_state,
    run_offline,
)
from .invariance import (
    InvarianceInfeasibleError,
    KernelPlan,
    UtilitySpec,
    load_kernel_plan,
    save_kernel_plan,
    solve_utility_invariance,
)
from .linalg import nullspace_basis
from .modes import (
    LiftedOperators,
    ModeBank,
    StateSpaceMode,
    Trajectory,
    build_lifted_operators,
    load_mode_bank,
    longitudinal_vehicle_mode,
    read_trajectory_csv,
    save_mode_bank,
    simulate_mode,
    validate_mode,
    vehicle_demo_bank,
    write_trajectory_csv,
)
from .regulation import (
    GainDesignError,
    RegulationInfeasibleError,
    RegulatorSolution,
    TrackingController,
    build_tracking_controller,
    design_stabilizing_gain,
    load_controller,
    save_controller,
    solve_regulator_equations,
)

__version__ = "0.1.0"
