"""Geometric receding-horizon control of spacecraft attitude on SO(3).

The package couples a structure-preserving variational integrator on the
rotation group with a receding-horizon controller whose terminal cost,
terminal set, and local law come from a Riccati design in exponential
coordinates.  The control law is globally stabilizing and necessarily
discontinuous at the 180-degree branch cut, which the experiment suite
demonstrates executably.
"""

from .attitude import (
    AttitudeMpc,
    SpacecraftAttitudeSystem,
    rest_state,
    spinning_state,
)
from .errors import (
    ConfigError,
    NoConvergence,
    NoFeasibleLevel,
    NotPositiveDefinite,
    NotRotation,
    NotSolvable,
    NotStabilizable,
    OutOfChart,
    RolloutFailure,
    So3MpcError,
)
from .experiments import (
    audit_lyapunov,
    certify_local_law,
    probe_discontinuity,
    verify_conservation,
)
from .flat import DoubleIntegratorSystem
from .lgvi import SpacecraftState, lgvi_step, rollout
from .mpc import (
    ClosedLoopRun,
    ManifoldSystem,
    MpcConfig,
    MpcController,
    OcpSolution,
    QuadraticModel,
    SolverSettings,
    closed_loop,
    solve_ocp,
)
from .so3 import exp_so3, log_so3
from .terminal import (
    StageWeights,
    TerminalDesign,
    build_cost_data,
    build_linearization,
    default_weights,
    design_terminal,
)

__version__ = "0.1.0"

__all__ = [
    "AttitudeMpc",
    "ClosedLoopRun",
    "ConfigError",
    "DoubleIntegratorSystem",
    "ManifoldSystem",
    "MpcConfig",
    "MpcController",
    "NoConvergence",
    "NoFeasibleLevel",
    "NotPositiveDefinite",
    "NotRotation",
    "NotSolvable",
    "NotStabilizable",
    "OcpSolution",
    "OutOfChart",
    "QuadraticModel",
    "RolloutFailure",
    "So3MpcError",
    "SolverSettings",
    "SpacecraftAttitudeSystem",
    "SpacecraftState",
    "StageWeights",
    "TerminalDesign",
    "audit_lyapunov",
    "build_cost_data",
    "build_linearization",
    "certify_local_law",
    "closed_loop",
    "default_weights",
    "design_terminal",
    "exp_so3",
    "lgvi_step",
    "log_so3",
    "probe_discontinuity",
    "rest_state",
    "rollout",
    "solve_ocp",
    "spinning_state",
    "verify_conservation",
]
