import so3mpc

# Names the benchmark in perfbench/ resolves on the package root.
BENCHMARK_NAMES = {
    "AttitudeMpc",
    "DoubleIntegratorSystem",
    "MpcConfig",
    "So3MpcError",
    "SolverSettings",
    "SpacecraftAttitudeSystem",
    "TerminalDesign",
    "audit_lyapunov",
    "build_cost_data",
    "build_linearization",
    "certify_local_law",
    "default_weights",
    "design_terminal",
    "rest_state",
    "solve_ocp",
    "spinning_state",
}


def test_every_exported_name_resolves():
    missing = [name for name in so3mpc.__all__ if not hasattr(so3mpc, name)]
    assert missing == []
    assert len(set(so3mpc.__all__)) == len(so3mpc.__all__)


def test_benchmark_names_exported():
    assert BENCHMARK_NAMES <= set(so3mpc.__all__)
