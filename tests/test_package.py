import ast
from pathlib import Path

import so3mpc

ROOT = Path(__file__).resolve().parent.parent

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


def _unused_imports(path: Path) -> list[str]:
    """Each name that ``path`` imports and never references, as
    ``file:line: name``; statements marked ``# noqa: F401`` are skipped."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for name in names if name not in used]
    return unused


def test_no_unused_imports():
    # The package root re-exports its imports through __all__.
    paths = [p for p in sorted((ROOT / "src" / "so3mpc").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []
