import ast
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import so3mpc
from so3mpc import cli

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


# Parameters with a default, over every function, method and lambda of the
# package.  A default is an option; options come only where a caller
# chooses, so lower this when one goes and never raise it to pass.
DEFAULTED_PARAMETER_CEILING = 38

# Configuration knobs: the declared keys of the CLI configuration, with
# mpc.solver counted as the SolverSettings fields it takes.  Lower this when
# one goes and never raise it to pass.
CONFIGURATION_KNOB_CEILING = 21


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


def _module_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The names that a module's top-level statements define, with lines;
    dunder names such as ``__all__`` are left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                (t.id, node.lineno) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)
            ]
    return [(name, line) for name, line in names if not name.startswith("__")]


def _code_references(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes or imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_module_level_definition_is_referenced():
    # A name that no code in src/ uses, no benchmark file names and the
    # README does not document is an orphan, such as a helper left behind
    # when two implementations were merged.
    trees = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "so3mpc").glob("*.py"))}
    code_refs = set().union(*(_code_references(tree) for tree in trees.values()))
    text = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    text += (ROOT / "README.md").read_text()
    text_refs = set(re.findall(r"\w+", text))
    orphans = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in _module_definitions(tree)
        if name not in code_refs and name not in text_refs
    ]
    assert orphans == []


def test_every_constant_the_readme_names_is_defined():
    # A backticked UPPER_CASE name in the README, bare or module-qualified,
    # is a module-level name of src/; a constant deleted from the code
    # leaves none behind in the documentation.
    constant = r"`(?:\w+\.)*([A-Z][A-Z0-9]*_[A-Z0-9_]*|[A-Z]{2,}[A-Z0-9]*)`"
    names = set(re.findall(constant, (ROOT / "README.md").read_text()))
    defined = {
        name
        for path in sorted((ROOT / "src" / "so3mpc").glob("*.py"))
        for name, _ in _module_definitions(ast.parse(path.read_text()))
    }
    assert len(names) >= 10
    assert sorted(names - defined) == []


def test_every_manifold_system_member_is_read_by_the_solver():
    # The contract keeps only members the solver uses: each member of
    # ManifoldSystem is read as an attribute somewhere in mpc.py outside the
    # class.
    tree = ast.parse((ROOT / "src" / "so3mpc" / "mpc.py").read_text())
    contract = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ManifoldSystem")
    members = set()
    for node in contract.body:
        if isinstance(node, ast.FunctionDef):
            members.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            members.update(target.id for target in targets if isinstance(target, ast.Name))
    read = {
        node.attr
        for statement in tree.body
        if statement is not contract
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert len(members) >= 10
    assert sorted(members - read) == []


def _defaulted_parameters(path: Path) -> list[str]:
    """Each parameter with a default in ``path``, as ``file:line: name(arg)``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            name = getattr(node, "name", "<lambda>")
            found += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}({arg.arg})" for arg in defaulted]
    return found


def test_defaulted_parameters_within_ceiling():
    paths = sorted((ROOT / "src" / "so3mpc").glob("*.py"))
    found = [entry for path in paths for entry in _defaulted_parameters(path)]
    assert len(found) <= DEFAULTED_PARAMETER_CEILING, "\n".join(found)


def test_configuration_knobs_within_ceiling():
    knobs = [key for key in cli._DECLARED if key != "mpc.solver"]
    knobs += [f"mpc.solver.{f.name}" for f in dataclasses.fields(so3mpc.SolverSettings)]
    assert len(knobs) <= CONFIGURATION_KNOB_CEILING, "\n".join(knobs)


def test_benchmark_tracer_selftest_passes():
    # The benchmark's hand counts of one first-gradient solve (350 integrator
    # steps and 62 terminal-cost calls for the attitude system) must hold
    # for every change that keeps the finite-difference gradient.
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: 0 failed" in done.stdout.splitlines()
