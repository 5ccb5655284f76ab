"""Count self-test of the span tracer.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Solves small problems under the tracer and checks the traced counts against
hand counts of the central-difference shooting solver, and against counters
kept by the system object itself.  Exits with code 1 if any check fails.

Hand counts at horizon N = 10 with ``grad_tol=1e9``, so that the solver
stops at its first gradient: the gradient rolls out the horizon once and
then each tail twice per control entry, 10 + 2 m (10 + 9 + ... + 1) steps
and 1 + 2 m N terminal-cost calls, and the final feasibility check rolls out
once more.

- double integrator (m = 1), warm start: 130 steps, 22 terminal-cost calls;
  a cold start adds the 10-step steering rollout: 140 steps.
- attitude system (m = 3): one gradient is 340 steps and 61 rollouts, so a
  warm-started solve traces 350 steps and 62 terminal-cost calls.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    try:
        run.import_package()
    except ImportError as err:
        print(f"selftest: cannot import the package: {err}", file=sys.stderr)
        return 2
    import numpy as np

    import so3mpc
    import tracing

    class CountingIntegrator(so3mpc.DoubleIntegratorSystem):
        """Counts its own dynamics and terminal-cost calls."""

        def __init__(self):
            super().__init__()
            self.steps = 0
            self.terminal_calls = 0

        def step_with_margin(self, x, u):
            self.steps += 1
            return super().step_with_margin(x, u)

        def terminal_cost(self, x):
            self.terminal_calls += 1
            return super().terminal_cost(x)

    stop_at_first_gradient = so3mpc.MpcConfig(
        horizon=10, solver=so3mpc.SolverSettings(grad_tol=1e9)
    )
    inertia = np.diag([1.0, 1.2, 1.5])
    design = so3mpc.design_terminal(
        inertia, 0.1, so3mpc.default_weights(inertia), torque_bound=100.0, n_samples=200
    )
    attitude = so3mpc.SpacecraftAttitudeSystem(design)
    attitude_start = so3mpc.spinning_state([0.3, -0.2, 0.4], [0.02, -0.01, 0.015], 0.1)

    def traced(solve):
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            outcome = solve()
        finally:
            uninstall()
        table = tracing.SpanTable(tracer)
        counts = {name: table.count(name) for name in tracer.names}
        return counts, outcome, tracing.check_spans(tracer)

    def flat(warm: bool):
        system = CountingIntegrator()
        start = [1.0, -0.5]
        guess = np.zeros((10, 1)) if warm else None
        so3mpc.solve_ocp(system, start, stop_at_first_gradient, warm_start=guess)
        return system

    def attitude_solve():
        return so3mpc.solve_ocp(attitude, attitude_start, stop_at_first_gradient, warm_start=np.zeros((10, 3)))

    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    step = "mpc.ManifoldSystem.step_with_margin"
    flat_terminal = "flat.DoubleIntegratorSystem.terminal_cost"
    for warm, expected_steps in ((True, 130), (False, 140)):
        label = "warm" if warm else "cold"
        first, system, problems = traced(lambda: flat(warm))
        second, _, _ = traced(lambda: flat(warm))
        check(first[step] == expected_steps == system.steps,
              f"double integrator, {label} start: {first[step]} traced steps, "
              f"{system.steps} counted by the system, {expected_steps} by hand")
        check(first[flat_terminal] == 22 == system.terminal_calls,
              f"double integrator, {label} start: {first[flat_terminal]} traced terminal-cost calls, "
              f"{system.terminal_calls} counted by the system, 22 by hand")
        check(first == second, f"double integrator, {label} start: counts repeat exactly")
        check(not problems, f"double integrator, {label} start: spans consistent {problems}")

    first, _, problems = traced(attitude_solve)
    second, _, _ = traced(attitude_solve)
    lgvi_steps = first["lgvi.step_with_margin"]
    system_steps = first["attitude.SpacecraftAttitudeSystem.step_with_margin"]
    terminal = first["attitude.SpacecraftAttitudeSystem.terminal_cost"]
    check(lgvi_steps == system_steps == 350,
          f"attitude: {lgvi_steps} integrator steps, {system_steps} system steps, "
          "350 by hand (one gradient of 340 plus a 10-step check)")
    check(terminal == 62, f"attitude: {terminal} terminal-cost calls, 62 by hand (61 plus 1)")
    check(first == second, "attitude: counts repeat exactly")
    check(not problems, f"attitude: spans consistent {problems}")
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
