import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from so3mpc import AttitudeMpc, MpcConfig, SolverSettings
from so3mpc.cli import _design, default_config_dict, load_config, main, parse_config
from so3mpc.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


# Design file contents that load rejects, with the start of the message.
MALFORMED_DESIGNS = [
    ("", "invalid JSON"),
    ('{"h": 0.1}', "missing key 'Q_g'"),
    ("[]", "missing key 'Q_g'"),
]


@pytest.fixture()
def fast_config(tmp_path):
    """Small, quick configuration for CLI round trips."""
    cfg = default_config_dict()
    cfg["terminal"]["n_samples"] = 150
    cfg["experiment"]["n_steps"] = 4
    cfg["experiment"]["initial_attitude_axis_angle_rad"] = [0.2, 0.0, 0.1]
    cfg["mpc"]["N"] = 4
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# The reference configuration, written out: a change to a declaration in
# so3mpc.cli that moves a default fails here.  weights.Q_f has no entry, as
# it follows physical.J_kgm2.
REFERENCE_CONFIG = {
    "physical": {"J_kgm2": [1.0, 1.2, 1.5], "h_seconds": 0.1},
    "weights": {"Q_g": 1.0, "R": 2.0, "lambda": 0.1},
    "mpc": {"N": 10, "tau_max_Nm": 100.0, "solver": {}},
    "terminal": {"n_samples": 1000, "shrink": 0.9},
    "experiment": {
        "initial_attitude_axis_angle_rad": [0.0, 0.0, 3.141592653589793],
        "initial_rate_rad_s": [0.0, 0.0, 0.0],
        "n_steps": 120,
        "seed": 0,
        "distance_tol": 0.01,
    },
    "output": {"directory": "out", "csv_cadence_steps": 1, "snapshot_seconds": 2.0},
}

CONFIG_KEYS = [f"{section}.{key}" for section, entries in REFERENCE_CONFIG.items() for key in entries]


class TestConfigParsing:
    def test_reference_configuration(self):
        assert default_config_dict() == REFERENCE_CONFIG

    @pytest.mark.parametrize("key", CONFIG_KEYS + ["weights.Q_f"])
    def test_every_key_is_converted_and_named(self, key):
        section, name = key.split(".")
        with pytest.raises(ConfigError) as excinfo:
            parse_config({section: {name: ["x"]}})
        assert excinfo.value.key == key

    def test_defaults_parse(self):
        cfg = parse_config({})
        assert cfg.horizon == 10
        assert cfg.h == 0.1
        np.testing.assert_allclose(cfg.inertia, np.diag([1.0, 1.2, 1.5]))
        np.testing.assert_array_equal(cfg.initial_attitude, [0.0, 0.0, np.pi])
        # summary.json and verify_*.json record this snapshot.
        assert cfg.raw["weights"] == {"Q_g": 1.0, "Q_f": [1.0, 1.2, 1.5], "R": 2.0, "lambda": 0.1}

    def test_omitted_rate_weight_follows_inertia(self):
        cfg = parse_config({"physical": {"J_kgm2": [0.2, 1.0, 3.0]}})
        np.testing.assert_array_equal(cfg.weights.rate, np.diag([0.2, 1.0, 3.0]))
        assert cfg.raw["weights"]["Q_f"] == [0.2, 1.0, 3.0]
        full = [[1.0, 0.1, 0.0], [0.1, 1.2, 0.0], [0.0, 0.0, 1.5]]
        cfg = parse_config({"physical": {"J_kgm2": full}})
        np.testing.assert_array_equal(cfg.weights.rate, np.array(full))
        cfg = parse_config({"physical": {"J_kgm2": [0.2, 1.0, 3.0]}, "weights": {"Q_f": 1.0}})
        np.testing.assert_array_equal(cfg.weights.rate, np.eye(3))

    def test_scalar_and_diag_matrices(self):
        cfg = parse_config({"weights": {"Q_g": 2.0, "Q_f": [1.0, 2.0, 3.0]}})
        np.testing.assert_allclose(cfg.weights.attitude, 2.0 * np.eye(3))
        np.testing.assert_allclose(cfg.weights.rate, np.diag([1.0, 2.0, 3.0]))

    def test_bad_lambda_names_key(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"weights": {"lambda": 1.5}})
        assert "lambda" in str(excinfo.value)

    def test_bad_step_names_key(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"physical": {"h_seconds": -0.1}})
        assert "physical.h_seconds" in str(excinfo.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"typo_section": {}})

    @pytest.mark.parametrize(
        "section, key",
        [
            ("physical", "h_second"),
            ("weights", "Q_h"),
            ("mpc", "horizon"),
            ("terminal", "samples"),
            ("experiment", "steps"),
            ("output", "dir"),
        ],
    )
    def test_unknown_key_exits_2_naming_key(self, section, key, tmp_path, capsys):
        # Ignored before: {"physical": {"h_second": 0.5}} ran with h = 0.1.
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({section: {key: 0.5}}))
        assert main(["design", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"configuration error: {section}.{key}: unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize("directory", [None, 3, ""])
    def test_output_directory_must_be_a_string(self, directory):
        # A null directory used to write ./None/design.json.
        with pytest.raises(ConfigError, match=r"^output\.directory"):
            parse_config({"output": {"directory": directory}})

    def test_readme_example_config_accepted(self):
        example = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
        given = json.loads(example)
        cfg = parse_config(given)
        # It spells out the reference values, every solver setting included.
        assert list(given["mpc"]["solver"]) == [f.name for f in dataclasses.fields(SolverSettings)]
        assert cfg.solver == parse_config({}).solver
        cfg.raw["mpc"]["solver"] = {}
        assert cfg.raw == parse_config({}).raw

    def test_cli_defaults_are_the_library_defaults(self):
        cfg = parse_config({})
        cli_design = _design(cfg)
        controller = AttitudeMpc().fit()
        lib_design = controller.design_
        assert cli_design.P.tobytes() == lib_design.P.tobytes()
        assert cli_design.K.tobytes() == lib_design.K.tobytes()
        assert cli_design.c == lib_design.c
        assert cli_design.to_json_dict() == lib_design.to_json_dict()
        assert MpcConfig(horizon=cfg.horizon, solver=cfg.solver) == controller.config_
        assert cfg.torque_bound == controller.torque_bound

    def test_bad_solver_key_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"mpc": {"solver": {"max_iters": -3}}})
        assert excinfo.value.key == "mpc.solver.max_iters"

    @pytest.mark.parametrize("key, value", [("max_iters", 2.5), ("grad_tol", "nan")])
    def test_bad_solver_setting_exits_2_naming_field(self, key, value, tmp_path, capsys):
        # "nan" stands for a NaN, which strict JSON cannot hold.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mpc": {"solver": {key: value}}}).replace('"nan"', "NaN"))
        assert main(["design", "--config", str(path)]) == 2
        assert f"configuration error: mpc.solver.{key}: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("fd_step", 1e-6), ("step_max", 1e3), ("armijo_shrink", 0.5), ("ftol_rel", 1e-4), ("outer_rounds", 6)],
    )
    def test_removed_solver_key_exits_2_naming_key(self, key, value, tmp_path, capsys):
        # Solver constants, not settings, or a stop rule or the penalty
        # rounds, which are gone: even their own value is rejected.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mpc": {"solver": {key: value}}}))
        assert main(["design", "--config", str(path)]) == 2
        assert f"configuration error: mpc.solver.{key}: unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("physical", "J_kgm2", "abc"),
            ("physical", "J_kgm2", [1.0, -1.0, 1.0]),
            ("weights", "Q_g", ["a", "b", "c"]),
            ("weights", "Q_g", [1.0, -1.0, 1.0]),
            ("weights", "Q_f", [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ("weights", "Q_f", [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            ("weights", "R", -2.0),
        ],
    )
    def test_bad_matrix_exits_2_naming_key(self, section, key, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert main(["design", "--config", str(path)]) == 2
        assert f"configuration error: {section}.{key}" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("mpc", "N", "ten"),
            ("terminal", "n_samples", "ten"),
            ("terminal", "n_samples", 0),
            ("terminal", "shrink", "ten"),
            ("experiment", "n_steps", "ten"),
            ("experiment", "seed", "ten"),
            ("output", "csv_cadence_steps", "ten"),
        ],
    )
    def test_bad_number_exits_2_naming_key(self, section, key, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert main(["design", "--config", str(path)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("mpc", "N", "10"),
            ("mpc", "N", True),
            ("mpc", "tau_max_Nm", "5"),
            ("mpc", "tau_max_Nm", True),
            ("physical", "h_seconds", "0.1"),
            ("physical", "J_kgm2", True),
            ("physical", "J_kgm2", "2.0"),
            ("physical", "J_kgm2", [1.0, True, 1.0]),
            ("physical", "J_kgm2", [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]),
            ("weights", "Q_g", False),
            ("weights", "Q_f", ["1", "1", "1"]),
            ("weights", "R", [[True, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ("weights", "lambda", "0.1"),
            ("weights", "lambda", True),
            ("terminal", "n_samples", "150"),
            ("terminal", "shrink", True),
            ("experiment", "n_steps", True),
            ("experiment", "distance_tol", "0.01"),
            ("experiment", "initial_rate_rad_s", ["0", 0.0, 0.0]),
            ("experiment", "initial_attitude_axis_angle_rad", [False, 0.0, 1.0]),
            ("output", "snapshot_seconds", "2"),
        ],
    )
    def test_string_or_boolean_exits_2_naming_key(self, section, key, value, tmp_path, capsys):
        # Numbers spelled as JSON strings and booleans used to be read as
        # numbers: "10" as 10, true as 1 and J = true as the unit inertia.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {key: value}}))
        assert main(["design", "--config", str(path)]) == 2
        assert f"configuration error: {section}.{key}" in capsys.readouterr().err

    def test_string_and_boolean_config_rejected(self):
        # This config used to parse as horizon 10, bound 5.0 and J = I; the
        # inertia is parsed first, so it is the key named.
        with pytest.raises(ConfigError, match=r"physical\.J_kgm2"):
            parse_config({"mpc": {"N": "10", "tau_max_Nm": "5"}, "physical": {"J_kgm2": True}})
        with pytest.raises(ConfigError, match=r"mpc\.N"):
            parse_config({"mpc": {"N": "10", "tau_max_Nm": "5"}})

    def test_integral_float_and_infinite_bound_still_accepted(self):
        cfg = parse_config({"mpc": {"N": 8.0, "tau_max_Nm": float("inf")}, "weights": {"Q_g": 2}})
        assert cfg.horizon == 8 and isinstance(cfg.horizon, int)
        assert cfg.torque_bound == float("inf")
        np.testing.assert_array_equal(cfg.weights.attitude, 2.0 * np.eye(3))


class TestDesignCommand:
    def test_writes_design_and_reports(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["design", "--config", fast_config, "--out", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "terminal level c" in captured
        data = json.loads((tmp_path / "out" / "design.json").read_text())
        assert data["c"] > 0
        assert len(data["P"]) == 36

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"weights": {"lambda": 1.5}}))
        assert main(["design", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", [["design"], ["simulate"], ["verify", "conservation"]])
    def test_out_path_that_is_a_file_exits_2(self, command, fast_config, tmp_path, capsys):
        # Before, os.makedirs raised FileExistsError: a traceback and exit 1.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        design = tmp_path / "design.json"
        assert main(["design", "--config", fast_config, "--out", str(tmp_path), "--design", str(design)]) == 0
        capsys.readouterr()
        args = ["--config", fast_config, "--out", str(blocker), "--design", str(design)]
        assert main(command + args) == 2
        assert f"configuration error: --out: cannot create directory {blocker}" in capsys.readouterr().err

    def test_design_path_in_missing_directory_exits_2(self, fast_config, tmp_path, capsys):
        # The design runs (a few milliseconds), then save fails naming the path.
        target = str(tmp_path / "nodir" / "d.json")
        assert main(["design", "--config", fast_config, "--out", str(tmp_path / "out"), "--design", target]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {target!r}\n"

    def test_repeat_invocation_byte_identical(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["design", "--config", fast_config, "--out", out]) == 0
        first = (tmp_path / "out" / "design.json").read_bytes()
        assert main(["design", "--config", fast_config, "--out", out]) == 0
        assert (tmp_path / "out" / "design.json").read_bytes() == first


class TestSimulateCommand:
    def test_simulate_after_design(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["design", "--config", fast_config, "--out", out]) == 0
        code = main(["simulate", "--config", fast_config, "--out", out])
        assert code == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "diagnostics.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["steps"] == 4
        assert "config" in summary
        with open(tmp_path / "out" / "diagnostics.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert summary["total_solver_iters"] == sum(int(row["solver_iters"]) for row in rows)
        assert summary["total_solver_iters"] >= 1
        assert "converged" in capsys.readouterr().out

    def test_trajectory_cadence_keeps_step_labels(self, fast_config, tmp_path):
        with open(fast_config) as handle:
            cfg = json.load(handle)
        cfg["experiment"]["n_steps"] = 6
        cfg["output"]["csv_cadence_steps"] = 3
        path = tmp_path / "cadence.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        assert main(["design", "--config", str(path), "--out", out]) == 0
        assert main(["simulate", "--config", str(path), "--out", out]) == 0
        with open(os.path.join(out, "trajectory.csv")) as handle:
            rows = list(csv.DictReader(handle))
        assert [int(row["k"]) for row in rows] == [0, 3, 6]
        assert [float(row["t"]) for row in rows] == pytest.approx([0.0, 0.3, 0.6])

    def test_steps_outside_the_terminal_set_are_reported(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["design", "--config", fast_config, "--out", out]) == 0
        with open(fast_config) as handle:
            cfg = json.load(handle)
        # 0.01 Nm cannot reach the terminal set from 3 rad in four steps.
        # The run goes on and each row reports its excess.
        cfg["mpc"]["tau_max_Nm"] = 0.01
        cfg["mpc"]["solver"] = {"max_iters": 2}
        cfg["experiment"]["initial_attitude_axis_angle_rad"] = [3.0, 0.0, 0.0]
        path = tmp_path / "unreachable.json"
        path.write_text(json.dumps(cfg))
        design = os.path.join(out, "design.json")
        assert main(["simulate", "--config", str(path), "--out", out, "--design", design]) == 0
        with open(design) as handle:
            level = json.load(handle)["c"]
        with open(os.path.join(out, "diagnostics.csv")) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        for row in rows:
            assert row["feasible"] == "0"
            assert float(row["terminal_excess"]) == float(row["F_terminal"]) - level > 0.0

    def test_missing_design_exits_2(self, fast_config, tmp_path):
        out = str(tmp_path / "empty")
        assert main(["simulate", "--config", fast_config, "--out", out]) == 2

    @pytest.mark.parametrize(("content", "message"), MALFORMED_DESIGNS)
    def test_malformed_design_exits_2_naming_file(self, content, message, fast_config, tmp_path, capsys):
        # Before, JSONDecodeError or KeyError escaped: a traceback and exit 1.
        design = tmp_path / "design.json"
        design.write_text(content)
        args = ["--config", fast_config, "--out", str(tmp_path / "out"), "--design", str(design)]
        assert main(["simulate"] + args) == 2
        assert f"error: {design}: {message}" in capsys.readouterr().err


class TestVerifyCommand:
    def test_conservation_suite_passes(self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["verify", "conservation", "--config", fast_config, "--out", out])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "verify_conservation.json").read_text())
        assert payload["passed"] is True

    def test_local_law_suite_passes(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        code = main(["verify", "local-law", "--config", fast_config, "--out", out])
        assert code == 0

    def test_lyapunov_suite_passes(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        code = main(["verify", "lyapunov", "--config", fast_config, "--out", out])
        assert code == 0

    def test_missing_design_file_exits_2(self, fast_config, tmp_path, capsys):
        # Ignored before: verify designed afresh and exited 0.
        out = str(tmp_path / "out")
        missing = str(tmp_path / "nope.json")
        assert main(["verify", "local-law", "--config", fast_config, "--out", out, "--design", missing]) == 2
        assert capsys.readouterr().err == f"error: {missing}: cannot read: No such file or directory\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(("content", "message"), MALFORMED_DESIGNS)
    def test_malformed_design_exits_2_naming_file(self, content, message, fast_config, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(content)
        out = tmp_path / "out"
        args = ["--config", fast_config, "--out", str(out), "--design", str(design)]
        assert main(["verify", "all"] + args) == 2
        assert f"error: {design}: {message}" in capsys.readouterr().err
        # Read before any suite runs.
        assert not out.exists()

    def test_unknown_suite_exits_2(self, fast_config):
        assert main(["verify", "nonsense", "--config", fast_config]) == 2

    def test_seed_flag_overrides(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        code = main(["verify", "conservation", "--config", fast_config, "--out", out, "--seed", "5"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "verify_conservation.json").read_text())
        assert payload["suites"][0]["seed"] == 5


class TestDesignOutOfRange:
    @pytest.mark.parametrize(
        ("key", "value", "reason"),
        [
            ("h", -0.1, "must be positive and finite"),
            ("c", 0.0, "must be positive and finite"),
            # A level past the chart: the exponential map wraps its terminal set.
            ("c", 1e9, "1000000000.0 exceeds the chart ceiling"),
        ],
    )
    def test_simulate_exits_2_naming_key(self, key, value, reason, fast_config, tmp_path, capsys):
        # Before, such a file ran the closed loop and exited 0.
        out = str(tmp_path / "out")
        assert main(["design", "--config", fast_config, "--out", out]) == 0
        design = os.path.join(out, "design.json")
        data = json.loads(Path(design).read_text())
        data[key] = value
        Path(design).write_text(json.dumps(data))
        assert main(["simulate", "--config", fast_config, "--out", out]) == 2
        assert f"error: {design}: key '{key}': {reason}" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "summary.json"))

    def test_verify_exits_2_on_p_not_positive_definite(self, fast_config, tmp_path, capsys):
        assert main(["design", "--config", fast_config, "--out", str(tmp_path / "d")]) == 0
        design = tmp_path / "d" / "design.json"
        data = json.loads(design.read_text())
        data["P"] = [-x for x in data["P"]]
        design.write_text(json.dumps(data))
        out = tmp_path / "out"
        args = ["--config", fast_config, "--out", str(out), "--design", str(design)]
        assert main(["verify", "all"] + args) == 2
        assert f"error: {design}: key 'P': differs by 2.000e+00 relative" in capsys.readouterr().err
        assert not out.exists()


class TestExtremeInputs:
    """A finite but extreme step or inertia gives one line and exit 2; before,
    numpy's LinAlgError escaped with a traceback."""

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("h_seconds", 1e300, "error: Riccati solve broke down: overflow"),
            ("J_kgm2", [1e300, 1.0, 1.0], "error: no torque-to-rate map at the equilibrium: Singular matrix"),
        ],
        ids=["h", "J"],
    )
    def test_design_exits_2(self, key, value, message, fast_config, tmp_path, capsys):
        cfg = json.loads(Path(fast_config).read_text())
        cfg["physical"][key] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(cfg))
        assert main(["design", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("h", 1e300, "Riccati solve broke down: overflow"),
            ("J", [[1e300, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "no torque-to-rate map"),
        ],
        ids=["h", "J"],
    )
    def test_simulate_design_exits_2(self, key, value, message, fast_config, tmp_path, capsys):
        assert main(["design", "--config", fast_config, "--out", str(tmp_path / "d")]) == 0
        design = tmp_path / "d" / "design.json"
        data = json.loads(design.read_text())
        data[key] = value
        design.write_text(json.dumps(data))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["simulate", "--config", fast_config, "--out", str(out), "--design", str(design)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {design}: {message}")
        assert err.count("\n") == 1
        assert not out.exists()


class TestDirectoryInTheWay:
    """A directory where the CLI reads or writes a file exits 2 with one
    line naming the path; before, the OSError escaped with a traceback and
    exit 1, the code of a failed verification."""

    @staticmethod
    def blocked(path: Path) -> str:
        path.mkdir(parents=True)
        return str(path)

    def check_one_line(self, code, capsys, path):
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert path in err

    def test_default_design_file(self, fast_config, tmp_path, capsys):
        path = self.blocked(tmp_path / "out" / "design.json")
        code = main(["design", "--config", fast_config, "--out", str(tmp_path / "out")])
        self.check_one_line(code, capsys, path)

    def test_design_flag(self, fast_config, tmp_path, capsys):
        path = self.blocked(tmp_path / "named.json")
        code = main(["design", "--config", fast_config, "--out", str(tmp_path / "out"), "--design", path])
        self.check_one_line(code, capsys, path)

    @pytest.mark.parametrize("name", ["trajectory.csv", "summary.json"])
    def test_simulate_output(self, name, fast_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["design", "--config", fast_config, "--out", str(out)]) == 0
        path = self.blocked(out / name)
        capsys.readouterr()
        code = main(["simulate", "--config", fast_config, "--out", str(out)])
        self.check_one_line(code, capsys, path)

    @pytest.mark.parametrize("suite", ["conservation", "local-law"])
    def test_verify_output(self, suite, fast_config, tmp_path, capsys):
        path = self.blocked(tmp_path / "out" / f"verify_{suite}.json")
        code = main(["verify", suite, "--config", fast_config, "--out", str(tmp_path / "out")])
        self.check_one_line(code, capsys, path)

    @pytest.mark.parametrize("command", [["simulate"], ["verify", "local-law"]])
    def test_design_flag_read(self, command, fast_config, tmp_path, capsys):
        path = self.blocked(tmp_path / "design.json")
        code = main(command + ["--config", fast_config, "--out", str(tmp_path / "out"), "--design", path])
        self.check_one_line(code, capsys, path)
        assert not (tmp_path / "out").exists()


class TestDesignAgainstConfig:
    """A design file that the configuration contradicts: a key the file sets
    must match the design, and a key left at its default takes the design's
    value."""

    def design(self, fast_config, tmp_path, section, key, value):
        """The design of ``fast_config`` with one entry changed; its path."""
        with open(fast_config) as handle:
            cfg = json.load(handle)
        cfg[section][key] = value
        path = tmp_path / "other.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "design"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 0
        return str(out / "design.json")

    @pytest.mark.parametrize(
        ("section", "key", "value", "shown"),
        [
            ("physical", "h_seconds", 0.2, "is 0.1 in the configuration but 0.2"),
            ("physical", "J_kgm2", [0.8, 1.0, 1.3], "is [[1.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 1.5]]"),
            ("weights", "Q_g", 2.0, "is [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]"),
            ("weights", "R", 3.0, "is [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]"),
            ("weights", "lambda", 0.2, "is 0.1 in the configuration but 0.2"),
        ],
    )
    def test_configured_key_that_differs_exits_2(self, section, key, value, shown, fast_config, tmp_path, capsys):
        # Before, simulate and verify ran on the design's values and exited 0.
        design = self.design(fast_config, tmp_path, section, key, value)
        capsys.readouterr()
        for command in (["simulate"], ["verify", "all"]):
            out = tmp_path / "out"
            assert main(command + ["--config", fast_config, "--out", str(out), "--design", design]) == 2
            err = capsys.readouterr().err
            assert f"configuration error: {section}.{key}: {shown}" in err
            assert f"in the design file {design}" in err
            assert not out.exists()

    def test_default_keys_take_the_design_values(self, fast_config, tmp_path):
        design = self.design(fast_config, tmp_path, "physical", "h_seconds", 0.2)
        with open(fast_config) as handle:
            cfg = json.load(handle)
        del cfg["physical"]
        sparse = tmp_path / "sparse.json"
        sparse.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        args = ["--config", str(sparse), "--out", str(out), "--design", design]
        assert main(["simulate"] + args) == 0
        summary = json.loads((out / "summary.json").read_text())
        # The summary records what ran, not the default 0.1.
        assert summary["config"]["physical"]["h_seconds"] == 0.2
        with open(out / "trajectory.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[1]["t"]) == pytest.approx(0.2)
        # The conservation suite runs at the design's h and J as well.
        assert main(["verify", "conservation"] + args) == 0
        report = json.loads((out / "verify_conservation.json").read_text())["suites"][0]
        assert report["config"]["h"] == 0.2
        assert report["config"]["inertia"] == np.diag([1.0, 1.2, 1.5]).tolist()

    def test_conservation_suite_uses_the_design_inertia(self, fast_config, tmp_path):
        design = self.design(fast_config, tmp_path, "physical", "J_kgm2", [0.8, 1.0, 1.3])
        with open(fast_config) as handle:
            cfg = json.load(handle)
        del cfg["physical"]["J_kgm2"]
        sparse = tmp_path / "sparse.json"
        sparse.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["verify", "conservation", "--config", str(sparse), "--out", str(out), "--design", design]) == 0
        payload = json.loads((out / "verify_conservation.json").read_text())
        assert payload["suites"][0]["config"]["inertia"] == np.diag([0.8, 1.0, 1.3]).tolist()
        assert payload["config"]["physical"]["J_kgm2"] == np.diag([0.8, 1.0, 1.3]).tolist()


class TestUsage:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_module_entry_point(self):
        import so3mpc.__main__  # noqa: F401  (import succeeds)
