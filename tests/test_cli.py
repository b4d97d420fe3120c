"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from flowprobe.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FIFO_SCENARIO = {
    "name": "cli-fifo",
    "policy": "FIFO",
    "capacity": 80,
    "initial_usage": 20,
    "repeats": 2,
    "seed": 5,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(FIFO_SCENARIO))
    return str(path)


@pytest.fixture
def suite_path(tmp_path):
    suite = {
        "scenarios": [
            dict(FIFO_SCENARIO,
                 bounds={"max_capacity_rel_error": 0.10,
                         "max_usage_rel_error": 0.15}),
        ]
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return str(path)


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 2
        capsys.readouterr()

    def test_missing_config_flag_exits_2(self, capsys):
        assert main(["infer"]) == 2
        capsys.readouterr()

    def test_nonexistent_config_file_exits_2(self, capsys):
        assert main(["infer", "--config", "/no/such/file.json"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, override", [
        ("bootstrap", "fifo400.json", "scenarios.9.seed=1"),
        ("bootstrap", "fifo400.json", "capacity.x=1"),
        ("bootstrap", "fifo400.json", "attack.bootstrap.foo=1"),
        ("infer", "paper-suite.json", "scenarios.9.seed=1"),
    ])
    def test_bad_override_path_exits_2(self, command, config, override, capsys):
        assert main([command, "--config", str(CONFIGS / config),
                     "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


class TestInfer:
    def test_reports_exact_capacity(self, config_path, capsys):
        assert main(["infer", "--config", config_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["truth_capacity"] == 80
        assert payload["mean_capacity"] == 80.0
        assert payload["mean_usage"] == 20.0
        assert payload["runs"][0]["report"]["f_capacity"] == 80

    def test_domain_failure_exits_1(self, config_path, capsys):
        code = main(["infer", "--config", config_path,
                     "--set", "attack.key_budget=5"])
        assert code == 1
        capsys.readouterr()

    def test_set_override_changes_capacity(self, config_path, capsys):
        assert main(["infer", "--config", config_path,
                     "--set", "capacity=40", "--set", "initial_usage=10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["truth_capacity"] == 40
        assert payload["mean_capacity"] == 40.0


class TestSweep:
    def test_csv_written_to_file_and_deterministic(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", config_path, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", config_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0].startswith("scenario,repeat,truth_capacity")
        assert len(lines) == 3

    def test_seed_override_changes_and_pins_output(self, config_path, tmp_path,
                                                   capsys):
        outs = []
        for seed, name in (("9", "a"), ("9", "b"), ("10", "c")):
            out = tmp_path / f"{name}.csv"
            assert main(["sweep", "--config", config_path, "--seed", seed,
                         "--set", "background_rate=40.0",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_sweep_check_flag_happy_path(self, suite_path, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", suite_path, "--check",
                     "--out", str(out)]) == 0


class TestCheck:
    def test_passing_suite_exits_0(self, suite_path, capsys):
        assert main(["check", "--config", suite_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS cli-fifo")

    def test_violated_suite_exits_1(self, suite_path, capsys):
        code = main(["check", "--config", suite_path,
                     "--set", "scenarios.0.background_rate=300.0",
                     "--set", "scenarios.0.attack.send_rate_pps=20000.0",
                     "--set", "scenarios.0.bounds.max_capacity_rel_error=0.0"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestBootstrapAndTimeouts:
    def test_bootstrap_outputs_thresholds(self, config_path, capsys):
        assert main(["bootstrap", "--config", config_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.2 <= payload["t1_ms"] <= 0.3
        assert 3.0 <= payload["t2_ms"] <= 5.0
        assert 8.0 <= payload["t3_ms"] <= 10.0
        assert payload["t1_ms"] < payload["hit_cut_ms"] < payload["t2_ms"]

    def test_measure_timeouts_reports_disabled_as_null(self, config_path,
                                                       capsys):
        assert main(["measure-timeouts", "--config", config_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["idle_timeout_ms"] is None
        assert payload["hard_timeout_ms"] is None

    def test_measure_timeouts_finite_idle(self, config_path, capsys):
        assert main(["measure-timeouts", "--config", config_path,
                     "--set", "timeouts.idle_ms=5000.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["idle_timeout_ms"] - 5000.0) <= 500.0


class TestCharacterize:
    def test_summary_shape(self, tmp_path, capsys):
        path = tmp_path / "char.json"
        path.write_text(json.dumps({"n_per_state": 25, "seed": 3}))
        assert main(["characterize-rtt", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"hit", "miss_notfull", "miss_full"}
        assert payload["hit"]["count"] == 25
        assert payload["miss_full"]["cdf"][-1][1] == 1.0


class TestShippedConfigs:
    def test_fifo400_infer(self, capsys):
        assert main(["infer", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "repeats=2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_capacity"] == 400.0

    def test_characterize_config(self, capsys):
        assert main(["characterize-rtt", "--config",
                     str(CONFIGS / "characterize.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hit"]["count"] == 100

    def test_paper_suite_check_passes(self, capsys):
        assert main(["check", "--config",
                     str(CONFIGS / "paper-suite.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out
