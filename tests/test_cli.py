"""End-to-end tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowprobe import experiments
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


# The paper-suite outputs are golden: a change that alters them must say so.
PAPER_SUITE_CHECK = """\
PASS fifo-capacity-200: capacity_rel_error=0.0000 usage_rel_error=0.0000
PASS fifo-capacity-400: capacity_rel_error=0.0000 usage_rel_error=0.0000
PASS lru-capacity-200: capacity_rel_error=0.0000 usage_rel_error=0.0000
PASS lru-capacity-400: capacity_rel_error=0.0000 usage_rel_error=0.0000
PASS fifo-stress-background: capacity_rel_error=0.0013 usage_rel_error=0.0010
"""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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


class TestModuleEntryPoint:
    def test_python_dash_m_flowprobe_help_exits_0(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        done = subprocess.run([sys.executable, "-m", "flowprobe", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: flowprobe")


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

    def test_config_naming_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["check", "--config", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: [Errno 21] Is a directory: "
                                f"'{tmp_path}'\n")

    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        # --out is checked before the run starts.
        def run_repeat(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(experiments, "run_repeat", run_repeat)
        assert main(["check", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "repeats=1", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: [Errno 21] Is a directory: "
                                f"'{tmp_path}'\n")

    @pytest.mark.parametrize("command, config, override", [
        ("bootstrap", "fifo400.json", "scenarios.9.seed=1"),
        ("bootstrap", "fifo400.json", "capacity.x=1"),
        ("bootstrap", "fifo400.json", "attack.bootstrap.foo=1"),
        ("infer", "paper-suite.json", "scenarios.9.seed=1"),
        ("infer", "fifo400.json", "backround_rate=50"),
        ("sweep", "paper-suite.json", "backround_rate=50"),
        ("infer", "fifo400.json", "attack.key_budget=0"),
        ("check", "paper-suite.json", "scenarios.4.attack.send_rate_pps=0"),
        ("infer", "fifo400.json", "timeouts.idel_ms=5"),
        ("infer", "fifo400.json", "latency.nosie=none"),
        ("characterize-rtt", "characterize.json", "n_per_stat=5"),
        ("characterize-rtt", "characterize.json", "n_per_state=x"),
        ("bootstrap", "fifo400.json", "capacity=x"),
        ("bootstrap", "fifo400.json", "latency.hit_ms=5"),
        ("sweep", "fifo400.json", "repeats=1.5"),
        ("infer", "fifo400.json", "seed=true"),
        ("infer", "fifo400.json", "latency.miss_full_ms=[8, \"x\"]"),
        ("infer", "fifo400.json", "timeouts.idle_ms=x"),
        ("check", "paper-suite.json", "scenarios.0.bounds.max_usage_rel_error=x"),
        ("infer", "fifo400.json", "attack.bootstrap.repeat=2.5"),
        ("infer", "fifo400.json", "attack.bootstrap=3"),
        ("infer", "fifo400.json", "timeouts.idle_ms=-5"),
        ("bootstrap", "fifo400.json", "timeouts.hard_ms=-1"),
        ("sweep", "paper-suite.json", "scenarios.4.background_rate=-1"),
        ("characterize-rtt", "characterize.json", "n_per_state=-5"),
        ("infer", "fifo400.json", "attack.hard_gap_ms=100"),
        ("infer", "fifo400.json", "attack.timeout_initial_ms=100"),
        ("infer", "fifo400.json", "latency.seed=3"),
        ("characterize-rtt", "characterize.json", "latency.seed=3"),
        ("check", "fifo400.json", "bounds.max_usage_rel_error=-1"),
        ("infer", "fifo400.json", "attack.capacity_guess=-3"),
        ("infer", "fifo400.json", "attack.bootstrap.inter_repeat_wait_ms=-1"),
        ("infer", "fifo400.json", "attack.bootstrap.filler_budget=-1"),
        ("infer", "fifo400.json", "attack.bootstrap.min_miss_samples=-1"),
        ("check", "fifo400.json", "name=5"),
        ("check", "fifo400.json", "name=[]"),
        ("check", "fifo400.json", "timeouts.idle_ms=1e-9"),
        ("check", "fifo400.json", "timeouts.hard_ms=1e-9"),
        ("check", "fifo400.json", "attack.send_rate_pps=1e-320"),
        ("check", "fifo400.json", "attack.send_rate_pps=5e-324"),
    ])
    def test_bad_override_path_exits_2(self, command, config, override, capsys):
        assert main([command, "--config", str(CONFIGS / config),
                     "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("path, where", [
        ("capacity", "scenario.capacity"),
        ("background_rate", "scenario.background_rate"),
        ("attack.send_rate_pps", "attack.send_rate_pps"),
        ("timeouts.idle_ms", "timeouts.idle_ms"),
    ])
    def test_integer_past_float_range_exits_2(self, path, where, capsys):
        huge = "1" + "0" * 400
        assert main(["check", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "repeats=1", "--set", f"{path}={huge}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {where} must be a finite number, "
                                f"got {huge}\n")

    @pytest.mark.parametrize("override, message", [
        ("timeouts.idle_ms=Infinity", "timeouts.idle_ms must be a finite "
                                      "number, got inf"),
        ("bounds.max_usage_rel_error=NaN", "bounds.max_usage_rel_error must "
                                           "be a finite number, got nan"),
    ])
    def test_non_finite_number_exits_2(self, override, message, capsys):
        assert main(["check", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "repeats=1", "--set", override]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_bands_sharing_a_drawn_microsecond_exit_2(self, capsys):
        # Disjoint in ms, but 0.3 ms and 0.3004 ms both draw 300 us.
        assert main(["sweep", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "repeats=1", "--set", "latency.hit_ms=[0.2, 0.3]",
                     "--set", "latency.miss_notfull_ms=[0.3004, 0.5]",
                     "--set", "latency.miss_full_ms=[0.8, 1.0]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: latency bands must be disjoint and ordered hit < "
            "miss_notfull < miss_full in us, got [(200, 300), (300, 500), "
            "(800, 1000)]\n")

    def test_bootstrap_repeat_without_a_timeout_exits_2(self, capsys):
        # Round 1 leaves the table full and nothing drains it, so round 2
        # would spend its whole filler budget without seeing a jump.
        assert main(["check", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "repeats=1", "--set", "attack.bootstrap.repeat=2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: attack.bootstrap.repeat=2 needs a hard or idle timeout: "
            "without one, no round after the first can see the table not full\n")

    @pytest.mark.parametrize("command", ["bootstrap", "measure-timeouts"])
    def test_first_phases_reject_a_multi_scenario_suite(self, command, capsys):
        assert main([command, "--config", str(CONFIGS / "paper-suite.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: {command} runs one scenario; "
                                "the config has 5\n")

    @pytest.mark.parametrize("text, argv", [
        ("5", ["check"]),
        ('"abc"', ["check", "--seed", "1"]),
        ("[1]", ["infer", "--seed", "1"]),
    ])
    def test_config_that_is_not_an_object_exits_2(self, text, argv, tmp_path,
                                                   capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: scenario must be an object, "
                                f"got {json.loads(text)!r}\n")


    @pytest.mark.parametrize("argv", [["check"], ["sweep", "--check"],
                                      ["infer"]])
    def test_empty_suite_exits_2(self, argv, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"scenarios": []}))
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: a suite needs at least one "
                                "scenario\n")


# Values for the exit-contract test, drawn per config path: negative, zero,
# tiny, subnormal, non-finite, wrong JSON types, lists and null, plus a few
# valid ones. None makes a C=64, repeats=1 `check` run long: there is no
# budget, capacity or count past 2 and no timeout or bootstrap wait above
# 1e-9 ms.
VALUES = ("-1", "0", "1e-9", "1e-300", "1e-320", "5e-324", "Infinity", "NaN",
          "null", "true", "x", "[]", "[1, 2]", "{}")
CONFIG_PATHS = (
    "name", "policy", "capacity", "initial_usage", "background_rate",
    "repeats", "seed", "timeouts", "timeouts.hard_ms", "timeouts.idle_ms",
    "latency", "latency.hit_ms", "latency.miss_notfull_ms",
    "latency.miss_full_ms", "latency.noise", "attack", "attack.send_rate_pps",
    "attack.key_budget", "attack.capacity_guess", "attack.bootstrap",
    "attack.bootstrap.ts1_ms", "attack.bootstrap.ts2_ms",
    "attack.bootstrap.repeat", "attack.bootstrap.filler_budget",
    "attack.bootstrap.jump_factor", "attack.bootstrap.min_miss_samples",
    "attack.bootstrap.inter_repeat_wait_ms", "bounds",
    "bounds.max_capacity_rel_error", "bounds.max_usage_rel_error",
)
POOLS = {path: VALUES for path in CONFIG_PATHS} | {
    # Small valid counts.
    path: VALUES + ("1", "2") for path in (
        "capacity", "initial_usage", "repeats", "seed", "attack.key_budget",
        "attack.capacity_guess", "attack.bootstrap.repeat",
        "attack.bootstrap.filler_budget", "attack.bootstrap.min_miss_samples")
} | {
    # A background rate of 1e-9 per s with a send rate of 1e-300 pps would
    # simulate about 1e291 arrivals per probe; at 1e-300 per s it is one.
    "background_rate": tuple(v for v in VALUES if v != "1e-9"),
    "policy": VALUES + ('"LRU"',),
    "latency.noise": VALUES + ('"none"', '"truncated-gaussian"'),
}
ASSIGNMENTS = st.sampled_from(CONFIG_PATHS).flatmap(
    lambda path: st.sampled_from(POOLS[path]).map(lambda v: f"{path}={v}"))


class TestExitContract:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(ASSIGNMENTS, min_size=1, max_size=3))
    @example(["attack.send_rate_pps=1e-320"])
    @example(["attack.send_rate_pps=5e-324"])
    @example(["background_rate=1e-320"])
    @example(["background_rate=5e-324"])
    @example(["capacity=1" + "0" * 400])
    @example(["background_rate=1" + "0" * 400])
    @example(["attack.send_rate_pps=1" + "0" * 400])
    @example(["timeouts.idle_ms=1" + "0" * 400])
    @example(["latency.miss_full_ms=[8, 1e306]"])
    @example(["timeouts.hard_ms=1e308"])
    @example(["timeouts.idle_ms=1e308"])
    @example(["attack.bootstrap.ts1_ms=1e308"])
    @example(["attack.bootstrap.ts2_ms=1e308"])
    @example(["attack.bootstrap.repeat=2", "attack.bootstrap.inter_repeat_wait_ms=1e308"])
    def test_check_exits_0_or_1_quietly_or_2_with_one_line(self, assignments):
        argv = ["check", "--config", str(CONFIGS / "fifo400.json"),
                "--set", "repeats=1", "--set", "capacity=64",
                "--set", "initial_usage=16"]
        for assignment in assignments:
            argv += ["--set", assignment]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        if code == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert err.endswith("\n") and out.getvalue() == ""
        else:
            assert code in (0, 1) and err == ""


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

    def test_csv_does_not_depend_on_the_shared_keys(self, capsys):
        argv = ["sweep", "--config", str(CONFIGS / "fifo400.json"),
                "--set", "repeats=2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # a second sweep in the process prints the same
        assert capsys.readouterr().out == first

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

    def test_only_check_reports_violations(self, suite_path, capsys):
        argv = ["sweep", "--config", suite_path, "--set",
                "scenarios.0.attack.key_budget=5"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main([*argv, "--check"]) == 1
        checked = capsys.readouterr()
        assert checked.out == plain.out
        assert checked.err.splitlines() == [
            "cli-fifo: repeat 0 failed: inference: no eviction of an attacker "
            "entry within 5 keys",
            "cli-fifo: repeat 1 failed: inference: no eviction of an attacker "
            "entry within 5 keys",
            "cli-fifo: no successful runs"]

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

    def test_status_is_per_scenario_not_per_name(self, tmp_path, capsys):
        # Two scenarios share a name; only the first breaks its zero bound.
        breaking = dict(FIFO_SCENARIO, background_rate=300.0,
                        attack={"send_rate_pps": 20_000.0},
                        bounds={"max_capacity_rel_error": 0.0})
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"scenarios": [breaking, FIFO_SCENARIO]}))
        assert main(["check", "--config", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL cli-fifo: ")
        assert lines[1].startswith("PASS cli-fifo: ")
        assert lines[2].startswith("cli-fifo: capacity relative error ")
        assert len(lines) == 3


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

    @pytest.mark.parametrize("command", ["bootstrap", "measure-timeouts"])
    def test_invalid_thresholds_are_a_domain_failure(self, command, capsys):
        # The pinned key expires after 50 ms idle, before its re-probe
        # ts1 = 100 ms later, so the hit-band sample is a miss; bootstrap
        # names ts1_ms rather than calibrating bands in the wrong order.
        code = main([command, "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "timeouts.idle_ms=50",
                     "--set", "attack.bootstrap.ts2_ms=0.1", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: bootstrap:")
        assert "ts1_ms" in captured.err
        assert captured.err.count("\n") == 1

    def test_first_phases_match_infer_repeat_zero(self, capsys):
        argv = ["--config", str(CONFIGS / "fifo400.json"), "--set", "repeats=1",
                "--set", "timeouts.idle_ms=5000", "--set", "timeouts.hard_ms=20000"]
        outputs = {}
        for command in ("bootstrap", "measure-timeouts", "infer"):
            assert main([command, *argv]) == 0
            outputs[command] = json.loads(capsys.readouterr().out)
        run = outputs["infer"]["runs"][0]
        timeouts = outputs["measure-timeouts"]
        assert outputs["bootstrap"] == run["thresholds"] == timeouts["thresholds"]
        assert timeouts["idle_timeout_ms"] == run["idle_timeout_measured_ms"]
        assert timeouts["hard_timeout_ms"] == run["hard_timeout_measured_ms"]
        assert run["hard_timeout_measured_ms"] is not None


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

    def test_fifo400_with_close_bands_names_both_causes(self, capsys):
        # fifo400 has no timeouts, so each pin's re-probe hits; but a hit
        # RTT of 0.2-0.3 ms is not 1.5 times below a 0.3006-0.5 ms miss band.
        assert main(["infer", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "latency.miss_notfull_ms=[0.3006,0.5]",
                     "--set", "latency.miss_full_ms=[0.8,1.0]"]) == 1
        payload = json.loads(capsys.readouterr().out)
        errors = [run["error"] for run in payload["runs"] if run["error"]]
        assert payload["failed_runs"] == len(errors) == 7
        for error in errors:
            assert "ts1_ms=100.0 ms after install took 0." in error
            assert "ms miss-band median" in error and "jump_factor=1.5" in error
            assert "entry timeout below ts1_ms expired it" in error
            assert "hit and miss bands lie closer together than jump_factor" in error

    def test_characterize_config(self, capsys):
        assert main(["characterize-rtt", "--config",
                     str(CONFIGS / "characterize.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hit"]["count"] == 100

    def test_characterize_config_is_byte_identical(self, capsys):
        assert main(["characterize-rtt", "--config",
                     str(CONFIGS / "characterize.json")]) == 0
        assert sha256(capsys.readouterr().out) == (
            "e90a549ab106979b44625ea1fdc8f5f9fae03e0ffce02b48b264eb8ec8213f69")

    def test_fifo400_at_a_send_rate_whose_gap_is_past_float_range(self, capsys):
        # A send gap of round(1e306) us: the burst's hit-run bound is
        # math.inf, and the cursor cannot be converted to a float.
        assert main(["check", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "repeats=1",
                     "--set", "attack.send_rate_pps=1e-300"]) == 0
        assert capsys.readouterr().out == (
            "PASS fifo-400: capacity_rel_error=0.0000 usage_rel_error=0.0000\n")

    def test_fifo400_at_a_background_rate_whose_gap_is_past_float_range(
            self, capsys):
        # 1e6 / 1e-320 us is past float range: no background flow arrives.
        assert main(["check", "--config", str(CONFIGS / "fifo400.json"),
                     "--set", "repeats=1",
                     "--set", "background_rate=1e-320"]) == 0
        assert capsys.readouterr().out == (
            "PASS fifo-400: capacity_rel_error=0.0000 usage_rel_error=0.0000\n")

    def test_paper_suite_check_passes(self, capsys):
        assert main(["check", "--config",
                     str(CONFIGS / "paper-suite.json")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out
        assert out == PAPER_SUITE_CHECK
        assert sha256(out) == ("a31b7be9920319efdd0831b89589480f"
                               "5f84e97803862e911ebec5a64e9925ba")

    def test_paper_suite_sweep_check_is_byte_identical(self, capsys):
        assert main(["sweep", "--check", "--config",
                     str(CONFIGS / "paper-suite.json")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert sha256(captured.out) == ("6dcb95e8b4e1088a869419da5b33f763"
                                        "07137bc9b4ccae22114afa988d3f3fa3")

    # paper-suite has no timeouts, so these two pin the timeout-probing path.
    @pytest.mark.parametrize("argv, digest", [
        # Measured idle 450 ms: measure_hard_timeout refreshes every 45 ms.
        (["measure-timeouts", "--set", "timeouts.idle_ms=500",
          "--set", "timeouts.hard_ms=3000"],
         "234a6f93716de48fec8eff85ddb14851b25c00287b5436588fa894e70bb4b8f5"),
        (["infer", "--set", "repeats=2", "--set", "timeouts.idle_ms=5000",
          "--set", "timeouts.hard_ms=20000"],
         "8ed2626251dae25e4a82a7c8b87b10fea476ff5ffd232bda90fc39451cc6447d"),
    ], ids=["measure-timeouts", "infer"])
    def test_fifo400_with_timeouts_is_byte_identical(self, argv, digest, capsys):
        assert main([*argv, "--config", str(CONFIGS / "fifo400.json")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert sha256(captured.out) == digest

