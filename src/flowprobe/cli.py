"""Command-line entry point for the simulator and attack pipeline.

Subcommands:
  bootstrap        calibrate RTT thresholds for a scenario
  measure-timeouts recover idle/hard timeout values by probing
  infer            run the full pipeline and report capacity/usage
  sweep            run one or more scenarios, emit per-run CSV
  characterize-rtt sample per-branch RTT distributions
  check            run a suite and verify its declared error bounds

Every subcommand reads a JSON config (--config), optionally patched by
dotted-path --set KEY=VALUE overrides and a --seed override. Output goes to
--out or stdout. Exit codes: 0 success, 1 domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Optional

from . import experiments
from .attacker import (
    AttackError,
    ProbeSession,
    TimeoutDisabled,
    bootstrap_thresholds,
    measure_hard_timeout,
    measure_idle_timeout,
)

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowprobe",
        description="SDN flow table simulator and capacity/usage inference toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bootstrap", "calibrate RTT classification thresholds"),
        ("measure-timeouts", "measure idle and hard timeouts by probing"),
        ("infer", "run the full inference pipeline on a scenario"),
        ("sweep", "run scenarios and emit one CSV row per run"),
        ("characterize-rtt", "sample per-branch RTT distributions"),
        ("check", "run a suite and verify its declared error bounds"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to JSON config")
        sub.add_argument("--out", default=None,
                         help="output path (default: stdout)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        sub.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="dotted-path config override, repeatable")
        if name == "sweep":
            sub.add_argument("--check", action="store_true",
                             help="also verify declared bounds; nonzero exit "
                                  "on violation")
    return parser


def _load_config(args: argparse.Namespace) -> dict:
    config = experiments.load_config(args.config)
    experiments.apply_overrides(config, args.overrides)
    if args.seed is not None:
        config["seed"] = args.seed
        for entry in experiments.scenario_entries(config):
            entry["seed"] = args.seed
    return config


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _dump_json(args: argparse.Namespace, payload) -> None:
    _write_output(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _thresholds_dict(thresholds) -> dict:
    return {
        "t1_ms": thresholds.t1_ms,
        "t2_ms": thresholds.t2_ms,
        "t3_ms": thresholds.t3_ms,
        "hit_cut_ms": thresholds.hit_cut_ms,
        "full_cut_ms": thresholds.full_cut_ms,
    }


def _cmd_bootstrap(args: argparse.Namespace) -> int:
    scenario = experiments.scenarios_from_config(_load_config(args))[0]
    sim = experiments._build_sim(scenario, scenario.seed, experiments._PHASE_BOOTSTRAP)
    session = ProbeSession(sim, scenario.attack.send_rate_pps)
    thresholds = bootstrap_thresholds(session, scenario.attack.bootstrap)
    _dump_json(args, _thresholds_dict(thresholds))
    return EXIT_OK


def _cmd_measure_timeouts(args: argparse.Namespace) -> int:
    scenario = experiments.scenarios_from_config(_load_config(args))[0]
    attack = scenario.attack
    sim = experiments._build_sim(scenario, scenario.seed, experiments._PHASE_BOOTSTRAP)
    thresholds = bootstrap_thresholds(
        ProbeSession(sim, attack.send_rate_pps), attack.bootstrap
    )

    sim = experiments._build_sim(scenario, scenario.seed, experiments._PHASE_IDLE)
    try:
        idle_ms: Optional[float] = measure_idle_timeout(
            ProbeSession(sim, attack.send_rate_pps), thresholds,
            initial_ms=attack.timeout_initial_ms,
            ceiling_ms=attack.timeout_ceiling_ms,
            resolution_ms=attack.timeout_resolution_ms,
        )
    except TimeoutDisabled:
        idle_ms = None

    gap_ms = attack.hard_gap_ms
    if idle_ms is not None:
        gap_ms = min(gap_ms, idle_ms / 10)
    sim = experiments._build_sim(scenario, scenario.seed, experiments._PHASE_HARD)
    try:
        hard_ms: Optional[float] = measure_hard_timeout(
            ProbeSession(sim, attack.send_rate_pps), thresholds,
            probe_gap_ms=gap_ms,
            ceiling_ms=attack.timeout_ceiling_ms,
            idle_timeout_ms=idle_ms,
        )
    except TimeoutDisabled:
        hard_ms = None

    _dump_json(args, {
        "thresholds": _thresholds_dict(thresholds),
        "idle_timeout_ms": idle_ms,
        "hard_timeout_ms": hard_ms,
    })
    return EXIT_OK


def _cmd_infer(args: argparse.Namespace) -> int:
    scenarios = experiments.scenarios_from_config(_load_config(args))
    results = experiments.run_suite(scenarios)
    payload = [result.to_dict() for result in results]
    _dump_json(args, payload[0] if len(payload) == 1 else payload)
    if any(result.failures for result in results):
        return EXIT_DOMAIN_ERROR
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.check:
        results, violations = experiments.check_suite(config)
    else:
        results = experiments.run_suite(experiments.scenarios_from_config(config))
        violations = []
    buffer = io.StringIO()
    experiments.write_sweep_csv(results, buffer)
    _write_output(args, buffer.getvalue())
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    return EXIT_OK


def _cmd_characterize(args: argparse.Namespace) -> int:
    config = _load_config(args)
    latency = experiments.latency_from_dict(config.get("latency", {}))
    summary = experiments.rtt_characterization(
        latency,
        n_per_state=config.get("n_per_state", 100),
        seed=config.get("seed", 0),
    )
    _dump_json(args, summary)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    config = _load_config(args)
    results, violations = experiments.check_suite(config)
    lines = []
    for result in results:
        status = "PASS"
        name = result.scenario.name
        if any(v.startswith(f"{name}:") for v in violations):
            status = "FAIL"
        lines.append(
            f"{status} {name}: capacity_rel_error="
            f"{_fmt(result.capacity_rel_error)} usage_rel_error="
            f"{_fmt(result.usage_rel_error)}"
        )
    lines.extend(violations)
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_DOMAIN_ERROR if violations else EXIT_OK


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.4f}"


_COMMANDS = {
    "bootstrap": _cmd_bootstrap,
    "measure-timeouts": _cmd_measure_timeouts,
    "infer": _cmd_infer,
    "sweep": _cmd_sweep,
    "characterize-rtt": _cmd_characterize,
    "check": _cmd_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except AttackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
