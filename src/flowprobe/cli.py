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
from dataclasses import asdict
from typing import Optional

from . import experiments
from .attacker import AttackError
from .netsim import LatencyModel

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


_LAST_PHASE = {"bootstrap": "bootstrap", "measure-timeouts": "hard_timeout"}


def _cmd_first_phases(args: argparse.Namespace) -> int:
    """Run repeat 0 of the config's one scenario up to the command's last
    phase."""
    scenarios = experiments.scenarios_from_config(_load_config(args))
    if len(scenarios) != 1:
        raise ValueError(f"{args.command} runs one scenario; the config has "
                         f"{len(scenarios)}")
    record = experiments.run_repeat(scenarios[0],
                                    last_phase=_LAST_PHASE[args.command])
    if record.error is not None:
        print(f"error: {record.error}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    thresholds = asdict(record.thresholds)
    if args.command == "bootstrap":
        _dump_json(args, thresholds)
    else:
        _dump_json(args, {
            "thresholds": thresholds,
            "idle_timeout_ms": record.idle_timeout_measured_ms,
            "hard_timeout_ms": record.hard_timeout_measured_ms,
        })
    return EXIT_OK


def _run_suite(args: argparse.Namespace) -> list[experiments.SweepResult]:
    return experiments.run_suite(
        experiments.scenarios_from_config(_load_config(args)))


def _cmd_infer(args: argparse.Namespace) -> int:
    results = _run_suite(args)
    payload = [result.to_dict() for result in results]
    _dump_json(args, payload[0] if len(payload) == 1 else payload)
    if any(result.failures for result in results):
        return EXIT_DOMAIN_ERROR
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    results = _run_suite(args)
    violations = ([v for result in results for v in result.violations]
                  if args.check else [])
    buffer = io.StringIO()
    experiments.write_sweep_csv(results, buffer)
    _write_output(args, buffer.getvalue())
    for violation in violations:
        print(violation, file=sys.stderr)
    return EXIT_DOMAIN_ERROR if violations else EXIT_OK


def _cmd_characterize(args: argparse.Namespace) -> int:
    config = experiments.checked_block(
        _load_config(args), ("latency", "n_per_state", "seed"), "config")
    latency = experiments.from_config(LatencyModel, config.get("latency", {}),
                                      "latency")
    n_per_state = experiments.checked_number(
        config.get("n_per_state", 100), "n_per_state", integer=True)
    if n_per_state < 0:
        raise ValueError("n_per_state must be >= 0")
    summary = experiments.rtt_characterization(
        latency,
        n_per_state=n_per_state,
        seed=experiments.checked_number(config.get("seed", 0), "seed", integer=True),
    )
    _dump_json(args, summary)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    lines, violations = [], []
    for result in _run_suite(args):
        found = result.violations
        violations.extend(found)
        status = "FAIL" if found else "PASS"
        lines.append(
            f"{status} {result.scenario.name}: capacity_rel_error="
            f"{_fmt(result.capacity_rel_error)} usage_rel_error="
            f"{_fmt(result.usage_rel_error)}"
        )
    lines.extend(violations)
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_DOMAIN_ERROR if violations else EXIT_OK


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.4f}"


_COMMANDS = {
    "bootstrap": _cmd_first_phases,
    "measure-timeouts": _cmd_first_phases,
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
        if args.out is not None:
            # Fail on an unwritable --out before the run; "a" leaves it as is.
            open(args.out, "a", encoding="utf-8").close()
        return _COMMANDS[args.command](args)
    except AttackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
