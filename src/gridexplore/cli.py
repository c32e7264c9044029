"""Command line interface: run episodes, batches, replays, scenario
regressions, and standalone world generation.

Exit codes: 0 success, 1 episode/replay/scenario failure or an internal fault
(printed with its traceback), 2 invalid config (ConfigError only).
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from . import world as gw
from .harness import (
    ConfigError, ReplayError, WorldSpec, build_world,
    config_from_dict, load_config, load_json, replay, run_batch, run_episode,
    write_summary_csv,
)
from .scenarios import scenario_regressions


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.world.seed = args.seed
    record = run_episode(config, out_dir=args.out)
    print(f"planner={record.planner} steps={record.total_steps} "
          f"coverage={record.final_coverage_m2:.2f} m^2 "
          f"collisions={record.collisions} termination={record.termination}")
    return 0


def _cmd_batch(args) -> int:
    docs = load_json(args.configs)
    if not isinstance(docs, list):
        raise ConfigError("batch config file must contain a JSON list")
    configs = [config_from_dict(doc) for doc in docs]
    results, summary = run_batch(
        configs, repetitions=args.reps, parallelism=args.parallelism,
        out_dir=args.out,
    )
    failures = [r for r in results if not r["ok"]]
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_summary_csv(summary, str(Path(args.out) / "summary.csv"))
    for row in summary:
        if row["step"] == max(r["step"] for r in summary
                              if r["config_index"] == row["config_index"]):
            print(f"config {row['config_index']} [{row['planner']} on "
                  f"{row['generator']}]: mean {row['coverage_mean_m2']:.1f} m^2, "
                  f"rate {row['rate_mean_m2_per_min']:.1f} m^2/min")
    if failures:
        print(f"{len(failures)} episode(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args) -> int:
    result = replay(args.log, verify=args.verify)
    print(f"cycles={result.cycles} steps={result.steps} "
          f"truncated={result.truncated} mismatches={result.score_mismatches}")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_scenarios(args) -> int:
    results = scenario_regressions()
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {json.dumps(res.details, sort_keys=True)}")
        ok = ok and res.passed
    return 0 if ok else 1


def _generator_params() -> dict:
    """Each param of any registered generator, with its default."""
    return {name: default for _, defaults in gw.GENERATORS.values()
            for name, default in defaults.items()}


def _cmd_gen_world(args) -> int:
    """Only the param flags given are passed: the generator's signature holds
    the other defaults, and build_world refuses a param the generator does
    not take with a ConfigError."""
    params = {name: getattr(args, name) for name in _generator_params()
              if getattr(args, name) is not None}
    world = build_world(WorldSpec(generator=args.generator, seed=args.seed, params=params))
    gw.save_world(world, args.out)
    print(f"{args.generator} world ({world.width}x{world.height}, "
          f"{world.free_cell_count()} free cells) -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridexplore",
        description="Deterministic grid-world exploration simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single episode")
    p_run.add_argument("--config", required=True, help="run config JSON path")
    p_run.add_argument("--seed", type=int, default=None, help="world seed override")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run a batch of configured episodes")
    p_batch.add_argument("--configs", required=True, help="JSON list of run configs")
    p_batch.add_argument("--reps", type=int, default=1)
    p_batch.add_argument("--parallelism", type=int, default=1)
    p_batch.add_argument("--out", default=None)
    p_batch.set_defaults(func=_cmd_batch)

    p_replay = sub.add_parser("replay", help="replay and check an event log")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--verify", action="store_true",
                          help="re-run the episode and compare event streams")
    p_replay.set_defaults(func=_cmd_replay)

    p_scen = sub.add_parser("scenarios", help="run the scripted regression scenarios")
    p_scen.set_defaults(func=_cmd_scenarios)

    p_gen = sub.add_parser("gen-world", help="generate and save a world")
    p_gen.add_argument("--generator", required=True, choices=tuple(gw.GENERATORS))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    # flags from the registry, so that a new generator param needs no edit here
    for name, default in _generator_params().items():
        flag = "--" + name.replace("_", "-")
        takers = ", ".join(gen for gen, (_, params) in gw.GENERATORS.items() if name in params)
        shown = " ".join(map(str, default)) if isinstance(default, tuple) else default
        help_text = f"{takers}; default {shown}"  # e.g. "maze, cave; default 51"
        if isinstance(default, tuple):
            p_gen.add_argument(flag, type=type(default[0]), nargs=len(default), help=help_text)
        else:
            p_gen.add_argument(flag, type=type(default), help=help_text)
    p_gen.set_defaults(func=_cmd_gen_world)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except ReplayError as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - an internal fault exits 1 with its traceback
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
