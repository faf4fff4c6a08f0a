"""Command line front end.

Every run option can come from a key=value config file (`--config`), from a
flag (flags win), or stay at its default.  The output directory can also be
set with the PBESYNTH_OUTPUT_DIR environment variable.

Exit codes: 0 success, 2 configuration error, 3 task-format error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .lang import EvalLimits, LangError, format_term
from .dsl import default_list_dsl, load_library, save_library
from .task import TaskFormatError, load_tasks
from .synthesis import SearchConfig, UniformScorer, search
from .guidance import (
    TraceGenConfig, generate_traces, load_scorer, load_traces, save_scorer,
    save_traces, train_scorer,
)
from .librarian import MineConfig, mine
from .harness import (
    RunConfig, emit_plot_data, evaluate_runs, load_eval_report,
    load_solutions, run_sleep, run_wake, save_eval_report, save_solutions,
    wake_sleep_loop, write_json,
)

OUTPUT_DIR_ENV = "PBESYNTH_OUTPUT_DIR"


class ConfigError(Exception):
    pass


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(text):
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


_UNBOUNDED = object()  # `beam_size = none`; None is an option left unset


def _parse_beam_size(text):
    return _UNBOUNDED if text.strip().lower() == "none" else int(text)


# Config keys: every field of these sections whose default is a bool, int,
# float or str, parsed as that type and named as the field, except a
# renamed one; a field two sections share (random_seed) is one key.
_SECTIONS = (RunConfig, SearchConfig, TraceGenConfig, MineConfig)
_RENAMED = {(TraceGenConfig, "max_weight"): "tracegen_max_weight"}
_CONFIG_KEYS = {
    _RENAMED.get((cls, f.name), f.name):
        _parse_bool if type(f.default) is bool else type(f.default)
    for cls in _SECTIONS for f in fields(cls)
    if type(f.default) in (bool, int, float, str)}
_CONFIG_KEYS["max_eval_steps"] = int  # both sections' eval_limits.max_steps
_CONFIG_KEYS["beam_size"] = _parse_beam_size  # an int, or none: unbounded


def read_config_file(path) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = [p.strip() for p in line.split("=", 1)]
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    out[key] = _CONFIG_KEYS[key](value)
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value for {key}: {value!r}"
                    ) from None
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    return out


def build_run_config(opts: dict) -> RunConfig:
    """The run configuration with the options set in `opts`; every other
    field keeps its dataclass default.  A key names the field it sets,
    except `tracegen_max_weight` (TraceGenConfig.max_weight) and
    `max_eval_steps` (the max_steps of both sections' eval_limits)."""
    given = {k: None if v is _UNBOUNDED else v
             for k, v in opts.items() if v is not None}
    if "max_eval_steps" in given:
        given["eval_limits"] = EvalLimits(max_steps=given["max_eval_steps"])

    def picked(cls):
        keys = {f.name: _RENAMED.get((cls, f.name), f.name)
                for f in fields(cls)}
        return {name: given[k] for name, k in keys.items() if k in given}

    return RunConfig(
        search=SearchConfig(**picked(SearchConfig)),
        tracegen=TraceGenConfig(**picked(TraceGenConfig)),
        mining=MineConfig(**picked(MineConfig)),
        **picked(RunConfig))


def _gather_options(args) -> dict:
    opts = dict(read_config_file(args.config)) if args.config else {}
    for key in _CONFIG_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            opts[key] = v
    env_out = os.environ.get(OUTPUT_DIR_ENV)
    if env_out:
        opts["output_dir"] = env_out
    return opts


def _load_library(args):
    if getattr(args, "library", None):
        return load_library(args.library)
    return default_list_dsl()


def _load_scorer(args):
    if getattr(args, "scorer", None):
        return load_scorer(args.scorer)
    return UniformScorer()


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args, cfg: RunConfig):
    tasks = load_tasks(args.tasks)
    if args.task:
        tasks = [t for t in tasks if t.name == args.task]
        if not tasks:
            raise ConfigError(f"no task named {args.task!r}")
    lib = _load_library(args)
    scorer = _load_scorer(args)
    for task in tasks:
        r = search(task, lib, scorer, cfg.search)
        if r.solved:
            print(f"{task.name}: {format_term(r.program)}")
        else:
            print(f"{task.name}: no solution")
        print(f"  elapsed {r.elapsed:.3f}s, candidates "
              f"{r.candidates_evaluated}, restarts {r.restarts}")
    return 0


def cmd_wake(args, cfg: RunConfig):
    tasks = load_tasks(args.tasks)
    lib = _load_library(args)
    scorer = _load_scorer(args)
    wake = run_wake(tasks, lib, scorer, cfg.search, cfg.workers)
    save_solutions(wake.results, _out_path(cfg, "solutions.txt"))
    report = {
        "solved": wake.solved,
        "total": wake.total,
        "tasks": {t.name: {"solved": r.solved,
                           "candidates": r.candidates_evaluated}
                  for t, r in wake.results},
    }
    write_json(report, _out_path(cfg, "wake_report.json"))
    print(f"solved {wake.solved}/{wake.total}; wrote "
          f"{_out_path(cfg, 'solutions.txt')}")
    return 0


def cmd_sleep(args, cfg: RunConfig):
    tasks = load_tasks(args.tasks)
    by_name = {t.name: t for t in tasks}
    lib = _load_library(args)
    scorer = _load_scorer(args)
    corpus = load_solutions(args.solutions, lib, by_name)
    rep = run_sleep(corpus, lib, scorer, by_name, cfg.mining, cfg.tracegen,
                    cfg.random_seed, cfg.train_steps,
                    virtual_clock=cfg.search.virtual_clock)
    save_library(rep.library, _out_path(cfg, "library.txt"))
    save_scorer(rep.scorer, _out_path(cfg, "scorer.txt"))
    save_traces(rep.traces, _out_path(cfg, "traces.txt"))
    print(rep.mine_report or "no abstractions mined")
    print(f"library version {rep.library.version}, "
          f"{len(rep.abstractions)} new abstraction(s)")
    return 0


def cmd_loop(args, cfg: RunConfig):
    tasks = load_tasks(args.tasks)
    lib = _load_library(args)
    res = wake_sleep_loop(tasks, lib, cfg.output_dir, cfg)
    print(f"ran {res.iterations_run} iteration(s); solve counts "
          f"{res.solve_counts}; best iteration {res.best_iteration}")
    return 0


def cmd_trace_gen(args, cfg: RunConfig):
    lib = _load_library(args)
    data = generate_traces(lib, cfg.tracegen, cfg.search.virtual_clock)
    save_traces(data, _out_path(cfg, "traces.txt"))
    print(f"{len(data.episodes)} episodes, {len(data.steps)} steps -> "
          f"{_out_path(cfg, 'traces.txt')}")
    return 0


def cmd_train(args, cfg: RunConfig):
    data = load_traces(args.traces)
    init = _load_scorer(args)
    if isinstance(init, UniformScorer):
        init = None
    scorer = train_scorer(data, init=init, seed=cfg.random_seed,
                          max_steps=cfg.train_steps)
    save_scorer(scorer, _out_path(cfg, "scorer.txt"))
    for op, note in sorted(scorer.training_report.items()):
        print(f"{op}: {note}")
    return 0


def cmd_eval(args, cfg: RunConfig):
    tasks = load_tasks(args.tasks)
    lib = _load_library(args)
    scorer = _load_scorer(args)
    rep = evaluate_runs(tasks, lib, scorer, cfg.search, cfg.trials,
                        label=args.label)
    path = _out_path(cfg, f"eval_{args.label}.json")
    save_eval_report(rep, path)
    print(f"solve rate {rep.solve_rate_mean:.3f} "
          f"[{rep.solve_rate_low:.3f}, {rep.solve_rate_high:.3f}] -> {path}")
    return 0


def cmd_mine(args, cfg: RunConfig):
    tasks = load_tasks(args.tasks)
    by_name = {t.name: t for t in tasks}
    lib = _load_library(args)
    corpus = load_solutions(args.solutions, lib, by_name)
    res = mine(corpus, lib, by_name, cfg.mining)
    save_library(res.library, _out_path(cfg, "library.txt"))
    print(res.report or "nothing mined")
    return 0


def cmd_report(args, cfg: RunConfig):
    written = emit_plot_data(load_eval_report(args.eval_a),
                             load_eval_report(args.eval_b), cfg.output_dir)
    for p in written:
        print(p)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbesynth",
        description="Programming-by-example synthesis with library learning")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tasks=False, solutions=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--library", help="library file (default: bundled DSL)")
        p.add_argument("--scorer", help="scorer file (default: uniform)")
        if tasks:
            p.add_argument("--tasks", required=True, help="task file")
        if solutions:
            p.add_argument("--solutions", required=True,
                           help="solutions file from a wake run")
        for key, typ in _CONFIG_KEYS.items():
            p.add_argument("--" + key.replace("_", "-"), type=typ,
                           metavar="BOOL" if typ is _parse_bool else None)

    p = sub.add_parser("solve", help="solve tasks and print programs")
    common(p, tasks=True)
    p.add_argument("--task", help="solve only the named task")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("wake", help="solve a task set, save solutions")
    common(p, tasks=True)
    p.set_defaults(func=cmd_wake)

    p = sub.add_parser("sleep", help="mine abstractions and retrain")
    common(p, tasks=True, solutions=True)
    p.set_defaults(func=cmd_sleep)

    p = sub.add_parser("loop", help="full wake-sleep loop")
    common(p, tasks=True)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("trace-gen", help="generate training traces")
    common(p)
    p.set_defaults(func=cmd_trace_gen)

    p = sub.add_parser("train", help="train a scorer on traces")
    common(p)
    p.add_argument("--traces", required=True, help="trace file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a library and scorer")
    common(p, tasks=True)
    p.add_argument("--label", default="run", help="label in the report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mine", help="mine abstractions from solutions")
    common(p, tasks=True, solutions=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("report", help="emit plot CSVs from two eval reports")
    common(p)
    p.add_argument("--eval-a", required=True)
    p.add_argument("--eval-b", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(_gather_options(args))
        return args.func(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except TaskFormatError as e:
        print(f"task format error: {e}", file=sys.stderr)
        return 3
    except (LangError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
