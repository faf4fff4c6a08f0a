"""Command line interface tests."""

import json
import os
import subprocess
import sys

import pytest

import pbesynth
from pbesynth.cli import (
    _CONFIG_KEYS, ConfigError, _parse_beam_size, _parse_bool,
    build_run_config, main, read_config_file,
)
from pbesynth.harness import EvalReport, RunConfig, save_eval_report
from pbesynth.dsl import (
    DSLibrary, default_list_dsl, load_library, save_library,
)
from pbesynth.lang import parse_type

TASKS_TEXT = """\
name: rev
inputs: xs:IntList
ex: xs=[2,1,3] -> [3,1,2]
ex: xs=[5,4] -> [4,5]

name: srt
inputs: xs:IntList
ex: xs=[2,1,3] -> [1,2,3]
ex: xs=[5,4] -> [4,5]

name: inc_head
inputs: xs:IntList
ex: xs=[2,1] -> 3
ex: xs=[7,0,3] -> 8
"""

FAST_FLAGS = ["--per-task-timeout", "5", "--restart-interval", "5",
              "--max-weight", "4", "--virtual-clock", "true",
              "--restarts-enabled", "false", "--episode-timeout", "10",
              "--per-abstraction-bonus", "0", "--episodes", "3",
              "--targets-per-episode", "3", "--tracegen-max-weight", "3",
              "--train-steps", "300", "--trials", "1"]


@pytest.fixture
def tasks_file(tmp_path):
    p = tmp_path / "tasks.txt"
    p.write_text(TASKS_TEXT)
    return str(p)


@pytest.fixture
def small_library(tmp_path):
    full = default_list_dsl()
    lib = DSLibrary([o for o in full.operations
                     if o.name in ("Add", "Head", "Reverse", "Sort")],
                    full.constants)
    p = tmp_path / "lib.txt"
    save_library(lib, str(p))
    return str(p)


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_read_config_file_parses_values_and_comments(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# a comment\n"
                 "iterations = 2\n"
                 "per_task_timeout = 1.5  # trailing comment\n"
                 "virtual_clock = yes\n"
                 "\n")
    opts = read_config_file(str(p))
    assert opts == {"iterations": 2, "per_task_timeout": 1.5,
                    "virtual_clock": True}


def test_read_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("no_such_option = 1\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))


def test_read_config_file_rejects_bad_value(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("iterations = soon\n")
    with pytest.raises(ConfigError):
        read_config_file(str(p))


def test_config_keys_are_the_config_fields():
    # the table that was kept by hand beside the config dataclasses
    assert _CONFIG_KEYS == {
        "iterations": int, "trials": int, "workers": int,
        "random_seed": int, "train_steps": int, "output_dir": str,
        "per_task_timeout": float, "restart_interval": float,
        "beam_size": _parse_beam_size, "max_weight": int,
        "stop_on_solve": _parse_bool, "virtual_clock": _parse_bool,
        "restarts_enabled": _parse_bool, "max_eval_steps": int,
        "episode_timeout": float,
        "per_abstraction_bonus": float, "tracegen_max_weight": int,
        "episodes": int, "targets_per_episode": int, "max_negatives": int,
        "examples_per_episode": int, "max_arity": int, "max_rounds": int,
        "min_tasks": int, "min_nonvariable": int, "max_visited": int,
    }


@pytest.mark.parametrize("form", ["flag", "file"])
@pytest.mark.parametrize("key", ["stop_on_solve", "virtual_clock",
                                 "restarts_enabled"])
def test_bad_boolean_exits_2(tmp_path, tasks_file, key, form, capsys):
    if form == "flag":
        # it used to end in a ConfigError traceback with exit 1
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as stop:
            run_cli("solve", "--tasks", tasks_file, flag, "maybe")
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: invalid" in err and "'maybe'" in err
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = maybe\n")
        assert run_cli("solve", "--tasks", tasks_file,
                       "--config", str(path)) == 2
        assert capsys.readouterr().err == \
            f"config error: {path}:1: bad value for {key}: 'maybe'\n"


def test_build_run_config_keeps_dataclass_defaults():
    assert build_run_config({}) == RunConfig()
    cfg = build_run_config({"max_weight": 6, "tracegen_max_weight": 4,
                            "random_seed": 3, "max_visited": None})
    assert (cfg.search.max_weight, cfg.tracegen.max_weight) == (6, 4)
    assert cfg.random_seed == cfg.search.random_seed == \
        cfg.tracegen.random_seed == 3
    assert cfg.mining == RunConfig().mining


def test_build_run_config_defaults_and_overrides():
    cfg = build_run_config({})
    assert cfg.iterations == 10 and cfg.search.beam_size == 10
    cfg = build_run_config({"iterations": 3, "beam_size": 7,
                            "max_eval_steps": 123})
    assert cfg.iterations == 3
    assert cfg.search.beam_size == 7
    assert cfg.search.eval_limits.max_steps == 123
    assert cfg.tracegen.eval_limits.max_steps == 123


def test_flag_overrides_config_file(tmp_path, tasks_file, small_library,
                                    capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("max_weight = 1\n")  # too small to solve inc_head
    code = run_cli("solve", "--tasks", tasks_file, "--library", small_library,
                   "--config", str(cfgfile), "--max-weight", "4",
                   "--virtual-clock", "true", "--per-task-timeout", "5",
                   "--restart-interval", "5")
    assert code == 0
    out = capsys.readouterr().out
    # solving inc_head needs weight 3; the config file capped weight at 1,
    # so the flag must have won
    assert "inc_head: (Add " in out
    assert "inc_head: no solution" not in out


def test_output_dir_env_variable(tmp_path, tasks_file, small_library,
                                 monkeypatch, capsys):
    outdir = tmp_path / "from_env"
    monkeypatch.setenv("PBESYNTH_OUTPUT_DIR", str(outdir))
    code = run_cli("wake", "--tasks", tasks_file, "--library", small_library,
                   *FAST_FLAGS)
    assert code == 0
    assert (outdir / "solutions.txt").exists()
    assert (outdir / "wake_report.json").exists()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_config_error_exits_2(tmp_path, tasks_file, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nonsense = 1\n")
    code = run_cli("solve", "--tasks", tasks_file, "--config", str(cfgfile))
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tasks_file, capsys):
    code = run_cli("solve", "--tasks", tasks_file,
                   "--config", "/nonexistent/run.cfg")
    assert code == 2


def test_task_format_error_exits_3(tmp_path, capsys):
    p = tmp_path / "bad_tasks.txt"
    p.write_text("name: broken\ninputs: xs:NoSuchType\nex: xs=[1] -> 1\n")
    code = run_cli("solve", "--tasks", str(p))
    assert code == 3
    assert "task format error" in capsys.readouterr().err


def test_unknown_task_name_exits_2(tasks_file, capsys):
    code = run_cli("solve", "--tasks", tasks_file, "--task", "nope",
                   *FAST_FLAGS)
    assert code == 2


# ---------------------------------------------------------------------------
# Subcommands end to end
# ---------------------------------------------------------------------------

def test_solve_prints_programs(tasks_file, small_library, capsys):
    code = run_cli("solve", "--tasks", tasks_file, "--library", small_library,
                   *FAST_FLAGS)
    assert code == 0
    out = capsys.readouterr().out
    assert "rev: (Reverse xs)" in out
    assert "srt: (Sort xs)" in out


def test_wake_then_sleep_then_mine(tmp_path, tasks_file, small_library,
                                   capsys):
    outdir = str(tmp_path / "out")
    code = run_cli("wake", "--tasks", tasks_file, "--library", small_library,
                   "--output-dir", outdir, *FAST_FLAGS)
    assert code == 0
    solutions = os.path.join(outdir, "solutions.txt")
    with open(os.path.join(outdir, "wake_report.json")) as fh:
        rep = json.load(fh)
    assert rep["solved"] == 3

    code = run_cli("sleep", "--tasks", tasks_file, "--library", small_library,
                   "--solutions", solutions, "--output-dir", outdir,
                   *FAST_FLAGS)
    assert code == 0
    assert os.path.exists(os.path.join(outdir, "library.txt"))
    assert os.path.exists(os.path.join(outdir, "scorer.txt"))
    assert os.path.exists(os.path.join(outdir, "traces.txt"))

    code = run_cli("mine", "--tasks", tasks_file, "--library", small_library,
                   "--solutions", solutions, "--output-dir", outdir,
                   *FAST_FLAGS)
    assert code == 0


def test_loop_writes_run_directory(tmp_path, tasks_file, small_library,
                                   capsys):
    outdir = str(tmp_path / "run")
    code = run_cli("loop", "--tasks", tasks_file, "--library", small_library,
                   "--output-dir", outdir, "--iterations", "1", *FAST_FLAGS)
    assert code == 0
    assert os.path.exists(os.path.join(outdir, "iter_000", "report.json"))
    assert os.path.exists(os.path.join(outdir, "best.json"))
    assert "solve counts [3]" in capsys.readouterr().out


def test_trace_gen_and_train(tmp_path, small_library, capsys):
    outdir = str(tmp_path / "out")
    code = run_cli("trace-gen", "--library", small_library,
                   "--output-dir", outdir, *FAST_FLAGS)
    assert code == 0
    traces = os.path.join(outdir, "traces.txt")
    assert os.path.exists(traces)
    code = run_cli("train", "--traces", traces, "--library", small_library,
                   "--output-dir", outdir, *FAST_FLAGS)
    assert code == 0
    assert os.path.exists(os.path.join(outdir, "scorer.txt"))


def test_eval_and_report(tmp_path, tasks_file, small_library, capsys):
    outdir = str(tmp_path / "out")
    for label in ("a", "b"):
        code = run_cli("eval", "--tasks", tasks_file,
                       "--library", small_library, "--output-dir", outdir,
                       "--label", label, "--trials", "2",
                       "--per-task-timeout", "5", "--restart-interval", "5",
                       "--max-weight", "4", "--virtual-clock", "true",
                       "--restarts-enabled", "false")
        assert code == 0
    eval_a = os.path.join(outdir, "eval_a.json")
    eval_b = os.path.join(outdir, "eval_b.json")
    code = run_cli("report", "--eval-a", eval_a, "--eval-b", eval_b,
                   "--output-dir", outdir)
    assert code == 0
    assert os.path.exists(os.path.join(outdir, "significance.csv"))


def test_report_that_cannot_compare_exits_2_and_writes_nothing(tmp_path,
                                                               capsys):
    # it used to write four of its five CSVs first
    paths = []
    for label in ("a", "b"):
        paths.append(str(tmp_path / f"eval_{label}.json"))
        save_eval_report(EvalReport(label, 1, [2], 3, 2 / 3, 2 / 3, 2 / 3,
                                    {1: 2}, {}, {}, [[0.5, 1], [1.0, 2]],
                                    [[10, 1], [30, 2]]), paths[-1])
    out = tmp_path / "plots"
    code = run_cli("report", "--eval-a", paths[0], "--eval-b", paths[1],
                   "--output-dir", str(out))
    assert code == 2
    assert capsys.readouterr().err == \
        "error: need at least two samples per group\n"
    assert not out.exists()


def test_ill_typed_library_exits_2(tmp_path, tasks_file, capsys):
    path = tmp_path / "library.txt"
    save_library(default_list_dsl(), str(path))
    with open(path, "a") as fh:
        fh.write("op fn_0 : (Int) -> Int = (lam (Reverse $0)) ; iter 0\n")
    code = run_cli("solve", "--tasks", tasks_file, "--library", str(path),
                   *FAST_FLAGS)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "fn_0" in err


def test_library_with_function_returning_op_loads_but_exits_2(
        tmp_path, tasks_file, small_library, capsys):
    # the value store holds no function values, so a library with an
    # operation that returns one loads but cannot be searched
    path = tmp_path / "library.txt"
    with open(small_library) as fh:
        text = fh.read()
    path.write_text(text + "op fn_0 : (Int) -> (Int) -> Int = "
                    "(lam (lam (Add $1 $0))) ; iter 0\n")
    lib = load_library(str(path))
    assert lib.op("fn_0").signature == parse_type("(Int) -> (Int) -> Int")
    for argv in (["solve", "--tasks", tasks_file],
                 ["trace-gen", "--output-dir", str(tmp_path / "out")]):
        code = run_cli(*argv, "--library", str(path), *FAST_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "fn_0" in err


def test_truncated_traces_exit_2(tmp_path, capsys):
    path = tmp_path / "traces.txt"
    path.write_text("format: pbesynth-traces 1\n")
    code = run_cli("train", "--traces", str(path),
                   "--output-dir", str(tmp_path / "out"), *FAST_FLAGS)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_library_without_version_line_exits_2(tmp_path, tasks_file, capsys):
    path = tmp_path / "library.txt"
    path.write_text("format: pbesynth-lib 1\n")
    code = run_cli("solve", "--tasks", tasks_file, "--library", str(path),
                   *FAST_FLAGS)
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: malformed library file: missing version\n"


def test_trace_episode_without_index_exits_2(tmp_path, capsys):
    # also an episode whose type or example does not parse: a trace file
    # is not a tasks file, so neither is a task format error (exit 3)
    path = tmp_path / "traces.txt"
    for episode in ("episode | xs:IntList | xs=[1]->1 | 1",
                    "episode 0 | xs:Foo | xs=[1]->1 | (Head xs)",
                    "episode 0 | xs:IntList | xs=[1] | (Head xs)"):
        path.write_text("format: pbesynth-traces 1\nlibrary-version: 0\n"
                        f"episodes: 1\nsteps: 0\n{episode}\n")
        code = run_cli("train", "--traces", str(path),
                       "--output-dir", str(tmp_path / "out"), *FAST_FLAGS)
        assert code == 2, episode
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if episode.startswith("episode 0"):
            assert str(path) in err and episode in err, err


def test_restart_interval_of_zero_exits_2(tasks_file, small_library,
                                          capsys):
    code = run_cli("solve", "--tasks", tasks_file, "--library", small_library,
                   *FAST_FLAGS, "--restart-interval", "0")
    assert code == 2
    assert capsys.readouterr().err == \
        "error: restart_interval must be > 0\n"


@pytest.mark.parametrize("flag", ["--per-task-timeout", "--restart-interval",
                                  "--episode-timeout"])
def test_nan_budget_exits_2(tasks_file, small_library, flag, capsys):
    code = run_cli("solve", "--tasks", tasks_file, "--library", small_library,
                   *FAST_FLAGS, flag, "nan")
    assert code == 2
    field = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == \
        f"error: {field} must be a number, not NaN\n"


def test_beam_size_of_zero_exits_2(tasks_file, small_library, capsys):
    # it used to print "no solution" after 0 candidates and exit 0
    code = run_cli("solve", "--tasks", tasks_file, "--library", small_library,
                   *FAST_FLAGS, "--beam-size", "0")
    assert code == 2
    assert capsys.readouterr().err == "error: beam_size must be >= 1\n"


@pytest.mark.parametrize("form", ["flag", "file"])
def test_beam_size_none_is_unbounded_search(tmp_path, tasks_file,
                                            small_library, monkeypatch,
                                            form):
    # "none" used to exit 2 with "invalid int value: 'none'"
    widths = []
    real = pbesynth.cli.search
    monkeypatch.setattr(pbesynth.cli, "search", lambda task, lib, sc, cfg: (
        widths.append(cfg.beam_size) or real(task, lib, sc, cfg)))
    if form == "flag":
        given = ["--beam-size", "none"]
    else:
        path = tmp_path / "run.cfg"
        path.write_text("beam_size = None\n")
        given = ["--config", str(path)]
    assert run_cli("solve", "--tasks", tasks_file, "--library", small_library,
                   *FAST_FLAGS, *given) == 0
    assert widths == [None, None, None]


@pytest.mark.parametrize("flag,value,field,least", [
    ("--max-negatives", "-1", "max_negatives", 0),
    ("--examples-per-episode", "0", "examples_per_episode", 1),
    ("--episodes", "-2", "episodes", 0),
    ("--targets-per-episode", "-1", "targets_per_episode", 0),
    ("--tracegen-max-weight", "0", "max_weight", 1),
    ("--train-steps", "-5", "train_steps", 0),
    # every trace-generation episode used to stop at its first tuple
    ("--episode-timeout", "-1", "episode_timeout", 0),
    ("--per-abstraction-bonus", "-1", "per_abstraction_bonus", 0),
    # mining used to run on these: nothing mined, exit 0
    ("--max-arity", "-1", "max_arity", 0),
    ("--max-rounds", "-2", "max_rounds", 0),
    ("--min-tasks", "0", "min_tasks", 1),
    ("--min-nonvariable", "-1", "min_nonvariable", 0),
    ("--max-visited", "0", "max_visited", 1)])
def test_count_below_its_least_exits_2(
        tmp_path, tasks_file, small_library, flag, value, field, least,
        capsys):
    code = run_cli("loop", "--tasks", tasks_file, "--library", small_library,
                   "--output-dir", str(tmp_path / "out"), *FAST_FLAGS,
                   "--iterations", "1", flag, value)
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: {field} must be >= {least}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["nosuchtask: (Reverse xs)",
                                  "rev (Reverse xs)"])
def test_malformed_solutions_line_exits_2(tmp_path, tasks_file, line,
                                          capsys):
    path = tmp_path / "solutions.txt"
    path.write_text(f"rev: (Reverse xs)\n{line}\n")
    code = run_cli("mine", "--tasks", tasks_file, "--solutions", str(path),
                   "--output-dir", str(tmp_path / "out"), *FAST_FLAGS)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and err.count("\n") == 1


def test_installed_entry_point_runs():
    # the package the tests import, whether or not PYTHONPATH names it
    src = os.path.dirname(os.path.dirname(pbesynth.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pbesynth.cli", "--help"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "pbesynth" in proc.stdout
