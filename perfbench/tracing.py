"""Spans around the program's layers, recorded from outside the program.

The traced run wraps each layer's public functions and methods on the
names their callers look up (``synthesis.evaluate`` as well as
``lang.evaluate``, ``harness.mine`` as well as ``librarian.mine``), so
every call through the program records one span: name, start, end,
parent and group.  Spans of one task's search share a group, and so do
spans of one loop iteration (``iter1`` and ``iter1/task:motif_00``).
Spans stay in compact arrays in memory and are written out at the end.
A span's self time is its duration minus the durations of its direct
children; calls nest on one thread, so the children never overlap.
"""

from __future__ import annotations

import json
import time
from array import array

from workloads import Metric


def patch(patches, owner, attr, make):
    """Replace ``owner.attr`` with ``make(old)``; remember how to undo it."""
    old = getattr(owner, attr)
    patches.append((owner, attr, old))
    setattr(owner, attr, make(old))


def unpatch(patches):
    while patches:
        owner, attr, old = patches.pop()
        setattr(owner, attr, old)


_m = Metric


def _calls_self(layer):
    return [_m(f"{layer}.calls", "count", "lower"),
            _m(f"{layer}.self_s", "s", "lower")]


LAYER_METRICS = tuple(
    _calls_self("synthesis.build_entry")
    + _calls_self("synthesis.store_add")
    + [_m("synthesis.store_add.new_ratio", "ratio", "higher"),
       _m("synthesis.store_add.improved", "count", "higher")]
    + _calls_self("synthesis.init_store")
    + _calls_self("synthesis.beam_select_args")
    + [_m("synthesis.beam_select_args.tuples", "count", "lower")]
    + _calls_self("synthesis.candidates_for")
    + _calls_self("synthesis.make_context")
    + _calls_self("synthesis.sampler_dists")
    + _calls_self("synthesis.search")
    + _calls_self("synthesis.exhaustive_search")
    + [_m("synthesis.exhaustive_search.candidates", "count", "lower"),
       _m("synthesis.exhaustive_search.timed_out", "count", "lower")]
    + _calls_self("sampling.sample")
    + [_m("sampling.sample.exhausted", "count", "lower")]
    + _calls_self("lang.invoke_prim")
    + _calls_self("lang.evaluate")
    + [_m("lang.errors.steps", "count", "lower"),
       _m("lang.errors.bounds", "count", "lower"),
       _m("lang.errors.domain", "count", "lower")]
    + _calls_self("dsl.learned_op")
    + _calls_self("guidance.score")
    + _calls_self("guidance.generate_traces")
    + [_m("guidance.generate_traces.steps", "count", "lower")]
    + _calls_self("guidance.train_scorer")
    + _calls_self("librarian.mine")
    + [_m("librarian.mine_round.visited", "count", "lower"),
       _m("librarian.mine_round.pruned", "count", "higher")]
    + _calls_self("librarian.count_matches")
    + [_m("librarian.rewrite_corpus.self_s", "s", "lower"),
       _m("harness.run_wake.self_s", "s", "lower"),
       _m("harness.run_sleep.self_s", "s", "lower")]
    + _calls_self("harness.verify_solution")
    + [_m("harness.io.self_s", "s", "lower"),
       _m("task.load_tasks.self_s", "s", "lower"),
       _m("trace.spans", "count", "lower"),
       _m("trace.untraced_s", "s", "lower"),
       _m("trace.traced_s", "s", "lower"),
       _m("trace.overhead_s", "s", "lower"),
       _m("trace.overhead_ratio", "ratio", "lower")]
)

# Spans whose errors are counted where they leave the evaluator.
_LANG = ("lang.invoke_prim", "lang.evaluate", "dsl.learned_op")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.groups: list = ["-"]  # labels; 0 is "outside any group"
        self.group_ids = {"-": 0}
        self.group = 0
        self.iteration = None  # loop iteration, set by harness.run_wake
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("H")
        self.span_group = array("i")
        self.stack = [-1]
        self.counters: dict = {}
        self.patches: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def enter_group(self, label):
        """Make later spans belong to the group ``label``."""
        if label not in self.group_ids:
            self.group_ids[label] = len(self.groups)
            self.groups.append(label)
        self.group = self.group_ids[label]

    def span(self, name, fn, on_result=None, on_enter=None):
        """``fn`` wrapped to record one span per call.  ``on_result`` sees
        each return value; ``on_enter`` sees the arguments and may switch
        the current group; if it returns True the group is restored when
        the call returns."""
        nid = self._id(name)
        start, end, parent = self.start, self.end, self.parent
        names, groups, stack = self.name, self.span_group, self.stack
        clock = time.perf_counter_ns
        tracer = self

        if on_result is None and on_enter is None:
            def hot(*args, **kwargs):
                i = len(start)
                parent.append(stack[-1])
                names.append(nid)
                groups.append(tracer.group)
                end.append(0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
            return hot

        def hooked(*args, **kwargs):
            saved = tracer.group
            restore = on_enter is not None and on_enter(args)
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            groups.append(tracer.group)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if restore:
                    tracer.group = saved
            if on_result is not None:
                on_result(out)
            return out
        return hooked

    def lang_span(self, name, fn, eval_error):
        """A span that also counts evaluation errors by kind where they
        leave the outermost evaluator call, so nested calls count once."""
        nid = self._id(name)
        lang_ids = {self._id(n) for n in _LANG}
        start, end, parent = self.start, self.end, self.parent
        names, groups, stack = self.name, self.span_group, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            p = stack[-1]
            parent.append(p)
            names.append(nid)
            groups.append(tracer.group)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except eval_error as e:
                if p < 0 or names[p] not in lang_ids:
                    tracer.count(f"lang.errors.{e.kind}")
                raise
            finally:
                end[i] = clock()
                stack.pop()
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, pb):
        """Wrap every layer boundary of the program modules in ``pb``."""
        lang, dsl, synthesis, sampling = pb.lang, pb.dsl, pb.synthesis, \
            pb.sampling
        guidance, librarian, harness, task = pb.guidance, pb.librarian, \
            pb.harness, pb.task
        p = self.patches

        def on(owners, attr, name, **hooks):
            for owner in owners:
                patch(p, owner, attr, lambda f: self.span(name, f, **hooks))

        def on_lang(owners, attr, name):
            for owner in owners:
                patch(p, owner, attr,
                      lambda f: self.lang_span(name, f, lang.EvalError))

        def store_add(out):
            _canon, is_new, improved = out
            self.count("synthesis.store_add.new", is_new)
            self.count("synthesis.store_add.improved", improved)

        def exhaustive(out):
            self.count("synthesis.exhaustive_search.candidates",
                       out.candidates)
            self.count("synthesis.exhaustive_search.timed_out",
                       out.timed_out)

        def search_group(args):
            prefix = f"{self.iteration}/" if self.iteration else ""
            self.enter_group(f"{prefix}task:{args[0].name}")
            return True

        def wake_group(args):
            n = self.counters.get("harness.run_wake.iterations", 0)
            self.count("harness.run_wake.iterations")
            self.iteration = f"iter{n}"
            self.enter_group(self.iteration)  # kept for sleep and saves
            return False

        def mined_round(out):
            self.count("librarian.mine_round.visited", out.visited)
            self.count("librarian.mine_round.pruned", out.pruned)

        on_lang([lang, synthesis], "invoke_prim", "lang.invoke_prim")
        on_lang([lang, synthesis, dsl], "evaluate", "lang.evaluate")
        patch(p, dsl, "abstraction_func", lambda make: (
            lambda *a, **k: self.lang_span("dsl.learned_op", make(*a, **k),
                                           lang.EvalError)))
        on([synthesis], "build_entry", "synthesis.build_entry")
        on([synthesis.ValueStore], "add", "synthesis.store_add",
           on_result=store_add)
        on([synthesis], "init_store", "synthesis.init_store")
        on([synthesis], "beam_select_args", "synthesis.beam_select_args",
           on_result=lambda out: self.count(
               "synthesis.beam_select_args.tuples", len(out)))
        on([synthesis.ValueStore], "candidates_for",
           "synthesis.candidates_for")
        on([synthesis, guidance], "make_context", "synthesis.make_context")
        on([synthesis], "_sampler_dists", "synthesis.sampler_dists")
        on([synthesis, harness], "search", "synthesis.search",
           on_enter=search_group)
        on([synthesis, guidance], "exhaustive_search",
           "synthesis.exhaustive_search", on_result=exhaustive)
        on([sampling.UniqueSampler], "sample", "sampling.sample",
           on_result=lambda out: self.count("sampling.sample.exhausted",
                                            out is None))
        on([guidance.LinearScorer], "score", "guidance.score")
        on([guidance, harness], "generate_traces", "guidance.generate_traces",
           on_result=lambda out: self.count("guidance.generate_traces.steps",
                                            len(out.steps)))
        on([guidance, harness], "train_scorer", "guidance.train_scorer")
        on([librarian, harness], "mine", "librarian.mine")
        # mine_round is counted, not timed: its time stays in mine's self
        patch(p, librarian, "mine_round", lambda f: _observe(f, mined_round))
        on([librarian], "count_matches", "librarian.count_matches")
        on([librarian], "rewrite_corpus", "librarian.rewrite_corpus")
        on([harness], "run_wake", "harness.run_wake", on_enter=wake_group)
        on([harness], "run_sleep", "harness.run_sleep")
        on([harness], "verify_solution", "harness.verify_solution")
        for attr in ("save_solutions", "save_library", "save_scorer",
                     "save_traces"):
            on([harness], attr, "harness.io")
        on([task], "load_tasks", "task.load_tasks")

    def uninstall(self):
        unpatch(self.patches)

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """Per span name: (calls, self seconds).  Children are recorded
        after their parent, so one backward pass sees every child first."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        start, end, parent, name = self.start, self.end, self.parent, \
            self.name
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            k = name[i]
            calls[k] += 1
            self_ns[k] += d - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
        return {nm: (calls[k], self_ns[k] / 1e9)
                for k, nm in enumerate(self.names)}

    def metrics(self):
        """Every layer metric of LAYER_METRICS except the trace.* ones."""
        totals = self.layer_totals()
        c = self.counters
        out = {}
        for m in LAYER_METRICS:
            layer, _, field_ = m.name.rpartition(".")
            if field_ == "calls":
                out[m.name] = totals.get(layer, (0, 0.0))[0]
            elif field_ == "self_s":
                out[m.name] = totals.get(layer, (0, 0.0))[1]
            elif m.name in c:
                out[m.name] = c[m.name]
        calls = totals.get("synthesis.store_add", (0, 0.0))[0]
        out["synthesis.store_add.new_ratio"] = \
            c.get("synthesis.store_add.new", 0) / calls if calls else 0.0
        for m in LAYER_METRICS:
            if not m.name.startswith("trace."):
                out.setdefault(m.name, 0)
        out["trace.spans"] = len(self.start)
        return out

    def write(self, stem):
        """Write the spans: ``stem.json`` describes ``stem.bin``, which holds
        the start, end, parent, name and group arrays one after another."""
        header = {
            "format": "perfbench-spans 1",
            "count": len(self.start),
            "arrays": [["start_ns", "q"], ["end_ns", "q"], ["parent", "i"],
                       ["name", "H"], ["group", "i"]],
            "names": self.names,
            "groups": self.groups,
        }
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh)
        with open(stem + ".bin", "wb") as fh:
            for a in (self.start, self.end, self.parent, self.name,
                      self.span_group):
                a.tofile(fh)


def _observe(fn, on_result):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        on_result(out)
        return out
    return wrapper
