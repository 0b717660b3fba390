"""Outside-in tracing of gpbt's public entry points.

`installed(tracer)` swaps each entry point for a timing wrapper for the
duration of a `with` block and restores the originals afterwards; nothing
inside `src/gpbt` knows it is being traced. Spans (name, start, end, parent,
run id) are kept in memory and written out by `Tracer.dump`. The space
transforms are called hundreds of thousands of times per run, so they are
aggregated as count plus time instead of one span each; their time is
charged to the enclosing span so that self times stay exact.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

import gpbt.baselines
import gpbt.cli
import gpbt.orchestrator
import gpbt.trainers
from gpbt.external import ExternalTrainer
from gpbt.genealogy import GenealogyTree
from gpbt.space import SearchSpace


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "items", "agg_child")

    def __init__(self, name: str, start: float, parent: int, run: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 for a root
        self.run = run
        self.items = 0  # work count carried by the span (history length, iterations)
        self.agg_child = 0.0  # seconds of aggregated calls made inside this span

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0  # id shared by the spans of one workload repetition
        self.agg: dict[tuple[int, str], list] = {}  # (run, name) -> [calls, seconds]
        self.counts: dict[tuple[int, str], int] = {}  # (run, name) -> count
        # [run, seconds] per trainer: creation to its first reply, plus its close
        self.lifecycles: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = Span(name, 0.0, self._stack[-1] if self._stack else -1, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def tiny(self, name: str, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            seconds = perf_counter() - start
            entry = self.agg.setdefault((self.run, name), [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
            if self._stack:
                self.spans[self._stack[-1]].agg_child += seconds

    def count(self, name: str) -> None:
        key = (self.run, name)
        self.counts[key] = self.counts.get(key, 0) + 1

    def current(self) -> Span:
        return self.spans[self._stack[-1]]

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus what its direct children and the
        aggregated calls inside it cover."""
        covered = [s.agg_child for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, covered)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "items": s.items}) + "\n")
            for (run, name), (calls, seconds) in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": name, "run": run, "calls": calls,
                                     "seconds": seconds}) + "\n")


class TracedTrainer:
    """Trainer proxy: one span per contract call; `close` is exposed only when
    the wrapped trainer has one, as the CLI looks it up with getattr."""

    def __init__(self, tracer: Tracer, inner, created: float):
        self._tracer = tracer
        self._inner = inner
        self._created = created
        self._lifecycle = -1  # index into tracer.lifecycles once the first reply arrived
        self._external = isinstance(inner, ExternalTrainer)
        if self._external:
            tracer.count("external.processes")

    def _call(self, name: str, fn, *args, iters: int = 0):
        t = self._tracer
        if self._external and not (name == "trainers.step" and iters < 1):
            t.count("external.round_trips")
        result = t.call(name, _with_items, t, iters, fn, *args)
        if self._lifecycle < 0:
            self._lifecycle = len(t.lifecycles)
            t.lifecycles.append([t.run, perf_counter() - self._created])
        return result

    def init(self, seed):
        return self._call("trainers.init", self._inner.init, seed)

    def step(self, state, hp):
        return self._call("trainers.step", self._inner.step, state, hp, iters=1)

    def step_many(self, state, hp, iters):
        return self._call("trainers.step", self._inner.step_many, state, hp, iters, iters=iters)

    def evaluate(self, state):
        return self._call("trainers.evaluate", self._inner.evaluate, state)

    def fork(self, state):
        return self._call("trainers.fork", self._inner.fork, state)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "close":
            return attr

        def close():
            start = perf_counter()
            try:
                return self._tracer.call("trainers.close", attr)
            finally:
                if self._lifecycle >= 0:
                    self._tracer.lifecycles[self._lifecycle][1] += perf_counter() - start

        return close


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap gpbt's entry points where their callers look them up."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def span(name):
        return lambda fn: lambda *a, **k: tracer.call(name, fn, *a, **k)

    def tiny(name):
        return lambda fn: lambda *a: tracer.tiny(name, fn, *a)

    def suggest(fn):
        def wrapped(config, space, history, rng):
            return tracer.call("searchers.suggest", _with_items, tracer, len(history),
                               fn, config, space, history, rng)
        return wrapped

    def lineage_history(fn):
        def wrapped(tree, parent_id, mode, within):
            def body():
                history = fn(tree, parent_id, mode, within)
                tracer.current().items = len(history)
                return history
            return tracer.call("genealogy.lineage_history", body)
        return wrapped

    def make_trainer(fn):
        def wrapped(spec, space=None):
            created = perf_counter()
            inner = tracer.call("trainers.make", fn, spec, space)
            return TracedTrainer(tracer, inner, created)
        return wrapped

    try:
        patch(gpbt.orchestrator, "suggest", suggest)
        patch(gpbt.baselines, "suggest", suggest)
        patch(gpbt.orchestrator, "run", span("orchestrator.run"))
        patch(gpbt.cli, "run", span("orchestrator.run"))
        patch(gpbt.cli, "run_pbt", span("baselines.run_pbt"))
        patch(gpbt.cli, "run_nonadaptive", span("baselines.run_nonadaptive"))
        patch(gpbt.cli, "main", span("cli.main"))
        patch(gpbt.trainers, "make_trainer", make_trainer)
        patch(gpbt.cli, "make_trainer", make_trainer)
        patch(GenealogyTree, "lineage_history", lineage_history)
        patch(GenealogyTree, "record_child", span("genealogy.record_child"))
        patch(GenealogyTree, "dump", span("genealogy.dump"))
        patch(SearchSpace, "to_unit", tiny("space.to_unit"))
        patch(SearchSpace, "from_unit", tiny("space.from_unit"))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _with_items(tracer: Tracer, items: int, fn, *args):
    tracer.current().items = items
    return fn(*args)
