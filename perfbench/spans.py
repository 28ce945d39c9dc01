"""Traced mode: per-layer spans and counters, recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (see
:func:`install`).  Every wrapped call pushes a frame on a per-thread
stack, so a layer's *self* time excludes the time of the wrapped calls
it makes: ``traces_batch`` inside ``LearnedTraceFitness.score`` counts as
execution, not fitness.  A call nested in a call of the same layer
(``outputs_batch`` inside ``satisfies_batch``) adds to that layer's self
time but not to its call or row counts.

Two kinds of wrapper keep the overhead low:

* *spans* (sessions, execution, fitness, neighborhood search, Phase 1,
  client calls) are a few thousand per run; each is recorded with its
  start, end, parent span and trace (root span) id and written out at
  the end of the run;
* *aggregated* calls (selection, breeding operators, dead-code checks,
  ``Program.__init__``) run tens of thousands of times per job; they are
  only counted and timed, per (layer, parent layer, outermost layer,
  enclosing span) -- so each span also carries the count and time of the
  hot calls made under it (:meth:`Tracer.by_span`).

Clocks are ``time.monotonic``: CLOCK_MONOTONIC on Linux, shared by every
process on the machine, so a server's span times compare directly with
its client's.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

CLOCK = time.monotonic

#: every layer the wrappers record; totals list each, zero when unused
LAYERS = (
    "session",
    "selection",
    "breeding",
    "dce",
    "program_init",
    "execution",
    "fitness",
    "neighborhood",
    "phase1.corpus",
    "phase1.fit",
    "client.submit",
    "client.run_job",
)


class _Stats:
    __slots__ = ("calls", "rows", "self_s", "found")

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self.self_s = 0.0
        self.found = 0


class Tracer:
    """Per-thread span stacks plus totals per (layer, parent layer,
    outermost layer, enclosing span id)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: List[Dict[Tuple[str, str, str, Optional[int]], _Stats]] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        #: finished spans: (id, parent id, trace id, layer, name, start, end, tag)
        self.spans: List[tuple] = []
        #: program objects seen by the wrappers, for their own counters
        self.engines: Dict[int, Any] = {}
        self.fitnesses: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    def _thread_state(self) -> list:
        stats: Dict[Tuple[str, str, str, Optional[int]], _Stats] = defaultdict(_Stats)
        with self._lock:
            self._thread_stats.append(stats)
        self._local.stats = stats
        # root frame: [layer, child seconds, span id, trace id, root layer]
        self._local.stack = [["", 0.0, None, None, ""]]
        return self._local.stack

    def wrap(
        self,
        fn: Callable,
        layer: str,
        span: bool = False,
        rows: Optional[int] = None,
        registry: Optional[Dict[int, Any]] = None,
        tag: Optional[Callable[[tuple, Any], Any]] = None,
        found: Optional[Callable[[Any], bool]] = None,
    ) -> Callable:
        """``fn`` timed as ``layer``; see the module docstring."""
        local = self._local
        clock = CLOCK
        ids = self._ids
        spans = self.spans
        thread_state = self._thread_state

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = thread_state()
            parent = stack[-1]
            frame = [layer, 0.0, parent[2], parent[3], parent[4] or layer]
            if span:
                frame[2] = next(ids)
                if frame[3] is None:
                    frame[3] = frame[2]
            if registry is not None:
                registry[id(args[0])] = args[0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                stats = local.stats[(layer, parent[0], frame[4], parent[2])]
                stats.self_s += duration - frame[1]
                if parent[0] != layer:
                    stats.calls += 1
                    if rows is not None:
                        stats.rows += len(args[rows])
                    if found is not None and found(result):
                        stats.found += 1
                if span:
                    spans.append((
                        frame[2], parent[2], frame[3], layer, fn.__qualname__,
                        start, end, tag(args, result) if tag is not None else None,
                    ))

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, layer: str, **options: Any) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its wrapper."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, **options))

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def totals(self, root: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per-layer calls, rows, self seconds and found counts, summed
        over threads and parent layers; with ``root``, only the calls made
        under an outermost call of that layer (``"session"``: Phase 2)."""
        out: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0, "rows": 0, "self_s": 0.0, "found": 0} for layer in LAYERS
        }
        with self._lock:
            tables = list(self._thread_stats)
        for table in tables:
            for (layer, _parent, top, _span), stats in list(table.items()):
                if root is not None and top != root:
                    continue
                entry = out.setdefault(
                    layer, {"calls": 0, "rows": 0, "self_s": 0.0, "found": 0}
                )
                entry["calls"] += stats.calls
                entry["rows"] += stats.rows
                entry["self_s"] += stats.self_s
                entry["found"] += stats.found
        return out

    def by_parent(self) -> Dict[str, Dict[str, float]]:
        """Self seconds of each layer split by the layer that called it."""
        out: Dict[str, Dict[str, float]] = defaultdict(dict)
        with self._lock:
            tables = list(self._thread_stats)
        for table in tables:
            for (layer, parent, _top, _span), stats in list(table.items()):
                key = parent or "<top>"
                out[layer][key] = out[layer].get(key, 0.0) + stats.self_s
        return dict(out)

    def by_span(self) -> Dict[int, Dict[str, List[float]]]:
        """``[calls, self seconds]`` of each layer's calls made directly
        under each span (keyed by span id; the session spans are the jobs)."""
        out: Dict[int, Dict[str, List[float]]] = defaultdict(dict)
        with self._lock:
            tables = list(self._thread_stats)
        for table in tables:
            for (layer, _parent, _top, span_id), stats in list(table.items()):
                if span_id is None:
                    continue
                entry = out[span_id].setdefault(layer, [0, 0.0])
                entry[0] += stats.calls
                entry[1] += stats.self_s
        return dict(out)

    def counters(self) -> Dict[str, float]:
        """The program's own counters, read from the objects the wrappers saw."""
        dispatches = lookups = leaf_hits = 0
        hits = misses = 0
        for engine in list(self.engines.values()):
            if hasattr(engine, "kernel_stats"):
                kernel = engine.kernel_stats()
                dispatches += kernel.get("dispatch_count", 0)
                lookups += kernel.get("trie_leaf_lookups", 0)
                leaf_hits += kernel.get("trie_leaf_hits", 0)
            hits += engine.stats.hits
            misses += engine.stats.misses
        fit_hits = fit_misses = 0
        for fitness in list(self.fitnesses.values()):
            for stats in fitness.cache_stats():
                fit_hits += stats.hits
                fit_misses += stats.misses
        return {
            "execution.dispatches": dispatches,
            "execution.trie_reuse": leaf_hits / lookups if lookups else 0.0,
            "execution.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "fitness.cache_hit_rate": (
                fit_hits / (fit_hits + fit_misses) if fit_hits + fit_misses else 0.0
            ),
        }

    def dump(self, path: str) -> None:
        """Write totals, counters and every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "layers": self.totals(root="session"),
                    "by_parent": self.by_parent(),
                    "by_span": self.by_span(),
                    "counters": self.counters(),
                    "spans": self.spans,
                },
                handle,
            )


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds an aggregated wrapper adds to one call: a wrapped no-op
    against the bare one, best of ``repeats``."""

    def noop() -> None:
        return None

    wrapped = Tracer().wrap(noop, "probe")
    best = {noop: float("inf"), wrapped: float("inf")}
    for _ in range(repeats):
        for fn in best:
            start = CLOCK()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], CLOCK() - start)
    return max(0.0, (best[wrapped] - best[noop]) / calls)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points (imports ``repro`` lazily,
    so this module loads without the program)."""
    import repro.ga.engine as ga_engine
    import repro.ga.operators as ga_operators
    from repro.core.service import SynthesisSession
    from repro.data.corpus import CorpusBuilder
    from repro.dsl.program import Program
    from repro.execution.engine import ExecutionEngine
    from repro.execution.vectorized import BatchExecutionEngine
    from repro.fitness.base import FitnessFunction
    from repro.ga.neighborhood import NeighborhoodSearch
    from repro.ga.operators import GeneOperators
    from repro.nn.training import Trainer
    from repro.serving.client import RemoteSynthesisSession

    def job_id_of_arg(args: tuple, _result: Any) -> str:
        return args[1].job_id

    def job_id_of_result(_args: tuple, result: Any) -> Optional[str]:
        return getattr(result, "job_id", None)

    tracer.patch(SynthesisSession, "run_job", "session", span=True, tag=job_id_of_arg)
    for name in ("satisfies_batch", "outputs_batch", "traces_batch"):
        tracer.patch(
            BatchExecutionEngine, name, "execution", span=True, rows=1, registry=tracer.engines
        )
    tracer.patch(ExecutionEngine, "satisfies", "execution", span=True, registry=tracer.engines)
    pending = list(FitnessFunction.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "score" in cls.__dict__:
            tracer.patch(
                cls, "score", "fitness", span=True, rows=1, registry=tracer.fitnesses
            )
    tracer.patch(
        NeighborhoodSearch, "search", "neighborhood", span=True,
        found=lambda result: result is not None,
    )
    for name in ("random_gene", "crossover", "mutate"):
        tracer.patch(GeneOperators, name, "breeding")
    # bound by name in their callers' modules: patch them there
    tracer.patch(ga_engine, "roulette_wheel_indices", "selection")
    tracer.patch(ga_operators, "has_dead_code", "dce")
    tracer.patch(Program, "__init__", "program_init")
    for name in ("build_trace_samples", "build_fp_data"):
        tracer.patch(CorpusBuilder, name, "phase1.corpus", span=True)
    tracer.patch(Trainer, "fit", "phase1.fit", span=True)
    tracer.patch(
        RemoteSynthesisSession, "submit", "client.submit", span=True, tag=job_id_of_result
    )
    tracer.patch(
        RemoteSynthesisSession, "run_job", "client.run_job", span=True, tag=job_id_of_arg
    )
    return tracer
