"""Spans around the program's public callables, installed from outside.

The benchmark never edits the program: a traced run replaces methods on
the program's classes with wrappers (class-level patching, so every call
site sees them) that record one span per call.  A span is ``(id, parent,
name, start ns, end ns, request id)``; the parent and request id travel
in a context variable, and executor hops copy the context so work a
request hands to a thread stays under that request.  Spans stay in
memory until :meth:`Tracer.summary` folds them into per-layer totals and
self times when the run ends.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

#: ``(current span id, request id)`` of the running code; 0 = none.
_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "perfbench_span", default=(0, 0)
)


class Tracer:
    """Collects spans and the counters observed at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.counts: dict[str, int] = defaultdict(int)
        #: Latest value of a monotone counter per object, summed at the end.
        self.latest: dict[tuple[str, int], int] = {}
        self.engine_statistics: list = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def observe_total(self, name: str, owner: object, value: int) -> None:
        """Record the current value of *owner*'s monotone counter *name*."""
        with self._lock:
            self.latest[(name, id(owner))] = value

    def totals(self) -> dict[str, int]:
        """Event counts plus the summed latest values of monotone counters."""
        totals = dict(self.counts)
        for (name, _), value in self.latest.items():
            totals[name] = totals.get(name, 0) + value
        return totals

    def wrap(self, owner, attribute: str, name: str | None, observe=None, root=False):
        """Replace ``owner.attribute`` by a span-recording wrapper.

        *observe* ``(args, result)`` runs after each successful call to
        record counters; *root* starts a new request id.  With *name*
        ``None`` the wrapper only observes and records no span.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        spans = self.spans
        ids = self._ids

        def enter():
            parent, request = _CURRENT.get()
            span = next(ids)
            token = _CURRENT.set((span, span if root else request))
            return span, parent, span if root else request, token

        if name is None:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                observe(args, result)
                return result

        elif inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span, parent, request, token = enter()
                start = time.perf_counter_ns()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    spans.append(
                        (span, parent, name, start, time.perf_counter_ns(), request)
                    )
                    _CURRENT.reset(token)
                if observe is not None:
                    observe(args, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span, parent, request, token = enter()
                start = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans.append(
                        (span, parent, name, start, time.perf_counter_ns(), request)
                    )
                    _CURRENT.reset(token)
                if observe is not None:
                    observe(args, result)
                return result

        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))
        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- folding -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in ms.

        Self time is a span's duration minus the part of it covered by
        its children (overlapping children are merged first).
        """
        spans = list(self.spans)
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, start, end, _ in spans:
            if parent:
                children[parent].append((start, end))
        layers: dict[str, dict[str, float]] = {}
        for span, _, name, start, end, _ in spans:
            covered = 0
            cursor = start
            for child_start, child_end in sorted(children.get(span, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            layer = layers.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            layer["calls"] += 1
            layer["total_ms"] += (end - start) / 1e6
            layer["self_ms"] += (end - start - covered) / 1e6
        return layers


def propagate_context_to_executors(tracer: Tracer) -> None:
    """Make ``loop.run_in_executor`` run callables in the caller's context."""
    loop_class = asyncio.base_events.BaseEventLoop
    original = loop_class.run_in_executor

    def run_in_executor(self, executor, func, *args):
        return original(self, executor, contextvars.copy_context().run, func, *args)

    loop_class.run_in_executor = run_in_executor
    tracer._patched.append((loop_class, "run_in_executor", original))


def install_store_spans(tracer: Tracer) -> None:
    """``repro.cache``: store open / get / put."""
    from repro.cache.store import RewritingStore

    def on_get(args, result):
        tracer.count("cache.gets")
        if result is not None:
            tracer.count("cache.get_hits")

    def on_put(args, result):
        tracer.count("cache.puts")

    tracer.wrap(RewritingStore, "__init__", "cache.open")
    tracer.wrap(RewritingStore, "get", "cache.get", observe=on_get)
    tracer.wrap(RewritingStore, "put", "cache.put", observe=on_put)


def install_compile_spans(tracer: Tracer) -> None:
    """The compile layers as ``table1-compile`` drives them in-process."""
    from repro.api import OBDASystem

    install_store_spans(tracer)
    tracer.wrap(OBDASystem, "compile_many", "api.compile_many", root=True)
    tracer.wrap(OBDASystem, "compile", "api.compile", root=True)


def install_serving_spans(tracer: Tracer) -> None:
    """The serving, backend, database and incremental layers of a server."""
    import repro.serving.app as app_module
    from repro.backends.memory import InMemoryBackend, InMemoryPlan
    from repro.backends.sqlite import SQLiteBackend, SQLitePlan
    from repro.core.rewriter import TGDRewriter
    from repro.incremental.maintain import MaintainedAnswerSet
    from repro.scheduling import AutoStrategy
    from repro.serving.tenants import SharedArtifacts, Tenant

    propagate_context_to_executors(tracer)
    install_store_spans(tracer)

    def on_compile(args, result):
        rewriting, source = result
        tracer.count(f"serving.compile.{source}")
        if source == "engine":
            tracer.count("core.output_cqs", len(rewriting.ucq))
            with tracer._lock:
                tracer.engine_statistics.append(rewriting.statistics)

    def on_ensure_ready(args, result):
        backend = args[0]
        tracer.observe_total("backends.sqlite.full_loads", backend, backend.full_loads)
        tracer.observe_total(
            "backends.sqlite.incremental_loads", backend, backend.incremental_loads
        )

    def on_generation(args, result):
        strategy = args[0]
        for inner, generations in strategy.decisions.items():
            tracer.observe_total(f"scheduling.auto.{inner}", strategy, generations)

    def on_refresh(args, result):
        tracer.count(f"incremental.refresh.{result.mode}")
        tracer.count("incremental.delta_rows", len(result.added) + len(result.removed))

    tracer.wrap(app_module.ServingApp, "request", "serving.request", root=True)
    tracer.wrap(app_module, "encode_answers", "serving.encode")
    tracer.wrap(SharedArtifacts, "compile_blocking", "serving.compile", observe=on_compile)
    tracer.wrap(TGDRewriter, "rewrite", "core.rewrite")
    tracer.wrap(AutoStrategy, "expand_generation", None, observe=on_generation)
    tracer.wrap(InMemoryBackend, "prepare", "backends.prepare")
    tracer.wrap(SQLiteBackend, "prepare", "backends.prepare")
    tracer.wrap(InMemoryPlan, "execute", "backends.memory.execute")
    tracer.wrap(SQLitePlan, "execute", "backends.sqlite.execute")
    tracer.wrap(SQLiteBackend, "ensure_ready", "backends.sqlite.ensure_ready",
                observe=on_ensure_ready)
    tracer.wrap(Tenant, "add_facts", "database.mutate")
    tracer.wrap(Tenant, "remove_facts", "database.mutate")
    tracer.wrap(MaintainedAnswerSet, "refresh", "incremental.refresh", observe=on_refresh)
