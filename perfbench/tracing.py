"""Traced runs: wrappers around the calls into each layer.

Nothing in the program is edited. For the duration of a traced run,
:func:`patched` swaps wrappers in for these public names and restores
them afterwards:

* ``repro.streaming.structured.single_batch_statistics`` and
  ``evaluate_plan``; ``evaluate_plan`` is lazy, so the ``toPandas`` of
  the frame it returns is wrapped too and timed with it;
* ``AdaptiveEngine.observe_batch``;
* ``should_reoptimize`` of every decision class.

The :class:`~repro.core.adaptive.PlanAlgorithm` handed to the operator or
to ``compare_methods`` is replaced by :meth:`Tracer.algorithm`, whose
plan builder and cost function are wrapped.

Spark jobs are counted per wrapped call from the status tracker, for the
job group of the calling thread (the streaming query's run id inside
``foreachBatch``). Coarse spans (one per trigger-level call) are kept in
memory with their start, end, parent and trigger index and written when
the run ends; the many fine calls of the control plane are kept as counts
and totals.
"""
from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

from repro.core import adaptive, invariants
from repro.core.adaptive import PlanAlgorithm
from repro.streaming import structured

DECISION_CLASSES = (
    invariants.StaticDecision,
    invariants.UnconditionalDecision,
    invariants.ThresholdDecision,
    invariants.InvariantDecision,
)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, spark_context):
        self._sc = spark_context
        self._local = threading.local()
        self.spans: list[dict] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.context = "stream"
        self.expected_pm = None  # callable(plan, snapshot) -> float, set by the workload
        self.trigger = -1  # index of the current trigger: spans of one trigger share it
        self._last_snapshot = None

    def reset(self) -> None:
        """Forget everything recorded so far (after a warm-up phase)."""
        self.spans.clear()
        self.totals.clear()
        self.calls.clear()
        self.counts.clear()
        self.context = "stream"
        self.trigger = -1
        self._last_snapshot = None

    # -- spans --------------------------------------------------------
    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _jobs(self) -> int:
        group = self._sc.getLocalProperty("spark.jobGroup.id")
        return len(self._sc.statusTracker().getJobIdsForGroup(group))

    def span(self, name: str, fn, *args, fields: dict | None = None, **kwargs):
        """Call ``fn`` inside a coarse span that also counts Spark jobs;
        ``fields`` are stored on the span record."""
        stack = self._stack()
        rec = {"name": name, "trigger": self.trigger, "id": len(self.spans),
               "parent": stack[-1]["id"] if stack else None}
        rec.update(fields or {})
        self.spans.append(rec)
        stack.append(rec)
        jobs0 = self._jobs()
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            rec["jobs"] = self._jobs() - jobs0
            stack.pop()

    def timed(self, name: str, fn):
        """Wrap a fine-grained callable: count calls and total seconds."""

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = f"{self.context}:{name}"
                self.totals[key] += time.perf_counter() - t0
                self.calls[key] += 1

        return wrapper

    def durations(self, name: str) -> list[float]:
        """Seconds of each span called ``name``, including the lazy
        plan-building time stored on executor spans."""
        return [s["end"] - s["start"] + s.get("build_s", 0.0) for s in self.spans if s["name"] == name]

    def jobs(self, name: str) -> int:
        return sum(s["jobs"] for s in self.spans if s["name"] == name)

    # -- wrapped layers -----------------------------------------------
    def algorithm(self, algo: PlanAlgorithm) -> PlanAlgorithm:
        return PlanAlgorithm(
            algo.name,
            self.timed(f"{algo.name}.build", algo.build_instrumented),
            self.timed("plans.cost", algo.cost),
        )

    def _stats(self, orig):
        def wrapper(*args, **kwargs):
            self.trigger += 1  # the operator computes statistics first in a trigger
            snap = self.span("stats.batch", orig, *args, **kwargs)
            self._last_snapshot = snap
            return snap

        return wrapper

    def _evaluate(self, orig):
        def wrapper(events, pattern, plan, attrs):
            if self.expected_pm is not None and self._last_snapshot is not None:
                self.counts["plans.expected_pm"] += self.expected_pm(plan, self._last_snapshot)
            t0 = time.perf_counter()
            frame = orig(events, pattern, plan, attrs)
            build_s = time.perf_counter() - t0
            to_pandas = frame.toPandas

            def traced_to_pandas():
                out = self.span("executor.eval", to_pandas, fields={"build_s": build_s})
                self.counts["executor.matches_out"] += len(out)
                return out

            frame.toPandas = traced_to_pandas
            return frame

        return wrapper

    def _observe(self, orig):
        tracer = self
        replay_tick = self.timed("adaptive.tick", orig)

        def wrapper(engine, snapshot):
            if tracer.context == "stream":
                report = tracer.span("adaptive.tick", orig, engine, snapshot)
            else:
                report = replay_tick(engine, snapshot)
            tracer.counts[f"{tracer.context}:fires"] += report.decision_fired
            tracer.counts[f"{tracer.context}:replacements"] += report.replaced
            return report

        return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers; restore the originals on exit."""
    saved = [
        (structured, "single_batch_statistics", structured.single_batch_statistics),
        (structured, "evaluate_plan", structured.evaluate_plan),
        (adaptive.AdaptiveEngine, "observe_batch", adaptive.AdaptiveEngine.observe_batch),
    ] + [(cls, "should_reoptimize", cls.__dict__["should_reoptimize"]) for cls in DECISION_CLASSES]
    structured.single_batch_statistics = tracer._stats(structured.single_batch_statistics)
    structured.evaluate_plan = tracer._evaluate(structured.evaluate_plan)
    adaptive.AdaptiveEngine.observe_batch = tracer._observe(adaptive.AdaptiveEngine.observe_batch)
    for cls in DECISION_CLASSES:
        setattr(cls, "should_reoptimize", tracer.timed("invariants.check", cls.__dict__["should_reoptimize"]))
    try:
        yield tracer
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
