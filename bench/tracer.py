"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into statecoach's public functions, patched
where the caller looks them up (``statecoach.harness.select_action`` is the
name ``ActiveCounselor.counselor_turn`` calls, so patching it traces the
harness's calls and leaves the planner's internal calls alone).  Each span
keeps its name, parent span, session and turn ids, and start and end times;
a layer's self time is its duration minus the time its child spans cover.
Very hot functions (``Categorical`` construction, ``transition_prob``) are
counted rather than timed, so the trace does not swamp what it measures.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        # Each span is [name, parent index or -1, session, turn, start_ns, end_ns].
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.session = 0
        self.turn = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = [name, self._stack[-1] if self._stack else -1, self.session, self.turn, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[4] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = perf_counter_ns()
            self._stack.pop()

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call."""
        orig = getattr(owner, attr)
        call = self.call
        if on_result is None:

            def traced(*args, **kwargs):
                return call(name, orig, *args, **kwargs)

        else:

            def traced(*args, **kwargs):
                result = call(name, orig, *args, **kwargs)
                on_result(self, result)
                return result

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a function that only counts its calls."""
        orig = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr: str, fn) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, fn)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries ------------------------------------------------------------

    def durations_ns(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """Per span name: every span's duration and every span's self time."""
        child_ns = [0] * len(self.spans)
        for _name, parent, _s, _t, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: dict[str, list[int]] = defaultdict(list)
        own: dict[str, list[int]] = defaultdict(list)
        for i, (name, _p, _s, _t, start, end) in enumerate(self.spans):
            total[name].append(end - start)
            own[name].append(end - start - child_ns[i])
        return total, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][4] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, session, turn, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": parent,
                            "session": session,
                            "turn": turn,
                            "name": name,
                            "start_ns": start - t0,
                            "end_ns": end - t0,
                        }
                    )
                    + "\n"
                )


def _count_relevant(tracer: Tracer, result: dict) -> None:
    if result["relevant"]:
        tracer.counts["memory.retrieve.relevant"] += 1


def instrument(tracer: Tracer) -> None:
    """Patch the layer boundaries of statecoach; undo with ``tracer.restore()``."""
    from statecoach import client_sim, harness, memory, probs, world_model

    tracer.wrap(harness.ActiveCounselor, "counselor_turn", "harness.counselor_turn")
    tracer.wrap(harness, "select_action", "planner.select_action")
    tracer.wrap(harness, "planner_prior", "planner.planner_prior")
    for fn in ("widen_observation", "fuse", "bayes_update", "free_energy"):
        tracer.wrap(harness, fn, "belief." + fn)
    for method in ("update", "add_observation", "observation_likelihood"):
        tracer.wrap(world_model.WorldModel, method, "world_model." + method)
    tracer.count(world_model.WorldModel, "transition_prob", "world_model.transition_prob")
    tracer.count(probs.Categorical, "__post_init__", "probs.categorical")
    tracer.wrap(memory.MemoryStore, "retrieve", "memory.retrieve", _count_relevant)
    tracer.wrap(memory.MemoryStore, "add", "memory.add")
    tracer.wrap(memory.MemoryStore, "consolidate", "memory.consolidate")
    tracer.wrap(client_sim.ClientSession, "respond", "client_sim.respond")
    tracer.wrap(client_sim, "match_triggers", "client_sim.match_triggers")
    tracer.wrap(client_sim, "build_triggers", "client_sim.build_triggers")
