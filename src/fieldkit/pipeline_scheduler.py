"""Declarative filter-DAG executor.

A pipeline is a set of named filters wired by slots. The batch plan
validates the wiring and ranks the filters: batch by batch, by name inside
a batch. Within a frame, each filter starts as soon as the filters that
produce its inputs have ended (list scheduling, Graham 1966), and the
frame publishes its slots only once all of its filters have ended. Filters
with a frequency divider d run on every d-th frame; on other frames their
output slots retain the last produced values.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import ChainMap, deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from .errors import CycleError, DuplicateProducer, FilterError, InputError, UnknownSlot


class _Empty:
    """Marker for a slot whose producer has not run yet."""

    def __repr__(self):
        return "EMPTY"


EMPTY = _Empty()

# RunContext.log keeps the latest records only, so memory stays flat over long runs
LOG_LIMIT = 1024


@dataclass(frozen=True)
class FilterSpec:
    name: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    frequency_divider: int = 1

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.frequency_divider < 1:
            raise InputError(f"filter {self.name!r}: divider must be >= 1")
        overlap = set(self.inputs) & set(self.outputs)
        if overlap:
            raise InputError(f"filter {self.name!r} both consumes and produces {sorted(overlap)}")


@dataclass(frozen=True)
class PipelineSpec:
    filters: tuple[FilterSpec, ...]
    source_slots: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "source_slots", tuple(self.source_slots))
        if not all(isinstance(s, str) for s in self.source_slots):
            raise InputError("source slot names must be strings")
        names = [f.name for f in self.filters]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise InputError(f"duplicate filter names: {dup}")
        producer: dict[str, str] = {}
        for f in self.filters:
            for slot in f.outputs:
                if slot in producer:
                    raise DuplicateProducer(slot, [producer[slot], f.name])
                if slot in self.source_slots:
                    raise DuplicateProducer(slot, ["<source>", f.name])
                producer[slot] = f.name
        for f in self.filters:
            for slot in f.inputs:
                if slot not in producer and slot not in self.source_slots:
                    raise UnknownSlot(f.name, slot)
        compute_batches(self)  # raises CycleError

    def producer_of(self) -> dict[str, str]:
        return {slot: f.name for f in self.filters for slot in f.outputs}

    def by_name(self) -> dict[str, FilterSpec]:
        return {f.name: f for f in self.filters}


@dataclass(frozen=True)
class BatchPlan:
    """Ordered batches of filter names; producers always land in earlier batches.

    The batches flattened are the filters' rank: run_frame launches ready
    filters and blames failures in that order.
    """

    spec: PipelineSpec
    batches: tuple[tuple[str, ...], ...]

    @functools.cached_property
    def rank(self) -> dict[str, int]:
        """Each filter's position in the batches flattened."""
        return {name: k for k, name in enumerate(n for batch in self.batches for n in batch)}

    @functools.cached_property
    def producers(self) -> dict[str, frozenset[str]]:
        """Each filter's producers (the filters whose outputs it reads), in rank order."""
        producer = self.spec.producer_of()
        by_name = self.spec.by_name()
        return {name: frozenset(producer[s] for s in by_name[name].inputs if s in producer)
                for name in self.rank}


def parse_pipeline(document: str) -> PipelineSpec:
    """Parse and validate the JSON pipeline format:

    {"source_slots": [...],
     "filters": [{"name": ..., "inputs": [...], "outputs": [...], "divider": 1}]}
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid pipeline JSON: {exc}") from exc
    if not isinstance(doc, dict) or "filters" not in doc:
        raise InputError("pipeline document must be an object with a 'filters' list")
    try:
        filters = tuple(FilterSpec(
            name=str(entry["name"]),
            inputs=tuple(entry.get("inputs", ())),
            outputs=tuple(entry.get("outputs", ())),
            frequency_divider=int(entry.get("divider", 1)),
        ) for entry in doc["filters"])
        return PipelineSpec(filters=filters, source_slots=tuple(doc.get("source_slots", ())))
    except KeyError as exc:
        raise InputError(f"filter entry missing {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InputError(f"malformed pipeline document: {exc}") from exc


def compute_batches(spec: PipelineSpec) -> BatchPlan:
    """Kahn's layering (Kahn 1962): batch k holds every unscheduled filter
    whose inputs are source slots or outputs of batches < k. Equals
    longest-path depth; lexicographic order inside a batch keeps the plan
    deterministic.

    When no filter is ready, each remaining one reads an output of another,
    so following the smallest such producer from the smallest remaining name
    must revisit a filter: that loop is the CycleError's cycle.
    """
    ready: set[str] = set(spec.source_slots)
    remaining = {f.name: f for f in spec.filters}
    batches: list[tuple[str, ...]] = []
    while remaining:
        batch = sorted(name for name, f in remaining.items()
                       if all(s in ready for s in f.inputs))
        if not batch:
            producer = {s: name for name, f in remaining.items() for s in f.outputs}
            path = [min(remaining)]
            while path.count(path[-1]) < 2:
                path.append(min(producer[s] for s in remaining[path[-1]].inputs
                                if s in producer))
            raise CycleError(path[path.index(path[-1]):])
        for name in batch:
            ready.update(remaining.pop(name).outputs)
        batches.append(tuple(batch))
    return BatchPlan(spec=spec, batches=tuple(batches))


@dataclass
class ExecutionRecord:
    filter_name: str
    frame_index: int
    start: float
    end: float


@dataclass
class RunContext:
    """Mutable per-pipeline state: the slot store, worker policy, and a log.

    Slot payloads must be treated as immutable once published for a frame;
    skipped filters leave their previous outputs (EMPTY before first run).
    The store changes only when a frame has succeeded, and then takes all
    of that frame's sources and outputs at once. The log holds the latest
    LOG_LIMIT execution records. Filters run on a pool of max_workers
    threads (None: one per CPU), made on first use and reused until
    close(); max_workers=1 runs every filter inline.
    """

    sources: dict = field(default_factory=dict)
    max_workers: int | None = None
    store: dict = field(default_factory=dict, init=False)
    log: deque = field(default_factory=lambda: deque(maxlen=LOG_LIMIT), init=False)
    _pool: ThreadPoolExecutor | None = field(default=None, init=False, repr=False)

    def pool(self) -> ThreadPoolExecutor:
        """The worker pool of pooled frames, created on first use."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers or os.cpu_count() or 1)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down and wait for its threads to exit."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def run_frame(plan: BatchPlan, registry: dict, frame_index: int,
              context: RunContext) -> dict:
    """Execute one frame of the plan; returns the slot store.

    A filter is due iff frame_index % divider == 0. A due filter is
    launched once every due filter producing its inputs has ended, lowest
    rank first, and reads the frame's own results before the store. With
    two or more due filters and max_workers other than 1, filters run on
    the context's pool; otherwise one at a time inline, in rank order. The
    frame publishes to the store only once all of it has succeeded.

    After a failure only filters ranked before the lowest-ranked failure
    so far are launched; those already running are awaited. Then the
    lowest-ranked failure is raised: an InputError propagates, any other
    exception becomes FilterError(name).
    """
    if frame_index < 0:
        raise InputError("frame_index must be >= 0")
    spec = plan.spec
    by_name = spec.by_name()
    missing = [name for name in by_name if name not in registry]
    if missing:
        raise InputError(f"registry missing filters: {missing}")
    store = context.store
    if not store:
        store.update(dict.fromkeys([*spec.producer_of(), *spec.source_slots], EMPTY))
    overlay = {slot: context.sources[slot] for slot in spec.source_slots
               if slot in context.sources}
    view = ChainMap(overlay, store)

    def execute(name):
        f = by_name[name]
        inputs = {slot: view[slot] for slot in f.inputs}
        start = time.perf_counter()
        result = registry[name](inputs)
        end = time.perf_counter()
        if f.outputs:
            if not isinstance(result, dict) or set(result) != set(f.outputs):
                raise InputError(
                    f"filter {name!r} must return a dict with keys {sorted(f.outputs)}")
        context.log.append(ExecutionRecord(name, frame_index, start, end))
        return result or {}

    due = {name for name, f in by_name.items() if frame_index % f.frequency_divider == 0}
    # due filters in rank order, each with the due producers it still waits for
    waiting = {name: set(producers & due) for name, producers in plan.producers.items()
               if name in due}
    pooled = len(due) > 1 and context.max_workers != 1

    def launch(name):
        if pooled:
            return context.pool().submit(execute, name)
        future = Future()
        try:
            future.set_result(execute(name))
        except Exception as exc:
            future.set_exception(exc)
        return future

    rank, running = plan.rank, {}
    cutoff, blamed = len(rank), None  # no filter ranked at or after a failure launches
    while waiting or running:
        ready = [name for name, producers in waiting.items()
                 if not producers and rank[name] < cutoff]
        for name in ready if pooled else ready[:1]:
            del waiting[name]
            running[launch(name)] = name
        if not running:
            break  # the rest reads a failed filter's outputs, or ranks after one
        done, _ = wait(running, return_when=FIRST_COMPLETED)
        for future in done:
            name = running.pop(future)
            if future.exception() is None:
                overlay.update(future.result())
                for producers in waiting.values():
                    producers.discard(name)
            elif rank[name] < cutoff:
                cutoff, blamed = rank[name], (name, future.exception())
    if blamed is not None:
        name, exc = blamed
        if isinstance(exc, InputError):
            raise exc
        raise FilterError(name, exc) from exc
    store.update(overlay)
    return store


def run_frames(plan: BatchPlan, registry: dict, n_frames: int,
               context: RunContext, frame_sources) -> list[float]:
    """Run frames 0..n_frames-1, each with sources frame_sources(k),
    returning per-frame wall times (seconds)."""
    times = []
    for k in range(n_frames):
        context.sources = frame_sources(k)
        t0 = time.perf_counter()
        run_frame(plan, registry, k, context)
        times.append(time.perf_counter() - t0)
    return times
