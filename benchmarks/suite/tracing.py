"""In-memory spans around the public entry points of each layer.

A traced run patches the public functions and methods listed in
:data:`ENTRY_POINTS` (from the benchmark's own code, the program is not
edited) so each call records one span: name, start, end, parent and the
thread it ran on.  Spans stay in per-thread arrays until the run ends;
:func:`attribute` then turns them into time per span name.

Self time is the time a span was the innermost open span of its thread
with none of its descendants running anywhere.  A span opened on a
thread with nothing open (an executor or ingest thread of the filter
service) takes as parent the innermost open span of the main thread, the
call that caused it.  When spans on several threads run at once, each
takes an equal share of that interval, so the self times of all spans
add up to the time some span was open, never to more than the wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union


def _replay_span_name(args, kwargs) -> str:
    """``sim.replay.<filter name>``: one replay span name per filter."""
    packet_filter = args[1] if len(args) > 1 else kwargs["packet_filter"]
    return f"sim.replay.{packet_filter.name}"


#: (module, class name or None, function name, span name, kind).  A class
#: of None patches a module-level function.  ``kind`` is "call" for a
#: plain call and "iter" for a generator, where every ``next()`` becomes
#: one span.  A callable span name derives the name from the arguments.
ENTRY_POINTS = (
    ("repro.workload.generator", "TraceGenerator", "specs", "workload.specs", "call"),
    ("repro.workload.generator", "TraceGenerator", "iter_tables", "workload.materialize", "iter"),
    ("repro.net.stream", "TableEncoder", "encode", "net.encode", "call"),
    ("repro.net.stream", None, "decode_table", "net.decode", "call"),
    ("repro.sim.replay", None, "compare_drop_rates", "sim.compare_drop_rates", "call"),
    ("repro.sim.replay", None, "replay", _replay_span_name, "call"),
    ("repro.sim.pipeline", "ReplayPipeline", "process", "sim.process", "call"),
    ("repro.sim.pipeline", "ReplayPipeline", "process_table", "sim.process_table", "call"),
    ("repro.sim.pipeline", "ReplayStepper", "feed", "sim.feed", "call"),
    ("repro.sim.pipeline", None, "fingerprint_verdicts", "sim.fingerprint", "call"),
    ("repro.sim.router", "EdgeRouter", "process_table", "sim.router_table", "call"),
    ("repro.filters.base", "PacketFilter", "process", "filters.process", "call"),
    ("repro.core.bitmap_filter", "BitmapFilter", "mark_outbound", "core.mark_outbound", "call"),
    ("repro.core.bitmap_filter", "BitmapFilter", "lookup_inbound", "core.lookup_inbound", "call"),
    ("repro.core.bitvector", "BitVector", "set_many", "core.set_many", "call"),
    ("repro.core.bitvector", "BitVector", "test_all", "core.test_all", "call"),
    ("repro.core.hashing", "HashFamily", "indices", "core.hash_indices", "call"),
    ("repro.core.hashing", "HashFamily", "indices_many", "core.indices_many", "call"),
    ("repro.service.service", "FilterService", "run_forever", "service.run", "call"),
    ("repro.swarm.engine", "SwarmSimulator", "run", "swarm.run", "call"),
)

#: The layers spans are grouped into: the first part of a span name.
LAYERS = ("workload", "net", "sim", "filters", "core", "service", "swarm")


class _ThreadSpans:
    """One thread's spans, written by that thread only."""

    __slots__ = ("thread", "ids", "names", "parents", "starts", "ends", "stack")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        #: (global span id, local position) of the open spans, innermost last.
        self.stack: List[Tuple[int, int]] = []


class Tracer:
    """Records spans while installed; :meth:`spans` hands them over."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._main: Optional[_ThreadSpans] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _thread_spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.get_ident())
            self._local.spans = spans
            self._threads.append(spans)
            if threading.current_thread() is threading.main_thread():
                self._main = spans
        return spans

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return name_id

    def enter(self, name: str) -> _ThreadSpans:
        spans = self._thread_spans()
        stack = spans.stack
        if stack:
            parent = stack[-1][0]
        else:
            main = self._main
            main_stack = main.stack if main is not None and main is not spans else None
            parent = main_stack[-1][0] if main_stack else -1
        span_id = next(self._ids)
        stack.append((span_id, len(spans.ids)))
        spans.ids.append(span_id)
        spans.names.append(self._name_id(name))
        spans.parents.append(parent)
        spans.ends.append(0.0)
        spans.starts.append(time.perf_counter())
        return spans

    def leave(self, spans: _ThreadSpans) -> None:
        now = time.perf_counter()
        _, position = spans.stack.pop()
        spans.ends[position] = now

    # -- patching -------------------------------------------------------

    def wrap(self, owner, attr: str, name: Union[str, Callable], kind: str = "call") -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_of = name if callable(name) else (lambda args, kwargs: name)
        enter, leave = self.enter, self.leave
        if kind == "call":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                spans = enter(name_of(args, kwargs))
                try:
                    return original(*args, **kwargs)
                finally:
                    leave(spans)
        elif kind == "iter":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_name = name_of(args, kwargs)
                iterator = original(*args, **kwargs)
                while True:
                    spans = enter(span_name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        leave(spans)
                    yield item
        else:
            raise ValueError(f"unknown span kind: {kind!r}")
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Patch every entry point; :meth:`uninstall` puts them back."""
        for module_name, owner_name, attr, name, kind in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self.wrap(owner, attr, name, kind)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def spans(self) -> List["Span"]:
        """Every closed span as ``(id, name, start, end, parent, thread)``."""
        out = []
        names = self._names
        for spans in self._threads:
            open_positions = {position for _, position in spans.stack}
            for position in range(len(spans.ids)):
                if position in open_positions:
                    continue
                out.append((spans.ids[position], names[spans.names[position]],
                            spans.starts[position], spans.ends[position],
                            spans.parents[position], spans.thread))
        return out


Span = Tuple[int, str, float, float, int, int]


def _innermost_changes(spans: Sequence[Span]) -> List[Tuple[float, int]]:
    """One thread's timeline as ``(time, innermost open span id or -1)``
    change points, from spans sorted by start."""
    changes: List[Tuple[float, int]] = []
    stack: List[Tuple[float, int]] = []  # (end, id) of open spans
    for span_id, _, start, end, _, _ in spans:
        while stack and stack[-1][0] <= start:
            closed_end, _ = stack.pop()
            changes.append((closed_end, stack[-1][1] if stack else -1))
        stack.append((end, span_id))
        changes.append((start, span_id))
    while stack:
        closed_end, _ = stack.pop()
        changes.append((closed_end, stack[-1][1] if stack else -1))
    return changes


def attribute(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name, by the rules in the module docstring."""
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_thread[span[5]].append(span)
    name_of = {span[0]: span[1] for span in spans}
    parent_of = {span[0]: span[4] for span in spans}
    totals: Dict[str, float] = defaultdict(float)

    timelines = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda span: (span[2], -span[3]))
        timelines.append(_innermost_changes(thread_spans))
    if len(timelines) == 1:
        changes = timelines[0]
        for (when, span_id), (later, _) in zip(changes, changes[1:]):
            if span_id >= 0:
                totals[name_of[span_id]] += later - when
        return dict(totals)

    # Ties keep each thread's own order, so a zero-length span still ends.
    events = sorted(
        (when, thread, order, span_id)
        for thread, changes in enumerate(timelines)
        for order, (when, span_id) in enumerate(changes)
    )
    current = [-1] * len(timelines)
    previous = events[0][0] if events else 0.0
    for when, thread, _, span_id in events:
        if when > previous:
            active = [span for span in current if span >= 0]
            if active:
                waiting = set()
                for span in active:
                    ancestor = parent_of.get(span, -1)
                    while ancestor >= 0:
                        waiting.add(ancestor)
                        ancestor = parent_of.get(ancestor, -1)
                running = [span for span in active if span not in waiting]
                share = (when - previous) / len(running)
                for span in running:
                    totals[name_of[span]] += share
            previous = when
        current[thread] = span_id
    return dict(totals)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_durations(spans: Sequence[Span], name: str) -> List[float]:
    """Wall durations of every span called ``name``."""
    return [end - start for _, span_name, start, end, _, _ in spans if span_name == name]
