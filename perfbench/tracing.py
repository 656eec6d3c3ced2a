"""In-memory span tracing around public functions, installed from outside.

The benchmark measures layers without touching the program: it replaces
public functions and methods of the layer modules with thin wrappers
that record a span per call, runs the workload, then puts the originals
back.  Spans stay in memory until the run ends and are then written as
Chrome trace-event JSON (open it in Perfetto or ``chrome://tracing``).

Self time is a span's duration minus the time its child spans cover.
The tracer keeps a stack of open spans, so every span knows its parent
and children report their duration to it as they close.  High-frequency
targets can be marked ``keep=False``: they are aggregated (calls, total,
self time, durations) and still subtracted from their parent's self
time, but not stored as individual events.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``observe(tracer, args, kwargs, result, duration)`` -- runs after the
#: span closed; its own time is charged to ``trace.observe`` and kept out
#: of every layer's self time.
Observer = Callable[["Tracer", tuple, dict, Any, float], None]


class SpanStat:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: List[float] = []

    def add(self, duration: float, self_time: float) -> None:
        self.calls += 1
        self.total_s += duration
        self.self_s += self_time
        self.durations.append(duration)


class Tracer:
    """Span recorder with a call stack, per-name aggregates and counters."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.origin = clock()
        #: (name, start, end, parent span id, span id, thread lane)
        self.events: List[Tuple[str, float, float, int, int, int]] = []
        self.stats: Dict[str, SpanStat] = {}
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.keys: Dict[str, set] = {}
        self.unmeasured: List[str] = []
        self._stack: List[list] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame: list, keep: bool = True) -> float:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        duration = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        stat = self.stats.get(frame[1])
        if stat is None:
            stat = self.stats[frame[1]] = SpanStat()
        stat.add(duration, duration - frame[3])
        if keep:
            self.events.append(
                (frame[1], frame[2], end, parent[0] if parent else 0, frame[0], 1)
            )
        return duration

    def record(self, name: str, start: float, end: float, lane: int = 1) -> None:
        """Store a span timed by the caller (concurrent work off the stack)."""
        self._next_id += 1
        self.events.append((name, start, end, 0, self._next_id, lane))

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def charge_overhead(self, seconds: float) -> None:
        """Account tracer work done inside an open parent span."""
        if self._stack:
            self._stack[-1][3] += seconds
        self.count("trace.observe_s", seconds)

    # -- counters ------------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def key(self, name: str, value: Any) -> None:
        self.keys.setdefault(name, set()).add(value)

    # -- queries -------------------------------------------------------------

    def total(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.total_s if stat else 0.0

    def self_time(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat.self_s if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def durations(self, name: str) -> List[float]:
        stat = self.stats.get(name)
        return list(stat.durations) if stat else []

    # -- export --------------------------------------------------------------

    def chrome_events(self, pid: int, limit: int = 100_000) -> List[Dict[str, Any]]:
        """Complete ("X") trace events, microseconds from the tracer origin."""
        events = []
        for name, start, end, parent, span_id, lane in self.events[:limit]:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": lane,
                    "args": {"span": span_id, "parent": parent, "run": self.run_id},
                }
            )
        return events


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._frame: Optional[list] = None

    def __enter__(self) -> "_SpanContext":
        self._frame = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._frame is not None
        self._tracer.end(self._frame)


class Target:
    """One wrap point: ``module:Qual.name`` recorded as span ``span``."""

    def __init__(
        self,
        layer: str,
        path: str,
        span: str,
        keep: bool = True,
        observe: Optional[Observer] = None,
    ) -> None:
        self.layer = layer
        self.path = path
        self.span = span
        self.keep = keep
        self.observe = observe

    def resolve(self) -> Optional[Tuple[Any, str, Any]]:
        """(owner, attribute, original) or ``None`` if the source lacks it."""
        module_name, _, qualname = self.path.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = qualname.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None or not callable(original):
            return None
        return owner, attr, original


def _wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    span, keep, observe = target.span, target.keep, target.observe
    begin, end, clock = tracer.begin, tracer.end, tracer.clock

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        frame = begin(span)
        try:
            result = original(*args, **kwargs)
        finally:
            duration = end(frame, keep)
        if observe is not None:
            started = clock()
            observe(tracer, args, kwargs, result, duration)
            tracer.charge_overhead(clock() - started)
        return result

    traced.__perfbench_original__ = original  # type: ignore[attr-defined]
    return traced


class Installation:
    """Wrappers currently installed; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self.patched: List[Tuple[Any, str, Any]] = []

    def remove(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


def install(tracer: Tracer, targets: Sequence[Target]) -> Installation:
    """Wrap every resolvable target; missing ones become unmeasured layers."""
    installation = Installation()
    for target in targets:
        resolved = target.resolve()
        if resolved is None:
            tracer.unmeasured.append(f"{target.layer}: {target.path}")
            continue
        owner, attr, original = resolved
        setattr(owner, attr, _wrapper(tracer, target, original))
        installation.patched.append((owner, attr, original))
    return installation


def installed_wrappers(targets: Sequence[Target]) -> List[str]:
    """Targets whose current attribute is still a benchmark wrapper."""
    left = []
    for target in targets:
        resolved = target.resolve()
        if resolved is not None and hasattr(resolved[2], "__perfbench_original__"):
            left.append(target.path)
    return left


def write_chrome_trace(path: Path, parts: Sequence[Dict[str, Any]]) -> None:
    """Merge per-process event lists into one trace-event JSON file."""
    events: List[Dict[str, Any]] = []
    for part in parts:
        pid = part["pid"]
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
             "args": {"name": part["label"]}}
        )
        events.extend(part["events"])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
