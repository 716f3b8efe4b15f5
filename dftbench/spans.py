"""In-memory span recorder and the benchmark-side layer wrappers.

The traced run measures each layer by wrapping public callables of
``repro`` from the benchmark's side: a wrapper opens a span, calls the
original and closes the span.  Nothing inside ``src/`` records spans
for the benchmark, so the per-layer numbers stay comparable across
commits that move code around, and a callable that a later commit
deletes simply makes its layer *absent* instead of failing the run.

Every span records its name, start, end and parent.  All spans of one
operation (a testcase, a mutant or a generation candidate) share one
operation id; spans outside any operation carry the root's id 0.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded span stack; finished spans are kept in a list."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_op = 1

    def open(self, name: str, new_op: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        if new_op:
            op = self._next_op
            self._next_op += 1
        else:
            op = parent.op if parent is not None else 0
        span = Span(
            sid=len(self.spans), name=name, start=time.perf_counter(),
            parent=parent.sid if parent is not None else None, op=op,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def write(self, path: str) -> None:
        rows = [
            {
                "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "op": s.op, **s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


#: What the traced run wraps: ``(span name, "module:Owner.attr", starts
#: a new operation)``.  ``Owner`` is empty for module functions.  Where
#: a module imported a function by name, the name *that module* looks up
#: is the one replaced, so the importing module is listed.
WRAPPED: Tuple[Tuple[str, str, bool], ...] = (
    ("analysis.analyze", "repro.analysis.cluster_analysis:analyze_cluster", False),
    ("tdf.initialize", "repro.tdf.simulator:Simulator.initialize", False),
    ("tdf.simulate", "repro.tdf.simulator:Simulator.run", False),
    ("instrument.testcase", "repro.instrument.runner:DynamicAnalyzer.run_testcase", True),
    ("instrument.match", "repro.instrument.runner:match_events", False),
    ("core.run_dft", "repro.core.pipeline:run_dft", False),
    ("core.run_dft", "repro.generation.generate:run_dft", False),
    ("core.coverage", "repro.core.coverage:CoverageResult.__init__", False),
    ("core.coverage", "repro.core.coverage:CoverageResult.class_coverage", False),
    ("exec.cache_get", "repro.exec.cache:DynamicResultCache.get", False),
    ("mutation.generate_mutants", "repro.mutation.executor:generate_mutants", False),
    ("mutation.baseline", "repro.mutation.executor:compute_baselines", False),
    ("mutation.mutant", "repro.mutation.executor:run_mutant", True),
    ("generation.generate", "repro.generation.generate:generate_suite", False),
)


def _resolve_owner(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Owner.attr"`` -> (object holding ``attr``, ``attr``).

    Raises ``ImportError`` / ``AttributeError`` when the module, the
    owner or the attribute no longer exists.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    getattr(owner, attr)
    return owner, attr


class Wrappers:
    """Installs and removes span wrappers; the one way the benchmark
    patches ``repro``.

    ``observers`` maps a span name to ``fn(span, args, result)``, called
    after the wrapped call returns, outside the timed interval, to attach
    counts (probe events, simulated time, pairs) to the span or to take
    a sample.  ``before`` hooks, ``fn()``, run before a span opens, so
    their time is outside it.  An observer that no longer fits the
    callable it observes is recorded in ``observer_errors`` instead of
    failing the run.  Register hooks before :meth:`install`.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        wrapped: Iterable[Tuple[str, str, bool]] = WRAPPED,
        observers: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.recorder = recorder
        self.wrapped = tuple(wrapped)
        self._observers: Dict[str, List[Callable]] = {
            name: [fn] for name, fn in (observers or {}).items()
        }
        self._before: Dict[str, List[Callable]] = {}
        self.observer_errors: Dict[str, str] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self._installed: set = set()
        self._missing: Dict[str, str] = {}

    @property
    def missing(self) -> Dict[str, str]:
        """Span name -> a missing target, for span names none of whose
        targets could be wrapped."""
        return {
            name: target for name, target in self._missing.items()
            if name not in self._installed
        }

    def observe(self, span_name: str, fn: Callable) -> None:
        self._observers.setdefault(span_name, []).append(fn)

    def before(self, span_name: str, fn: Callable) -> None:
        self._before.setdefault(span_name, []).append(fn)

    def install(self) -> None:
        for span_name, target, new_op in self.wrapped:
            try:
                owner, attr = _resolve_owner(target)
            except (ImportError, AttributeError):
                self._missing.setdefault(span_name, target)
                continue
            self._installed.add(span_name)
            own = owner.__dict__.get(attr)
            original = own if own is not None else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span_name, new_op))
            self._undo.append((owner, attr, own))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is None:  # was inherited: drop the shadowing wrapper
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def _wrap(self, original: Callable, span_name: str, new_op: bool) -> Callable:
        recorder = self.recorder
        observers = self._observers.get(span_name, ())
        before = self._before.get(span_name, ())

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for hook in before:
                hook()
            span = recorder.open(span_name, new_op=new_op)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            for observe in observers:
                try:
                    observe(span, args, result)
                except Exception as exc:  # a changed signature must not fail the run
                    self.observer_errors.setdefault(
                        span_name, f"{type(exc).__name__}: {exc}"
                    )
            return result

        return wrapper


def self_time(span: Span, children: List[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def inside(spans: List[Span], ancestor_names: Iterable[str]) -> List[bool]:
    """Per span: whether any ancestor has one of ``ancestor_names``."""
    names = set(ancestor_names)
    flags: List[bool] = []
    for s in spans:  # parents precede children in recording order
        parent = spans[s.parent] if s.parent is not None else None
        flags.append(
            parent is not None and (parent.name in names or flags[parent.sid])
        )
    return flags
