"""Reference oracle for the online def-use matcher.

:class:`RecordingProbe` binds plain logging callables to the very names
the instrumenter emits (``__dft_ld__``, ``__dft_g__``, ``__dft_s<N>__``,
``pr``/``pw``, the write-index updates of hooks and engine event ops),
so it runs the single instrumentation variant unchanged but records one
dataclass event per probe call instead of matching.  The post-hoc
matchers below then join the complete event lists: reads resolve only
after every write is known, which is the semantics the online matcher
must reproduce.

:func:`oracle_runner` swaps the recorder and the post-hoc join into
:class:`~repro.instrument.runner.DynamicAnalyzer`, so an oracle run
goes through exactly the cluster build, hooks and engines of a real one.
:func:`paper_dynamic` memoizes full paper-suite runs, online or oracle,
so the tests that need them pay each run once per session.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import pytest

from repro.analysis import analyze_cluster
from repro.bench import PARALLEL_REFS
from repro.exec.refs import resolve_ref
from repro.instrument import runner
from repro.instrument.matching import MatchResult
from repro.instrument.probes import (
    LAST_DEF_NAME,
    LOOKUP_NAME,
    USE_SITE_PREFIX,
    UseWithoutDefWarning,
    WriterKind,
)
from repro.testing import TestSuite
from repro.testing.generate import build_cluster


@dataclass(slots=True)
class VarEvent:
    """A local/member def or use executed by instrumented code."""

    is_def: bool
    var: str
    model: str
    line: int
    seq: int


@dataclass(slots=True)
class PortWriteEvent:
    """A token written to a signal (a port-level definition)."""

    signal: str
    token_index: int
    var: str
    model: str
    line: int
    kind: WriterKind
    seq: int


@dataclass(slots=True)
class PortReadEvent:
    """A token consumed from a signal (a port-level use)."""

    signal: str
    token_index: int
    port: str
    reader_model: str
    anchor_model: str
    anchor_line: int
    undriven: bool
    seq: int


class _DefLog:
    """``__dft_ld__`` stand-in: every store is a def event."""

    def __init__(self, probe: "RecordingProbe", model: str) -> None:
        self.probe = probe
        self.model = model

    def __setitem__(self, var: str, line: int) -> None:
        self.probe.var_events.append(
            VarEvent(True, var, self.model, line, self.probe._next())
        )


class _WriteLog:
    """Write-index stand-in: every token store is a write event."""

    def __init__(self, probe: "RecordingProbe", signal: str) -> None:
        self.probe = probe
        self.signal = signal

    def __setitem__(self, index: int, site: tuple) -> None:
        var, model, line, kind = site
        self.probe.port_writes.append(
            PortWriteEvent(self.signal, index, var, model, line, kind, self.probe._next())
        )


class RecordingProbe:
    """Per-event recorder with the :class:`ProbeRuntime` binding API."""

    def __init__(self, cluster_name: str) -> None:
        self.cluster_name = cluster_name
        self.var_events: List[VarEvent] = []
        self.port_writes: List[PortWriteEvent] = []
        self.port_reads: List[PortReadEvent] = []
        self.counts = [0, 0]
        #: Global event sequence number: one counter over every kind.
        self._next = itertools.count(1).__next__

    def event_counts(self) -> Tuple[int, int, int]:
        return len(self.var_events), len(self.port_writes), len(self.port_reads)

    def release(self) -> None:
        """Drop every recorded event and restart the sequence numbers."""
        self.var_events.clear()
        self.port_writes.clear()
        self.port_reads.clear()
        self._next = itertools.count(1).__next__

    def log_text(self) -> str:
        """The events as the paper's print log: one line per event, in
        sequence order (``seq  tag  var/port  model:line  extra``)."""
        rows = [
            (ev.seq, "DEF" if ev.is_def else "USE", ev.var, ev.model, ev.line, "")
            for ev in self.var_events
        ]
        rows += [
            (w.seq, "PW", w.var, w.model, w.line, f"{w.signal}[{w.token_index}] {w.kind.value}")
            for w in self.port_writes
        ]
        rows += [
            (r.seq, "PR", r.port, r.anchor_model, r.anchor_line, f"{r.signal}[{r.token_index}]")
            for r in self.port_reads
        ]
        return "".join(
            f"{seq}\t{tag}\t{var}\t{model}:{line}\t{extra}\n"
            for seq, tag, var, model, line, extra in sorted(rows)
        )

    def bind_sites(self, model, use_sites):
        bindings = {LAST_DEF_NAME: _DefLog(self, model), LOOKUP_NAME: lambda var: None}
        for idx, (var, line) in enumerate(use_sites):
            bindings[f"{USE_SITE_PREFIX}{idx}__"] = self._use_site(var, model, line)
        return bindings

    def _use_site(self, var, model, line):
        append = self.var_events.append

        def use(_last_def) -> None:
            append(VarEvent(False, var, model, line, self._next()))

        return use

    def write_index(self, signal: str) -> _WriteLog:
        return _WriteLog(self, signal)

    @staticmethod
    def write_site(var, model, line, kind) -> tuple:
        return (var, model, line, kind)

    def pr(self, module, port, line, offset=0):
        index = port.global_index(offset)
        value = port.read(offset)
        if module.OPAQUE_USES and port.bind_site is not None:
            anchor_model, anchor_line = self.cluster_name, port.bind_site.lineno
        else:
            anchor_model, anchor_line = module.name, line
        self.port_reads.append(
            PortReadEvent(
                port.signal.name, index, port.name, module.name,
                anchor_model, anchor_line, port.signal.driver is None,
                self._next(),
            )
        )
        return value

    def pw(self, module, port, line, value, offset=0):
        index = port.write(value, offset)
        self.port_writes.append(
            PortWriteEvent(
                port.signal.name, index, port.name, module.name, line,
                WriterKind.MODEL, self._next(),
            )
        )
        return index


def oracle_match(probe: RecordingProbe, testcase, model_start_lines, warn=False) -> MatchResult:
    """Post-hoc join of a :class:`RecordingProbe`'s complete event lists."""
    result = MatchResult(testcase=testcase)
    _match_var_events(probe.var_events, result)
    _match_port_events(probe.port_writes, probe.port_reads, model_start_lines, result, warn)
    return result


def _match_var_events(events: List[VarEvent], result: MatchResult) -> None:
    last_def: Dict[Tuple[str, str], int] = {}
    for ev in events:
        key = (ev.model, ev.var)
        if ev.is_def:
            last_def[key] = ev.line
        else:
            def_line = last_def.get(key)
            if def_line is not None:
                result.pairs.add((ev.var, ev.model, def_line, ev.model, ev.line))


def _match_port_events(
    writes: List[PortWriteEvent],
    reads: List[PortReadEvent],
    model_start_lines: Dict[str, int],
    result: MatchResult,
    warn: bool,
) -> None:
    # Per signal: token index -> last-by-seq write, over *all* writes.
    per_signal: Dict[str, Dict[int, PortWriteEvent]] = {}
    for w in sorted(writes, key=lambda w: w.seq):
        per_signal.setdefault(w.signal, {})[w.token_index] = w
    sorted_indices = {sig: sorted(idx) for sig, idx in per_signal.items()}
    warned: Set[str] = set()
    for r in reads:
        if r.undriven:
            desc = f"{r.reader_model}.{r.port}"
            if desc not in warned:
                warned.add(desc)
                result.use_without_def.append(desc)
                if warn:
                    warnings.warn(
                        f"use of port {desc} without any definition "
                        f"(signal {r.signal!r} has no driver): undefined "
                        f"behaviour per the SystemC-AMS standard",
                        UseWithoutDefWarning,
                        stacklevel=2,
                    )
            continue
        if r.token_index < 0:
            continue
        indices = sorted_indices.get(r.signal, [])
        pos = bisect.bisect_right(indices, r.token_index) - 1
        if pos < 0:
            continue
        w = per_signal[r.signal][indices[pos]]
        if w.kind is WriterKind.TESTBENCH:
            start = model_start_lines.get(r.reader_model)
            if start is not None:
                result.pairs.add(
                    (r.port, r.reader_model, start, r.anchor_model, r.anchor_line)
                )
        else:
            result.pairs.add((w.var, w.model, w.line, r.anchor_model, r.anchor_line))


@contextlib.contextmanager
def oracle_runner():
    """Within the block, :class:`DynamicAnalyzer` records and joins post hoc."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "ProbeRuntime", RecordingProbe)
        mp.setattr(runner, "match_events", oracle_match)
        yield


def delayed_factory(values, up, down, delay_in, delay_out):
    """Factory of a random multirate cluster with reader/writer delays."""

    def factory():
        top = build_cluster(values, up, down)
        top.dut.ip.set_delay(delay_in)
        top.dut.op.set_delay(delay_out)
        return top

    return factory


@functools.lru_cache(maxsize=None)
def paper_system(system: str):
    """``(factory, static result, suite)`` of a bundled system's full suite."""
    refs = PARALLEL_REFS[system]
    factory = resolve_ref(refs["factory"])
    suite = TestSuite(system, resolve_ref(refs["suite"])())
    return factory, analyze_cluster(factory()), suite


@functools.lru_cache(maxsize=None)
def paper_dynamic(system: str, engine: str, oracle: bool = False):
    """The :class:`DynamicResult` of ``system``'s full suite on ``engine``,
    from the online matcher or (``oracle=True``) from the oracle."""
    factory, static, suite = paper_system(system)
    analyzer = runner.DynamicAnalyzer(factory, static, engine=engine)
    if not oracle:
        return analyzer.run_suite(suite)
    with oracle_runner():
        return analyzer.run_suite(suite)
