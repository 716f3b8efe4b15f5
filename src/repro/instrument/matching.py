"""Exercised def-use pairs, matched online as the probes fire (paper §V).

"Each definition is mapped onto a corresponding use as soon as it is
encountered.  If there exists a use, but no definition, it is notified
as a warning."  The :class:`~repro.instrument.probes.ProbeRuntime`
resolves every use at the moment it executes; :func:`match_events`
only reads the result out.  Concretely:

* **local/member variables** — a use pairs with the most recent
  definition of the same variable in the same model instance (member
  values persist, so the last def may be from an earlier activation —
  exactly the paper's ``m_mux_s`` cross-activation pairs).  A use that
  runs before any definition (the value predates ``processing()``)
  pairs with nothing;

* **ports** — a read of token ``i`` on a signal pairs with the write
  of the greatest token index ``<= i`` on that signal (the floor
  accounts for the kernel's sample-and-hold repetition of unwritten
  samples); of several writes of one token the last wins.  The write
  carries the definition anchor: a source line for instrumented models,
  the netlist bind line for redefining library elements, or the
  *testbench* marker, in which case the read pairs with the reader's
  own placeholder definition at its model start (Table I's
  ``(ip_signal_in, 1, TS, 3, TS)``);

* **initial/delay tokens** (negative index, or below the first written
  token) pair with nothing — they are initial values, not definitions;

* a read on an **undriven signal** is a use without definition: it is
  listed once per port in first-read order and, with ``warn``, raised
  as a :class:`~repro.instrument.probes.UseWithoutDefWarning` — the
  undefined-behaviour bug class both case studies of the paper exhibit.

**Why reading at read time is exact.**  A write lands at token
``flushed + offset`` of its port, i.e. always at or above the port's
flush frontier, and a token becomes readable only once its writer's
activation has flushed it.  So when token ``i`` is read, every write at
an index ``<= i`` has already happened and none can follow: the floor
looked up online is the floor over the whole run.  The block engine
keeps this order too — a hoisted firing's tokens may exist early, but
its write events are replayed at the firing's canonical schedule
position, before any consumer of those tokens fires, and only for the
periods a window completes (a dynamic-TDF rollback drops tokens whose
writes were never replayed).  Instrumented models always fire on the
per-firing path, so no probe ever runs speculatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..core.associations import ExercisedPair
from .probes import PairKey, ProbeRuntime


@dataclass
class MatchResult:
    """Exercised pairs and diagnostics of one testcase run."""

    testcase: str
    pairs: Set[PairKey] = field(default_factory=set)
    #: ``port.full()``-style descriptions of use-without-def reads.
    use_without_def: List[str] = field(default_factory=list)

    def exercised(self) -> List[ExercisedPair]:
        """The pairs as :class:`ExercisedPair` records."""
        return [
            ExercisedPair(var, dm, dl, um, ul, self.testcase)
            for (var, dm, dl, um, ul) in sorted(self.pairs)
        ]


def match_events(
    probe: ProbeRuntime,
    testcase: str,
    model_start_lines: Dict[str, int],
    warn: bool = False,
) -> MatchResult:
    """The probe's exercised pairs and findings as a :class:`MatchResult`.

    ``model_start_lines`` maps model name to the placeholder definition
    line (the ``def processing`` line) testbench-fed reads pair with.
    """
    return MatchResult(
        testcase=testcase,
        pairs=probe.pairs(model_start_lines),
        use_without_def=probe.use_without_def(warn),
    )
