"""Per-layer metrics computed from the traced run's spans.

Layers are named after the modules of ``src/repro``.  Each metric lists
the spans it is computed from; when one of their wrapped callables is
missing at this commit, or no such span was recorded because the
workload does not use the layer, the metric is *absent*: it is reported
as such and reads 0 in the result line.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Span, inside, self_time

SYSTEM_NAMES = ("sensor", "window_lifter", "buck_boost", "riscv_platform")

#: ``(name, unit, better, spans it needs)``; the order is the report's.
PER_LAYER: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("startup.import_s", "s", "lower", ()),
    ("analysis.static_s", "s", "lower", ("analysis.analyze",)),
    ("analysis.associations", "count", "higher", ("analysis.analyze",)),
    ("tdf.build_s", "s", "lower", ("tdf.build",)),
    ("tdf.initialize_s", "s", "lower", ("tdf.initialize",)),
    ("tdf.simulate_s", "s", "lower", ("tdf.simulate",)),
    ("tdf.simulate_calls", "count", "lower", ("tdf.simulate",)),
    ("tdf.sim_rate", "s/s", "higher", ("tdf.simulate",)),
    ("instrument.testcase_s", "s", "lower", ("instrument.testcase",)),
    ("instrument.match_s", "s", "lower", ("instrument.match",)),
    ("instrument.events", "count", "lower", ("instrument.match",)),
    ("instrument.pairs", "count", "higher", ("instrument.match",)),
    ("instrument.overhead_x", "x", "lower", ("instrument.testcase", "tdf.simulate")),
    ("core.run_dft_s", "s", "lower", ("core.run_dft",)),
    ("core.coverage_s", "s", "lower", ("core.coverage",)),
) + tuple(
    (f"core.dynamic_not_static.{system}", "count", "lower", ("core.run_dft",))
    for system in SYSTEM_NAMES
) + (
    ("exec.result_cache_hit_ratio", "ratio", "higher", ("exec.cache_get",)),
    ("mutation.generate_mutants_s", "s", "lower", ("mutation.generate_mutants",)),
    ("mutation.baseline_s", "s", "lower", ("mutation.baseline",)),
    ("mutation.mutant_s", "s", "lower", ("mutation.mutant",)),
    ("mutation.sims_per_verdict", "count", "lower", ("mutation.mutant", "tdf.simulate")),
    ("mutation.nonviable_ratio", "ratio", "lower", ("mutation.mutant",)),
    ("generation.search_s", "s", "lower", ("generation.generate",)),
    ("generation.simulations", "count", "lower", ("generation.generate",)),
    ("generation.closed", "count", "higher", ("generation.generate",)),
    ("generation.closed_per_sim", "ratio", "higher", ("generation.generate",)),
    ("obs.trace_overhead_x", "x", "lower", ()),
    ("obs.unattributed_s", "s", "lower", ()),
)


def observers() -> Dict[str, Callable[[Span, tuple, Any], None]]:
    """Counts attached to spans after the wrapped call returned."""

    def simulate(span, args, result):
        span.attrs["sim_s"] = args[1].to_seconds()

    def match(span, args, result):
        span.attrs["events"] = sum(args[0].event_counts())
        span.attrs["pairs"] = len(result.pairs)

    def cache_get(span, args, result):
        span.attrs["hit"] = result is not None

    def mutant(span, args, result):
        span.attrs["status"] = result.status
        span.attrs["testcases"] = len(args[2])

    def generate(span, args, result):
        span.attrs["simulations"] = result.simulations
        span.attrs["closed"] = len(result.closed)

    return {
        "tdf.simulate": simulate,
        "instrument.match": match,
        "exec.cache_get": cache_get,
        "mutation.mutant": mutant,
        "generation.generate": generate,
    }


class _Spans:
    """Span queries: outermost spans per name, and spans inside others."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self._by_name: Dict[str, List[Span]] = {}
        for s in spans:
            self._by_name.setdefault(s.name, []).append(s)

    def named(self, name: str) -> List[Span]:
        return self._by_name.get(name, [])

    def outermost(self, name: str) -> List[Span]:
        """Spans called ``name`` with no ancestor of the same name."""
        nested = inside(self.spans, (name,))
        return [s for s in self.named(name) if not nested[s.sid]]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.outermost(name))

    def within(self, name: str, ancestor: str) -> List[Span]:
        flags = inside(self.spans, (ancestor,))
        return [s for s in self.named(name) if flags[s.sid]]

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.named(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(
    spans: List[Span],
    root: Span,
    missing: Dict[str, str],
    extra: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """``(values, absent)`` for every metric of :data:`PER_LAYER`.

    ``missing`` maps a span name to the wrapped callable that does not
    exist at this commit; ``extra`` carries what spans cannot give:
    ``import_s``, ``associations``, ``trace_overhead_x`` and the
    ``dynamic_not_static.<system>`` counts of a ``run`` pass.
    """
    q = _Spans(spans)
    mutants = q.named("mutation.mutant")
    viable_pairs = sum(
        s.attrs.get("testcases", 0) for s in mutants
        if s.attrs.get("status") != "nonviable"
    )
    gen_sims = q.attr_sum("generation.generate", "simulations")
    values: Dict[str, float] = {
        "startup.import_s": extra["import_s"],
        "analysis.static_s": q.total("analysis.analyze"),
        "analysis.associations": extra["associations"],
        "tdf.build_s": q.total("tdf.build"),
        "tdf.initialize_s": q.total("tdf.initialize"),
        "tdf.simulate_s": q.total("tdf.simulate"),
        "tdf.simulate_calls": len(q.named("tdf.simulate")),
        "tdf.sim_rate": _ratio(
            q.attr_sum("tdf.simulate", "sim_s"), q.total("tdf.simulate")
        ),
        "instrument.testcase_s": q.total("instrument.testcase"),
        "instrument.match_s": q.total("instrument.match"),
        "instrument.events": q.attr_sum("instrument.match", "events"),
        "instrument.pairs": q.attr_sum("instrument.match", "pairs"),
        "instrument.overhead_x": _ratio(
            q.total("instrument.testcase"),
            sum(s.duration for s in q.within("tdf.simulate", "instrument.testcase")),
        ),
        "core.run_dft_s": q.total("core.run_dft"),
        "core.coverage_s": q.total("core.coverage"),
        "exec.result_cache_hit_ratio": _ratio(
            sum(1 for s in q.named("exec.cache_get") if s.attrs.get("hit")),
            len(q.named("exec.cache_get")),
        ),
        "mutation.generate_mutants_s": q.total("mutation.generate_mutants"),
        "mutation.baseline_s": q.total("mutation.baseline"),
        "mutation.mutant_s": q.total("mutation.mutant"),
        "mutation.sims_per_verdict": _ratio(
            len(q.within("tdf.simulate", "mutation.mutant")), viable_pairs
        ),
        "mutation.nonviable_ratio": _ratio(
            sum(1 for s in mutants if s.attrs.get("status") == "nonviable"),
            len(mutants),
        ),
        "generation.search_s": q.total("generation.generate") - sum(
            s.duration for s in q.within("instrument.testcase", "generation.generate")
        ),
        "generation.simulations": gen_sims,
        "generation.closed": q.attr_sum("generation.generate", "closed"),
        "generation.closed_per_sim": _ratio(
            q.attr_sum("generation.generate", "closed"), gen_sims
        ),
        "obs.trace_overhead_x": extra["trace_overhead_x"],
        "obs.unattributed_s": self_time(
            root, [s for s in spans if s.parent == root.sid]
        ),
    }
    absent: Dict[str, str] = {}
    for name, _unit, _better, needs in PER_LAYER:
        if name.startswith("core.dynamic_not_static."):
            key = name[len("core."):]
            if key in extra:
                values[name] = extra[key]
            else:
                values[name] = 0.0
                absent[name] = "no run_dft pass over this system"
            continue
        reason = _absence(needs, missing, q)
        if reason is not None:
            values[name] = 0.0
            absent[name] = reason
    return values, absent


def _absence(needs: Tuple[str, ...], missing: Dict[str, str], q: _Spans) -> Optional[str]:
    for span_name in needs:
        if span_name in missing:
            return f"{missing[span_name]} does not exist"
    for span_name in needs:
        if not q.named(span_name):
            return "no work on this workload"
    return None
