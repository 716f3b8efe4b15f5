"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload is built in a fresh process, set up once (imports,
systems, suites, a cold ``analyze_cluster``) and then runs whole
*passes*.  A pass returns its wall time, the host and simulated time of
every simulation it ran, the latency of every operation, how many
operations it attempted and how many failed, and a digest of every
output so that a run can be checked against the stored reference.

* ``run`` — ``run_dft`` on the full paper suites of all four bundled
  systems (56 instrumented testcases; the operation is a testcase).
* ``mutate`` — ``run_mutation`` on buck_boost against its full
  24-testcase suite, on the default (unscreened) path, with a seeded
  sample of mutants (the operation is a mutant verdict).
* ``generate`` — ``generate_suite`` on the buck_boost base suite with a
  fixed simulation budget, repeated over seeds derived from the
  benchmark seed (the operation is an instrumented candidate
  simulation).

The benchmark seed is folded onto :data:`REFERENCE_SEEDS` input seeds,
each with stored reference outputs, so every run is checked.
Everything runs serially with default ``DftConfig`` settings
(``workers=1``), so the numbers measure the program, not the scheduler.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spans import WRAPPED, Wrappers

#: The seed of a run that names none.
DEFAULT_SEED = 0
#: Input seeds with outputs stored in ``reference.json``; a benchmark
#: seed ``n`` makes the inputs of input seed ``n % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 20

#: ``name -> (cluster factory ref, full paper suite ref, base suite ref)``.
SYSTEMS: Dict[str, Tuple[str, str, str]] = {
    "sensor": (
        "repro.systems.sensor:SenseTop",
        "repro.systems.sensor:paper_testcases",
        "repro.systems.sensor:paper_testcases",
    ),
    "window_lifter": (
        "repro.systems.window_lifter:WindowLifterTop",
        "repro.systems.campaigns:window_lifter_all_testcases",
        "repro.systems.campaigns:window_lifter_base_suite",
    ),
    "buck_boost": (
        "repro.systems.buck_boost:BuckBoostTop",
        "repro.systems.campaigns:buck_boost_all_testcases",
        "repro.systems.campaigns:buck_boost_base_suite",
    ),
    "riscv_platform": (
        "repro.systems.riscv_platform:RiscvPlatformTop",
        "repro.systems.riscv_platform:paper_style_testcases",
        "repro.systems.riscv_platform:paper_style_testcases",
    ),
}

#: Mutants sampled per ``mutate`` pass.
MUTANTS = 12
#: The operators ``mutate`` samples from: those whose buck_boost mutants
#: all elaborate and run the whole suite (134 of the 262 mutants).  The
#: statement-deletion, swap and rate operators mix nonviable mutants and
#: mutants that crash within milliseconds with ~2 s ones, which made a
#: seeded 20-mutant sample's cost swing by about 20 % between seeds.
MUTATE_OPERATORS = ("aor", "ror", "cpr", "dsr", "delay", "gain", "drop")
#: ``budget_simulations`` of one ``generate_suite`` call (as in the CLI
#: example and BENCH_PR9) and the calls per ``generate`` pass.
GEN_BUDGET = 32
GEN_CALLS = 2


def resolve(ref: str) -> Any:
    module_name, _, attr = ref.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass did.

    ``simulated`` is the simulated time of the pass's fixed work: every
    testcase the workload needs simulated once, however often the
    program ran it.  ``op_ms`` is the host time of each operation
    without the reference loops; ``reference_s`` holds the loops timed
    before the simulations, and ``wall`` includes them.  ``outputs``
    maps an output key to ``(digest, operations it covers)``.
    """

    wall: float = 0.0
    simulated: float = 0.0
    op_ms: List[float] = field(default_factory=list)
    reference_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


#: Iterations of the host-speed reference loop; about 3 ms on a 2-CPU
#: cloud host.
REFERENCE_ITERATIONS = 40_000


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now.

    The shared host's speed drifts by up to ±17 % over tens of seconds
    (measured with this loop over a minute); timing the loop right
    before every simulation lets the report scale throughput to a
    nominal host speed, which cancels most of that drift.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


#: The span of a simulation; the reference loop runs before each.
SIMULATE_SPAN = "tdf.simulate"


class OpTimer:
    """Times every call of a workload's operation through the span wrappers.

    ``sample(args, result)`` gives ``(label, simulated seconds)`` of one
    call; each call becomes a ``(label, host seconds, simulated
    seconds)`` sample.  With the reference loop on, :func:`reference_loop`
    runs before every ``Simulator.run`` and is taken out of the host time
    of the operation around it.  The traced run leaves the loop off, so
    its spans hold only the program's time.
    """

    def __init__(self, span: str, sample: Callable) -> None:
        self.span, self.sample = span, sample
        self.samples: List[Tuple[str, float, float]] = []
        #: Seconds of each reference loop, and when each started.
        self.reference_s: List[float] = []
        self._loop_starts: List[float] = []

    def attach(self, wrappers: Wrappers, reference: bool) -> None:
        wrappers.observe(self.span, self._observe)
        if reference:
            wrappers.before(SIMULATE_SPAN, self._reference)

    def _reference(self) -> None:
        self._loop_starts.append(time.perf_counter())
        self.reference_s.append(reference_loop())

    def _observe(self, span, args, result) -> None:
        loops = 0.0
        for start, seconds in zip(reversed(self._loop_starts), reversed(self.reference_s)):
            if start < span.start:
                break
            loops += seconds
        label, simulated = self.sample(args, result)
        self.samples.append((label, span.duration - loops, simulated))

    def take(self, out: "PassResult") -> List[Tuple[str, float, float]]:
        """Hand over the samples; the loops move into ``out``."""
        samples = self.samples
        out.reference_s.extend(self.reference_s)
        self.samples, self.reference_s, self._loop_starts = [], [], []
        return samples


def distinct_simulated(samples: Sequence[Tuple[str, float, float]]) -> float:
    """Simulated seconds of the first sample of each label; a repeat run
    of the same label adds wall time only."""
    seen: Dict[str, float] = {}
    for label, _, simulated in samples:
        seen.setdefault(label, simulated)
    return sum(seen.values())


def testcase_timer() -> OpTimer:
    """Times ``DynamicAnalyzer.run_testcase``: one instrumented testcase."""
    return OpTimer(
        "instrument.testcase",
        lambda args, _: (args[1].name, args[1].duration.to_seconds()),
    )


def mutant_timer() -> OpTimer:
    """Times ``run_mutant``; a viable verdict covers the whole suite."""

    def covered(args, outcome):
        if outcome.status == "nonviable":
            return outcome.spec.mutant_id, 0.0
        return outcome.spec.mutant_id, sum(tc.duration.to_seconds() for tc in args[2])

    return OpTimer("mutation.mutant", covered)


def measuring(
    timer: OpTimer,
    recorder: Any,
    trace: bool,
    extra: Sequence[Tuple[str, str, bool]] = (),
    observers: Optional[Dict[str, Callable]] = None,
) -> Wrappers:
    """The wrappers a measuring process installs, the timer attached.

    Untraced: only ``Simulator.run`` and the timed operation, with the
    reference loop.  Traced: every layer wrapper of
    :data:`spans.WRAPPED` plus ``extra``, with ``observers`` and
    without the loop.
    """
    if trace:
        entries = WRAPPED + tuple(extra)
    else:
        entries = tuple(e for e in WRAPPED if e[0] in (SIMULATE_SPAN, timer.span))
    wrappers = Wrappers(recorder, entries, observers)
    timer.attach(wrappers, reference=not trace)
    return wrappers


class Workload:
    """Common shape: ``setup()`` once, then ``run_pass()`` repeatedly."""

    name = ""
    #: Report names of the per-operation figures on this workload.
    op_rate = op_p50 = op_tail = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.input_seed = seed % REFERENCE_SEEDS
        #: Static associations found by the cold setup analyses.
        self.associations = 0

    def setup(self) -> None:
        raise NotImplementedError

    def factory_refs(self) -> List[str]:
        """The cluster classes this workload builds."""
        return [SYSTEMS[self.system][0]]

    def timer(self) -> OpTimer:
        return testcase_timer()

    def run_pass(self, timer: OpTimer) -> PassResult:
        raise NotImplementedError

    def _analyze_cold(self, factories: Sequence[Callable]) -> None:
        from repro.analysis.cluster_analysis import analyze_cluster

        for factory in factories:
            self.associations += len(analyze_cluster(factory()).associations)


class RunWorkload(Workload):
    name = "run"
    op_rate, op_p50, op_tail = "testcases_per_s", "testcase_ms_p50", "testcase_ms_tail"

    def __init__(self, seed: int, systems: Sequence[str] = tuple(SYSTEMS)) -> None:
        super().__init__(seed)
        self.systems = list(systems)

    def factory_refs(self) -> List[str]:
        return [SYSTEMS[s][0] for s in self.systems]

    def setup(self) -> None:
        from repro import TestSuite

        self.factories = {s: resolve(SYSTEMS[s][0]) for s in self.systems}
        self.suites = {
            s: TestSuite(s, list(resolve(SYSTEMS[s][1])())) for s in self.systems
        }
        self._analyze_cold(self.factories.values())

    def run_pass(self, timer: OpTimer) -> PassResult:
        """Simulated work: every testcase of the suites that ran."""
        from repro import DftConfig, format_summary
        from repro.core.pipeline import run_dft

        out = PassResult()
        t0 = time.perf_counter()
        for system in self.systems:
            suite = self.suites[system]
            out.attempted += len(suite)
            try:
                result = run_dft(self.factories[system], suite, DftConfig())
            except Exception as exc:  # one failing system must not hide the rest
                out.failed += len(suite)
                out.errors.append(f"{system}: {type(exc).__name__}: {exc}")
                continue
            out.simulated += sum(tc.duration.to_seconds() for tc in suite)
            exercised = result.dynamic.exercised_keys()
            static_keys = {a.key for a in result.static.associations}
            out.outputs[system] = (
                digest({
                    "pairs": sorted(repr(k) for k in exercised),
                    "summary": format_summary(result.coverage),
                    "use_without_def": result.dynamic.use_without_def(),
                }),
                len(suite),
            )
            out.add_count(f"dynamic_not_static.{system}", len(exercised - static_keys))
        out.wall = time.perf_counter() - t0
        out.op_ms = [host * 1000.0 for _, host, _ in timer.take(out)]
        return out


class MutateWorkload(Workload):
    name = "mutate"
    op_rate, op_p50, op_tail = "mutants_per_s", "mutant_ms_p50", "mutant_ms_tail"

    def __init__(
        self, seed: int, system: str = "buck_boost", max_mutants: int = MUTANTS,
    ) -> None:
        super().__init__(seed)
        self.system = system
        self.max_mutants = max_mutants

    def setup(self) -> None:
        from repro.mutation.executor import run_mutation  # noqa: F401

        factory = resolve(SYSTEMS[self.system][0])
        resolve(SYSTEMS[self.system][1])()  # run_mutation rebuilds it from the ref
        self._analyze_cold([factory])

    def timer(self) -> OpTimer:
        return mutant_timer()

    def run_pass(self, timer: OpTimer) -> PassResult:
        """Simulated work: the whole suite for every viable verdict."""
        from repro import DftConfig
        from repro.mutation.executor import run_mutation

        factory_ref, suite_ref, _ = SYSTEMS[self.system]
        out = PassResult()
        t0 = time.perf_counter()
        try:
            run = run_mutation(
                factory_ref, suite_ref, DftConfig(seed=self.input_seed),
                operators=list(MUTATE_OPERATORS), max_mutants=self.max_mutants,
            )
        except Exception as exc:
            out.attempted = out.failed = self.max_mutants
            out.errors.append(f"run_mutation: {type(exc).__name__}: {exc}")
            run = None
        out.wall = time.perf_counter() - t0
        samples = timer.take(out)
        out.simulated = distinct_simulated(samples)
        host = {label: seconds for label, seconds, _ in samples}
        for outcome in run.outcomes if run is not None else ():
            out.attempted += 1
            out.op_ms.append(host[outcome.spec.mutant_id] * 1000.0)
            if outcome.timed_out:
                out.failed += 1
                out.errors.append(f"{outcome.spec.mutant_id}: timed out")
            out.outputs[outcome.spec.mutant_id] = (
                digest([outcome.status, list(outcome.killed_by)]), 1
            )
        return out


class GenerateWorkload(Workload):
    name = "generate"
    op_rate, op_p50, op_tail = "sims_per_s", "sim_ms_p50", "sim_ms_tail"

    def __init__(
        self, seed: int, system: str = "buck_boost",
        budget: int = GEN_BUDGET, calls: int = GEN_CALLS,
    ) -> None:
        super().__init__(seed)
        self.system = system
        self.budget = budget
        self.calls = calls

    def call_seeds(self) -> List[int]:
        """The ``DftConfig.seed`` of each call, derived from the seed."""
        return [self.input_seed * self.calls + i for i in range(self.calls)]

    def setup(self) -> None:
        from repro import TestSuite
        from repro.generation.generate import generate_suite  # noqa: F401

        self.factory = resolve(SYSTEMS[self.system][0])
        self.base = TestSuite(self.system, list(resolve(SYSTEMS[self.system][2])()))
        self._analyze_cold([self.factory])

    def run_pass(self, timer: OpTimer) -> PassResult:
        """Simulated work: per call, each distinct testcase it ran, the
        base suite and every candidate."""
        from repro import DftConfig
        from repro.generation.generate import generate_suite

        out = PassResult()
        base_names = {tc.name for tc in self.base}
        for call_seed in self.call_seeds():
            cfg = DftConfig(seed=call_seed, budget_simulations=self.budget)
            t0 = time.perf_counter()
            try:
                result = generate_suite(self.factory, self.base, self.system, cfg)
            except Exception as exc:
                result = None
                out.attempted += self.budget
                out.failed += self.budget
                out.errors.append(f"seed {call_seed}: {type(exc).__name__}: {exc}")
            out.wall += time.perf_counter() - t0
            samples = timer.take(out)
            out.simulated += distinct_simulated(samples)
            out.op_ms += [host * 1000.0 for name, host, _ in samples if name not in base_names]
            if result is None:
                continue
            out.attempted += result.simulations
            out.outputs[str(call_seed)] = (
                digest({
                    "closed": sorted(repr(k) for k in result.closed),
                    "generated": [t.name for t in result.generated],
                }),
                result.simulations,
            )
            out.add_count("closed", len(result.closed))
        return out


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (RunWorkload, MutateWorkload, GenerateWorkload)
}


def reference_for(reference: Dict[str, Any], workload: Workload) -> Optional[Dict[str, str]]:
    """The stored digests that apply to this workload and seed, or
    ``None`` when none are stored (the run is then unchecked).

    ``run`` uses the fixed paper suites, so its reference holds for
    every seed; the others are stored per input seed.
    """
    entry = reference.get(workload.name)
    if entry is None or workload.name == "run":
        return entry
    return entry.get(str(workload.input_seed))


def check_outputs(
    outputs: Dict[str, Tuple[str, int]], expected: Optional[Dict[str, str]]
) -> Tuple[int, List[str]]:
    """``(failed operations, mismatching keys)`` against ``expected``.

    An output whose digest differs from, or is missing in, the reference
    counts every operation it covers as failed; a reference entry the
    run did not produce is a mismatch too.  ``expected=None`` (no stored
    reference) checks nothing; the caller reports the run unchecked.
    """
    if expected is None:
        return 0, []
    failed = 0
    bad: List[str] = []
    for key, (value, ops) in sorted(outputs.items()):
        if expected.get(key) != value:
            failed += ops
            bad.append(key)
    bad.extend(sorted(set(expected) - set(outputs)))
    return failed, bad
