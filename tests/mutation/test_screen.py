"""Mutant screening: the replay proves *identical*, never *killed*.

Soundness rests on two pillars pinned here: the kill matrix of the
screened default path is byte-identical to the unscreened
``run_mutant`` reference, and every inconclusive exit either restores
the cluster exactly (CLEAN) or declares it consumed (DIRTY) — screening
is a pure accelerator, invisible in the results.
"""

import math

import pytest

from repro import DftConfig
from repro.mutation import (
    apply_mutant,
    compute_baselines,
    generate_mutants,
    kill_matrix_bytes,
    run_mutant,
    run_mutation,
)
from repro.mutation.executor import MutationRun, _oracle_names
from repro.mutation.screen import (
    CLEAN,
    DIRTY,
    IDENTICAL,
    _restorable_value,
    _snapshot,
    _tokens_equal,
    driven_signal_names,
    screen_fingerprint,
    screen_mutant_tc,
)
from repro.obs import Telemetry
from repro.tdf import Cluster, Simulator, ms
from repro.tdf.library import CollectorSink, DelayTdf, StimulusSource
from repro.tdf.time import ScaTime
from repro.testing.generate import build_random_cluster, random_suite
from repro.testing.testcase import TestCase

RANDOM_FACTORY = "repro.testing.generate:random_cluster_factory"
RANDOM_SUITE = "repro.testing.generate:random_suite"
BUCK_FACTORY = "repro.systems.buck_boost:BuckBoostTop"

#: The buck_boost mutants an earlier screen wrongly proved identical.
BUCK_REGRESSIONS = (
    "gain:000:i_vout_delay",
    "drop:000:i_vout_delay",
    "drop:001:i_sense_gain",
)


def buck_boost_regression_suite():
    """Three buck_boost testcases that between them kill every
    regression mutant; ``gain:000`` survives two of them."""
    from repro.systems.campaigns import buck_boost_all_testcases

    keep = ("bb_buck_0v9", "bb_boost_4v2", "bb_boost_8v0")
    return [tc for tc in buck_boost_all_testcases() if tc.name in keep]


def unscreened_reference(run: MutationRun, factory, testcases) -> MutationRun:
    """``run`` re-judged by the unscreened ``run_mutant``, one full
    simulation per ``(mutant, testcase)`` pair."""
    oracle = run.oracle_signals
    baselines = compute_baselines(factory, testcases, oracle, run.engine)
    outcomes = [
        run_mutant(spec, factory, testcases, baselines, oracle,
                   run.engine, run.tolerance, None)
        for spec in run.specs
    ]
    return MutationRun(**{**vars(run), "outcomes": outcomes})


def _mutate_random(**cfg_kwargs):
    return run_mutation(
        RANDOM_FACTORY,
        RANDOM_SUITE,
        DftConfig(seed=0, **cfg_kwargs),
        factory_args=(7,),
        suite_args=(7,),
        max_mutants=10,
    )


class TestScreenedKillMatrix:
    """The acceptance invariant: screening never changes a verdict."""

    @pytest.fixture(scope="class")
    def reference(self):
        run = _mutate_random()
        factory = lambda: build_random_cluster(7)
        return kill_matrix_bytes(unscreened_reference(run, factory, random_suite(7)))

    def test_random_cluster_matches_unscreened(self, reference):
        assert kill_matrix_bytes(_mutate_random()) == reference

    def test_workers_match_unscreened(self, reference):
        assert kill_matrix_bytes(_mutate_random(workers=2)) == reference

    def test_interp_engine_matches_unscreened(self):
        run = _mutate_random(engine="interp")
        factory = lambda: build_random_cluster(7)
        expected = unscreened_reference(run, factory, random_suite(7))
        assert kill_matrix_bytes(run) == kill_matrix_bytes(expected)

    def test_buck_boost_regressions_match_unscreened(self):
        from repro.systems.buck_boost import BuckBoostTop

        run = run_mutation(BUCK_FACTORY, f"{__name__}:buck_boost_regression_suite",
                           DftConfig(seed=0), operators=("gain", "drop"))
        assert set(BUCK_REGRESSIONS) <= {spec.mutant_id for spec in run.specs}
        expected = unscreened_reference(
            run, BuckBoostTop, buck_boost_regression_suite()
        )
        assert kill_matrix_bytes(run) == kill_matrix_bytes(expected)
        by_id = {o.spec.mutant_id: o for o in run.outcomes}
        for mutant_id in BUCK_REGRESSIONS:
            assert by_id[mutant_id].status == "killed", mutant_id

    def test_screen_telemetry_recorded(self):
        tel = Telemetry()
        _mutate_random(telemetry=tel)
        counters = {c.name: c.value for c in tel.metrics.counters()}
        # The random cluster always has surviving mutants whose replay
        # proves them identical — the screen must engage by default.
        assert counters.get("mutation.screened_identical", 0) > 0
        screens = tel.find_spans("mutation.screen")
        assert screens
        mutant_ids = {s.span_id for s in tel.find_spans("mutation.mutant")}
        assert all(s.parent_id in mutant_ids for s in screens)


# -- soundness regressions ------------------------------------------------------


class DelayTop(Cluster):
    """``src -> delay -> sink``: the delay's priming token is its
    ``m_initial``."""

    def architecture(self) -> None:
        self.src = self.add(StimulusSource("src", lambda t: 1.0, ms(1)))
        self.delay = self.add(DelayTdf("delay", delay=1))
        self.sink = self.add(CollectorSink("sink"))
        self.connect(self.src.op, self.delay.ip)
        self.connect(self.delay.op, self.sink.ip)


def _baseline_screen(factory, testcase, oracle):
    screen = {}
    compute_baselines(factory, [testcase], oracle, "block", screen=screen)
    return screen[testcase.name]


def _mutant_sim(factory, spec, testcase):
    cluster = factory()
    apply_mutant(cluster, spec)
    testcase.apply(cluster)
    sim = Simulator(cluster, engine="block")
    sim.initialize()
    return sim


class TestScreenSoundness:
    def test_mutated_delay_initial_value_is_not_identical(self):
        # The mutant changes only the priming token the delay's output
        # port writes at initialize(); the screen must compare it.
        tc = TestCase("flat", ms(8), lambda cluster: None)
        oracle = _oracle_names(DelayTop("top"), None)
        data = _baseline_screen(lambda: DelayTop("top"), tc, oracle)
        specs = [s for s in generate_mutants(DelayTop("top"), ["gain"])
                 if "m_initial" in s.detail]
        assert len(specs) == 1
        sim = _mutant_sim(lambda: DelayTop("top"), specs[0], tc)
        verdict = screen_mutant_tc(sim, "delay", data, oracle=frozenset(oracle))
        assert verdict != IDENTICAL

    @pytest.mark.parametrize("mutant_id, killer", [
        ("drop:000:i_vout_delay", "bb_buck_0v9"),
        ("drop:001:i_sense_gain", "bb_boost_8v0"),
    ])
    def test_buck_boost_drop_mutants_are_not_identical(self, mutant_id, killer):
        # A drop mutant rewires the readers of the target's output, so
        # the binding outside the target module differs from the
        # baseline's; the target's own tokens alone prove nothing.
        from repro.systems.buck_boost import BuckBoostTop
        from repro.systems.campaigns import buck_boost_all_testcases

        tc = next(t for t in buck_boost_all_testcases() if t.name == killer)
        oracle = _oracle_names(BuckBoostTop(), None)
        spec = next(s for s in generate_mutants(BuckBoostTop(), ["drop"])
                    if s.mutant_id == mutant_id)
        baselines = compute_baselines(BuckBoostTop, [tc], oracle, "block")
        unscreened = run_mutant(spec, BuckBoostTop, [tc], baselines, oracle,
                                "block", 0.0, None)
        assert unscreened.killed_by == (tc.name,)
        data = _baseline_screen(BuckBoostTop, tc, oracle)
        sim = _mutant_sim(BuckBoostTop, spec, tc)
        verdict = screen_mutant_tc(sim, spec.target, data, oracle=frozenset(oracle))
        assert verdict != IDENTICAL


# -- direct screen_mutant_tc verdicts -----------------------------------------


@pytest.fixture(scope="module")
def screen_env():
    """Baseline screen data for the seeded random cluster, one testcase."""
    factory = lambda: build_random_cluster(7)
    testcases = random_suite(7)[:1]
    oracle = _oracle_names(factory(), None)
    screen = {}
    compute_baselines(factory, testcases, oracle, "block", screen=screen)
    return factory, testcases[0], frozenset(oracle), screen[testcases[0].name]


def _fresh_sim(factory, testcase):
    cluster = factory()
    testcase.apply(cluster)
    sim = Simulator(cluster, engine="block")
    sim.initialize()
    return sim


class TestScreenVerdicts:
    def test_unmutated_module_screens_identical(self, screen_env):
        factory, tc, oracle, data = screen_env
        sim = _fresh_sim(factory, tc)
        assert screen_mutant_tc(sim, "dut", data, oracle=oracle) == IDENTICAL

    def test_value_mutant_rewinds_clean(self, screen_env):
        # Perturbed initial state diverges at the first firing; the
        # scalar-only DUT is snapshottable, so the replay rewinds and
        # the very same sim must still reproduce the serial run.
        factory, tc, oracle, data = screen_env
        sim = _fresh_sim(factory, tc)
        sim.cluster.dut.m_acc = 1.0
        assert screen_mutant_tc(sim, "dut", data, oracle=oracle) == CLEAN

        reference = _fresh_sim(factory, tc)
        reference.cluster.dut.m_acc = 1.0
        horizon = data.periods * reference.schedule.period
        sim.run(horizon)
        reference.run(horizon)
        assert (
            sim.cluster.sink.values() == reference.cluster.sink.values()
        )

    def test_unrestorable_state_goes_dirty(self, screen_env):
        factory, tc, oracle, data = screen_env
        sim = _fresh_sim(factory, tc)
        sim.cluster.dut.m_acc = 1.0  # force a token mismatch...
        sim.cluster.dut.m_junk = [1, 2]  # ...with no faithful snapshot
        assert screen_mutant_tc(sim, "dut", data, oracle=oracle) == DIRTY

    def test_raising_mutant_is_inconclusive_not_killed(self, screen_env):
        factory, tc, oracle, data = screen_env
        sim = _fresh_sim(factory, tc)
        sim.cluster.dut.register_processing(lambda: 1 / 0)
        verdict = screen_mutant_tc(sim, "dut", data, oracle=oracle)
        assert verdict in (CLEAN, DIRTY)

    def test_unknown_module_is_clean(self, screen_env):
        factory, tc, oracle, data = screen_env
        sim = _fresh_sim(factory, tc)
        assert screen_mutant_tc(sim, "nope", data, oracle=oracle) == CLEAN

    def test_ineligible_baseline_is_clean(self, screen_env):
        from repro.mutation.screen import TcScreenData

        factory, tc, oracle, data = screen_env
        stale = TcScreenData(data.streams, data.periods, data.fingerprint,
                             eligible=False)
        sim = _fresh_sim(factory, tc)
        assert screen_mutant_tc(sim, "dut", stale, oracle=oracle) == CLEAN


# -- helpers -------------------------------------------------------------------


class TestHelpers:
    def test_restorable_values(self):
        for value in (None, True, 3, 2.5, 1j, "s", b"b", ScaTime(5),
                      (1, "x"), frozenset({1.0}), (1, (2, None))):
            assert _restorable_value(value)
        for value in ([1], {"k": 1}, {1}, (1, [2]), bytearray(b"x")):
            assert not _restorable_value(value)

    def test_tokens_equal_handles_nan(self):
        nan = float("nan")
        assert _tokens_equal(1.0, 1.0)
        assert _tokens_equal(nan, nan)
        assert not _tokens_equal(nan, 1.0)
        assert _tokens_equal(math.inf, math.inf)
        assert not _tokens_equal(math.inf, -math.inf)

    def test_snapshot_rejects_mutable_state(self):
        cluster = build_random_cluster(7)
        Simulator(cluster, engine="block").initialize()
        dut = cluster.dut
        assert _snapshot(dut, dut.in_ports(), dut.out_ports()) is not None
        dut.m_junk = [1]
        assert _snapshot(dut, dut.in_ports(), dut.out_ports()) is None

    def test_driven_signals_cover_the_chain(self):
        cluster = build_random_cluster(7)
        names = driven_signal_names(cluster)
        assert len(names) == 5  # src->gain->up->dut->down->sink edges
        assert names == [
            s.name for s in cluster.signals if s.driver is not None
        ]

    def test_fingerprint_is_attribute_key_plus_bindings(self):
        cluster = build_random_cluster(7)
        sim = Simulator(cluster, engine="block")
        sim.initialize()
        key, bindings = screen_fingerprint(sim)
        assert key == sim._attribute_key()  # every input is driven
        assert ("dut", "ip", ("up", "op")) in bindings
        assert len(bindings) == 5  # one per input port of the chain
