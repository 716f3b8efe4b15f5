"""Online matching ≡ the post-hoc oracle.

The probe runtime resolves every use the moment it executes; the test
oracle (:mod:`instrument.oracle`) records every probe event and joins
the complete lists afterwards.  On every bundled paper suite, on both
engines, and on random multirate clusters with port delays, both must
report the same pairs and the same use-without-def findings in the same
order.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instrument.oracle import delayed_factory, oracle_runner, paper_dynamic
from repro.analysis import analyze_cluster
from repro.bench import PARALLEL_REFS
from repro.instrument import DynamicAnalyzer, UseWithoutDefWarning
from repro.testing import TestSuite
from repro.testing.generate import random_suite, rate_strategy, values_strategy


def _assert_same(online, oracle):
    assert list(online.per_testcase) == list(oracle.per_testcase)
    for name, expected in oracle.per_testcase.items():
        got = online.per_testcase[name]
        assert got.pairs == expected.pairs, name
        assert got.use_without_def == expected.use_without_def, name


@pytest.mark.parametrize("engine", ["interp", "block"])
@pytest.mark.parametrize("system", sorted(PARALLEL_REFS))
def test_paper_suites_match_oracle(system, engine):
    # The oracle runs on the interpreter, the semantic reference engine.
    _assert_same(
        paper_dynamic(system, engine), paper_dynamic(system, "interp", oracle=True)
    )


@settings(max_examples=8, deadline=None)
@given(
    values=values_strategy(max_size=6),
    up=rate_strategy(),
    down=rate_strategy(),
    delay_in=st.integers(0, 2),
    delay_out=st.integers(0, 2),
    engine=st.sampled_from(["interp", "block"]),
)
def test_random_clusters_match_oracle(values, up, down, delay_in, delay_out, engine):
    """Random multirate clusters with reader- and writer-side delays:
    pairs, diagnostics order and warning count equal the oracle's."""
    factory = delayed_factory(values, up, down, delay_in, delay_out)
    static = analyze_cluster(factory())
    suite = TestSuite("random", random_suite(5))

    def run():
        analyzer = DynamicAnalyzer(factory, static, warn=True, engine=engine)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = analyzer.run_suite(suite)
        warned = sum(
            1 for w in caught if issubclass(w.category, UseWithoutDefWarning)
        )
        return result, warned

    online, online_warned = run()
    with oracle_runner():
        oracle, oracle_warned = run()
    assert online_warned == oracle_warned
    _assert_same(online, oracle)
