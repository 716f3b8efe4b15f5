"""Unit tests for coverage computation (synthetic static+dynamic data)."""

import pytest

from repro.analysis.cluster_analysis import StaticAnalysisResult
from repro.core.associations import (
    AssocClass,
    Association,
    Definition,
    SourceLocation,
    VarScope,
)
from repro.core.coverage import CoverageResult
from repro.instrument.matching import MatchResult
from repro.instrument.runner import DynamicResult


def _assoc(var, dm, dl, um, ul, klass):
    return Association(
        var=var,
        definition=SourceLocation(model=dm, line=dl),
        use=SourceLocation(model=um, line=ul),
        klass=klass,
        scope=VarScope.PORT,
    )


def _definition(var, model, line):
    return Definition(var, SourceLocation(model=model, line=line), VarScope.PORT)


@pytest.fixture
def universe():
    """4 associations (one per class) + their definitions."""
    assocs = [
        _assoc("a", "m", 1, "m", 2, AssocClass.STRONG),
        _assoc("b", "m", 3, "m", 4, AssocClass.FIRM),
        _assoc("c", "m", 5, "n", 6, AssocClass.PFIRM),
        _assoc("d", "top", 7, "n", 8, AssocClass.PWEAK),
    ]
    static = StaticAnalysisResult(cluster="top")
    static.associations = assocs
    static.definitions = [
        _definition("a", "m", 1),
        _definition("b", "m", 3),
        _definition("c", "m", 5),
        _definition("d", "top", 7),
        _definition("unused", "m", 99),  # no associations at all
    ]
    return static


def _dynamic(*testcases):
    """testcases: (name, set of keys)."""
    result = DynamicResult()
    for name, keys in testcases:
        match = MatchResult(testcase=name)
        match.pairs = set(keys)
        result.per_testcase[name] = match
    return result


class TestBasicCoverage:
    def test_empty_dynamic_zero_coverage(self, universe):
        cov = CoverageResult(universe, _dynamic(("t1", set())))
        assert cov.exercised_total == 0
        assert cov.overall_percent == 0.0

    def test_partial_coverage(self, universe):
        cov = CoverageResult(
            universe,
            _dynamic(("t1", {("a", "m", 1, "m", 2), ("b", "m", 3, "m", 4)})),
        )
        assert cov.exercised_total == 2
        assert cov.overall_percent == 50.0

    def test_spurious_dynamic_pairs_ignored(self, universe):
        cov = CoverageResult(universe, _dynamic(("t1", {("zz", "q", 1, "q", 2)})))
        assert cov.exercised_total == 0

    def test_class_coverage(self, universe):
        cov = CoverageResult(
            universe, _dynamic(("t1", {("a", "m", 1, "m", 2)}))
        )
        classes = cov.class_coverage()
        assert classes[AssocClass.STRONG].covered == 1
        assert classes[AssocClass.STRONG].percent == 100.0
        assert classes[AssocClass.FIRM].percent == 0.0

    def test_empty_class_percent_none(self, universe):
        universe.associations = [a for a in universe.associations if a.klass is not AssocClass.PFIRM]
        cov = CoverageResult(universe, _dynamic(("t1", set())))
        assert cov.class_coverage()[AssocClass.PFIRM].percent is None
        assert cov.class_coverage()[AssocClass.PFIRM].complete


class TestTestcaseAttribution:
    def test_testcases_covering(self, universe):
        key = ("a", "m", 1, "m", 2)
        cov = CoverageResult(universe, _dynamic(("t1", {key}), ("t2", {key}), ("t3", set())))
        assoc = universe.associations[0]
        assert cov.testcases_covering(assoc) == ["t1", "t2"]

    def test_matrix_rows_ordered_by_class(self, universe):
        cov = CoverageResult(universe, _dynamic(("t1", set())))
        classes = [assoc.klass for assoc, _ in cov.matrix()]
        assert classes == [
            AssocClass.STRONG,
            AssocClass.FIRM,
            AssocClass.PFIRM,
            AssocClass.PWEAK,
        ]

    def test_matrix_marks(self, universe):
        key = ("b", "m", 3, "m", 4)
        cov = CoverageResult(universe, _dynamic(("t1", set()), ("t2", {key})))
        row = next(r for r in cov.matrix() if r[0].var == "b")
        assert row[1] == [False, True]


class TestAllDefsSupport:
    def test_definitions_without_associations_excluded(self, universe):
        cov = CoverageResult(universe, _dynamic(("t1", set())))
        names = {d.var for d in cov.definitions_with_associations()}
        assert "unused" not in names
        assert names == {"a", "b", "c", "d"}

    def test_covered_definitions(self, universe):
        cov = CoverageResult(universe, _dynamic(("t1", {("a", "m", 1, "m", 2)})))
        assert {d.var for d in cov.covered_definitions()} == {"a"}


class TestGuidance:
    def test_missed_ranked_by_class(self, universe):
        cov = CoverageResult(
            universe, _dynamic(("t1", {("b", "m", 3, "m", 4)}))
        )
        missed = cov.missed()
        assert [a.klass for a in missed] == [
            AssocClass.STRONG,
            AssocClass.PFIRM,
            AssocClass.PWEAK,
        ]


class TestDynamicNotStaticCounter:
    """Checked invariant: every exercised pair is a static association.

    The counter only reports violations; the known riscv_platform one
    (the ADC input's placeholder pair ``adc_i``, anchored at the netlist)
    is pinned until its root cause is fixed on either side.
    """

    def _count(self, static, dynamic):
        from repro.obs import Telemetry

        tel = Telemetry()
        CoverageResult(static, dynamic, telemetry=tel)
        return tel.metrics.counter("coverage.dynamic_not_static").value

    def test_counts_exercised_keys_outside_the_universe(self, universe):
        dynamic = _dynamic(
            ("t1", {("a", "m", 1, "m", 2), ("zz", "q", 1, "q", 2)}),
            ("t2", {("zz", "q", 1, "q", 2), ("yy", "q", 3, "q", 4)}),
        )
        assert self._count(universe, dynamic) == 2

    @pytest.mark.parametrize("system, expected", [
        ("sensor", 0), ("window_lifter", 0), ("buck_boost", 0),
        ("riscv_platform", 1),
    ])
    def test_paper_suites(self, system, expected):
        from instrument.oracle import paper_dynamic, paper_system

        _factory, static, _suite = paper_system(system)
        assert self._count(static, paper_dynamic(system, "block")) == expected
