"""Coverage computation: joining static and dynamic results (Fig. 3).

The evaluation stage intersects the statically identified association
universe with the dynamically exercised pairs, yielding per-class
coverage, the per-testcase exercise matrix (the paper's Table I), and
the list of missed associations that guides testcase addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, TYPE_CHECKING, Tuple

from .associations import AssocClass, Association, Definition

if TYPE_CHECKING:  # pragma: no cover - typing-only imports avoid a cycle
    from ..analysis.cluster_analysis import StaticAnalysisResult
    from ..instrument.runner import DynamicResult
    from ..obs import Telemetry


@dataclass(frozen=True)
class ClassCoverage:
    """Coverage of one association class."""

    klass: AssocClass
    total: int
    covered: int

    @property
    def percent(self) -> Optional[float]:
        """Coverage in percent, or ``None`` when the class is empty.

        The paper prints ``0`` for an empty class column (window lifter
        has no PFirm associations); report formatting handles that.
        """
        if self.total == 0:
            return None
        return 100.0 * self.covered / self.total

    @property
    def complete(self) -> bool:
        """True when every association of the class is covered (also for
        empty classes — an ``all-X`` criterion over nothing is satisfied)."""
        return self.covered == self.total


class CoverageResult:
    """The combined static + dynamic coverage outcome.

    Every exercised pair should be a static association.  The ones that
    are not are counted on the ``coverage.dynamic_not_static`` counter
    of ``telemetry`` (default: the active session) when it records.
    """

    def __init__(
        self,
        static: "StaticAnalysisResult",
        dynamic: "DynamicResult",
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.static = static
        self.dynamic = dynamic
        self._exercised_keys = dynamic.exercised_keys()
        self._static_keys = {a.key for a in static.associations}
        if telemetry is None:
            from ..obs import get_telemetry

            telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.counter("coverage.dynamic_not_static").inc(
                len(self._exercised_keys - self._static_keys)
            )

    # -- raw queries ---------------------------------------------------------

    @property
    def associations(self) -> List[Association]:
        """The static association universe."""
        return self.static.associations

    @property
    def testcase_names(self) -> List[str]:
        """Executed testcases, in suite order."""
        return list(self.dynamic.per_testcase.keys())

    def is_covered(self, assoc: Association) -> bool:
        """Whether at least one testcase exercised ``assoc``."""
        return assoc.key in self._exercised_keys

    def testcases_covering(self, assoc: Association) -> List[str]:
        """Names of the testcases that exercised ``assoc``."""
        return [
            name
            for name, match in self.dynamic.per_testcase.items()
            if assoc.key in match.pairs
        ]

    # -- aggregate numbers (Table II columns) ------------------------------------

    @property
    def static_total(self) -> int:
        """Number of statically identified associations ("Static #")."""
        return len(self.static.associations)

    @property
    def exercised_total(self) -> int:
        """Number of static associations exercised ("Dynamic T #")."""
        return sum(1 for a in self.static.associations if self.is_covered(a))

    @property
    def overall_percent(self) -> float:
        """Exercised fraction of the whole association universe."""
        if not self.static.associations:
            return 100.0
        return 100.0 * self.exercised_total / self.static_total

    def class_coverage(self) -> Dict[AssocClass, ClassCoverage]:
        """Per-class totals and covered counts."""
        totals = {klass: 0 for klass in AssocClass}
        covered = {klass: 0 for klass in AssocClass}
        for assoc in self.static.associations:
            totals[assoc.klass] += 1
            if self.is_covered(assoc):
                covered[assoc.klass] += 1
        return {
            klass: ClassCoverage(klass, totals[klass], covered[klass])
            for klass in AssocClass
        }

    # -- all-defs support ------------------------------------------------------------

    def definitions_with_associations(self) -> List[Definition]:
        """Definitions that have at least one association (the all-defs
        universe; a definition whose value never flows anywhere cannot
        be covered by any testsuite)."""
        def_keys = {
            (a.var, a.definition.model, a.definition.line)
            for a in self.static.associations
        }
        return [d for d in self.static.definitions if d.key in def_keys]

    def covered_definitions(self) -> List[Definition]:
        """Definitions with at least one exercised association."""
        covered_def_keys = {
            (a.var, a.definition.model, a.definition.line)
            for a in self.static.associations
            if self.is_covered(a)
        }
        return [
            d for d in self.definitions_with_associations() if d.key in covered_def_keys
        ]

    # -- all-uses support -----------------------------------------------------------

    def use_sites(self) -> List[Tuple[str, str, int]]:
        """Distinct ``(var, model, line)`` use sites in the universe.

        The classical *all-uses* criterion (which paper §VI-A evaluates
        alongside all-defs) asks for at least one covered association
        per use site.
        """
        return sorted({
            (a.var, a.use.model, a.use.line) for a in self.static.associations
        })

    def covered_use_sites(self) -> List[Tuple[str, str, int]]:
        """Use sites with at least one exercised association."""
        return sorted({
            (a.var, a.use.model, a.use.line)
            for a in self.static.associations
            if self.is_covered(a)
        })

    # -- guidance ----------------------------------------------------------------------

    def missed(self) -> List[Association]:
        """Associations no testcase exercised, strongest class first.

        The class ranking is the paper's triage order: Strong, Firm and
        PFirm associations contain at least one du-path, so a test input
        signal is expected to be able to cover them; PWeak ones are the
        most likely to be infeasible.
        """
        order = {
            AssocClass.STRONG: 0,
            AssocClass.FIRM: 1,
            AssocClass.PFIRM: 2,
            AssocClass.PWEAK: 3,
        }
        misses = [a for a in self.static.associations if not self.is_covered(a)]
        return sorted(
            misses,
            key=lambda a: (order[a.klass], a.def_model, a.var, a.definition.line, a.use.line),
        )

    # -- matrix (Table I) ------------------------------------------------------------------

    def matrix(self) -> List[Tuple[Association, List[bool]]]:
        """Rows of the Table-I exercise matrix.

        One row per association (grouped by class, Strong first), with
        one boolean per testcase in suite order.
        """
        order = {
            AssocClass.STRONG: 0,
            AssocClass.FIRM: 1,
            AssocClass.PFIRM: 2,
            AssocClass.PWEAK: 3,
        }
        names = self.testcase_names
        rows = []
        for assoc in sorted(
            self.static.associations,
            key=lambda a: (order[a.klass], a.def_model, a.var, a.definition.line, a.use.line),
        ):
            marks = [
                assoc.key in self.dynamic.per_testcase[name].pairs for name in names
            ]
            rows.append((assoc, marks))
        return rows
