#!/usr/bin/env python3
"""Using the analysis layers directly on your own TDF model.

Shows the lower-level APIs a power user (or a tool builder) would call
instead of the one-shot pipeline:

* :func:`repro.analysis.analyze_model` — intra-model associations of a
  single model, with the Strong/Firm classification;
* :func:`repro.analysis.analyze_cluster` — the full static stage,
  including netlist resolution and the PFirm/PWeak port classes;
* :class:`repro.instrument.DynamicAnalyzer` — instrumented execution of
  a single testcase with direct access to its exercised pairs;
* :func:`repro.instrument.tap_signal` — the paper's ``parallel_print``
  observer for library components.

Run with::

    python examples/custom_model_analysis.py
"""

from repro.analysis import analyze_cluster, analyze_model
from repro.instrument import DynamicAnalyzer, tap_signal
from repro.tdf import Cluster, Simulator, TdfIn, TdfModule, TdfOut, ms
from repro.tdf.library import CollectorSink, DelayTdf, StimulusSource
from repro.testing import TestCase


class PeakHold(TdfModule):
    """Tracks the peak of its input and decays it slowly."""

    def __init__(self, name: str = "peak", decay: float = 0.99) -> None:
        super().__init__(name)
        self.ip = TdfIn()
        self.op_peak = TdfOut()
        self.m_decay = decay
        self.m_peak = 0.0

    def processing(self) -> None:
        sample = self.ip.read()
        decayed = self.m_peak * self.m_decay
        if sample > decayed:
            self.m_peak = sample
        else:
            self.m_peak = decayed
        self.op_peak.write(self.m_peak)


class DemoTop(Cluster):
    def architecture(self) -> None:
        self.src = self.add(StimulusSource("src", lambda t: 0.0, ms(1)))
        self.peak = self.add(PeakHold())
        self.hist = self.add(DelayTdf("hist", delay=1))
        self.monitor = self.add(PeakHold("monitor"))
        self.sink = self.add(CollectorSink("sink"))
        self.connect(self.src.op, self.peak.ip)
        self.connect(self.peak.op_peak, self.hist.ip)
        self.connect(self.hist.op, self.monitor.ip)
        self.connect(self.monitor.op_peak, self.sink.ip)


def main() -> None:
    print("-- intra-model analysis of PeakHold ------------------------")
    model_result = analyze_model(PeakHold())
    for assoc in model_result.associations:
        print(f"  [{assoc.klass.value:6s}] {assoc}  ({assoc.scope.value})")
    print(f"  output-port defs escaping the model: "
          f"{[(d.port, d.line) for d in model_result.out_port_defs]}")

    print()
    print("-- cluster-level analysis ----------------------------------")
    top = DemoTop("demo")
    cluster_result = analyze_cluster(top)
    for assoc in cluster_result.associations:
        if assoc.var == "op_peak":
            print(f"  [{assoc.klass.value:6s}] {assoc}")
    print("  (the monitor only sees op_peak through the delay -> PWeak)")

    print()
    print("-- dynamic analysis of one testcase ------------------------")
    testcase = TestCase(
        "burst", ms(8),
        lambda c: c.module("src").set_waveform(lambda t: 5.0 if t < 0.003 else 0.0),
    )
    analyzer = DynamicAnalyzer(lambda: DemoTop("demo"), cluster_result)
    match = analyzer.run_testcase(testcase)
    print(f"  exercised pairs: {len(match.pairs)}")
    both_branches = {
        key for key in match.pairs if key[0] == "m_peak"
    }
    for key in sorted(both_branches):
        print(f"    m_peak in {key[1]}: def line {key[2]} -> use line {key[4]}")

    print()
    print("-- parallel_print tap (paper §V) ---------------------------")
    tapped = DemoTop("demo")
    tap = tap_signal(tapped, tapped.signals[1])
    Simulator(tapped).run(ms(4))
    print(f"  tap observed tokens: {tap.m_samples}")


if __name__ == "__main__":
    main()
