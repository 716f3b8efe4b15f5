"""Unit tests for the probe runtimes.

:class:`ProbeRuntime` is the online matcher; the per-event
:class:`~instrument.oracle.RecordingProbe` binds to the same names and
is what the differential tests compare it against, so its recording
order and log are pinned here too.
"""

from instrument.oracle import RecordingProbe
from repro.instrument import instrument_processing
from repro.instrument.probes import ProbeRuntime, WriterKind
from repro.tdf import Cluster, Simulator, TdfIn, TdfModule, TdfOut, ms
from repro.tdf.library import CollectorSink, ConstantSource


class _Scaler(TdfModule):
    def __init__(self, name="dut"):
        super().__init__(name)
        self.ip = TdfIn()
        self.op = TdfOut()
        self.m_last = 0.0

    def processing(self):
        value = self.ip.read()
        scaled = value * 3
        self.m_last = scaled
        self.op.write(scaled + self.m_last)


def _var_sites(probe, model="m"):
    """Instrumenter bindings of ``model`` with use sites ``x@2``, ``x@4``."""
    g = probe.bind_sites(model, (("x", 2), ("x", 4)))

    def define(var, line):
        g["__dft_ld__"][var] = line

    def use(site, var):
        g[f"__dft_s{site}__"](g["__dft_g__"](var))

    return define, use


class TestVarApi:
    def test_u_returns_value_unchanged(self):
        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 2.0, timestep=ms(1)))
                self.dut = self.add(_Scaler())
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.dut.ip)
                self.connect(self.dut.op, self.sink.ip)

        top = Top("top")
        probe = ProbeRuntime("top")
        instrument_processing(top.dut, probe)
        Simulator(top).run(ms(2))
        # Wrapped loads still yield their values: 2 * 3 + 6 per sample.
        assert top.sink.values() == [12.0, 12.0]
        assert {pair[0] for pair in probe.pairs({})} == {"value", "scaled", "m_last"}

    def test_bind_sites_shares_last_def_table_per_model(self):
        probe = ProbeRuntime("top")
        a = probe.bind_sites("m", (("x", 2),))
        b = probe.bind_sites("m", (("x", 2),))
        assert a["__dft_ld__"] is b["__dft_ld__"]
        # Two bindings of one use site feed one set.
        a["__dft_ld__"]["x"] = 1
        b["__dft_s0__"](b["__dft_g__"]("x"))
        assert probe.pairs({}) == {("x", "m", 1, "m", 2)}

    def test_sequence_numbers_monotonic(self):
        probe = RecordingProbe("top")
        define, use = _var_sites(probe)
        define("x", 1)
        use(0, "x")
        define("y", 3)
        seqs = [e.seq for e in probe.var_events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3

    def test_clear_resets_everything(self):
        probe = RecordingProbe("top")
        define, _use = _var_sites(probe)
        define("x", 1)
        probe.write_index("s")[0] = probe.write_site("op", "w", 5, WriterKind.MODEL)
        probe.release()
        assert probe.event_counts() == (0, 0, 0)
        define("x", 1)
        assert probe.var_events[0].seq == 1


class TestPortApi:
    def _top(self):
        from helpers import Passthrough

        class Top(Cluster):
            def architecture(self):
                self.src = self.add(ConstantSource("src", 2.0, timestep=ms(1)))
                self.dut = self.add(Passthrough("dut"))
                self.sink = self.add(CollectorSink("sink"))
                self.connect(self.src.op, self.dut.ip)
                self.connect(self.dut.op, self.sink.ip)

        return Top("top")

    def test_pr_and_pw_perform_the_access(self):
        top = self._top()
        probe = ProbeRuntime("top")

        def processing():
            value = probe.pr(top.dut, top.dut.ip, 101)
            probe.pw(top.dut, top.dut.op, 102, value * 3)

        top.dut.register_processing(processing)
        Simulator(top).run(ms(2))
        assert top.sink.values() == [6.0, 6.0]
        assert probe.event_counts() == (0, 2, 2)
        assert probe.writes[top.dut.op.signal.name] == {
            0: ("op", "dut", 102),
            1: ("op", "dut", 102),
        }

    def test_opaque_module_reads_anchor_at_bind_site(self):
        top = self._top()
        probe = ProbeRuntime("top")
        # A testbench write of token 0, as the runner's write hook stores it.
        probe.write_index(top.dut.ip.signal.name)[0] = probe.write_site(
            "op", "src", 0, WriterKind.TESTBENCH
        )
        type(top.dut).OPAQUE_USES = True
        try:
            def processing():
                probe.pw(top.dut, top.dut.op, 102, probe.pr(top.dut, top.dut.ip, 101))

            top.dut.register_processing(processing)
            Simulator(top).run(ms(1))
            pairs = probe.pairs({"dut": 7})
            assert pairs == {("ip", "dut", 7, "top", top.dut.ip.bind_site.lineno)}
        finally:
            type(top.dut).OPAQUE_USES = False


class TestLogDump:
    def test_log_contains_all_event_kinds(self):
        probe = RecordingProbe("top")
        define, use = _var_sites(probe)
        define("x", 1)
        use(0, "x")
        text = probe.log_text()
        assert "DEF" in text and "USE" in text
        assert "m:1" in text and "m:2" in text

    def test_log_ordered_by_sequence(self):
        probe = RecordingProbe("top")
        define, _use = _var_sites(probe)
        define("a", 1)
        define("b", 2)
        lines = probe.log_text().splitlines()
        assert lines[0].split("\t")[2] == "a"
        assert lines[1].split("\t")[2] == "b"
