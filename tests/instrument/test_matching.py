"""Unit tests for online def-use matching.

Var events go through the exact callables the instrumenter binds
(:meth:`ProbeRuntime.bind_sites`); port writes through the write index
hooks and engine ops update; port reads through ``pr`` on a minimal
port stand-in positioned at the read token.
"""

import warnings

import pytest

from repro.instrument.matching import match_events
from repro.instrument.probes import (
    LAST_DEF_NAME,
    LOOKUP_NAME,
    USE_SITE_PREFIX,
    ProbeRuntime,
    UseWithoutDefWarning,
    WriterKind,
)


def _probe():
    return ProbeRuntime("top")


def _match(probe, starts=None, warn=False):
    return match_events(probe, "tc", starts or {}, warn=warn)


class _Model:
    def __init__(self, probe, model, *use_lines_per_var):
        self.sites = list(use_lines_per_var)
        self.g = probe.bind_sites(model, tuple(self.sites))

    def define(self, var, line):
        self.g[LAST_DEF_NAME][var] = line

    def use(self, var, line):
        idx = self.sites.index((var, line))
        self.g[f"{USE_SITE_PREFIX}{idx}__"](self.g[LOOKUP_NAME](var))


class TestVarMatching:
    def test_use_pairs_with_most_recent_def(self):
        p = _probe()
        m = _Model(p, "m", ("x", 11), ("x", 13))
        m.define("x", 10)
        m.use("x", 11)
        m.define("x", 12)
        m.use("x", 13)
        assert _match(p).pairs == {
            ("x", "m", 10, "m", 11),
            ("x", "m", 12, "m", 13),
        }

    def test_use_without_prior_def_skipped(self):
        p = _probe()
        _Model(p, "m", ("x", 11)).use("x", 11)
        assert _match(p).pairs == set()

    def test_cross_model_isolation(self):
        p = _probe()
        _Model(p, "a").define("x", 10)
        _Model(p, "b", ("x", 11)).use("x", 11)
        assert _match(p).pairs == set()

    def test_member_pairs_across_activations(self):
        p = _probe()
        m = _Model(p, "m", ("m_s", 15))
        # def in activation 1 (line 20), use in activation 2 (line 15).
        m.define("m_s", 20)
        m.use("m_s", 15)
        assert _match(p).pairs == {("m_s", "m", 20, "m", 15)}


class _Signal:
    def __init__(self, name, driven):
        self.name = name
        self.driver = object() if driven else None
        self.initial_value = 0.0
        self._cursors = {}
        self._base_index = 0
        self._tokens = []

    def _value_at(self, index, port):
        return 0.0


class _Port:
    def __init__(self, signal):
        self.signal = signal
        self.name = "ip"
        self.rate = 1
        self.bind_site = None
        self._in_activation = True
        self._read_hooks = []


class _Reader:
    name = "r"
    OPAQUE_USES = False


class TestPortMatching:
    def _write(self, p, idx, line=30, kind=WriterKind.MODEL, signal="s", var="op"):
        p.write_index(signal)[idx] = p.write_site(var, "w", line, kind)

    def _read(self, p, idx, line=40, signal="s", undriven=False):
        port = _Port(_Signal(signal, not undriven))
        port.signal._cursors[id(port)] = idx
        p.pr(_Reader(), port, line)

    def test_exact_token_join(self):
        p = _probe()
        self._write(p, 0)
        self._read(p, 0)
        assert _match(p).pairs == {("op", "w", 30, "r", 40)}

    def test_floor_join_for_sample_and_hold(self):
        p = _probe()
        self._write(p, 0)
        self._read(p, 3)  # repeated (unwritten) samples
        assert _match(p).pairs == {("op", "w", 30, "r", 40)}

    def test_floor_memo_keeps_later_writes_visible(self):
        p = _probe()
        self._write(p, 0)
        self._read(p, 2)
        self._write(p, 3, line=31)
        self._read(p, 4, line=41)
        self._read(p, 2, line=42)  # re-read below the new write
        assert _match(p).pairs == {
            ("op", "w", 30, "r", 40),
            ("op", "w", 31, "r", 41),
            ("op", "w", 30, "r", 42),
        }

    def test_no_write_before_token_skipped(self):
        p = _probe()
        self._write(p, 5)
        self._read(p, 2)
        assert _match(p).pairs == set()

    def test_floor_requires_same_signal(self):
        p = _probe()
        self._write(p, 0, signal="s")
        self._read(p, 2, signal="t")
        assert _match(p).pairs == set()

    def test_negative_index_is_initial_value(self):
        p = _probe()
        self._write(p, 0)
        self._read(p, -1)
        assert _match(p).pairs == set()

    def test_last_write_per_token_wins(self):
        p = _probe()
        self._write(p, 0, line=30)
        self._write(p, 0, line=33)
        self._read(p, 0)
        assert _match(p).pairs == {("op", "w", 33, "r", 40)}

    def test_testbench_write_pairs_with_placeholder(self):
        p = _probe()
        self._write(p, 0, kind=WriterKind.TESTBENCH)
        self._read(p, 0)
        result = match_events(p, "tc", {"r": 7})
        assert result.pairs == {("ip", "r", 7, "r", 40)}

    def test_testbench_without_start_line_skipped(self):
        p = _probe()
        self._write(p, 0, kind=WriterKind.TESTBENCH)
        self._read(p, 0)
        assert _match(p).pairs == set()

    def test_redef_write_uses_netlist_anchor(self):
        p = _probe()
        p.write_index("s")[0] = p.write_site("op_src", "top", 99, WriterKind.REDEF)
        self._read(p, 0)
        assert _match(p).pairs == {("op_src", "top", 99, "r", 40)}

    def test_pair_dedup(self):
        # The same (def, use) site firing every period yields one pair.
        p = _probe()
        for t in range(5):
            self._write(p, t)
            self._read(p, t)
        assert _match(p).pairs == {("op", "w", 30, "r", 40)}


class TestUseWithoutDef:
    def _undriven_read(self, p, reader="r", port_name="ip"):
        port = _Port(_Signal("s", driven=False))
        port.name = port_name
        port.signal._cursors[id(port)] = 0
        model = type("M", (), {"name": reader, "OPAQUE_USES": False})()
        p.pr(model, port, 40)
        return port

    def test_undriven_read_reported_once(self):
        p = _probe()
        port = self._undriven_read(p)
        for i in (1, 2):
            port.signal._cursors[id(port)] = i
            p.pr(_Reader(), port, 40)
        result = _match(p)
        assert result.use_without_def == ["r.ip"]
        assert result.pairs == set()

    def test_reported_in_first_read_order(self):
        p = _probe()
        self._undriven_read(p, "rb", "ipb")
        self._undriven_read(p, "ra", "ipa")
        self._undriven_read(p, "rb", "ipb")
        assert _match(p).use_without_def == ["rb.ipb", "ra.ipa"]

    def test_warning_raised_when_enabled(self):
        p = _probe()
        self._undriven_read(p)
        with pytest.warns(UseWithoutDefWarning, match="undefined") as caught:
            _match(p, warn=True)
        assert len(caught) == 1

    def test_no_warning_when_disabled(self):
        p = _probe()
        self._undriven_read(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _match(p, warn=False)


class TestExercisedRecords:
    def test_exercised_pairs_carry_testcase(self):
        p = _probe()
        m = _Model(p, "m", ("x", 11))
        m.define("x", 10)
        m.use("x", 11)
        records = _match(p).exercised()
        assert len(records) == 1
        assert records[0].testcase == "tc"
        assert records[0].key == ("x", "m", 10, "m", 11)
