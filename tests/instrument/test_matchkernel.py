"""Pairing semantics on hand-built probe streams: online ≡ oracle.

Every stream below goes through the online matcher
(:class:`~repro.instrument.probes.ProbeRuntime`) and through the
post-hoc oracle (:mod:`instrument.oracle`) via the same binding API the
instrumenter, write hooks and engine ops use.  Each test asserts that
both report the same pairs and the same use-without-def order first
(via ``_both``), then pins the expected content so a regression in
*both* cannot hide.
"""

import bisect

import pytest

from instrument.oracle import (
    RecordingProbe,
    delayed_factory,
    oracle_match,
    oracle_runner,
    paper_system,
)
from repro.analysis import analyze_cluster
from repro.instrument import DynamicAnalyzer, runner
from repro.instrument.matching import match_events
from repro.instrument.probes import (
    LAST_DEF_NAME,
    LOOKUP_NAME,
    USE_SITE_PREFIX,
    ProbeRuntime,
    UseWithoutDefWarning,
    WriterKind,
)
from repro.testing import TestSuite
from repro.testing.generate import random_suite

MODEL = WriterKind.MODEL
TESTBENCH = WriterKind.TESTBENCH


def USE(var, model, line):
    return ("use", var, model, line)


def DEF(var, model, line):
    return ("def", var, model, line)


def PW(signal, token, var, model, line, kind=MODEL):
    return ("pw", signal, token, var, model, line, kind)


def PR(signal, token, port, reader, line, undriven=False):
    return ("pr", signal, token, port, reader, line, undriven)


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
    """A bound input port positioned at one token, for either probe."""

    rate = 1
    bind_site = None
    _in_activation = True

    def __init__(self, name, signal, token):
        self.name = name
        self.signal = signal
        self._read_hooks = []
        signal._cursors[id(self)] = token

    def global_index(self, offset=0):
        return self.signal._cursors[id(self)] + offset

    def read(self, offset=0):
        return 0.0


class _Reader:
    OPAQUE_USES = False

    def __init__(self, name):
        self.name = name


def _feed(probe, events):
    """Drive ``events`` through ``probe``'s instrumentation bindings."""
    use_sites = {}
    for event in events:
        if event[0] == "use":
            sites = use_sites.setdefault(event[2], [])
            if (event[1], event[3]) not in sites:
                sites.append((event[1], event[3]))
    models = {event[2] for event in events if event[0] in ("def", "use")}
    bindings = {
        model: probe.bind_sites(model, tuple(use_sites.get(model, ())))
        for model in sorted(models)
    }
    signals = {}
    for event in events:
        tag = event[0]
        if tag == "def":
            _, var, model, line = event
            bindings[model][LAST_DEF_NAME][var] = line
        elif tag == "use":
            _, var, model, line = event
            g = bindings[model]
            idx = use_sites[model].index((var, line))
            g[f"{USE_SITE_PREFIX}{idx}__"](g[LOOKUP_NAME](var))
        elif tag == "pw":
            _, signal, token, var, model, line, kind = event
            probe.write_index(signal)[token] = probe.write_site(var, model, line, kind)
        else:
            _, signal, token, port, reader, line, undriven = event
            sig = signals.setdefault(signal, _Signal(signal, not undriven))
            probe.pr(_Reader(reader), _Port(port, sig, token), line)


def _online(events, starts=None, warn=False):
    probe = ProbeRuntime("top")
    _feed(probe, events)
    return match_events(probe, "tc", starts or {}, warn=warn)


def _oracle(events, starts=None, warn=False):
    probe = RecordingProbe("top")
    _feed(probe, events)
    return oracle_match(probe, "tc", starts or {}, warn=warn)


def _both(events, starts=None):
    """Online and oracle results for the same stream, asserted equal."""
    online = _online(events, starts=starts)
    oracle = _oracle(events, starts=starts)
    assert online.pairs == oracle.pairs
    assert online.use_without_def == oracle.use_without_def
    return online


class TestKernelSemantics:
    """Hand-built streams covering every pairing edge case."""

    def test_var_last_def_wins(self):
        result = _both([
            DEF("x", "m", 10),
            USE("x", "m", 11),
            DEF("x", "m", 12),
            USE("x", "m", 13),
        ])
        assert result.pairs == {
            ("x", "m", 10, "m", 11),
            ("x", "m", 12, "m", 13),
        }

    def test_var_cross_model_isolation(self):
        assert _both([DEF("x", "a", 10), USE("x", "b", 11)]).pairs == set()

    def test_use_before_any_def_skipped(self):
        assert _both([USE("x", "m", 11), DEF("x", "m", 10)]).pairs == set()

    def test_group_cummax_does_not_leak_across_groups(self):
        # A def of ('a', 'x') must not satisfy a use of ('b', 'x'),
        # even when it is the most recent def of any 'x'.
        result = _both([
            DEF("x", "a", 10),
            USE("x", "b", 20),
            DEF("y", "b", 30),
            USE("y", "b", 31),
        ])
        assert result.pairs == {("y", "b", 30, "b", 31)}

    def test_floor_join_sample_and_hold(self):
        result = _both([PW("s", 0, "op", "w", 30), PR("s", 3, "ip", "r", 40)])
        assert result.pairs == {("op", "w", 30, "r", 40)}

    def test_floor_requires_same_signal(self):
        # s's write is the greatest written token below t's read index
        # over all signals; only t's own writes may satisfy the floor.
        result = _both([
            PW("s", 1, "op", "w", 30),
            PR("t", 2, "ip", "r", 40),
        ])
        assert result.pairs == set()

    def test_no_write_at_or_below_token_skipped(self):
        result = _both([PW("s", 5, "op", "w", 30), PR("s", 2, "ip", "r", 40)])
        assert result.pairs == set()

    def test_negative_token_is_initial_value(self):
        result = _both([PW("s", 0, "op", "w", 30), PR("s", -1, "ip", "r", 40)])
        assert result.pairs == set()

    def test_last_write_by_sequence_wins(self):
        result = _both([
            PW("s", 0, "op", "w", 30),
            PW("s", 0, "op", "w", 33),
            PR("s", 0, "ip", "r", 40),
        ])
        assert result.pairs == {("op", "w", 33, "r", 40)}

    def test_reads_resolve_after_all_writes(self):
        """The invariant that makes the online floor exact: in a real
        run, every write at token ``<= i`` of a signal precedes the read
        of its token ``i`` — across engines, multirate windows and
        reader/writer delays, testbench and redefining writes included."""
        factory, static, suite = paper_system("sensor")
        runs = [(factory, static, suite)]
        for values, up, down, d_in, d_out in [
            ([0.5, -1.0, 2.0], 3, 2, 2, 0),
            ([1.0, 0.25], 2, 3, 0, 2),
            ([0.0, 3.0, -2.0, 1.0], 1, 2, 1, 1),
        ]:
            delayed = delayed_factory(values, up, down, d_in, d_out)
            runs.append(
                (delayed, analyze_cluster(delayed()), TestSuite("random", random_suite(3)))
            )
        streams = []

        def capture(probe, *args, **kwargs):
            streams.append((list(probe.port_writes), list(probe.port_reads)))
            return oracle_match(probe, *args, **kwargs)

        with oracle_runner(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "match_events", capture)
            for factory, static, suite in runs:
                for engine in ("interp", "block"):
                    DynamicAnalyzer(factory, static, engine=engine).run_suite(suite)
        assert streams and all(reads for _writes, reads in streams)
        for writes, reads in streams:
            # Per signal: tokens ascending, with the running max write seq.
            per_signal = {}
            for w in sorted(writes, key=lambda w: w.token_index):
                tokens, last_seq = per_signal.setdefault(w.signal, ([], []))
                tokens.append(w.token_index)
                last_seq.append(max(w.seq, last_seq[-1] if last_seq else 0))
            for r in reads:
                if r.undriven or r.token_index < 0 or r.signal not in per_signal:
                    continue
                tokens, last_seq = per_signal[r.signal]
                pos = bisect.bisect_right(tokens, r.token_index) - 1
                if pos >= 0:
                    assert last_seq[pos] < r.seq, (r.signal, r.token_index)

    def test_testbench_write_pairs_with_placeholder(self):
        result = _both(
            [PW("s", 0, "op", "tb", 0, TESTBENCH), PR("s", 0, "ip", "r", 40)],
            starts={"r": 7},
        )
        assert result.pairs == {("ip", "r", 7, "r", 40)}

    def test_testbench_without_start_line_skipped(self):
        result = _both([
            PW("s", 0, "op", "tb", 0, TESTBENCH),
            PR("s", 0, "ip", "r", 40),
        ])
        assert result.pairs == set()

    def test_undriven_reported_once_in_stream_order(self):
        result = _both([
            PR("s", 0, "ipb", "rb", 40, undriven=True),
            PR("t", 0, "ipa", "ra", 41, undriven=True),
            PR("s", 1, "ipb", "rb", 40, undriven=True),
        ])
        assert result.use_without_def == ["rb.ipb", "ra.ipa"]
        assert result.pairs == set()

    def test_undriven_warning_count_matches_scan(self):
        # The oracle is a post-hoc scan over the recorded reads.
        events = [
            PR("s", 0, "ip", "r", 40, undriven=True),
            PR("s", 1, "ip", "r", 40, undriven=True),
        ]
        for match in (_online, _oracle):
            with pytest.warns(UseWithoutDefWarning, match="no driver") as rec:
                match(events, warn=True)
            assert len(rec) == 1

    def test_pair_dedup(self):
        # The same (def, use) site firing every period yields one pair.
        result = _both(
            [DEF("x", "m", 10), USE("x", "m", 11)] * 5
            + [PW("s", t, "op", "w", 30) for t in range(5)]
            + [PR("s", t, "ip", "r", 40) for t in range(5)]
        )
        assert result.pairs == {
            ("x", "m", 10, "m", 11),
            ("op", "w", 30, "r", 40),
        }

    def test_empty_stream(self):
        result = _both([])
        assert result.pairs == set() and result.use_without_def == []
