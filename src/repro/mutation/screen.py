"""Mutant screening: replay only the mutated module against baseline streams.

Most ``(mutant, testcase)`` pairs survive, and a surviving pair's full
simulation is almost entirely redundant: only one module's processing
differs from the baseline.  Screening exploits the determinism of
static TDF.  For a mutant whose target module ``X`` has the same
fingerprint as the baseline (module timesteps, every port's
rate/delay/timestep — :meth:`Simulator._attribute_key` — and every
input port's driver), the full-cluster schedule is identical, so ``X``
fires at exactly the baseline's activation times and its inputs are
exactly the baseline's token streams *as long as its own outputs match
the baseline*.  That gives an induction over the global firing order:
replay ``X`` alone, feeding it the recorded baseline input streams, and
compare every token on its outputs, initialization's priming tokens
included, against the recorded baseline output streams.

* Every token equal and no dynamic attribute request filed → the full
  run is **provably identical** to the baseline: the mutant survives
  this testcase without simulating the other modules at all.
* Anything else — a mismatching token, an exception from the mutated
  processing, a ``request_rate``/``request_timestep`` call, a
  fingerprint mismatch, a baseline that re-elaborated — is
  **inconclusive**: the caller falls back to the full simulation,
  which owns the verdict.  Screening therefore never decides *killed*;
  it only ever proves *identical*, so the kill matrix is byte-identical
  to the unscreened executor's by construction.

The induction assumes ``X`` reaches the rest of the cluster only
through its output ports; a processing body that names ``cluster`` is
not screened.

The replay itself reuses the block compiler's generic firing op
(:func:`repro.tdf.engine.compiler._make_generic_op`): the same
interpreted-firing semantics the full engine uses for stateful custom
modules, driven here at ``j * timestep`` for each firing ``j``.
"""

from __future__ import annotations

from collections import deque
from math import copysign
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..tdf.engine.compiler import _make_generic_op
from ..tdf.library.sinks import NullSink
from ..tdf.module import TdfModule
from ..tdf.ports import Port
from ..tdf.time import ScaTime

__all__ = [
    "CLEAN",
    "DIRTY",
    "IDENTICAL",
    "TcScreenData",
    "collect_tc_screen_data",
    "screen_fingerprint",
    "screen_mutant_tc",
]


class TcScreenData:
    """Per-testcase baseline recording needed to screen mutants.

    ``streams`` maps every *driven* signal name to its full baseline
    token-value sequence (output-delay priming values included, so
    token index ``i`` is the signal's ``i``-th write).  ``fingerprint``
    is the baseline simulator's post-run fingerprint and ``periods``
    its period count; ``eligible`` is False when the baseline
    re-elaborated mid-run (dynamic TDF), which invalidates the fixed
    firing grid the replay assumes.
    """

    __slots__ = ("streams", "periods", "fingerprint", "eligible")

    def __init__(
        self,
        streams: Dict[str, List[Any]],
        periods: int,
        fingerprint: Tuple,
        eligible: bool,
    ) -> None:
        self.streams = streams
        self.periods = periods
        self.fingerprint = fingerprint
        self.eligible = eligible


def screen_fingerprint(sim) -> Tuple:
    """Elaboration and binding fingerprint for screening eligibility.

    ``(attribute key, bindings)``: :meth:`Simulator._attribute_key`
    with one normalization, plus every input port's driving
    ``(module, port)``.  The bindings matter because a mutant may rewire
    readers *outside* its target module (``drop``); with them equal,
    every other module reads exactly the signals it read in the
    baseline.

    The normalization: the delay of an input port bound to an
    *undriven* signal is zeroed.  Reads from an undriven signal yield
    the signal's initial value regardless of the cursor position
    (use-without-def semantics), and the scheduler never waits on an
    undriven signal, so such a delay is behaviourally inert — a mutant
    differing only there still executes the baseline's schedule and
    streams exactly.
    """
    key = sim._attribute_key()
    undriven = set()
    bindings = []
    for module in sim.cluster.modules:
        for port in module.in_ports():
            sig = port.signal
            driver = sig.driver if sig is not None else None
            if sig is not None and driver is None:
                undriven.add((module.name, port.name))
            bindings.append(
                (
                    module.name,
                    port.name,
                    (driver.module.name, driver.name) if driver is not None else None,
                )
            )
    if undriven:
        key = tuple(
            (
                mod_name,
                req_ts,
                tuple(
                    (name, rate, 0 if (mod_name, name) in undriven else delay, ts)
                    for name, rate, delay, ts in ports
                ),
            )
            for mod_name, req_ts, ports in key
        )
    return key, tuple(bindings)


def collect_tc_screen_data(sim, driven: Sequence[str]) -> TcScreenData:
    """Build a :class:`TcScreenData` from a finished baseline simulator.

    ``driven`` names every driven signal of the baseline cluster; each
    must have kept its whole token stream (retention floor pinned at
    token 0 before the run).
    """
    signals = sim.cluster._signals
    streams = {}
    for name in driven:
        sig = signals[name]
        assert sig._base_index == 0, f"signal {name!r} dropped baseline tokens"
        streams[name] = list(sig._tokens)
    return TcScreenData(
        streams=streams,
        periods=sim.periods_run,
        fingerprint=screen_fingerprint(sim),
        eligible=sim.reelaborations == 0,
    )


def driven_signal_names(cluster) -> List[str]:
    """Names of every driven signal, in declaration order."""
    return [
        name for name, sig in cluster._signals.items() if sig.driver is not None
    ]


def _tokens_equal(a: Any, b: Any) -> bool:
    """Whether token ``a`` stands in for token ``b`` in every reader.

    Equal values of the same type, with NaN equal to NaN (the
    divergence predicate does not tell two NaNs apart either) and
    ``-0.0`` unequal to ``0.0`` (``copysign`` or ``atan2`` downstream
    would).  ``1 == 1.0 == True`` alone is not enough: a reader could
    branch on the type.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    try:
        if a == b:
            return type(a) is not float or a != 0.0 or copysign(1.0, a) == copysign(1.0, b)
        # Both NaN (the only values unequal to themselves).
        return a != a and b != b
    except Exception:
        return False


def _chunk_equal(produced: List[Any], expected: List[Any]) -> bool:
    """:func:`_tokens_equal` over two equally long token lists.

    The common all-equal case runs at C speed: one list compare, one
    compare of the token types, and a zero test; only a chunk that
    holds a NaN or a zero is rechecked token by token.
    """
    if (
        produced == expected
        and list(map(type, produced)) == list(map(type, expected))
        and 0.0 not in produced
    ):
        return True
    return all(map(_tokens_equal, produced, expected))


#: Verdicts of :func:`screen_mutant_tc`.
IDENTICAL = "identical"  #: provably equal to the baseline — survived
CLEAN = "clean"  #: inconclusive, cluster untouched — reusable for the full run
DIRTY = "dirty"  #: inconclusive, replay mutated state — rebuild before running


#: Value types a module may hold as user state for the replay to be
#: *restorable*: rebinding the attribute restores it exactly, because
#: nothing can mutate such a value in place.
_IMMUTABLE_SCALARS = (type(None), bool, int, float, complex, str, bytes, ScaTime)

#: Module ``__dict__`` keys owned by the kernel.  A firing only ever
#: rebinds these (``_time``, ``activation_count``, ``_pending_timestep``)
#: or mutates the one dict the restore handles explicitly
#: (``_pending_rates``); the rest it never touches.
_KERNEL_KEYS = frozenset(
    {
        "name",
        "cluster",
        "timestep",
        "activation_count",
        "_ports",
        "_processing_fn",
        "_in_ports_cache",
        "_out_ports_cache",
        "_time",
        "_module_timestep_request",
        "_pending_timestep",
        "_pending_rates",
    }
)


def _restorable_value(value: Any) -> bool:
    if isinstance(value, _IMMUTABLE_SCALARS):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_restorable_value(item) for item in value)
    return False


def _snapshot(module, in_ports, out_ports):
    """Snapshot everything a replay of ``module`` can mutate.

    Returns ``None`` when a faithful restore cannot be guaranteed:
    user state holding a mutable value (a list the processing appends
    to would survive a shallow restore), or hooks/observers on the
    module's ports and signals (the replay would fire them; the full
    run would then fire them again).  A body that names ``cluster`` is
    never replayed at all (:func:`screen_mutant_tc`).
    Everything else a firing touches is enumerable — module attribute
    bindings, the pending-rates dict, port activation state, and the
    token buffers/cursors of the module's own signals — and is saved
    here so :func:`_restore` can rewind the cluster to its freshly
    initialized state.
    """
    state = module.__dict__
    ports = module._ports
    for key, value in state.items():
        if key in _KERNEL_KEYS:
            continue
        # The port attributes themselves (``self.ip_x = TdfIn()`` lands
        # in ``__dict__`` too): kernel objects whose mutated fields the
        # restore rewinds explicitly.
        if isinstance(value, Port) and ports.get(key) is value:
            continue
        if not _restorable_value(value):
            return None
    for port in in_ports:
        if port._read_hooks:
            return None
    for port in out_ports:
        if port._write_hooks or port.signal._write_observers:
            return None
    snap_ins = []
    for port in in_ports:
        sig = port.signal
        snap_ins.append(
            (
                port,
                sig,
                sig._tokens,
                sig._base_index,
                sig._write_count,
                sig.last_write_time,
                sig._cursors[id(port)],
            )
        )
    snap_outs = []
    for port in out_ports:
        sig = port.signal
        snap_outs.append(
            (
                port,
                sig,
                list(sig._tokens),
                sig._base_index,
                sig._write_count,
                sig.last_write_time,
                list(port._pending),
                port._flushed,
                port._last_value,
                port._activation_time,
            )
        )
    return (module, dict(state), dict(module._pending_rates), snap_ins, snap_outs)


def _restore(snap) -> None:
    """Rewind a consumed replay back to the post-``initialize()`` state."""
    module, snap_state, snap_rates, snap_ins, snap_outs = snap
    state = module.__dict__
    state.clear()
    state.update(snap_state)
    rates = module._pending_rates
    rates.clear()
    rates.update(snap_rates)
    for port, sig, tokens, base, write_count, lwt, cursor in snap_ins:
        port._in_activation = False
        sig._tokens = tokens
        sig._base_index = base
        sig._write_count = write_count
        sig.last_write_time = lwt
        sig._cursors[id(port)] = cursor
    for (
        port,
        sig,
        content,
        base,
        write_count,
        lwt,
        pending,
        flushed,
        last_value,
        activation_time,
    ) in snap_outs:
        sig._tokens = deque(content)
        sig._base_index = base
        sig._write_count = write_count
        sig.last_write_time = lwt
        port._pending = pending
        port._flushed = flushed
        port._last_value = last_value
        port._in_activation = False
        port._activation_time = activation_time


def screen_mutant_tc(
    sim,
    target_name: str,
    data: TcScreenData,
    time_memo: Optional[Dict[int, Any]] = None,
    oracle: Optional[frozenset] = None,
) -> str:
    """Replay the mutated module alone against the baseline streams.

    ``sim`` must be a freshly ``initialize()``-d simulator over the
    *mutated* cluster with the testcase applied.  Returns one of

    * :data:`IDENTICAL` — every produced token matched; the full run is
      provably the baseline's, the mutant survives this testcase.
    * :data:`CLEAN` — inconclusive, cluster pristine: either nothing
      fired (fingerprint or eligibility mismatch), or the replay broke
      off and was rewound from a pre-replay snapshot.  The caller may
      run the full simulation on this very ``sim``.
    * :data:`DIRTY` — the replay broke off (token mismatch, exception,
      dynamic attribute request) and no faithful snapshot was possible:
      signal buffers and module state are consumed, rebuild the cluster
      for the full run.

    Inconclusive never means *killed*: the full simulation owns every
    verdict the screen cannot prove.
    """
    if not data.eligible:
        return CLEAN
    cluster = sim.cluster
    module = cluster._modules.get(target_name)
    if module is None:
        return CLEAN
    # change_attributes() runs once per period in a live simulation;
    # the replay never calls it, so any override is out of scope.
    if type(module).change_attributes is not TdfModule.change_attributes:
        return CLEAN
    # A body that reaches sibling modules through ``cluster`` could
    # change them behind the compared streams.
    try:
        processing = module.resolved_processing()
        if "cluster" in getattr(processing, "__func__", processing).__code__.co_names:
            return CLEAN
    except AttributeError:
        return CLEAN
    # Identical fingerprint → identical schedule and bindings → the
    # baseline's firing grid and stream alignment hold for the mutant.
    if screen_fingerprint(sim) != data.fingerprint:
        return CLEAN
    schedule = sim.schedule
    if schedule is None:
        return CLEAN
    reps = schedule.repetitions.get(target_name)
    ts = schedule.module_timesteps.get(target_name)
    if reps is None or ts is None:
        return CLEAN
    streams = data.streams

    # Output signals hold only their priming tokens so far.  They are
    # compared too, from token 0: initialization writes them from the
    # module's own attributes (``DelayTdf.m_initial``), which a mutant
    # may have changed.
    #
    # An output is *unobservable* when it is not an oracle signal, has
    # no write observers, and every reader is exactly a NullSink —
    # whose processing reads and discards the value unconditionally, so
    # no token written there can ever influence the verdict.  Such
    # outputs are skipped: a mutant that only perturbs a sink-bound
    # debug stream still screens as identical, matching the serial
    # verdict (the oracle diff never sees that signal either).  The
    # fingerprint pins the readers to the baseline's.
    oracle_set = oracle if oracle is not None else frozenset()
    outs = []
    for port in module.out_ports():
        sig = port.signal
        if sig is None:
            return CLEAN
        if (
            sig.name not in oracle_set
            and not sig._write_observers
            and all(type(r.module) is NullSink for r in sig.readers)
        ):
            continue
        stream = streams.get(sig.name)
        if stream is None or sig._write_count > len(stream) or sig._base_index:
            return CLEAN
        outs.append([sig, stream, 0])

    for port in module.in_ports():
        sig = port.signal
        if sig is None:
            return CLEAN
        if sig.driver is not None and sig.name not in streams:
            return CLEAN

    try:
        op = _make_generic_op(module, 0, time_memo)
    except Exception:
        return CLEAN

    # With a snapshot in hand, an inconclusive replay is *rewound* and
    # reported CLEAN — the caller then runs the full simulation on this
    # very cluster instead of building a new one.  Without one (mutable
    # user state, hooks), inconclusive stays DIRTY.
    snap = _snapshot(module, module.in_ports(), module.out_ports())

    def inconclusive() -> str:
        if snap is None:
            return DIRTY
        _restore(snap)
        return CLEAN

    # Past this point the cluster gets consumed.  Preload every input
    # signal with its full baseline stream: the reader cursor is
    # already at -delay from initialization, and the stream includes
    # output-delay priming tokens, so global token indices line up
    # with the live run exactly.  (Undriven inputs read the signal's
    # initial value in a live run too — nothing to preload.)
    for port in module.in_ports():
        sig = port.signal
        if sig.driver is None:
            continue
        stream = streams[sig.name]
        sig._tokens = deque(stream)
        sig._base_index = 0
        sig._write_count = len(stream)

    # Compared outputs get a plain-list token buffer (they are never
    # garbage-collected during the replay), so whole chunks compare at
    # C speed with list slicing.
    for entry in outs:
        entry[0]._tokens = list(entry[0]._tokens)

    ts_fs = ts.femtoseconds
    total = data.periods * reps
    # Chunks grow geometrically: mismatching mutants usually diverge in
    # their first few firings (a small first chunk catches them after
    # 16 ops), while an identical replay soon reaches large chunks and
    # amortizes the compare passes.
    chunk = 16
    j = 0
    while j < total:
        stop = j + chunk
        if chunk < 1024:
            chunk <<= 2
        if stop > total:
            stop = total
        while j < stop:
            try:
                op(j * ts_fs)
            except Exception:
                # The mutated processing raised.  The full run would
                # raise too (its inputs are identical up to here), but
                # the kill verdict belongs to the full executor —
                # report inconclusive and let it crash there.
                return inconclusive()
            j += 1
        for entry in outs:
            sig, stream, cursor = entry
            wc = sig._write_count
            if wc > len(stream):
                return inconclusive()
            base = sig._base_index
            produced = sig._tokens[cursor - base : wc - base]
            if not _chunk_equal(produced, stream[cursor:wc]):
                return inconclusive()
            entry[2] = wc
        if module.has_pending_attribute_requests:
            # request_rate()/request_timestep() from the mutated body:
            # the live engine would re-elaborate, breaking the fixed
            # grid this replay assumes.  (Requests stay pending until
            # an engine consumes them, so a per-chunk check sees any
            # request made inside the chunk.)
            return inconclusive()
    for entry in outs:
        if entry[2] != len(entry[1]):
            return inconclusive()
    return IDENTICAL
