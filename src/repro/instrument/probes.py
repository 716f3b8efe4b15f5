"""Runtime probes: online def-use matching as the instrumented code runs.

The paper's dynamic analysis inserts a print instruction before every
definition/use, and "each definition is mapped onto a corresponding use
as soon as it is encountered" (§V).  :class:`ProbeRuntime` does exactly
that: nothing is logged, every probe resolves its pair on the spot.

* **local/member variables** — the instrumenter turns a definition into
  a store into this model's last-def table and a use into "add the
  current last def to this use site's set" (both C-level calls, see
  :meth:`ProbeRuntime.bind_sites`);
* **port writes** (``pw``, testbench/redefining write hooks, the block
  engine's event ops) store their definition site into the signal's
  write index under the written token index;
* **port reads** (``pr``) look up the write index at the read token
  (sample-and-hold floor) and add the site to the read anchor's set.

:func:`repro.instrument.matching.match_events` turns the collected sets
into the testcase's :class:`~repro.instrument.matching.MatchResult`;
the exact pairing rules are documented there.
"""

from __future__ import annotations

import enum
import warnings
from typing import Any, Dict, List, Mapping, Set, Tuple

from ..tdf.errors import PortAccessError
from ..tdf.ports import TdfIn

PairKey = Tuple[str, str, int, str, int]

#: Instrumenter globals bound by :meth:`ProbeRuntime.bind_sites`: the
#: model's last-def table, its ``get`` and the per-use-site set adders
#: ``__dft_s<N>__``.
LAST_DEF_NAME = "__dft_ld__"
LOOKUP_NAME = "__dft_g__"
USE_SITE_PREFIX = "__dft_s"

#: Token not in a signal's write index yet (``None`` is a memoised
#: "no write at or below this token").
_MISS = object()


class UseWithoutDefWarning(UserWarning):
    """A port was used although its signal is never defined.

    Undefined behaviour per the SystemC-AMS standard; the paper found
    exactly this bug class in both case-study VPs ("the ports were not
    defined, but still used in a different TDF model", §VI-B).
    """


class WriterKind(enum.Enum):
    """Who produced a token (decides how a read is paired)."""

    MODEL = "model"          #: instrumented model write (def anchored in source)
    REDEF = "redef"          #: redefining library element (netlist anchor)
    TESTBENCH = "testbench"  #: testbench stimulus (pairs to placeholder defs)


def _floor(sites: Dict[int, Any], index: int) -> Any:
    """Site of the greatest written token ``<= index`` (``None``: none).

    Memoised under ``index``: token ``index`` is being read, so no write
    at or below it can follow and the answer is final.  A later floor
    query above ``index`` therefore stops here instead of rescanning.
    """
    get = sites.get
    j = index - 1
    while j >= 0:
        site = get(j, _MISS)
        if site is not _MISS:
            break
        j -= 1
    else:
        site = None
    sites[index] = site
    return site


class ProbeRuntime:
    """The online matcher of one testcase execution.

    State, all filled while the simulation runs:

    * ``last_defs`` — model -> {variable: line of its latest definition};
    * ``var_uses`` — ``(model, var, use line)`` -> def lines seen there
      (``None`` when a use ran before any definition);
    * ``writes`` — signal -> {token index: write site}; a site is
      ``(var, model, line)`` or :attr:`WriterKind.TESTBENCH`, and a
      later write of the same token replaces the earlier one;
    * ``port_uses`` — ``(anchor model, anchor line, port, reader)`` ->
      write sites read there;
    * ``undriven`` — ``(reader.port, signal)`` per use-without-def
      port, in first-read order.
    """

    def __init__(self, cluster_name: str) -> None:
        self.cluster_name = cluster_name
        self.last_defs: Dict[str, Dict[str, int]] = {}
        self.var_uses: Dict[Tuple[str, str, int], Set[Any]] = {}
        self.writes: Dict[str, Dict[int, Any]] = {}
        self.port_uses: Dict[Tuple[str, int, str, str], Set[Any]] = {}
        self.undriven: List[Tuple[str, str]] = []
        #: ``[port writes, port reads]`` executed so far.
        self.counts = [0, 0]
        self._install()

    def event_counts(self) -> Tuple[int, int, int]:
        """``(var, port write, port read)`` probe events executed.

        Port counts are exact.  Variable events are matched in place
        and never stored, so their slot is always 0.
        """
        return 0, self.counts[0], self.counts[1]

    # -- binding (instrumenter, write hooks, engine event ops) ---------------

    def bind_sites(self, model: str, use_sites: Tuple[Tuple[str, int], ...]) -> Dict[str, Any]:
        """Instrumenter globals for one model instance.

        ``use_sites`` lists ``(var, line)`` per emitted use site; site
        ``N`` calls ``__dft_s<N>__``.  A definition compiles to
        ``__dft_ld__[var] = line``, a use to
        ``__dft_s<N>__(__dft_g__(var))``: the current last def joins the
        use site's set without a Python frame.
        """
        last_def = self.last_defs.setdefault(model, {})
        bindings: Dict[str, Any] = {LAST_DEF_NAME: last_def, LOOKUP_NAME: last_def.get}
        var_uses = self.var_uses
        for idx, (var, line) in enumerate(use_sites):
            uses = var_uses.setdefault((model, var, line), set())
            bindings[f"{USE_SITE_PREFIX}{idx}__"] = uses.add
        return bindings

    def write_index(self, signal: str) -> Dict[int, Any]:
        """The token -> write-site index of ``signal`` (shared, live)."""
        return self.writes.setdefault(signal, {})

    def release(self) -> None:
        """Empty the write index in place.

        It holds one entry per port token, and the instrumented cluster
        keeps references to it (write hooks, compiled event ops) until
        the cyclic garbage collector frees that cluster; emptying it
        once the results are read bounds memory to one testcase.
        """
        for sites in self.writes.values():
            sites.clear()

    @staticmethod
    def write_site(var: str, model: str, line: int, kind: WriterKind) -> Any:
        """The value a write of this definition stores in the index."""
        if kind is WriterKind.TESTBENCH:
            return WriterKind.TESTBENCH
        return (var, model, line)

    # -- instrumented-code API (names kept short on purpose) -----------------

    def _install(self) -> None:
        """Bind ``pr``/``pw`` as closures over the matcher state.

        The instrumented code calls ``__dft_probe__.pr(self, ...)`` — an
        instance-dict lookup resolving to these plain functions, which
        skips bound-method creation.  They inline the port fast paths
        but keep every user-visible validation and hook of
        :meth:`TdfIn.read` / :meth:`TdfOut.write`.
        """
        counts = self.counts
        write_index = self.write_index
        # id(port) -> (write index, {line: read set / write site}).
        read_state: Dict[int, tuple] = {}
        write_state: Dict[int, tuple] = {}
        read_get = read_state.get
        write_get = write_state.get
        undriven_ports: Set[int] = set()

        def pr(module, port, line, offset=0):
            sig = port.signal
            if sig is None:
                raise PortAccessError(f"read from unbound port {port.full_name()}")
            if not port._in_activation:
                raise PortAccessError(
                    f"port {port.full_name()} read outside of processing()"
                )
            if offset and not 0 <= offset < port.rate:
                raise PortAccessError(
                    f"sample offset {offset} out of range for port "
                    f"{port.full_name()} with rate {port.rate}"
                )
            index = sig._cursors[id(port)] + offset
            driver = sig.driver
            if driver is None:
                value = sig.initial_value
            else:
                # Inline _value_at's in-buffer fast path; delegate the
                # delay region and bounds diagnostics to the slow path.
                i = index - sig._base_index
                if i >= 0:
                    try:
                        value = sig._tokens[i]
                    except IndexError:
                        value = sig._value_at(index, port)
                else:
                    value = sig._value_at(index, port)
            hooks = port._read_hooks
            if hooks:
                for hook in hooks:
                    hook(port, index, value, offset)
            counts[1] += 1
            if driver is None:
                if id(port) not in undriven_ports:
                    self._note_undriven(module, port)
                    undriven_ports.add(id(port))
                return value
            if index < 0:
                return value  # reader-side delay: initial value, no definition
            state = read_get(id(port))
            if state is None:
                state = read_state[id(port)] = (write_index(sig.name), {})
            sites, by_line = state
            site = sites.get(index, _MISS)
            if site is _MISS:
                site = _floor(sites, index)
            if site is not None:
                uses = by_line.get(line)
                if uses is None:
                    uses = by_line[line] = self._read_set(module, port, line)
                uses.add(site)
            return value

        def pw(module, port, line, value, offset=0):
            sig = port.signal
            if sig is None:
                raise PortAccessError(f"write to unbound port {port.full_name()}")
            if not port._in_activation:
                raise PortAccessError(
                    f"port {port.full_name()} written outside of processing()"
                )
            if offset and not 0 <= offset < port.rate:
                raise PortAccessError(
                    f"sample offset {offset} out of range for port "
                    f"{port.full_name()} with rate {port.rate}"
                )
            index = port._flushed + offset
            port._pending.append((offset, value))
            hooks = port._write_hooks
            if hooks:
                for hook in hooks:
                    hook(port, index, value, offset)
            counts[0] += 1
            state = write_get(id(port))
            if state is None:
                state = write_state[id(port)] = (write_index(sig.name), {})
            sites, by_line = state
            site = by_line.get(line)
            if site is None:
                site = by_line[line] = (port.name, module.name, line)
            sites[index] = site
            return index

        self.pr = pr
        self.pw = pw

    def _read_set(self, module: Any, port: TdfIn, line: int) -> Set[Any]:
        if module.OPAQUE_USES and port.bind_site is not None:
            key = (self.cluster_name, port.bind_site.lineno, port.name, module.name)
        else:
            key = (module.name, line, port.name, module.name)
        return self.port_uses.setdefault(key, set())

    def _note_undriven(self, module: Any, port: TdfIn) -> None:
        desc = f"{module.name}.{port.name}"
        if all(desc != seen for seen, _sig in self.undriven):
            self.undriven.append((desc, port.signal.name))

    # -- results ---------------------------------------------------------------

    def pairs(self, model_start_lines: Mapping[str, int]) -> Set[PairKey]:
        """Every def-use pair exercised so far.

        ``model_start_lines`` anchors the placeholder definition a
        testbench-written token pairs with (the reader's ``processing``
        line); readers without one pair with nothing.
        """
        pairs: Set[PairKey] = set()
        add = pairs.add
        for (model, var, use_line), def_lines in self.var_uses.items():
            for def_line in def_lines:
                if def_line is not None:
                    add((var, model, def_line, model, use_line))
        testbench = WriterKind.TESTBENCH
        for (anchor_model, anchor_line, port, reader), sites in self.port_uses.items():
            anchor = (anchor_model, anchor_line)
            for site in sites:
                if site is testbench:
                    start = model_start_lines.get(reader)
                    if start is not None:
                        add((port, reader, start) + anchor)
                else:
                    add(site + anchor)
        return pairs

    def use_without_def(self, warn: bool = False) -> List[str]:
        """Use-without-def port descriptions in first-read order.

        With ``warn``, each also raises a :class:`UseWithoutDefWarning`.
        """
        if warn:
            for desc, signal in self.undriven:
                warnings.warn(
                    f"use of port {desc} without any definition "
                    f"(signal {signal!r} has no driver): undefined "
                    f"behaviour per the SystemC-AMS standard",
                    UseWithoutDefWarning,
                    stacklevel=3,
                )
        return [desc for desc, _signal in self.undriven]
