"""Per-flow fast-path cache in front of VNET/P routing (ONCache-style).

ONCache (PAPERS.md) closes most of the container-overlay gap to native
with one observation: after a flow's *first* packet has walked the full
lookup/encapsulation stack, every later packet repeats exactly the same
decisions.  This module applies that idea to the :class:`~repro.vnet.core.VnetCore`
datapath.  The first packet of a flow — keyed on the slotted PDU's flow
id, the ``(src MAC, dst MAC)`` pair every descriptor carries — walks the
full :class:`~repro.sim.pipeline.PacketStage` chain (dispatch span,
routing-table lookup, link/interface resolution, per-packet
encapsulation demux) and the core *compiles* the outcome into a
:class:`FlowCacheEntry`: the resolved :class:`~repro.vnet.overlay.RouteEntry`,
the destination virtio NIC **or** a :class:`FlowPath` with the overlay
link, its pre-bound encapsulation header template (link name, destination
IP, destination port) and the pre-resolved per-link egress filter port.
Subsequent packets take the cached chain, which charges only the
fast-path cost and skips the Python-level work.

Two cost models, selected by :class:`~repro.config.VnetTuning`:

* **timing-neutral** (``flow_cache_hit_ns=None``, the default) — a hit
  charges exactly what the full chain would have charged for a warm
  flow: ``dispatch_ns`` plus the routing table's warm lookup cost
  (:meth:`~repro.vnet.routing.RoutingTable.warm_lookup_cost`).  Simulated
  observables stay **bit-identical** with the cache on or off (the
  golden fig8/fig9 scenarios enforce this); what the cache elides is
  charged-not-performed work — wall-clock only, like the kernel fast
  paths in ``repro.sim``.
* **modelled** (``flow_cache_hit_ns=<ns>``) — a hit charges the given
  fixed cost instead, modelling ONCache's measured per-packet saving.
  This intentionally changes simulated time and is for ablation
  experiments, never for the golden scenarios.

Invalidation: a cached route must never outlive its inputs.  The cache
subscribes one handler to the simulator's
:class:`~repro.sim.pathbus.PathBus` for its own host and drops the
entries riding the changed link, or every entry when the change names no
link; the causes, their publishers and their scopes are tabulated in
``docs/performance.md`` ("Invalidation rules").  Invalidation is
timing-free (dict clears; no simulated events), so under the
timing-neutral cost model the next packet of an affected flow simply
re-walks the full chain and no observable moves.

Metrics live under ``vnet.flowcache.<host>.*`` (hits, misses, installs,
invalidated entries, per-reason invalidation events, entry-count gauge);
:meth:`FlowCache.register_hit_rate` adds a per-window hit-rate series to
an :class:`~repro.obs.timeline.Timeline`.  The performance model — and
where each charged nanosecond goes — is documented in
``docs/performance.md``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..obs.context import Observability
from ..sim import PacketStage, Simulator
from ..sim.pathbus import path_bus
from .overlay import DestType, LinkProto, LinkSpec, RouteEntry

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.timeline import Series, Timeline
    from ..palacios.virtio import VirtioNIC
    from ..sim.pipeline import Port
    from .core import VnetCore

__all__ = ["FlowCache", "FlowCacheEntry", "FlowPath"]


class FlowPath:
    """The compiled bridge-side fast path of one cached link flow.

    Pre-binds everything :meth:`repro.vnet.bridge.VnetBridge._transmit`
    would otherwise re-derive per packet: the transport protocol, the
    encapsulation header template (link name + destination ``ip:port``)
    and the per-link egress filter port.  ``channel`` caches the lazily
    established TCP stream for :class:`~repro.vnet.overlay.LinkProto.TCP`
    links.  Rides the bridge TX queue in place of the
    :class:`~repro.vnet.overlay.LinkSpec`; the bridge recognises it by
    class and takes :meth:`~repro.vnet.bridge.VnetBridge._transmit_fast`.
    """

    __slots__ = ("link", "proto", "link_name", "dst_ip", "dst_port", "port",
                 "channel")

    def __init__(self, link: LinkSpec, port: Optional["Port"]):
        self.link = link
        self.proto = link.proto
        # The pre-bound encap header template: what VnetEncap + sendto
        # need, resolved once at install time.
        self.link_name = link.name
        self.dst_ip = link.dst_ip
        self.dst_port = link.dst_port
        self.port = port              # per-link egress filter (UDP/TCP links)
        self.channel = None           # lazily bound TcpMessageChannel

    @property
    def name(self) -> str:
        """Link name (parity with ``LinkSpec`` for diagnostics)."""
        return self.link_name


class FlowCacheEntry:
    """One compiled flow: route plus pre-resolved destination.

    Exactly one of ``nic`` (local interface delivery) and ``path``
    (overlay link via the bridge) is set.  ``charge_ns`` is the virtual
    time a cached hit charges inside the dispatch span — under the
    timing-neutral model, precisely what the full chain would have
    charged for this already-resolved flow.
    """

    __slots__ = ("src", "dst", "route", "nic", "path", "charge_ns", "hits",
                 "installed_ns")

    def __init__(self, src: str, dst: str, route: RouteEntry,
                 nic: Optional["VirtioNIC"], path: Optional[FlowPath],
                 charge_ns: int, installed_ns: int):
        self.src = src
        self.dst = dst
        self.route = route
        self.nic = nic
        self.path = path
        self.charge_ns = charge_ns
        self.hits = 0
        self.installed_ns = installed_ns


class FlowCache(PacketStage):
    """Per-core flow cache: (src, dst) flow id -> compiled fast path.

    Sits in front of the core's routing stage; the core consults it with
    :meth:`lookup` before paying for dispatch, and :meth:`install`\\ s the
    compiled entry after a successful full walk.  Install failures (an
    unresolvable destination, a link protocol the fast path does not
    compile) are silent: the flow simply keeps taking the full chain.
    """

    def __init__(self, sim: Simulator, core: "VnetCore"):
        self._init_stage(sim, f"{core.host.name}.vnet.flowcache")
        self.core = core
        self.entries: dict[tuple[str, str], FlowCacheEntry] = {}
        self.obs = Observability.of(sim)
        metrics = self.obs.metrics
        prefix = f"vnet.flowcache.{core.host.name}"
        self._hits = metrics.counter(f"{prefix}.hits")
        self._misses = metrics.counter(f"{prefix}.misses")
        self._installs = metrics.counter(f"{prefix}.installs")
        self._invalidated = metrics.counter(f"{prefix}.invalidated_entries")
        self._invalidations = metrics.labeled(f"{prefix}.invalidations")
        self._entries_gauge = metrics.gauge(f"{prefix}.entries")
        path_bus(sim).subscribe(self._on_path_change, core.host.name)

    # -- statistics (registry-backed, read-only views) --------------------
    @property
    def hits(self) -> int:
        """Cached-chain packets served."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Packets that walked the full chain (cold or just-invalidated)."""
        return self._misses.value

    @property
    def installs(self) -> int:
        """Entries compiled from full-chain walks."""
        return self._installs.value

    @property
    def invalidated_entries(self) -> int:
        """Entries dropped by invalidation, all reasons."""
        return self._invalidated.value

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction over all cache consultations."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self.entries)

    # -- the datapath face -------------------------------------------------
    def lookup(self, src: str, dst: str) -> Optional[FlowCacheEntry]:
        """The per-packet consultation: a compiled entry, or ``None``."""
        entry = self.entries.get((src, dst))
        if entry is None:
            self._misses.inc()
            return None
        self._hits.inc()
        entry.hits += 1
        return entry

    def install(self, src: str, dst: str, route: RouteEntry) -> Optional[FlowCacheEntry]:
        """Compile ``route`` into a fast-path entry for flow ``(src, dst)``.

        Called by the core right after a successful full-chain lookup.
        Returns the entry, or ``None`` when the destination cannot be
        compiled (unknown name, no bridge attached) — never raises on
        the datapath.
        """
        core = self.core
        nic = None
        path = None
        if route.dest_type is DestType.INTERFACE:
            nic = core.interfaces.get(route.dest_name)
            if nic is None:
                return None
        else:
            link = core.links.get(route.dest_name)
            if link is None or core.bridge is None:
                return None
            port = (core.bridge.link_out(link.name)
                    if link.proto is not LinkProto.DIRECT else None)
            path = FlowPath(link, port)
        tuning = core.tuning
        if tuning.flow_cache_hit_ns is not None:
            charge = int(tuning.flow_cache_hit_ns)
        else:
            # Timing-neutral: what the full chain charges once the flow
            # is resolved (dispatch + warm routing lookup).
            charge = core.costs.dispatch_ns + core.routing.warm_lookup_cost()
        entry = FlowCacheEntry(src, dst, route, nic, path, charge,
                               installed_ns=self.sim.now)
        self.entries[(src, dst)] = entry
        self._installs.inc()
        self._entries_gauge.set(len(self.entries))
        return entry

    # -- invalidation ------------------------------------------------------
    def _on_path_change(self, cause: str, host: Optional[str],
                        link: Optional[str]) -> None:
        """Path-bus handler: drop the entries riding ``link`` (every
        entry when ``link`` is ``None``), counted under ``cause``."""
        # A mode switch changes per-packet costs, not forwarding decisions.
        if cause == "mode-change":
            return
        entries = self.entries
        if link is None:
            stale = list(entries)
        else:
            stale = [key for key, e in entries.items()
                     if e.path is not None and e.path.link_name == link]
        for key in stale:
            del entries[key]
        if stale:
            self._invalidated.inc(len(stale))
            self._entries_gauge.set(len(entries))
        self._invalidations.inc(cause)

    # -- observability -----------------------------------------------------
    def register_hit_rate(self, timeline: "Timeline",
                          series: Optional[str] = None) -> "Series":
        """Add a per-window hit-rate series (NaN for idle windows)."""
        hits, misses = self._hits, self._misses
        state = [0, 0]

        def sample(now_ns: int) -> float:
            dh = hits.value - state[0]
            dm = misses.value - state[1]
            state[0] = hits.value
            state[1] = misses.value
            total = dh + dm
            return dh / total if total else math.nan

        name = series or f"vnet.flowcache.{self.core.host.name}.hit_rate"
        return timeline.record(name, sample, unit="ratio")

    def stats(self) -> dict:
        """Operational counters, control-interface style."""
        return {
            "entries": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "invalidated_entries": self.invalidated_entries,
            "hit_rate": self.hit_rate,
        }
