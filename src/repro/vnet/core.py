"""The VNET/P core: routing and dispatching raw Ethernet packets (Sect. 4.3).

The core intercepts every Ethernet packet from registered virtual NICs
and forwards it either to a VM on the same host (interface destination)
or to the outside world through the VNET/P bridge (link destination).

Dispatch runs in one of two contexts:

* **guest-driven** — inside the VM-exit handler of the TX kick, stalling
  the guest VCPU for the duration (lowest latency for sparse traffic);
* **VMM-driven** — in dedicated packet-dispatcher threads that poll the
  virtio rings (highest throughput for bulk traffic), with guest kicks
  suppressed.

Inbound packets from the bridge go through a receive queue served by
``n_dispatchers`` dispatcher threads (Fig. 4/5: multicore scaling).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Optional

from ..config import VnetMode, VnetTuning
from ..obs.context import Observability
from ..obs.span import (
    STAGE_COPY,
    STAGE_COPY_ASYNC,
    STAGE_DISPATCH,
    STAGE_INJECT,
)
from ..proto.ethernet import BROADCAST_MAC, EthernetFrame
from ..sim import CopyCharger, PacketStage, Simulator, Store, Tracer
from ..sim.pathbus import path_bus
from .dispatcher import ModeController, YieldState
from .flowcache import FlowCache, FlowCacheEntry
from .heartbeat import HeartbeatFrame
from .overlay import DestType, InterfaceSpec, LinkSpec, RouteEntry
from .routing import NoRouteError, RoutingTable

if TYPE_CHECKING:  # pragma: no cover
    from ..host.machine import Host
    from ..palacios.virtio import VirtioNIC
    from .bridge import VnetBridge

__all__ = ["VnetCore"]


class VnetCore(PacketStage):
    """Per-host VNET/P core embedded in the Palacios VMM."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        tuning: Optional[VnetTuning] = None,
        tracer: Optional[Tracer] = None,
    ):
        self._init_stage(sim, f"{host.name}.vnet")
        self.host = host
        self.tuning = tuning or VnetTuning()
        self.costs = host.params.vnet_costs
        self.tracer = tracer or Tracer()
        self.routing = RoutingTable(self.costs, cache_enabled=self.tuning.routing_cache)
        # Every table mutation is published once on the path bus, where
        # the fast paths below subscribe, so a compiled flow can never
        # outlive the route it was compiled from.
        self.routing.on_change(
            partial(path_bus(sim).publish, "route-change", host.name)
        )
        # Per-flow fast path (ONCache-style, see repro.vnet.flowcache).
        self.flowcache: Optional[FlowCache] = (
            FlowCache(sim, self) if self.tuning.flow_cache else None
        )
        # Hybrid fluid/packet fast path (repro.sim.fluid): registering
        # the core lets the region compile overlay paths through it.
        self.fluid_region = None
        if self.tuning.fluid:
            from .fluidpath import install_fluid

            self.fluid_region = install_fluid(sim, self)
        self.links: dict[str, LinkSpec] = {}
        self.interfaces: dict[str, "VirtioNIC"] = {}
        self.if_specs: dict[str, InterfaceSpec] = {}
        self.if_by_mac: dict[str, "VirtioNIC"] = {}
        self.bridge: Optional["VnetBridge"] = None
        self.controllers: dict[str, ModeController] = {}
        self.rx_queue: Store = Store(sim, capacity=16384, name=f"{host.name}.vnet.rxq")
        # Inbound pipeline port: bridges (Linux UDP/TCP decap, Kitten
        # bridge VM, promiscuous direct receive) push unwrapped guest
        # frames here; the sink feeds the dispatcher rx queue.
        self.inbound = self.make_port("inbound")
        self.inbound.connect(self._accept_inbound)
        # Statistics live in the shared metrics registry under
        # ``vnet.core.<host>.*``; the attribute names below stay readable
        # as plain ints through the properties that follow.
        self.obs = Observability.of(sim)
        metrics = self.obs.metrics
        prefix = f"vnet.core.{host.name}"
        self._pkts_from_guest = metrics.counter(f"{prefix}.pkts_from_guest")
        self._pkts_to_guest = metrics.counter(f"{prefix}.pkts_to_guest")
        self._pkts_to_bridge = metrics.counter(f"{prefix}.pkts_to_bridge")
        self._pkts_dropped_no_route = metrics.counter(f"{prefix}.dropped_no_route")
        self._pkts_dropped_ring_full = metrics.counter(f"{prefix}.dropped_ring_full")
        self._guest_driven_dispatches = metrics.counter(
            f"{prefix}.guest_driven_dispatches"
        )
        self._vmm_driven_dispatches = metrics.counter(
            f"{prefix}.vmm_driven_dispatches"
        )
        # Dispatcher backlog as a time-weighted gauge (set with
        # timestamps so time_avg() reads mean depth, not last value).
        self._rxq_depth = metrics.gauge(f"{prefix}.rxq_depth")
        # Descriptor-frame copies are charged, never performed: the
        # charger accounts the single in-VMM copy (Sect. 4.7) against
        # the host memory system and counts the bytes.
        self.copier = CopyCharger(
            host.memory,
            self.costs.copy_bw_Bps,
            counter=metrics.counter(f"{prefix}.copied_bytes"),
        )
        # Optional observers (see repro.vnet.monitor).
        self.monitor = None
        host.vnet_core = self
        for i in range(self.tuning.n_dispatchers):
            sim.process(self._rx_dispatcher(i), name=f"{self.name}.rxd{i}")

    # -- statistics (registry-backed, read-only views) ---------------------------
    @property
    def pkts_from_guest(self) -> int:
        return self._pkts_from_guest.value

    @property
    def pkts_to_guest(self) -> int:
        return self._pkts_to_guest.value

    @property
    def pkts_to_bridge(self) -> int:
        return self._pkts_to_bridge.value

    @property
    def pkts_dropped_no_route(self) -> int:
        return self._pkts_dropped_no_route.value

    @property
    def pkts_dropped_ring_full(self) -> int:
        return self._pkts_dropped_ring_full.value

    @property
    def guest_driven_dispatches(self) -> int:
        return self._guest_driven_dispatches.value

    @property
    def vmm_driven_dispatches(self) -> int:
        return self._vmm_driven_dispatches.value

    # -- configuration (driven by the control component) ------------------------
    def add_link(self, link: LinkSpec) -> None:
        if link.name in self.links:
            raise ValueError(f"{self.name}: duplicate link {link.name!r}")
        self.links[link.name] = link

    def remove_link(self, name: str) -> None:
        if name not in self.links:
            raise KeyError(f"{self.name}: no such link {name!r}")
        if self.routing.routes_to(DestType.LINK, name):
            raise ValueError(f"{self.name}: link {name!r} still referenced by routes")
        del self.links[name]

    def register_interface(self, spec: InterfaceSpec, nic: "VirtioNIC") -> None:
        """Register a virtual NIC with VNET/P (done at VM configuration
        time, Sect. 4.4); installs the kick handler backend."""
        if spec.name in self.interfaces:
            raise ValueError(f"{self.name}: duplicate interface {spec.name!r}")
        if nic.mac != spec.mac:
            raise ValueError(
                f"{self.name}: interface {spec.name!r} MAC {spec.mac} != NIC MAC {nic.mac}"
            )
        self.interfaces[spec.name] = nic
        self.if_specs[spec.name] = spec
        self.if_by_mac[spec.mac] = nic
        self.controllers[spec.name] = ModeController(self.sim, nic, self.tuning)
        nic.register_backend(self._make_kick_handler(spec.name))
        # One or more dispatcher threads per NIC (Fig. 4: idle cores can be
        # employed to raise packet-forwarding bandwidth).
        for i in range(self.tuning.n_dispatchers):
            self.sim.process(
                self._tx_dispatcher(spec.name), name=f"{self.name}.txd{i}.{spec.name}"
            )

    def remove_interface(self, name: str) -> None:
        """Detach a virtual NIC (e.g. ahead of a VM migration)."""
        if name not in self.interfaces:
            raise KeyError(f"{self.name}: no such interface {name!r}")
        if self.routing.routes_to(DestType.INTERFACE, name):
            raise ValueError(f"{self.name}: interface {name!r} still referenced by routes")
        nic = self.interfaces.pop(name)
        spec = self.if_specs.pop(name)
        del self.if_by_mac[spec.mac]
        ctl = self.controllers.pop(name)
        # Detach the data path: no more kicks into this core, and wake any
        # dispatcher blocked on the mode signal so it can exit.
        nic._kick_handler = None
        nic.suppress_kicks = False
        ctl.mode_changed.fire()

    def add_route(self, route: RouteEntry) -> None:
        if route.dest_type is DestType.LINK and route.dest_name not in self.links:
            raise ValueError(f"{self.name}: route references unknown link {route.dest_name!r}")
        if (
            route.dest_type is DestType.INTERFACE
            and route.dest_name not in self.interfaces
        ):
            raise ValueError(
                f"{self.name}: route references unknown interface {route.dest_name!r}"
            )
        self.routing.add(route)

    def add_routes(self, routes: list[RouteEntry]) -> int:
        """Bulk route installation: validate everything, then load once.

        The topology compiler provisions whole host tables in one call;
        validating every destination up front keeps the all-or-nothing
        contract of :meth:`add_route`, and the single
        :meth:`~repro.vnet.routing.RoutingTable.load` keeps derived
        caches (flow cache, lookup index) from flushing per entry.
        Returns the number of routes installed.
        """
        for route in routes:
            if route.dest_type is DestType.LINK and route.dest_name not in self.links:
                raise ValueError(
                    f"{self.name}: route references unknown link {route.dest_name!r}"
                )
            if (
                route.dest_type is DestType.INTERFACE
                and route.dest_name not in self.interfaces
            ):
                raise ValueError(
                    f"{self.name}: route references unknown interface {route.dest_name!r}"
                )
        return self.routing.load(routes)

    def attach_bridge(self, bridge: "VnetBridge") -> None:
        self.bridge = bridge
        self.host.vnet_bridge = bridge

    def local_macs(self) -> set[str]:
        return set(self.if_by_mac)

    def stats(self) -> dict:
        """Operational counters, as the control interface would expose them."""
        return {
            "pkts_from_guest": self.pkts_from_guest,
            "pkts_to_guest": self.pkts_to_guest,
            "pkts_to_bridge": self.pkts_to_bridge,
            "dropped_no_route": self.pkts_dropped_no_route,
            "dropped_ring_full": self.pkts_dropped_ring_full,
            "guest_driven_dispatches": self.guest_driven_dispatches,
            "vmm_driven_dispatches": self.vmm_driven_dispatches,
            "routing_entries": len(self.routing),
            "routing_cache_hit_rate": self.routing.cache_hit_rate,
            "flow_cache": self.flowcache.stats() if self.flowcache else None,
            "links": sorted(self.links),
            "interfaces": sorted(self.interfaces),
            "modes": {
                name: ctl.mode.value for name, ctl in self.controllers.items()
            },
        }

    # -- guest TX path -------------------------------------------------------------
    def _make_kick_handler(self, if_name: str):
        def handler(nic: "VirtioNIC"):
            return self._on_kick(if_name, nic)

        return handler

    def _on_kick(self, if_name: str, nic: "VirtioNIC"):
        """Runs inside the TX-kick VM exit (guest VCPU stalled)."""
        ctl = self.controllers.get(if_name)
        if ctl is None:
            # The interface was unregistered (VM migrating away) while this
            # kick was in flight; the frame stays queued for the new core.
            yield self.sim.timeout(0)
            return
        if ctl.mode is VnetMode.GUEST_DRIVEN:
            # Batched ring drain: one VM exit dispatches every frame the
            # guest queued (and any that land while earlier ones process).
            while True:
                frames = nic.txq.get_batch()
                if not frames:
                    break
                for frame in frames:
                    ctl.note_packet()
                    self._guest_driven_dispatches.inc()
                    yield from self._process_outbound(frame)
        else:
            # VMM-driven: the dispatcher thread owns the TXQ; the kick (if
            # one slipped in before suppression took effect) is a no-op.
            yield self.sim.timeout(0)

    def _tx_dispatcher(self, if_name: str):
        """Per-NIC transmit dispatcher thread (active in VMM-driven mode)."""
        nic = self.interfaces[if_name]
        ctl = self.controllers[if_name]
        ystate = YieldState(self.sim, self.tuning, base_wakeup_ns=self.costs.idle_wakeup_ns)
        # Single-dispatcher backlog drain, mirroring _rx_dispatcher.
        drain = self.tuning.n_dispatchers == 1
        while True:
            if self.interfaces.get(if_name) is not nic:
                return  # interface unregistered (VM migrated away)
            if ctl.mode is not VnetMode.VMM_DRIVEN:
                yield ctl.mode_changed.wait()
                continue
            blocked = len(nic.txq) == 0
            frame = yield nic.txq.get()
            while True:
                penalty = ystate.penalty(blocked)
                if blocked:
                    penalty += self.host.wakeup_noise_ns()
                if penalty:
                    with self.obs.spans.span(
                        STAGE_DISPATCH, who=self.name, where="vmm", flow_of=frame
                    ):
                        yield self.sim.timeout(penalty)
                ystate.note_work()
                ctl.note_packet()
                self._vmm_driven_dispatches.inc()
                yield from self._process_outbound(frame)
                # note_packet above may have switched the controller back
                # to guest-driven, and the VM may have migrated away: the
                # drain must re-establish the outer loop's guards before
                # claiming another frame.
                if (
                    not drain
                    or ctl.mode is not VnetMode.VMM_DRIVEN
                    or self.interfaces.get(if_name) is not nic
                ):
                    break
                frame = nic.txq.try_get()
                if frame is None:
                    break
                blocked = False

    def _process_outbound(self, frame: EthernetFrame):
        """Generator: route one guest frame and hand it onward."""
        self._pkts_from_guest.inc()
        if self.monitor is not None:
            self.monitor.observe(frame.src, frame.dst, frame.size)
        cache = self.flowcache
        if cache is not None and frame.dst != BROADCAST_MAC:
            hit = cache.lookup(frame.src, frame.dst)
            if hit is not None:
                yield from self._forward_cached(frame, hit)
                return
        entry = None
        with self.obs.spans.span(
            STAGE_DISPATCH, who=self.name, where="vmm", flow_of=frame
        ):
            yield self.sim.timeout(self.costs.dispatch_ns)
            if frame.dst != BROADCAST_MAC:
                try:
                    entry, cost = self.routing.lookup(frame.src, frame.dst)
                except NoRouteError:
                    self._pkts_dropped_no_route.inc()
                    self.tracer.record(self.sim.now, f"{self.name}.no_route", frame)
                    return
                yield self.sim.timeout(cost)
        if entry is None:
            yield from self._broadcast(frame)
        else:
            if cache is not None:
                cache.install(frame.src, frame.dst, entry)
            yield from self._forward(frame, entry)

    def _broadcast(self, frame: EthernetFrame):
        """Deliver a broadcast frame to every local interface (except the
        sender) and every link."""
        for mac, nic in self.if_by_mac.items():
            if mac != frame.src:
                yield from self._deliver_local(frame, nic)
        for link in self.links.values():
            yield from self._send_via_bridge(frame, link)

    def _forward(self, frame: EthernetFrame, entry: RouteEntry):
        if entry.dest_type is DestType.INTERFACE:
            nic = self.interfaces[entry.dest_name]
            yield from self._deliver_local(frame, nic)
        else:
            link = self.links[entry.dest_name]
            yield from self._send_via_bridge(frame, link)

    def _forward_cached(self, frame: EthernetFrame, hit: FlowCacheEntry,
                        penalty: int = 0, ystate: Optional[YieldState] = None):
        """The compiled fast path: one merged charge, pre-resolved hand-off.

        Under the timing-neutral cost model ``hit.charge_ns`` equals the
        dispatch + warm-lookup charges of the full chain, collapsed into
        a single timeout, so simulated time is bit-identical while the
        kernel processes fewer events.  ``penalty``/``ystate`` mirror
        the rx dispatcher's wakeup accounting: the wakeup penalty is
        merged into the same timeout (one kernel event instead of two)
        and ``note_work_at`` pins the adaptive yield strategy's idle
        clock to the instant the unmerged chain would have noted work.
        """
        with self.obs.spans.span(
            STAGE_DISPATCH, who=self.name, where="vmm", flow_of=frame
        ):
            if ystate is not None:
                ystate.note_work_at(self.sim.now + penalty)
            yield self.sim.timeout(penalty + hit.charge_ns)
        if hit.nic is not None:
            yield from self._deliver_local(frame, hit.nic)
        else:
            yield from self._send_via_bridge(frame, hit.path)

    def _deliver_local(self, frame: EthernetFrame, nic: "VirtioNIC"):
        """Copy the packet into a local VM's virtio RXQ and notify it.

        With VNET/P+'s *cut-through forwarding* the dispatcher only peeks
        the header and reserves the ring slot; the body copy streams
        concurrently (still contending for the memory system).  With
        *optimistic interrupts* the irq is raised while the data is still
        moving, overlapping the guest's wakeup with the copy.
        """
        if self.tuning.cut_through:
            with self.obs.spans.span(
                STAGE_COPY, who=self.name, where="vmm", flow_of=frame
            ):
                yield self.sim.timeout(self.costs.cut_through_ns)
            if self.tuning.optimistic_interrupts:
                nic.raise_irq()  # guest starts waking while the copy streams
            self.sim.process(self._finish_local_copy(frame, nic), name=f"{self.name}.ct")
            return
        with self.obs.spans.span(
            STAGE_COPY, who=self.name, where="vmm", flow_of=frame
        ):
            yield from self.copier.charge(frame.size)
        yield from self._complete_delivery(frame, nic)

    def _finish_local_copy(self, frame: EthernetFrame, nic: "VirtioNIC"):
        """Overlapped tail of a cut-through delivery (own process)."""
        with self.obs.spans.span(
            STAGE_COPY_ASYNC, who=self.name, where="vmm", flow_of=frame
        ):
            yield from self.copier.charge(frame.size)
        yield from self._complete_delivery(frame, nic)

    def _complete_delivery(self, frame: EthernetFrame, nic: "VirtioNIC"):
        ring_was_empty = len(nic.rxq) == 0
        if nic.deliver_to_guest(frame):
            self._pkts_to_guest.inc()
            for name, inic in self.interfaces.items():
                if inic is nic:
                    self.controllers[name].note_packet()
                    break
            if ring_was_empty:
                # Interrupt injection work on the dispatching side (possibly
                # a cross-core IPI, Sect. 4.3).
                with self.obs.spans.span(
                    STAGE_INJECT, who=self.name, where="vmm", flow_of=frame
                ):
                    yield self.sim.timeout(self.host.params.vmm.interrupt_inject_ns)
            nic.raise_irq()
        else:
            self._pkts_dropped_ring_full.inc()

    def _send_via_bridge(self, frame: EthernetFrame, link: LinkSpec):
        """The single in-VMM copy (Sect. 4.7): TXQ -> bridge buffer.

        Under cut-through forwarding the bridge starts encapsulating while
        the body still streams: the copy leaves the dispatcher's serial
        path (but still occupies the memory system for contention).
        """
        if self.bridge is None:
            raise RuntimeError(f"{self.name}: no bridge attached for link {link.name!r}")
        if self.tuning.cut_through:
            with self.obs.spans.span(
                STAGE_COPY, who=self.name, where="vmm", flow_of=frame
            ):
                yield self.sim.timeout(self.costs.cut_through_ns)
            self.sim.process(
                self._shadow_copy(frame.size), name=f"{self.name}.ctcopy"
            )
        else:
            with self.obs.spans.span(
                STAGE_COPY, who=self.name, where="vmm", flow_of=frame
            ):
                yield from self.copier.charge(frame.size)
        self._pkts_to_bridge.inc()
        txq = self.bridge.txq
        if not (self.sim.quiet() and txq.try_put((frame, link))):
            yield txq.put((frame, link))

    def _shadow_copy(self, nbytes: int):
        """Body copy streaming off the critical path (memory contention only)."""
        with self.obs.spans.span(STAGE_COPY_ASYNC, who=self.name, where="vmm"):
            yield from self.copier.charge(nbytes)

    # -- inbound path (from the bridge) -----------------------------------------------
    def _accept_inbound(self, frame: EthernetFrame) -> bool:
        """Inbound port sink: queue a frame for the rx dispatchers.

        Heartbeats are VNET control traffic: they are consumed here
        (feeding the monitor's liveness tracker) and never enter the
        guest-facing dispatch queue.
        """
        if frame.__class__ is HeartbeatFrame:
            if self.monitor is not None:
                self.monitor.note_heartbeat_from(frame.src_host_ip)
            return True
        if not self.rx_queue.try_put(frame):
            self._pkts_dropped_ring_full.inc()
            return False
        self._rxq_depth.set(len(self.rx_queue), now_ns=self.sim.now)
        return True

    # PacketStage entry point (what ``inbound`` is wired to).
    ingress = _accept_inbound

    def _rx_dispatcher(self, index: int):
        """Inbound packet dispatcher thread (one of ``n_dispatchers``)."""
        ystate = YieldState(self.sim, self.tuning, base_wakeup_ns=self.costs.idle_wakeup_ns)
        # With a single dispatcher, a non-empty queue after a frame
        # completes is drained synchronously (try_get) instead of paying
        # one kernel hand-off event per frame; with several dispatchers
        # the blocking get() arbitrates which thread picks up work, so
        # draining would change the concurrency the Fig. 4/5 scaling
        # scenarios measure.
        drain = self.tuning.n_dispatchers == 1
        rxq = self.rx_queue
        while True:
            blocked = len(rxq) == 0
            frame = yield rxq.get()
            while True:
                self._rxq_depth.set(len(rxq), now_ns=self.sim.now)
                penalty = ystate.penalty(blocked)
                if blocked:
                    penalty += self.host.wakeup_noise_ns()
                yield from self._process_inbound(frame, penalty, ystate)
                if not drain:
                    break
                frame = rxq.try_get()
                if frame is None:
                    break
                blocked = False

    def _process_inbound(self, frame: EthernetFrame, penalty: int, ystate: YieldState):
        """Generator: route one inbound frame (rx dispatcher body)."""
        cache = self.flowcache
        if cache is not None and frame.dst != BROADCAST_MAC:
            hit = cache.lookup(frame.src, frame.dst)
            if hit is not None:
                yield from self._forward_cached(
                    frame, hit, penalty=penalty, ystate=ystate
                )
                return
        entry = None
        broadcast = False
        with self.obs.spans.span(
            STAGE_DISPATCH, who=self.name, where="vmm", flow_of=frame
        ):
            # Wakeup penalty and dispatch charge merged into one timeout;
            # note_work_at keeps the adaptive idle clock on the unmerged
            # instant, and the route lookup still happens at exactly
            # now + penalty + dispatch_ns.
            ystate.note_work_at(self.sim.now + penalty)
            yield self.sim.timeout(penalty + self.costs.dispatch_ns)
            if frame.dst == BROADCAST_MAC:
                broadcast = True
            else:
                try:
                    entry, cost = self.routing.lookup(frame.src, frame.dst)
                except NoRouteError:
                    self._pkts_dropped_no_route.inc()
                    return
                yield self.sim.timeout(cost)
        if broadcast:
            for nic in self.if_by_mac.values():
                yield from self._deliver_local(frame, nic)
            return
        # A packet arriving from the overlay may be destined for a local
        # interface or may be forwarded onward (overlay waypoint).
        if cache is not None:
            cache.install(frame.src, frame.dst, entry)
        yield from self._forward(frame, entry)
