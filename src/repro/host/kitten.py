"""VNET/P for the Kitten lightweight kernel (Sect. 6.3, Fig. 17).

Kitten deliberately has a minimal set of in-kernel services, so the
bridge cannot live in the host kernel: it runs in a privileged service
VM (the **bridge VM**) with direct access to the physical InfiniBand
device.  Instead of UDP encapsulation, guest Ethernet frames are mapped
directly onto InfiniBand frames sent through a queue pair.

The guest-visible abstraction is identical to the Linux embedding: the
VNET/P core, virtio NICs, and routing are reused unchanged; only the
bridge component differs.  Each packet pays a VM crossing into/out of
the bridge VM plus a copy each way — which is why the Kitten data path
(4.0 Gbps) trails in-kernel expectations, while Kitten's low-noise
environment gives it very low jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import KITTEN_NOISE, HostParams, NICParams, VnetTuning, default_host
from ..hw.cpu import CPU
from ..hw.link import Link
from ..hw.memory import MemorySystem
from ..hw.nic import PhysicalNIC
from ..palacios.vmm import PalaciosVMM
from ..proto.ethernet import BROADCAST_MAC, EthernetFrame, mac_addr
from ..sim import BoundedDraws, PacketStage, RandomStreams, Simulator, Store
from ..vnet.core import VnetCore
from ..vnet.overlay import DestType, InterfaceSpec, LinkProto, LinkSpec, RouteEntry

__all__ = ["BridgeVMParams", "KittenBridgeVM", "KittenHost", "build_vnetp_kitten"]


@dataclass(frozen=True)
class BridgeVMParams:
    """Costs of the service-VM bridge data path."""

    vm_crossing_ns: int = 2_100       # shared ring notify + exit/entry
    # Bridge-VM copies cross two address spaces (guest ring -> VMM ->
    # service VM), so the effective rate is well below a plain memcpy.
    copy_bw_Bps: float = 0.65e9
    ipoib_tx_ns: int = 2_000          # IPoIB framework send (queue pair post)
    ipoib_rx_ns: int = 2_200
    queue_frames: int = 4096


class KittenBridgeVM(PacketStage):
    """The privileged bridge VM: VNET/P core <-> InfiniBand queue pair.

    Presents the same ``txq`` interface the VNET/P core expects from a
    bridge, so the core is reused verbatim; frames are transmitted raw
    (mapped to IB frames), not UDP-encapsulated.
    """

    def __init__(
        self,
        sim: Simulator,
        host: "KittenHost",
        core: VnetCore,
        params: Optional[BridgeVMParams] = None,
    ):
        self._init_stage(sim, f"{host.name}.bridgevm")
        self.host = host
        self.core = core
        self.params = params or BridgeVMParams()
        self.txq: Store = Store(sim, capacity=self.params.queue_frames, name=f"{self.name}.txq")
        self.rxq: Store = Store(sim, capacity=self.params.queue_frames, name=f"{self.name}.rxq")
        self.tx_frames = 0
        self.rx_frames = 0
        self.rx_dropped = 0
        core.attach_bridge(self)
        host.nic.rx_port.connect(self._on_ib_rx)
        sim.process(self._tx_loop(), name=f"{self.name}.tx")
        sim.process(self._rx_loop(), name=f"{self.name}.rx")

    def _copy_ns(self, nbytes: int) -> int:
        return int(round(nbytes * 1e9 / self.params.copy_bw_Bps))

    def _tx_loop(self):
        params = self.params
        while True:
            frame, link = yield self.txq.get()
            if link.proto is not LinkProto.DIRECT:
                raise ValueError(
                    f"{self.name}: Kitten bridge maps frames directly to IB "
                    f"frames; got a {link.proto.value} link"
                )
            # Cross into the bridge VM with the frame, then post it on the
            # InfiniBand queue pair.
            yield self.sim.timeout(
                params.vm_crossing_ns + self._copy_ns(frame.size) + params.ipoib_tx_ns
            )
            self.tx_frames += 1
            yield self.host.nic.txq.put(frame)

    def _on_ib_rx(self, frame: EthernetFrame) -> bool:
        # Accept only frames for local guests (or broadcasts) — the same
        # MAC filter the Linux bridge applies in direct-receive mode.
        # Without it, switch flooding would be re-forwarded by every
        # non-target node's core, creating a storm.
        if frame.dst not in self.core.if_by_mac and frame.dst != BROADCAST_MAC:
            return True  # filtered, not backpressure
        if not self.rxq.try_put(frame):
            self.rx_dropped += 1
            return False
        return True

    # PacketStage entry point (IB NIC rx port sink).
    ingress = _on_ib_rx

    def _rx_loop(self):
        """Single bridge-VM thread: frames are processed in order."""
        params = self.params
        while True:
            frame = yield self.rxq.get()
            yield self.sim.timeout(
                params.ipoib_rx_ns + self._copy_ns(frame.size) + params.vm_crossing_ns
            )
            self.rx_frames += 1
            self.core.inbound.push(frame)


class KittenHost:
    """A compute node running Kitten + Palacios (a 'type-I' arrangement)."""

    _counter = 0

    def __init__(
        self,
        sim: Simulator,
        params: HostParams,
        nic_params: NICParams,
        name: Optional[str] = None,
    ):
        KittenHost._counter += 1
        self.sim = sim
        self.params = params
        self.name = name or f"kitten{KittenHost._counter}"
        self.cpu = CPU(sim, params.cpu, name=f"{self.name}.cpu")
        self.memory = MemorySystem(sim, params.memory, name=f"{self.name}.mem")
        self.nic = PhysicalNIC(sim, nic_params, name=f"{self.name}.ib")
        self.vmm: Optional[PalaciosVMM] = None
        self.vnet_core = None
        self.vnet_bridge = None
        self._noise_params = KITTEN_NOISE
        self._noise = BoundedDraws(RandomStreams(seed=0).stream(f"{self.name}.noise"))

    def wakeup_noise_ns(self) -> int:
        """Kitten is a low-noise LWK: almost no scheduling jitter (Sect. 6.3)."""
        return self._noise.draw(self._noise_params.jitter_max_ns)


def build_vnetp_kitten(
    n_hosts: int = 2,
    nic_params: Optional[NICParams] = None,
    host_params: Optional[HostParams] = None,
    tuning: Optional[VnetTuning] = None,
    guest_mtu: int = 8958,
    sim: Optional[Simulator] = None,
):
    """Two (or more) Kitten nodes over InfiniBand, one guest VM each.

    Returns a Testbed whose endpoints are the guest stacks, as with the
    Linux builders.  The testbed's 8900-byte-payload ttcp measurement is
    the Sect. 6.3 experiment.
    """
    import dataclasses

    from ..config import MELLANOX_IPOIB
    from ..harness.testbed import Endpoint, Testbed
    from ..hw.switch import Switch, SwitchParams

    sim = sim or Simulator()
    nic_params = nic_params or dataclasses.replace(MELLANOX_IPOIB, max_mtu=65520)
    hosts: list[KittenHost] = []
    vms = []
    cores = []
    macs = [mac_addr(i + 1, prefix=0x5B) for i in range(n_hosts)]
    for i in range(n_hosts):
        host = KittenHost(sim, host_params or default_host(), nic_params, name=f"kitten{i}")
        vmm = PalaciosVMM(sim, host)  # type: ignore[arg-type]
        vm = vmm.create_vm(f"kvm{i}", guest_ip=f"172.16.1.{i + 1}")
        nic = vm.attach_virtio_nic(mac=macs[i], mtu=guest_mtu)
        core = VnetCore(sim, host, tuning=tuning)  # type: ignore[arg-type]
        core.register_interface(InterfaceSpec(name="if0", mac=macs[i]), nic)
        KittenBridgeVM(sim, host, core)
        hosts.append(host)
        vms.append(vm)
        cores.append(core)
    # Two nodes are cabled directly (the Sect. 6.3 testbed); more go
    # through an InfiniBand switch (Mellanox MTS3600-style).  The switch
    # forwards on the *guest* MACs, since Kitten's bridge VM maps guest
    # Ethernet frames directly onto IB frames.
    switch = None
    if n_hosts == 2:
        Link(sim, hosts[0].nic, hosts[1].nic)
    else:
        switch = Switch(
            sim,
            SwitchParams(
                name="mellanox-mts3600",
                latency_ns=700,
                port_rate_bps=nic_params.rate_bps,
            ),
        )
        for host in hosts:
            switch.attach(host.nic)
    for i, core in enumerate(cores):
        for j in range(n_hosts):
            if i == j:
                continue
            core.add_link(LinkSpec(name=f"ib{j}", proto=LinkProto.DIRECT))
            core.add_route(
                RouteEntry(
                    src_mac="any",
                    dst_mac=macs[j],
                    dest_type=DestType.LINK,
                    dest_name=f"ib{j}",
                )
            )
        core.add_route(
            RouteEntry(
                src_mac="any",
                dst_mac=macs[i],
                dest_type=DestType.INTERFACE,
                dest_name="if0",
            )
        )
    for i, vm in enumerate(vms):
        for j, other in enumerate(vms):
            if i != j:
                vm.stack.add_neighbor(other.guest_ip, macs[j])
    endpoints = [
        Endpoint(stack=vm.stack, ip=vm.guest_ip, host=hosts[i], vm=vm)  # type: ignore[arg-type]
        for i, vm in enumerate(vms)
    ]
    return Testbed(
        sim=sim,
        config="vnet/p-kitten",
        hosts=hosts,  # type: ignore[arg-type]
        endpoints=endpoints,
        switch=switch,
        cores=cores,
    )
