"""A physical machine: CPU, memory, NICs, and the host OS stack."""

from __future__ import annotations

from typing import Optional

from ..config import HostParams, NICParams
from ..hw.cpu import CPU
from ..hw.memory import MemorySystem
from ..hw.nic import PhysicalNIC
from ..proto.ethernet import mac_addr
from ..proto.stack import Stack
from ..sim import BoundedDraws, RandomStreams, Simulator, Tracer
from .linux import EthernetDevice

__all__ = ["Host"]

_host_counter = 0


class Host:
    """One physical machine running Linux (optionally hosting Palacios).

    Construction wires: PhysicalNIC <-> EthernetDevice <-> host Stack.
    The topology builder attaches the NIC to a link or a switch, and
    fills in neighbor tables.
    """

    def __init__(
        self,
        sim: Simulator,
        params: HostParams,
        nic_params: NICParams,
        ip: str,
        name: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ):
        global _host_counter
        _host_counter += 1
        self.sim = sim
        self.params = params
        self.ip = ip
        self.name = name or f"host{_host_counter}"
        self.tracer = tracer or Tracer()
        self.cpu = CPU(sim, params.cpu, name=f"{self.name}.cpu")
        self.memory = MemorySystem(sim, params.memory, name=f"{self.name}.mem")
        self.nic = PhysicalNIC(sim, nic_params, name=f"{self.name}.nic", tracer=self.tracer)
        self.dev = EthernetDevice(self.nic, mac=mac_addr(_host_counter), name=f"{self.name}.eth0")
        self.stack = Stack(sim, params.stack, ip=ip, name=f"{self.name}.stack", tracer=self.tracer)
        self.dev.bind(self.stack)
        # Seeded by name (not creation order) so identical testbeds built
        # in one process behave identically — determinism tests rely on it.
        self._noise = BoundedDraws(RandomStreams(seed=0).stream(f"{self.name}.noise"))
        # Populated when a VM / VNET components are instantiated on this host.
        self.vmm = None
        self.vnet_core = None
        self.vnet_bridge = None

    def wakeup_noise_ns(self) -> int:
        """One sample of OS scheduling noise (Linux: up to a few us)."""
        return self._noise.draw(self.params.noise.jitter_max_ns)

    def add_neighbor(self, other: "Host") -> None:
        """Static ARP entry for a peer host on the same L2 segment."""
        self.stack.add_neighbor(other.ip, other.dev.mac, self.dev)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} ip={self.ip}>"
