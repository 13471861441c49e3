"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload has a ``setup(seed)`` that builds what one measured round
needs (testbeds, compiled topology, calibrated flow models) and a
``run(fixture, census)`` that does the round's work and returns
``(results, ops)``: the simulated results the correctness check compares,
and the number of ops (the workload's unit of work) the round performed.
A workload whose ``reuse_fixture`` is true builds its fixture once per
process; the others need a fresh one per round, because a simulation
cannot be run twice.

Only ``lossy_contention`` depends on the seed: it seeds the Bernoulli
loss stream.  The model's only other random source, host OS noise in
``repro.host.machine``, is fixed at seed 0 inside the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.chaos import FaultSchedule
from repro.config import BROADCOM_1G
from repro.exec import Engine
from repro.harness import clear_cache, flow_model_for
from repro.harness.experiments import fig14
from repro.harness.testbed import build_topo
from repro.hw.switch import Switch
from repro.mpi.transport import FlowTransport
from repro.obs.context import Observability
from repro.proto.base import Blob
from repro.proto.tcp import TcpConnection
from repro.sim import Simulator
from repro.topo import TopologyCompiler, TopoSpec, fat_tree, probe_rtt_ns, provision
from repro.vnet.routing import RoutingTable

__all__ = ["Census", "WORKLOADS", "frames_of"]


@dataclass
class Census:
    """Every simulator and counted component created while active.

    Used as a context manager around a round: it wraps ``__init__`` of
    the classes below so the benchmark sees objects the workload builds
    deep inside library calls (``fig14`` makes one simulator per NAS
    run).  With ``spans`` set, span recording is switched on for every
    new simulator.  Costs one list append per constructed object.
    """

    spans: bool = False
    sims: list = field(default_factory=list)
    transports: list = field(default_factory=list)
    tcp: list = field(default_factory=list)
    switches: list = field(default_factory=list)
    tables: list = field(default_factory=list)

    def __enter__(self) -> "Census":
        self._saved = []
        for cls, bucket in ((Simulator, self.sims), (FlowTransport, self.transports),
                            (TcpConnection, self.tcp), (Switch, self.switches),
                            (RoutingTable, self.tables)):
            self._saved.append((cls, cls.__init__))
            cls.__init__ = _recording_init(cls.__init__, bucket,
                                           self.spans and cls is Simulator)
        return self

    def __exit__(self, *exc) -> None:
        for cls, init in self._saved:
            cls.__init__ = init

    @property
    def events(self) -> int:
        """Kernel events processed by every simulator seen."""
        return sum(sim.events_processed for sim in self.sims)


def _recording_init(init, bucket: list, spans: bool):
    def wrapped(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        bucket.append(obj)
        if spans:
            Observability.of(obj).spans.enabled = True
    return wrapped


def frames_of(testbeds) -> int:
    """Physical NIC frames transmitted across the testbeds' hosts."""
    return sum(h.nic.tx_frames for tb in testbeds for h in tb.hosts)


NAS_CONFIGS = ("native-1g", "vnetp-1g", "native-10g", "vnetp-10g")


class NasWorkload:
    """Fig. 14: NAS cells on the message-level MPI transport, serial engine."""

    name = "nas_mpi"
    reuse_fixture = True

    CELLS = ("mg.B.16", "ft.B.16", "is.B.16")

    def setup(self, seed: int):
        clear_cache()
        return {cfg: flow_model_for(cfg) for cfg in NAS_CONFIGS}

    def run(self, fixture, census: Census):
        # No result cache: every point runs its simulations.
        table = fig14(cells=self.CELLS, engine=Engine(jobs=1))
        messages = sum(t.messages for t in census.transports)
        results = {
            "mops": {row["cell"]: {cfg: row[cfg.replace("-", "_")] for cfg in NAS_CONFIGS}
                     for row in table.rows},
            "messages": messages,
        }
        return results, messages


class ProvisionWorkload:
    """Provision an unconfigured fat-tree in simulated time, then probe it."""

    name = "provision_fattree"
    reuse_fixture = False

    def __init__(self, hosts: int = 128):
        self.hosts = hosts

    def setup(self, seed: int):
        compiled = TopologyCompiler(fat_tree(self.hosts)).compile()
        return compiled, compiled.build(configure=False)

    def run(self, fixture, census: Census):
        compiled, tb = fixture
        report = provision(tb)
        rtt = probe_rtt_ns(tb, 0, self.hosts - 1)
        results = {
            "converged_ns": report.converged_ns,
            "first_ready_ns": report.first_ready_ns,
            "last_ready_ns": report.last_ready_ns,
            "probe_rtt_ns": rtt,
            "routes": compiled.routes_total,
            "routes_installed": sum(len(core.routing) for core in tb.cores),
            "commands": compiled.n_commands,
        }
        return results, compiled.n_commands


class LossyWorkload:
    """Reno flows and paced UDP into one sink, one sender under seeded loss.

    A VNET/P mesh on 1G NICs: hosts ``0..FLOWS-1`` each run one bulk Reno
    flow to the last host, host ``FLOWS`` sends paced UDP to it at
    ``UDP_FRACTION`` of line rate, and host 0's NIC drops frames with
    probability ``loss`` from a stream seeded by the benchmark seed.
    Closed loop: each sender writes as fast as its socket accepts.
    """

    name = "lossy_contention"
    reuse_fixture = False
    seeded = True

    FLOWS = 3
    UDP_FRACTION = 0.3
    TCP_PORT = 5100
    UDP_PORT = 5130
    UDP_PAYLOAD = 1400

    def __init__(self, loss: float = 0.01, horizon_ns: int = 80 * units.MS):
        self.loss = loss
        self.horizon_ns = horizon_ns

    def setup(self, seed: int):
        tb = build_topo(TopoSpec(kind="mesh", n_hosts=self.FLOWS + 2),
                        nic_params=BROADCOM_1G)
        sched = FaultSchedule(tb.sim, name="bench-loss")
        window = sched.loss(tb.hosts[0].nic.tx_port, start_ns=0, stop_ns=None,
                            rate=self.loss, seed=seed % (1 << 64))  # numpy wants >= 0
        sched.start()
        return tb, window

    def run(self, fixture, census: Census):
        tb, window = fixture
        sim = tb.sim
        sink = tb.endpoints[-1]
        servers: dict[int, TcpConnection] = {}
        clients: dict[int, TcpConnection] = {}
        udp = {"tx": 0, "rx": 0}

        def server(port, key):
            conn = yield from sink.stack.tcp_listen(port).accept()
            servers[key] = conn
            while True:
                yield from conn.recv(1 << 30)

        def client(src, port, key):
            conn = yield from src.stack.tcp_connect(sink.ip, port)
            clients[key] = conn
            while True:
                yield from conn.send(256 * units.KIB)

        def udp_rx():
            sock = sink.stack.udp_socket(self.UDP_PORT)
            while True:
                payload = (yield from sock.recv())[0]
                udp["rx"] += payload.size

        gap_ns = int(self.UDP_PAYLOAD * 8e9 / (self.UDP_FRACTION * BROADCOM_1G.rate_bps))

        def udp_tx(src):
            sock = src.stack.udp_socket()
            while True:
                yield from sock.sendto(Blob(self.UDP_PAYLOAD), sink.ip, self.UDP_PORT)
                udp["tx"] += self.UDP_PAYLOAD
                yield sim.timeout(gap_ns)

        for i in range(self.FLOWS):
            sim.process(server(self.TCP_PORT + i, i), name=f"bench.server.{i}")
            sim.process(client(tb.endpoints[i], self.TCP_PORT + i, i),
                        name=f"bench.client.{i}")
        sim.process(udp_rx(), name="bench.udp-rx")
        sim.process(udp_tx(tb.endpoints[self.FLOWS]), name="bench.udp-tx")
        sim.run(until=self.horizon_ns)

        results = {
            "flows": [
                {
                    "delivered": servers[i].bytes_delivered,
                    "acked": clients[i].bytes_acked,
                    "retransmits": clients[i].retransmits,
                    "fast_retransmits": clients[i].fast_retransmits,
                    "fast_recoveries": clients[i].fast_recoveries,
                }
                for i in range(self.FLOWS)
            ],
            "udp_tx_bytes": udp["tx"],
            "udp_rx_bytes": udp["rx"],
            "loss_dropped": window.stage.dropped,
            "frames": frames_of([tb]),
        }
        return results, results["frames"]

    @staticmethod
    def sane(results: dict) -> list[str]:
        """Seed-independent checks for seeds with no recorded results."""
        problems = []
        for i, flow in enumerate(results["flows"]):
            if flow["delivered"] <= 0:
                problems.append(f"flow {i} delivered nothing")
            if flow["acked"] > flow["delivered"]:
                problems.append(f"flow {i} acked {flow['acked']} > delivered "
                                f"{flow['delivered']}")
        if results["flows"][0]["retransmits"] <= 0:
            problems.append("the lossy flow never retransmitted")
        if results["loss_dropped"] <= 0:
            problems.append("the loss stage dropped nothing")
        if not 0 < results["udp_rx_bytes"] <= results["udp_tx_bytes"]:
            problems.append(f"udp rx {results['udp_rx_bytes']} outside "
                            f"(0, tx {results['udp_tx_bytes']}]")
        return problems


WORKLOADS = {
    w.name: w
    for w in (NasWorkload, ProvisionWorkload, LossyWorkload)
}
