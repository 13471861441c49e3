"""The path-change bus: one publish per cause, one handler per consumer.

Every cause of a path change reaches both fast paths — the per-flow
cache and the fluid region — through :class:`repro.sim.pathbus.PathBus`
with its own scope and reason label (the table in
``docs/performance.md``, "Invalidation rules").  The table test drives
each cause through the bus; the publisher tests drive the dead-link
verdict through :class:`~repro.vnet.monitor.TrafficMonitor`.
"""

import dataclasses

import pytest

from repro.apps.ping import run_ping
from repro.config import NETEFFECT_10G, VnetTuning
from repro.harness.testbed import build_vnetp
from repro.obs.context import Observability
from repro.sim import Simulator
from repro.sim.fluid import FluidFlow, fluid_region_of
from repro.sim.pathbus import PathBus, path_bus, port_scope
from repro.vnet.monitor import TrafficMonitor


# --- the bus itself ---------------------------------------------------------------

def test_bus_is_per_simulator():
    sim = Simulator()
    assert path_bus(sim) is path_bus(sim)
    assert path_bus(Simulator()) is not path_bus(sim)


def test_publish_reaches_host_and_every_host_subscribers_in_order():
    bus = PathBus()
    heard = []
    bus.subscribe(lambda *c: heard.append(("h0", c)), "h0")
    bus.subscribe(lambda *c: heard.append(("all", c)))
    bus.subscribe(lambda *c: heard.append(("h1", c)), "h1")
    bus.publish("failover", "h0", "to1")
    assert heard == [("h0", ("failover", "h0", "to1")),
                     ("all", ("failover", "h0", "to1"))]
    heard.clear()
    bus.publish("chaos")
    assert heard == [("h0", ("chaos", None, None)),
                     ("h1", ("chaos", None, None)),
                     ("all", ("chaos", None, None))]
    heard.clear()
    bus.publish("route-change", "h9")   # no per-host subscriber
    assert heard == [("all", ("route-change", "h9", None))]


def test_port_scope_decodes_link_ports_only():
    tb = build_vnetp(nic_params=NETEFFECT_10G)
    assert port_scope(tb.hosts[0].vnet_bridge.link_out("to1").name) == ("h0", "to1")
    assert port_scope(tb.hosts[0].nic.tx_port.name) == (None, None)
    assert port_scope(tb.cores[1].inbound.name) == (None, None)


# --- cause x consumer table -------------------------------------------------------

class _Conn:
    """The slice of a TcpConnection the fluid region touches on release
    and checkpoint (nothing pending, so a checkpoint moves no bytes)."""

    def __init__(self, port):
        self.local_port = port
        self.remote_ip = "172.16.0.9"
        self.remote_port = 5001
        self.app_written = self.snd_nxt = 0
        self.rcvbuf = 1 << 20
        self.recv_available = 0
        self.fluid = None


class _Path:
    def __init__(self, tokens):
        self.link_tokens = frozenset(tokens)


def _capture(region, port, tokens, active=False):
    """Put a fake captured flow riding ``tokens`` into ``region``."""
    conn = _Conn(port)
    flow = FluidFlow(conn, conn, _Path(tokens), demand_Bps=1e9,
                     captured_ns=region.sim.now)
    conn.fluid = flow
    region.flows[conn] = flow
    if active:
        flow.active = True
        region.active.append(flow)
    return flow


def _fluid_testbed():
    tuning = dataclasses.replace(VnetTuning(), fluid=True)
    return build_vnetp(nic_params=NETEFFECT_10G, n_hosts=3, tuning=tuning)


def _cached_links(cache):
    """Links of a cache's overlay entries, and whether local ones remain."""
    links = {e.path.link_name for e in cache.entries.values() if e.path is not None}
    local = any(e.nic is not None for e in cache.entries.values())
    return links, local


ALL = {"to1", "to2"}
# (cause, host, link) -> (h0 links kept, h0 local entries kept,
#                          h1 cache flushed, fluid flows released)
TABLE = [
    (("route-change", "h0", None), (set(), False, False, "ABC")),
    (("failover", "h0", "to1"), ({"to2"}, True, False, "ABC")),
    (("failback", "h0", "to2"), ({"to1"}, True, False, "ABC")),
    (("link-dead", "h0", "to1"), ({"to2"}, True, False, "A")),
    (("chaos", "h0", "to1"), ({"to2"}, True, False, "A")),
    (("chaos", None, None), (set(), False, True, "ABC")),
    (("mode-change", "h0", None), (ALL, True, False, "ABC")),
]


@pytest.mark.parametrize("change,expected", TABLE,
                         ids=[f"{c}-{h or 'all'}-{lk or 'all'}" for (c, h, lk), _ in TABLE])
def test_cause_reaches_each_consumer_with_its_scope(change, expected):
    cause, host, link = change
    kept, local_kept, h1_flushed, released = expected
    tb = _fluid_testbed()
    a, b, c = tb.endpoints
    run_ping(a, b, count=3)
    run_ping(a, c, count=3)
    h0, h1 = tb.cores[0].flowcache, tb.cores[1].flowcache
    assert _cached_links(h0) == (ALL, True)
    h1_before = len(h1)
    assert h1_before > 0

    region = fluid_region_of(tb.sim)
    flows = {
        "A": _capture(region, 1, {("h0", "to1"), ("h1", "to0")}),
        "B": _capture(region, 2, {("h0", "to2")}),
        "C": _capture(region, 3, {("h1", "to2")}),
    }
    metrics = Observability.of(tb.sim).metrics
    before = metrics.snapshot()

    path_bus(tb.sim).publish(cause, host, link)

    # Flow cache: scope on h0, nothing outside it, one labelled event.
    assert _cached_links(h0) == (kept, local_kept)
    assert (len(h1) == 0) == h1_flushed
    if not h1_flushed:
        assert len(h1) == h1_before
    after = metrics.snapshot()
    label = f"vnet.flowcache.h0.invalidations.{cause}"
    hit_cache = cause != "mode-change"
    assert after.get(label, 0) - before.get(label, 0) == int(hit_cache)

    # Fluid region: exactly the expected flows released, under the cause.
    gone = {name for name, f in flows.items() if f.conn not in region.flows}
    assert gone == set(released)
    assert all(flows[name].conn.fluid is None for name in gone)
    label = f"sim.fluid.releases.{cause}"
    assert after.get(label, 0) - before.get(label, 0) == len(released)


# --- publishers -------------------------------------------------------------------

def _dead_link_monitor(tb):
    """A monitor on h0 that condemns to1 at its next verdict."""
    monitor = TrafficMonitor(tb.sim, tb.cores[0])
    monitor.watch_link("to1", tb.hosts[1].ip, 1_000)
    tb.sim.run(until=tb.sim.now + 20_000)   # silent for 20 intervals
    return monitor


def test_link_dead_releases_exactly_the_fluid_flows_on_that_link():
    tb = _fluid_testbed()
    region = fluid_region_of(tb.sim)
    on_link = _capture(region, 1, {("h0", "to1")})
    elsewhere = _capture(region, 2, {("h0", "to2")})
    same_name_other_host = _capture(region, 3, {("h2", "to1")})
    monitor = _dead_link_monitor(tb)
    assert monitor.dead_links() == ["to1"]
    assert on_link.conn not in region.flows
    assert elsewhere.conn in region.flows
    assert same_name_other_host.conn in region.flows
    snap = Observability.of(tb.sim).metrics.snapshot("sim.fluid.releases.")
    assert snap == {"sim.fluid.releases.link-dead": 1}
    # The verdict is published once, on the transition.
    monitor.dead_links()
    assert len(region.flows) == 2


def test_link_dead_on_an_unridden_link_leaves_stride_log_unchanged():
    tb = _fluid_testbed()
    region = fluid_region_of(tb.sim)
    rider = _capture(region, 1, {("h0", "to2")}, active=True)
    monitor = _dead_link_monitor(tb)
    assert monitor.dead_links() == ["to1"]
    assert region.stride_log == []
    assert rider.conn in region.flows
    # The same fake flow is checkpointed by a fault that does not hit it
    # either: the setup can observe a checkpoint.
    path_bus(tb.sim).publish("chaos", "h0", "to1")
    assert region.stride_log == [(0, tb.sim.now)]
    assert rider.conn in region.flows
