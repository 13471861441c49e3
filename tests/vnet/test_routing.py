"""Tests for the VNET/P routing table and overlay objects."""

import pytest
from hypothesis import given, strategies as st

from repro.config import VnetCostParams
from repro.vnet.overlay import (
    ANY_MAC,
    DestType,
    InterfaceSpec,
    LinkProto,
    LinkSpec,
    RouteEntry,
    validate_mac,
)
from repro.vnet.routing import NoRouteError, RoutingTable


COSTS = VnetCostParams()


def route(src, dst, name="l0", dest_type=DestType.LINK):
    return RouteEntry(src_mac=src, dst_mac=dst, dest_type=dest_type, dest_name=name)


MAC_A = "52:00:00:00:00:01"
MAC_B = "52:00:00:00:00:02"
MAC_C = "52:00:00:00:00:03"


# --- overlay objects -----------------------------------------------------------

def test_validate_mac_normalises_case():
    assert validate_mac("AA:BB:CC:DD:EE:FF") == "aa:bb:cc:dd:ee:ff"


def test_validate_mac_rejects_garbage():
    for bad in ["", "aa:bb", "zz:zz:zz:zz:zz:zz", "aabbccddeeff"]:
        with pytest.raises(ValueError):
            validate_mac(bad)


def test_validate_mac_any_wildcard():
    assert validate_mac("any") == ANY_MAC
    with pytest.raises(ValueError):
        validate_mac("any", allow_any=False)


def test_udp_link_requires_destination():
    with pytest.raises(ValueError, match="needs dst_ip"):
        LinkSpec(name="bad", proto=LinkProto.UDP)


def test_direct_link_needs_no_destination():
    link = LinkSpec(name="exit", proto=LinkProto.DIRECT)
    assert link.dst_ip == ""


def test_interface_spec_validates_mac():
    with pytest.raises(ValueError):
        InterfaceSpec(name="if0", mac="junk")


def test_route_specificity_ordering():
    exact = route(MAC_A, MAC_B)
    dst_only = route(ANY_MAC, MAC_B)
    src_only = route(MAC_A, ANY_MAC)
    wild = route(ANY_MAC, ANY_MAC)
    assert exact.specificity > dst_only.specificity > src_only.specificity > wild.specificity


# --- routing table ---------------------------------------------------------------

def test_lookup_exact_match():
    table = RoutingTable(COSTS)
    table.add(route(MAC_A, MAC_B, "to-b"))
    entry, cost = table.lookup(MAC_A, MAC_B)
    assert entry.dest_name == "to-b"
    assert cost > 0


def test_lookup_prefers_most_specific():
    table = RoutingTable(COSTS)
    table.add(route(ANY_MAC, ANY_MAC, "default"))
    table.add(route(ANY_MAC, MAC_B, "dst-b"))
    table.add(route(MAC_A, MAC_B, "exact"))
    entry, _ = table.lookup(MAC_A, MAC_B)
    assert entry.dest_name == "exact"
    entry, _ = table.lookup(MAC_C, MAC_B)
    assert entry.dest_name == "dst-b"
    entry, _ = table.lookup(MAC_C, MAC_C)
    assert entry.dest_name == "default"


def test_lookup_no_route_raises():
    table = RoutingTable(COSTS)
    table.add(route(MAC_A, MAC_B))
    with pytest.raises(NoRouteError):
        table.lookup(MAC_B, MAC_A)


def test_cache_hit_is_cheaper_than_scan():
    costs = VnetCostParams()
    table = RoutingTable(costs)
    for i in range(50):
        table.add(route(ANY_MAC, f"52:00:00:00:01:{i:02x}", f"l{i}"))
    _, miss_cost = table.lookup(MAC_A, "52:00:00:00:01:31")
    _, hit_cost = table.lookup(MAC_A, "52:00:00:00:01:31")
    assert hit_cost == costs.route_cache_hit_ns
    assert miss_cost == 50 * costs.route_table_per_entry_ns
    assert hit_cost < miss_cost
    assert table.cache_hits == 1


def test_cache_disabled_always_scans():
    table = RoutingTable(COSTS, cache_enabled=False)
    table.add(route(ANY_MAC, MAC_B))
    table.lookup(MAC_A, MAC_B)
    table.lookup(MAC_A, MAC_B)
    assert table.cache_hits == 0


def test_cache_invalidated_on_add_and_remove():
    table = RoutingTable(COSTS)
    wild = route(ANY_MAC, ANY_MAC, "default")
    table.add(wild)
    entry, _ = table.lookup(MAC_A, MAC_B)
    assert entry.dest_name == "default"
    better = route(MAC_A, MAC_B, "specific")
    table.add(better)
    entry, _ = table.lookup(MAC_A, MAC_B)
    assert entry.dest_name == "specific"
    table.remove(better)
    entry, _ = table.lookup(MAC_A, MAC_B)
    assert entry.dest_name == "default"


@pytest.mark.parametrize(
    "write",
    [
        lambda t: t.add(route(MAC_A, MAC_B)),
        # The fresh route ahead of the duplicate must not land either.
        lambda t: t.load([route(ANY_MAC, MAC_C), route(MAC_A, MAC_B)]),
        lambda t: t.load([route(MAC_C, MAC_A), route(ANY_MAC, MAC_C), route(MAC_C, MAC_A)]),
    ],
    ids=["add", "load", "load-repeats-within-batch"],
)
def test_duplicate_route_rejected(write):
    table = RoutingTable(COSTS)
    table.add(route(MAC_A, MAC_B))
    fired = []
    table.on_change(lambda: fired.append(1))
    before = table.entries
    with pytest.raises(ValueError, match="duplicate"):
        write(table)
    assert table.entries == before
    assert fired == []


def test_route_writes_are_linear(monkeypatch):
    """Guard against quadratic control-plane writes.

    Counts ``RouteEntry.__eq__`` calls while N distinct routes are added
    one by one and then removed via equal (not identical) copies.  A
    duplicate check by list scan costs ~N**2/2 comparisons; the hashed
    store needs about one per removal.  Call counts, not wall time, so
    the bound holds on any machine.
    """
    n = 2000
    macs = [f"52:00:00:00:{i >> 8:02x}:{i & 0xff:02x}" for i in range(n)]
    calls = 0
    real_eq = RouteEntry.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return real_eq(self, other)

    monkeypatch.setattr(RouteEntry, "__eq__", counting_eq)
    table = RoutingTable(COSTS)
    for m in macs:
        table.add(route(ANY_MAC, m))
    for m in macs:
        table.remove(route(ANY_MAC, m))
    assert len(table) == 0
    assert calls <= 4 * n, f"{calls} RouteEntry.__eq__ calls for {n} adds + removes"


def test_remove_missing_route_raises():
    table = RoutingTable(COSTS)
    with pytest.raises(KeyError):
        table.remove(route(MAC_A, MAC_B))


def test_remove_matching_filters():
    table = RoutingTable(COSTS)
    table.add(route(ANY_MAC, MAC_B, "x"))
    table.add(route(ANY_MAC, MAC_C, "x"))
    table.add(route(ANY_MAC, MAC_A, "y"))
    assert table.remove_matching(dest_name="x") == 2
    assert len(table) == 1


def test_routes_to_filters_by_destination():
    table = RoutingTable(COSTS)
    table.add(route(ANY_MAC, MAC_B, "if0", DestType.INTERFACE))
    table.add(route(ANY_MAC, MAC_C, "l0", DestType.LINK))
    assert len(table.routes_to(DestType.INTERFACE, "if0")) == 1
    assert len(table.routes_to(DestType.LINK, "l0")) == 1
    assert table.routes_to(DestType.LINK, "if0") == []


@st.composite
def mac_strategy(draw):
    return ":".join(f"{draw(st.integers(0, 255)):02x}" for _ in range(6))


@given(st.lists(mac_strategy(), min_size=1, max_size=20, unique=True), mac_strategy())
def test_property_cached_lookup_equals_scan(dst_macs, probe_src):
    """The cache must never change the lookup result."""
    cached = RoutingTable(COSTS, cache_enabled=True)
    plain = RoutingTable(COSTS, cache_enabled=False)
    for i, mac in enumerate(dst_macs):
        for t in (cached, plain):
            t.add(route(ANY_MAC, mac, f"l{i}"))
    for mac in dst_macs:
        for _ in range(2):  # second pass hits the cache
            a, _ = cached.lookup(probe_src, mac)
            b, _ = plain.lookup(probe_src, mac)
            assert a == b
