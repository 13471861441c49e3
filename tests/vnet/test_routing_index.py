"""The indexed (src, dst) route lookup: same semantics, flat cost.

The lazy exact-dst/wildcard-dst index must be observationally identical
to the legacy linear scan — same winning entry (first-added wins ties,
exact-dst beats wildcard-dst), same charged cost (the full-scan model),
same change notifications — while the bulk ``load`` path fires exactly
one notification per batch.  The model-based test below holds the
hashed route store to a plain-list reference across interleaved writes
and reads.
"""

import pytest
from hypothesis import given, strategies as st

from repro.config import VnetCostParams
from repro.vnet.overlay import ANY_MAC, DestType, RouteEntry
from repro.vnet.routing import NoRouteError, RoutingTable

COSTS = VnetCostParams()


def route(src, dst, name="l0"):
    return RouteEntry(src_mac=src, dst_mac=dst, dest_type=DestType.LINK,
                      dest_name=name)


def brute_force(entries, src, dst):
    """The pre-index selection rule: linear scan, strict > on specificity."""
    best, best_spec = None, -1
    for e in entries:
        if e.matches(src, dst) and e.specificity > best_spec:
            best, best_spec = e, e.specificity
    return best


def mac(i):
    return f"52:00:00:00:{i >> 8:02x}:{i & 0xff:02x}"


_macs = st.integers(min_value=0, max_value=15).map(mac)
_mac_or_any = st.one_of(st.just(ANY_MAC), _macs)


@given(
    st.lists(st.tuples(_mac_or_any, _mac_or_any), min_size=0, max_size=40),
    _macs,
    _macs,
)
def test_lookup_matches_linear_scan(pairs, src, dst):
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([route(s, d, name=f"l{i}") for i, (s, d) in enumerate(pairs)])
    expected = brute_force(table.entries, src, dst)
    if expected is None:
        with pytest.raises(NoRouteError):
            table.lookup(src, dst)
    else:
        entry, _cost = table.lookup(src, dst)
        assert entry is expected


def test_charged_cost_is_full_scan():
    """The index is a wall-clock optimisation only: the simulated cost
    still models the linear table walk the paper describes (Sect. 4.3)."""
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([route(ANY_MAC, mac(i)) for i in range(37)])
    _entry, cost = table.lookup(mac(0), mac(5))
    assert cost == COSTS.route_table_per_entry_ns * 37


def test_load_fires_one_notification():
    table = RoutingTable(COSTS)
    fired = []
    table.on_change(lambda: fired.append(1))
    added = table.load([route(ANY_MAC, mac(i)) for i in range(10)])
    assert added == 10
    assert len(fired) == 1
    # Per-entry adds still notify per entry.
    table.add(route(ANY_MAC, mac(99)))
    assert len(fired) == 2


def test_index_invalidated_by_mutation():
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([route(ANY_MAC, mac(1), name="a")])
    entry, _ = table.lookup(mac(0), mac(1))
    assert entry.dest_name == "a"
    # A higher-specificity entry added later must win immediately.
    table.add(route(mac(0), mac(1), name="b"))
    entry, _ = table.lookup(mac(0), mac(1))
    assert entry.dest_name == "b"
    # And removal must restore the wildcard route.
    table.remove_matching(src_mac=mac(0), dst_mac=mac(1))
    entry, _ = table.lookup(mac(0), mac(1))
    assert entry.dest_name == "a"


def test_wildcard_dst_fallback():
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([
        route(ANY_MAC, ANY_MAC, name="default"),
        route(ANY_MAC, mac(1), name="exact"),
    ])
    assert table.lookup(mac(9), mac(1))[0].dest_name == "exact"
    assert table.lookup(mac(9), mac(2))[0].dest_name == "default"


def test_first_added_wins_ties():
    table = RoutingTable(COSTS, cache_enabled=False)
    table.load([
        route(ANY_MAC, mac(1), name="first"),
        route(ANY_MAC, mac(1), name="second"),
    ])
    assert table.lookup(mac(0), mac(1))[0].dest_name == "first"


class ListTable:
    """Reference model: the plain-list route table the store replaced.

    Selection is the linear scan, the charged cost is the full walk, the
    hash cache is emptied by every successful mutation, and ``load``
    rejects duplicates (in the batch or already present) up front.
    """

    def __init__(self, cache_enabled):
        self.cache_enabled = cache_enabled
        self.entries = []
        self.cache = {}
        self.notifications = 0

    def _changed(self):
        self.cache.clear()
        self.notifications += 1

    def add(self, entry):
        if entry in self.entries:
            raise ValueError("duplicate")
        self.entries.append(entry)
        self._changed()

    def load(self, batch):
        for i, entry in enumerate(batch):
            if entry in self.entries or entry in batch[:i]:
                raise ValueError("duplicate")
        self.entries.extend(batch)
        self._changed()
        return len(batch)

    def remove(self, entry):
        try:
            self.entries.remove(entry)
        except ValueError:
            raise KeyError(entry) from None
        self._changed()

    def remove_matching(self, src_mac, dst_mac, dest_name):
        keep = [
            e for e in self.entries
            if not ((src_mac is None or e.src_mac == src_mac)
                    and (dst_mac is None or e.dst_mac == dst_mac)
                    and (dest_name is None or e.dest_name == dest_name))
        ]
        removed = len(self.entries) - len(keep)
        self.entries = keep
        self._changed()
        return removed

    def clear(self):
        self.entries = []
        self._changed()

    def warm_lookup_cost(self):
        if self.cache_enabled:
            return COSTS.route_cache_hit_ns
        return COSTS.route_table_per_entry_ns * max(1, len(self.entries))

    def lookup(self, src, dst):
        if self.cache_enabled and (src, dst) in self.cache:
            return self.cache[(src, dst)], COSTS.route_cache_hit_ns
        best = brute_force(self.entries, src, dst)
        if best is None:
            raise NoRouteError(src, dst)
        if self.cache_enabled:
            self.cache[(src, dst)] = best
        return best, COSTS.route_table_per_entry_ns * max(1, len(self.entries))

    def peek(self, src, dst):
        return brute_force(self.entries, src, dst)


# A small MAC/name pool so duplicates, misses and cache hits all occur.
_pool_macs = st.integers(min_value=0, max_value=3).map(mac)
_pool_mac_or_any = st.one_of(st.just(ANY_MAC), _pool_macs)
_routes = st.builds(
    route, _pool_mac_or_any, _pool_mac_or_any, st.sampled_from(["a", "b"])
)
_ops = st.one_of(
    st.tuples(st.just("add"), _routes),
    st.tuples(st.just("remove"), _routes),
    st.tuples(st.just("load"), st.lists(_routes, max_size=6)),
    st.tuples(
        st.just("remove_matching"),
        st.one_of(st.none(), _pool_mac_or_any),
        st.one_of(st.none(), _pool_mac_or_any),
        st.one_of(st.none(), st.sampled_from(["a", "b"])),
    ),
    st.tuples(st.just("clear")),
    st.tuples(st.just("lookup"), _pool_macs, _pool_macs),
    st.tuples(st.just("peek"), _pool_macs, _pool_macs),
    st.tuples(st.just("warm_lookup_cost")),
)


def _outcome(call):
    try:
        return "ok", call()
    except (ValueError, KeyError, NoRouteError) as exc:
        return "raised", type(exc)


@given(st.booleans(), st.lists(_ops, max_size=40))
def test_store_matches_list_reference(cache_enabled, ops):
    table = RoutingTable(COSTS, cache_enabled=cache_enabled)
    ref = ListTable(cache_enabled)
    fired = []
    table.on_change(lambda: fired.append(1))
    for name, *args in ops:
        got = _outcome(lambda: getattr(table, name)(*args))
        want = _outcome(lambda: getattr(ref, name)(*args))
        assert got == want, (name, args)
        assert table.entries == tuple(ref.entries)
        assert len(table) == len(ref.entries)
        assert len(fired) == ref.notifications
