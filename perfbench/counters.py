"""Per-layer metrics of the traced run.

Three sources, all read after a traced round:

* the cProfile hook, rolled up to layers (:mod:`perfbench.layers`):
  ``<layer>.calls_per_op``, ``<layer>.self_us_per_op``,
  ``<layer>.self_share`` and ``total.calls_per_op``;
* component counters: every simulator's ``Observability.of(sim).metrics``
  dump plus public attributes of the TCP connections, switches, routing
  tables and MPI transports the round created (:class:`~perfbench.workloads.Census`);
* span durations in simulated ns per physical frame, per span stage.
"""

from __future__ import annotations

import pstats
from pathlib import Path

from perfbench.layers import LAYERS, rollup

__all__ = [
    "COMPONENT_METRICS",
    "SPAN_STAGES",
    "component_metrics",
    "layer_metrics",
    "per_layer_names",
    "profile_layers",
    "span_metrics",
    "unit_of",
]


def _span_stages() -> tuple:
    from repro.obs import span

    return tuple(v for k, v in vars(span).items() if k.startswith("STAGE_"))


#: Every span stage ``repro.obs.span`` defines, in definition order.
SPAN_STAGES = _span_stages()

#: Component metric name -> unit.
COMPONENT_METRICS = {
    "palacios.exits_per_op": "count",
    "palacios.kicks_per_op": "count",
    "palacios.irqs_per_op": "count",
    "vnet.core.vmm_dispatch_share": "ratio",
    "vnet.core.drops": "count",
    "vnet.flowcache.hit_ratio": "ratio",
    "vnet.flowcache.invalidated_per_op": "count",
    "vnet.routing.cache_hit_ratio": "ratio",
    "hw.drops_per_op": "count",
    "proto.retransmits_per_op": "count",
    "proto.fast_recoveries": "count",
    "mpi.bytes_per_op": "bytes",
    "sim.fluid.strides": "count",
}

_LAYER_UNITS = {"calls_per_op": "count", "self_us_per_op": "us", "self_share": "ratio"}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in _LAYER_UNITS]
    names += ["total.calls_per_op", "trace.overhead_ratio"]
    names += list(COMPONENT_METRICS)
    names += [f"span.{stage}.sim_ns_per_frame" for stage in SPAN_STAGES]
    return names


def unit_of(name: str) -> str:
    if name in COMPONENT_METRICS:
        return COMPONENT_METRICS[name]
    if name.startswith("span."):
        return "ns"
    if name == "trace.overhead_ratio":
        return "ratio"
    return _LAYER_UNITS[name.rsplit(".", 1)[1]]


def profile_layers(profile, src_root: Path) -> tuple[dict, set]:
    """``({layer: [calls, self_seconds]}, unmapped_modules)`` of a profile."""
    return rollup(pstats.Stats(profile).stats, src_root.resolve())


def layer_metrics(calls: dict, self_s: dict, ops: int) -> dict:
    """Per-layer calls and self time per op, and each layer's share."""
    total_self = sum(self_s.values()) or 1.0
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.self_us_per_op"] = self_s[layer] * 1e6 / ops
        out[f"{layer}.self_share"] = self_s[layer] / total_self
    out["total.calls_per_op"] = sum(calls.values()) / ops
    return out


def _counters(census) -> dict:
    from repro.obs.context import Observability

    totals: dict = {}
    for sim in census.sims:
        for name, entry in Observability.of(sim).metrics.dump().items():
            if entry["type"] == "counter":
                totals[name] = totals.get(name, 0) + entry["value"]
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def component_metrics(census, ops: int) -> dict:
    """The ``COMPONENT_METRICS`` of one round."""
    counters = _counters(census)

    def total(prefix: str, suffix: str = "", infix: str = "") -> int:
        return sum(v for k, v in counters.items()
                   if k.startswith(prefix) and k.endswith(suffix) and infix in k)

    vmm = total("vnet.core.", ".vmm_driven_dispatches")
    guest = total("vnet.core.", ".guest_driven_dispatches")
    hits = total("vnet.flowcache.", ".hits")
    misses = total("vnet.flowcache.", ".misses")
    switch_drops = sum(port.dropped for sw in census.switches for port in sw.ports)
    messages = sum(t.messages for t in census.transports)
    return {
        "palacios.exits_per_op": _ratio(total("palacios.", infix=".exits."), ops),
        "palacios.kicks_per_op": _ratio(total("palacios.virtio.", ".tx_kicks"), ops),
        "palacios.irqs_per_op": _ratio(total("palacios.virtio.", ".irq_injections"), ops),
        "vnet.core.vmm_dispatch_share": _ratio(vmm, vmm + guest),
        "vnet.core.drops": (total("vnet.core.", ".dropped_no_route")
                            + total("vnet.core.", ".dropped_ring_full")),
        "vnet.flowcache.hit_ratio": _ratio(hits, hits + misses),
        "vnet.flowcache.invalidated_per_op": _ratio(
            total("vnet.flowcache.", infix=".invalidations."), ops),
        "vnet.routing.cache_hit_ratio": _ratio(
            sum(t.cache_hits for t in census.tables), sum(t.lookups for t in census.tables)),
        "hw.drops_per_op": _ratio(total("hw.nic.", ".dropped_frames") + switch_drops, ops),
        "proto.retransmits_per_op": _ratio(sum(c.retransmits for c in census.tcp), ops),
        "proto.fast_recoveries": sum(c.fast_recoveries for c in census.tcp),
        "mpi.bytes_per_op": _ratio(sum(t.bytes_moved for t in census.transports), messages),
        "sim.fluid.strides": counters.get("sim.fluid.strides", 0),
    }


def span_metrics(census) -> dict:
    """Simulated ns per physical frame spent in each span stage (0 without frames)."""
    from repro.obs.context import Observability

    frames = sum(v for k, v in _counters(census).items()
                 if k.startswith("hw.nic.") and k.endswith(".tx_frames"))
    ns = dict.fromkeys(SPAN_STAGES, 0)
    for sim in census.sims:
        for span in Observability.of(sim).spans.spans:
            if span.stage in ns:
                ns[span.stage] += span.t1 - span.t0
    return {f"span.{stage}.sim_ns_per_frame": _ratio(total, frames)
            for stage, total in ns.items()}
