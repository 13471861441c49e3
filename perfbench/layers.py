"""Module -> layer map and the cProfile rollup behind the per-layer metrics.

Every module under ``src/repro`` belongs to exactly one layer.  Packages
whose modules all sit in one layer map by package; ``repro.sim`` and
``repro.vnet`` are split module by module, with every module not named
in ``MODULE_LAYERS`` falling to the package's default layer, so a new
``repro.vnet`` module lands in ``vnet.core`` rather than nowhere.  A
top-level ``repro`` module that is not listed maps to no layer, and the
traced run reports it as an integrity failure.

Calls and self time come from :mod:`cProfile`.  Code outside
``src/repro`` -- built-ins, the standard library, generated code such as
dataclass ``__eq__`` (file ``<string>``) and the benchmark's own
workload loops -- is charged to the layer of its caller, edge by edge,
using the per-caller call counts and times cProfile keeps.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

__all__ = [
    "LAYERS",
    "MODULE_LAYERS",
    "PACKAGE_LAYERS",
    "layer_of_module",
    "module_of_file",
    "rollup",
]

#: Layers in report order.
LAYERS = (
    "sim", "sim.fluid", "proto", "palacios",
    "vnet.core", "vnet.flowcache", "vnet.routing", "vnet.bridge", "vnet.control",
    "hw", "host", "interconnect", "chaos", "mpi", "apps", "topo",
    "harness", "exec", "obs", "misc",
)

#: Modules named one by one; wins over ``PACKAGE_LAYERS``.
MODULE_LAYERS = {
    "repro": "misc",
    "repro.__main__": "misc",
    "repro.config": "misc",
    "repro.units": "misc",
    "repro.sim.fluid": "sim.fluid",
    "repro.vnet.fluidpath": "sim.fluid",
    "repro.vnet.flowcache": "vnet.flowcache",
    "repro.vnet.routing": "vnet.routing",
    "repro.vnet.bridge": "vnet.bridge",
    "repro.vnet.control": "vnet.control",
    "repro.vnet.lang": "vnet.control",
    "repro.vnet.validation": "vnet.control",
}

#: Package -> layer for every module of the package (and its subpackages)
#: not named in ``MODULE_LAYERS``.
PACKAGE_LAYERS = {
    "repro.sim": "sim",
    "repro.vnet": "vnet.core",
    "repro.proto": "proto",
    "repro.palacios": "palacios",
    "repro.hw": "hw",
    "repro.host": "host",
    "repro.interconnect": "interconnect",
    "repro.chaos": "chaos",
    "repro.mpi": "mpi",
    "repro.apps": "apps",
    "repro.topo": "topo",
    "repro.harness": "harness",
    "repro.exec": "exec",
    "repro.obs": "obs",
}


def layer_of_module(module: str) -> Optional[str]:
    """The layer of a dotted ``repro`` module name, or ``None`` if unmapped."""
    layer = MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    parts = module.split(".")
    for n in range(len(parts), 1, -1):
        layer = PACKAGE_LAYERS.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return None


def module_of_file(filename: str, src_root: Path) -> Optional[str]:
    """Dotted module name of a source file under ``src_root``, else ``None``."""
    if not filename.endswith(".py"):
        return None
    try:
        rel = Path(filename).resolve().relative_to(src_root)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


def rollup(stats: dict, src_root: Path) -> tuple[dict, set]:
    """Roll a ``pstats.Stats(...).stats`` table up to layers.

    Returns ``({layer: [calls, self_seconds]}, unmapped_modules)``.
    Functions in ``src/repro`` count toward their module's layer; any
    other function's calls and self time are split over its callers edge
    by edge, recursively, until they reach ``repro`` code.  Work with no
    ``repro`` code above it (the benchmark driver itself) counts toward
    no layer.  Keys are visited in sorted order, so equal profiles give
    bit-identical floats.
    """
    own: dict = {}
    unmapped: set = set()
    for func in stats:
        module = module_of_file(func[0], src_root)
        layer = None
        if module is not None and module.split(".")[0] == "repro":
            layer = layer_of_module(module)
            if layer is None:
                unmapped.add(module)
        own[func] = layer

    shares_memo: dict = {}

    def shares(func, visiting: frozenset) -> dict:
        """Fraction of ``func``'s work owed to each layer."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[1] for edge in callers.values())
        acc: dict = {}
        if total and func not in visiting:
            for caller in sorted(callers):
                weight = callers[caller][1] / total
                for lay, frac in shares(caller, visiting | {func}).items():
                    acc[lay] = acc.get(lay, 0.0) + frac * weight
        shares_memo[func] = acc
        return acc

    totals = {layer: [0.0, 0.0] for layer in LAYERS}
    for func in sorted(stats):
        _cc, nc, tt, _ct, callers = stats[func]
        layer = own[func]
        if layer is not None:
            totals[layer][0] += nc
            totals[layer][1] += tt
            continue
        for caller in sorted(callers):
            edge = callers[caller]
            for lay, frac in shares(caller, frozenset({func})).items():
                totals[lay][0] += edge[1] * frac
                totals[lay][1] += edge[2] * frac
    return totals, unmapped
