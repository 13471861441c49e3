"""The module -> layer map and the profile rollup."""

import cProfile
from pathlib import Path

import pytest

from perfbench.layers import LAYERS, layer_of_module, module_of_file, rollup

SRC = Path(__file__).resolve().parents[2] / "src"

# The layer map as the benchmark's documentation states it.
DOCUMENTED = {
    "sim": ["repro.sim", "repro.sim.core", "repro.sim.primitives", "repro.sim.pipeline",
            "repro.sim.trace", "repro.sim.rng"],
    "sim.fluid": ["repro.sim.fluid", "repro.vnet.fluidpath"],
    "vnet.core": ["repro.vnet", "repro.vnet.core", "repro.vnet.dispatcher",
                  "repro.vnet.adaptation", "repro.vnet.overlay", "repro.vnet.encap",
                  "repro.vnet.monitor", "repro.vnet.heartbeat", "repro.vnet.inference",
                  "repro.vnet.migration", "repro.vnet.vnetu"],
    "vnet.flowcache": ["repro.vnet.flowcache"],
    "vnet.routing": ["repro.vnet.routing"],
    "vnet.bridge": ["repro.vnet.bridge"],
    "vnet.control": ["repro.vnet.control", "repro.vnet.lang", "repro.vnet.validation"],
    "misc": ["repro", "repro.config", "repro.units", "repro.__main__"],
    "apps": ["repro.apps.npb.suite", "repro.apps.hpcc.fft"],
    "harness": ["repro.harness.experiments.cluster"],
}


def all_modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield module_of_file(str(path), SRC)


def test_every_source_module_maps_to_a_layer():
    modules = list(all_modules())
    assert len(modules) > 100
    unmapped = [m for m in modules if layer_of_module(m) not in LAYERS]
    assert unmapped == []


def test_every_layer_has_a_module():
    assert {layer_of_module(m) for m in all_modules()} == set(LAYERS)


@pytest.mark.parametrize("layer,modules", sorted(DOCUMENTED.items()))
def test_documented_layers(layer, modules):
    assert {m: layer_of_module(m) for m in modules} == dict.fromkeys(modules, layer)


def test_unknown_top_level_module_is_unmapped():
    assert layer_of_module("repro.newthing") is None


def test_module_of_file():
    assert module_of_file(str(SRC / "repro" / "vnet" / "core.py"), SRC) == "repro.vnet.core"
    assert module_of_file(str(SRC / "repro" / "sim" / "__init__.py"), SRC) == "repro.sim"
    assert module_of_file("<string>", SRC) is None
    assert module_of_file("~", SRC) is None


def _func(module: str, name: str):
    path = SRC.joinpath(*module.split(".")).with_suffix(".py")
    return (str(path), 1, name)


def test_rollup_charges_outside_code_to_its_callers():
    root = ("bench.py", 1, "round")
    route_add = _func("repro.vnet.routing", "add")
    kernel = _func("repro.sim.core", "step")
    dc_eq = ("<string>", 2, "__eq__")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    sort_key = ("/usr/lib/python3.11/functools.py", 10, "key")
    sorted_ = ("~", 0, "<built-in method builtins.sorted>")
    # stats layout: func -> (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})
    stats = {
        root: (1, 1, 0.5, 9.0, {}),
        route_add: (10, 10, 1.0, 5.0, {root: (10, 10, 1.0, 5.0)}),
        kernel: (4, 4, 2.0, 3.0, {root: (4, 4, 2.0, 3.0)}),
        # generated dataclass __eq__ called only by the routing table
        dc_eq: (100, 100, 3.0, 3.0, {route_add: (100, 100, 3.0, 3.0)}),
        # a built-in shared by two layers: split edge by edge
        append: (30, 30, 0.3, 0.3, {route_add: (10, 10, 0.1, 0.1),
                                    kernel: (20, 20, 0.2, 0.2)}),
        # stdlib code called back from a built-in the kernel called
        sorted_: (2, 2, 0.4, 0.6, {kernel: (2, 2, 0.4, 0.6)}),
        sort_key: (8, 8, 0.2, 0.2, {sorted_: (8, 8, 0.2, 0.2)}),
    }
    totals, unmapped = rollup(stats, SRC)
    assert unmapped == set()
    assert totals["vnet.routing"] == pytest.approx([10 + 100 + 10, 1.0 + 3.0 + 0.1])
    assert totals["sim"] == pytest.approx([4 + 20 + 2 + 8, 2.0 + 0.2 + 0.4 + 0.2])
    # the driver (no repro code above it) counts toward no layer
    assert sum(calls for calls, _ in totals.values()) == pytest.approx(154)
    assert all(totals[layer] == [0.0, 0.0] for layer in LAYERS
               if layer not in ("vnet.routing", "sim"))


def test_rollup_reports_unmapped_repro_modules():
    func = _func("repro.newthing", "f")
    _totals, unmapped = rollup({func: (1, 1, 0.1, 0.1, {})}, SRC)
    assert unmapped == {"repro.newthing"}


def test_rollup_of_a_real_profile():
    from repro.sim import Simulator
    from repro.units import MS

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(MS)

    sim = Simulator()
    sim.process(proc(sim))
    prof = cProfile.Profile()
    prof.enable()
    sim.run()
    prof.disable()
    import pstats

    totals, unmapped = rollup(pstats.Stats(prof).stats, SRC)
    assert unmapped == set()
    assert totals["sim"][0] > 0
    # the generator defined here is charged to the kernel that resumed it
    assert {layer for layer, (calls, _) in totals.items() if calls} == {"sim"}
