"""Import layering: the kernel and the chaos layer stay below the overlay.

``repro.sim`` (the simulation kernel, including the fluid fast path and
the path-change bus) and ``repro.chaos`` (fault injection) are used by
``repro.vnet``; neither may import it back.  Path changes flow upward
only through :class:`repro.sim.pathbus.PathBus`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LOW_PACKAGES = ("repro/sim", "repro/chaos")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports (any scope)."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[: len(base) - node.level + 1]
                name = ".".join(base + ([node.module] if node.module else []))
            else:
                name = node.module
            found.add(name)
            found.update(f"{name}.{alias.name}" for alias in node.names)
    return found


def _low_modules():
    return sorted(p for pkg in LOW_PACKAGES for p in (SRC / pkg).rglob("*.py"))


@pytest.mark.parametrize("path", _low_modules(),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_low_layers_never_import_vnet(path):
    upward = sorted(name for name in _imports(path)
                    if name == "repro.vnet" or name.startswith("repro.vnet."))
    assert not upward, f"{_module_name(path)} imports {upward}"


def test_relative_imports_resolve():
    """The resolver itself: ``..vnet.x`` from repro.chaos.schedule is
    repro.vnet.x, so the check above cannot pass vacuously."""
    path = SRC / "repro" / "chaos" / "schedule.py"
    names = _imports(path)
    assert "repro.sim.pipeline" in names
    assert "repro.chaos.stages" in names
