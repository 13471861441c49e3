"""One per-simulator bus for path changes: each cause publishes once.

Two fast paths derive state from the overlay's forwarding decisions:
the per-flow cache (:mod:`repro.vnet.flowcache`) and the fluid region
(:mod:`repro.sim.fluid`).  Every cause of a path change publishes here
once, where it happens, as ``(cause, host, link)``: ``cause`` is the
reason label the consumers count it under, ``host`` the host whose paths
changed and ``link`` one overlay link of it, ``None`` meaning every host
or every link.  Each consumer subscribes one handler; handlers run
synchronously and consume no simulated time.  ``docs/performance.md``
("Invalidation rules") tabulates causes, publishers and scopes.  The bus
sits in ``repro.sim`` so that neither ``repro.chaos`` nor
``repro.sim.fluid`` imports ``repro.vnet``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulator

__all__ = ["Handler", "PathBus", "path_bus", "port_scope"]

#: ``handler(cause, host, link)``, called once per published change.
Handler = Callable[[str, Optional[str], Optional[str]], None]

# Infix of a bridge's per-overlay-link egress port name,
# ``<host>.vbridge.link.<link>`` (see VnetBridge.link_out).
_LINK_PORT = ".vbridge.link."


class PathBus:
    """Synchronous publish/subscribe of path changes for one simulator.

    Handlers subscribed for one host only hear changes published for
    that host or for every host; the others hear every change.  Handlers
    run in subscription order, per-host handlers first.
    """

    __slots__ = ("_by_host", "_every")

    def __init__(self) -> None:
        self._by_host: dict[str, list[Handler]] = {}
        self._every: list[Handler] = []

    def subscribe(self, handler: Handler, host: Optional[str] = None) -> None:
        """Call ``handler`` on every change that reaches ``host``
        (on every change when ``host`` is ``None``)."""
        if host is None:
            self._every.append(handler)
        else:
            self._by_host.setdefault(host, []).append(handler)

    def publish(self, cause: str, host: Optional[str] = None,
                link: Optional[str] = None) -> None:
        """Announce that the paths of ``host`` through ``link`` changed."""
        by_host = self._by_host
        if host is None:
            for handlers in by_host.values():
                for handler in handlers:
                    handler(cause, host, link)
        elif host in by_host:
            for handler in by_host[host]:
                handler(cause, host, link)
        for handler in self._every:
            handler(cause, host, link)


def path_bus(sim: "Simulator") -> PathBus:
    """The simulator's :class:`PathBus` (created on first use)."""
    bus = getattr(sim, "_path_bus", None)
    if bus is None:
        bus = sim._path_bus = PathBus()
    return bus


def port_scope(port_name: str) -> tuple[Optional[str], Optional[str]]:
    """The ``(host, link)`` scope of a fault on the port ``port_name``.

    A bridge's per-overlay-link egress port scopes the fault to that one
    link of that host; any other port (a physical NIC, a switch port, a
    core's inbound port) sits below link granularity and scopes it to
    every link of every host, ``(None, None)``.
    """
    if _LINK_PORT not in port_name:
        return None, None
    host, _, link = port_name.partition(_LINK_PORT)
    return host, link
