"""The MPI message record.

A leaf module: the transports build a :class:`Message` per send, and
importing it from here keeps them free of an import of :mod:`.api`
(which imports the transports).  Re-exported by :mod:`repro.mpi.api`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Message"]


@dataclass
class Message:
    """One delivered MPI message."""

    src: int
    tag: int
    nbytes: int
    meta: Any = None
    dst: int = -1
