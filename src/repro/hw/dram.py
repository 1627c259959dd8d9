"""Banked DDR4 model: burst granularity and row-buffer locality.

The analytical simulator charges DRAM time as bytes/peak-bandwidth; this
model refines that for the event-driven simulator by accounting for the two
effects that matter to ViTCoD's access patterns:

* **burst granularity** — DDR transfers whole bursts (64 B); a scattered
  fetch of a 64-byte compressed Q row wastes nothing, but sub-burst requests
  round up;
* **row-buffer locality** — sequential streams hit the open row
  (tRCD amortised away); random single-burst requests pay an
  activate/precharge penalty, modelled as extra cycles per request.

Parameters follow DDR4-2400 with the paper's 76.8 GB/s aggregate (multiple
banks behind one controller, §VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

__all__ = ["DramModel", "DramRequest"]


@dataclass(frozen=True)
class DramRequest:
    """One logical transfer."""

    bytes: int
    sequential: bool = True  # stream (row hits) vs scattered (row misses)
    tag: str = ""


@dataclass
class DramModel:
    """Effective-service-time model for a shared DRAM channel."""

    bytes_per_cycle: float = 153.6  # 76.8 GB/s at 500 MHz core clock
    burst_bytes: int = 64
    row_miss_penalty_cycles: float = 6.0  # tRP+tRCD at the core clock
    #: fraction of scattered requests that still hit an open row (bank
    #: interleaving plus the near-diagonal access order after reordering).
    scattered_row_hit_rate: float = 0.4

    def service_cycles(self, request: DramRequest) -> float:
        """Cycles the channel is occupied serving ``request``."""
        if request.bytes < 0:
            raise ValueError("request bytes must be non-negative")
        if request.bytes == 0:
            return 0.0
        bursts = ceil(request.bytes / self.burst_bytes)
        transfer = bursts * self.burst_bytes / self.bytes_per_cycle
        if request.sequential:
            return transfer
        misses = bursts * (1.0 - self.scattered_row_hit_rate)
        return transfer + misses * self.row_miss_penalty_cycles
