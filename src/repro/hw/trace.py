"""Latency and energy bookkeeping shared by all simulators.

Every simulator (ViTCoD, SpAtten, Sanger) reports the same three latency
categories the paper's Fig. 19 breakdown uses:

* ``compute`` — cycles the critical path spends in MAC/softmax datapaths;
* ``preprocess`` — mask/index handling: CSC index loading (ViTCoD),
  on-the-fly mask prediction (Sanger), top-k ranking (SpAtten);
* ``data_movement`` — cycles the critical path stalls on DRAM (i.e. memory
  time *not* hidden under compute; the paper counts "overlapped computations
  and data movements" here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LatencyBreakdown", "EnergyBreakdown", "SimReport"]


@dataclass
class LatencyBreakdown:
    compute: float = 0.0
    preprocess: float = 0.0
    data_movement: float = 0.0

    @property
    def total(self):
        return self.compute + self.preprocess + self.data_movement

    def __add__(self, other):
        return LatencyBreakdown(
            compute=self.compute + other.compute,
            preprocess=self.preprocess + other.preprocess,
            data_movement=self.data_movement + other.data_movement,
        )

    def fractions(self):
        total = self.total
        if total == 0:
            return {"compute": 0.0, "preprocess": 0.0, "data_movement": 0.0}
        return {
            "compute": self.compute / total,
            "preprocess": self.preprocess / total,
            "data_movement": self.data_movement / total,
        }


@dataclass
class EnergyBreakdown:
    """Energy in picojoules by source."""

    mac: float = 0.0
    sram: float = 0.0
    dram: float = 0.0
    other: float = 0.0
    static: float = 0.0

    @property
    def total(self):
        return self.mac + self.sram + self.dram + self.other + self.static

    def __add__(self, other):
        return EnergyBreakdown(
            mac=self.mac + other.mac,
            sram=self.sram + other.sram,
            dram=self.dram + other.dram,
            other=self.other + other.other,
            static=self.static + other.static,
        )


@dataclass
class SimReport:
    """Result of simulating one workload on one platform."""

    platform: str
    workload: str
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    frequency_hz: float = 500e6
    details: dict = field(default_factory=dict)

    @property
    def cycles(self):
        return self.latency.total

    @property
    def seconds(self):
        return self.latency.total / self.frequency_hz

    @property
    def energy_pj(self):
        return self.energy.total

    @property
    def energy_joules(self):
        return self.energy.total * 1e-12

    def speedup_over(self, other):
        """How many times faster this report is than ``other``."""
        if self.seconds == 0:
            return float("inf")
        return other.seconds / self.seconds

    def merged(self, other, workload=None):
        """Concatenate two sequential reports on the same platform.

        The result carries no ``details``: each piece's values describe
        that piece only, so a whole-model driver sets its own.
        """
        if abs(self.frequency_hz - other.frequency_hz) > 1e-6:
            raise ValueError("cannot merge reports at different frequencies")
        return SimReport(
            platform=self.platform,
            workload=workload or f"{self.workload}+{other.workload}",
            latency=self.latency + other.latency,
            energy=self.energy + other.energy,
            frequency_hz=self.frequency_hz,
        )
