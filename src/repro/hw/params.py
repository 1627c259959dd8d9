"""Hardware configuration for the ViTCoD accelerator (paper §VI-A).

Published design point: 3 mm² in 28 nm, 512 MACs organised as 64 MAC lines of
8 MACs, 500 MHz core clock, DDR4-2400 at 76.8 GB/s, 320 KB SRAM split into
Act GB0/GB1 (Q/K/S/V-or-input 128 KB, index 20 KB, output 108 KB) and a
64 KB weight global buffer, 323.9 mW.

Energy constants are per-operation estimates for a 28/45 nm-class process
(Horowitz ISSCC'14 style numbers scaled to 16-bit datapaths).  Absolute
joules are not the claim — ratios between designs that move more or fewer
bytes are (Fig. 19's 9.8× energy-efficiency claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["EnergyTable", "HardwareConfig", "UnsupportedParameterError",
           "VITCOD_DEFAULT", "check_domain", "design_columns"]


@dataclass(frozen=True)
class EnergyTable:
    """Per-operation energy in picojoules."""

    mac_pj: float = 0.5  # one 16-bit multiply-accumulate
    sram_byte_pj: float = 2.5  # on-chip global-buffer access
    dram_byte_pj: float = 30.0  # off-chip DDR4 access
    softmax_op_pj: float = 2.0  # exponent/divide via LUT datapath
    comparator_pj: float = 0.3  # top-k style comparison (SpAtten)
    # Background power (leakage, clock tree, control) charged per busy cycle;
    # 400 pJ/cycle ≈ 200 mW at 500 MHz, consistent with the paper's 323.9 mW
    # envelope once dynamic MAC/SRAM activity is added.
    static_pj_per_cycle: float = 400.0


@dataclass(frozen=True)
class HardwareConfig:
    """One accelerator design point."""

    name: str = "vitcod"
    num_mac_lines: int = 64
    macs_per_line: int = 8
    frequency_hz: float = 500e6
    dram_bandwidth_bytes_per_s: float = 76.8e9
    bytes_per_element: int = 2  # 16-bit activations
    # SRAM partition (bytes), per paper §VI-A.
    act_buffer_bytes: int = 128 * 1024  # Q/K/S/V or input buffer
    index_buffer_bytes: int = 20 * 1024
    output_buffer_bytes: int = 108 * 1024
    weight_buffer_bytes: int = 64 * 1024
    softmax_lanes: int = 8  # elements the softmax unit retires per cycle
    energy: EnergyTable = field(default_factory=EnergyTable)

    @property
    def total_macs(self):
        return self.num_mac_lines * self.macs_per_line

    @property
    def bytes_per_cycle(self):
        return self.dram_bandwidth_bytes_per_s / self.frequency_hz

    @property
    def peak_gops(self):
        """Peak throughput in GOPS, one op per MAC — the paper's Fig. 3
        convention (512 MACs × 500 MHz = 256 GOPS compute roof)."""
        return self.total_macs * self.frequency_hz / 1e9

    def scaled(self, factor, name=None):
        """Scale compute + bandwidth + buffers by ``factor``.

        Used when benchmarking against large-batch GPUs: the paper scales the
        accelerator's resources to comparable peak throughput (§VI-A,
        following DOTA).
        """
        return replace(
            self,
            name=name or f"{self.name}-x{factor:g}",
            num_mac_lines=max(1, int(round(self.num_mac_lines * factor))),
            softmax_lanes=max(1, int(round(self.softmax_lanes * factor))),
            dram_bandwidth_bytes_per_s=self.dram_bandwidth_bytes_per_s * factor,
            act_buffer_bytes=int(self.act_buffer_bytes * factor),
            index_buffer_bytes=int(self.index_buffer_bytes * factor),
            output_buffer_bytes=int(self.output_buffer_bytes * factor),
            weight_buffer_bytes=int(self.weight_buffer_bytes * factor),
        )


#: The paper's published design point.
VITCOD_DEFAULT = HardwareConfig()


def _is_whole(v):
    return np.isfinite(v) & (v == np.floor(v))


class UnsupportedParameterError(ValueError):
    """A design-point column the grid walk does not model: a sweep of a
    knob the evaluator cannot honour, refused as a whole (the DSE engine
    re-raises it instead of dropping the point)."""


#: Each design-point column's dtype and domain, written once: ``knob ->
#: (dtype, in-domain test over a float64 array, message)``.  Knobs are
#: named as the simulators read them (config fields and accelerator
#: kwargs, after unit conversion); the swept ``ae_compression`` knob is
#: two columns, ``use_ae`` and the ratio.
_DOMAINS = {
    "num_mac_lines": (
        np.int64, lambda v: _is_whole(v) & (v >= 2),
        "need a whole number of at least 2 MAC lines (the allocator's floor)"),
    "dram_bandwidth_bytes_per_s": (
        np.float64, lambda v: np.isfinite(v) & (v > 0),
        "DRAM bandwidth must be finite and positive"),
    "act_buffer_bytes": (
        np.int64, lambda v: _is_whole(v) & (v > 0),
        "act_buffer_bytes must be a whole, positive number of bytes"),
    "use_ae": (
        bool, lambda v: (v == 0) | (v == 1),
        "use_ae must be True or False"),
    "ae_compression": (
        np.float64, lambda v: (v > 0) & (v <= 1),
        "ae_compression must be in (0, 1]"),
    "q_forwarding_hit_rate": (
        np.float64, lambda v: (v >= 0) & (v < 1),
        "q_forwarding_hit_rate must be in [0, 1)"),
}


def check_domain(**knobs):
    """Raise :class:`ValueError` unless every given knob is in its domain.

    THE domain check of the design-point columns (see :data:`_DOMAINS`):
    each keyword is a scalar or an array of per-point values, and the
    first knob holding a value outside its domain raises with that
    knob's message.  NaN is outside every domain.  The DSE grid check,
    the simulators' constructors, :func:`design_columns` and the MAC-line
    allocators all call this one function.
    """
    for name, (_, inside, message) in _DOMAINS.items():
        if name in knobs:
            if not inside(np.asarray(knobs[name], dtype=np.float64)).all():
                raise ValueError(message)


def design_columns(columns, defaults):
    """THE resolver of both grid walks: each knob of ``defaults`` (the
    knobs the walk models, with its own values) as a length-``P`` array
    of its :data:`_DOMAINS` dtype, cast from ``columns`` (length-``P``
    arrays in simulator units) or broadcast from ``defaults``; empty
    ``columns`` are the ``P = 1`` walk of the defaults.  A column outside
    ``defaults`` raises :class:`UnsupportedParameterError`, unequal
    lengths :class:`ValueError`, and every knob, defaults included, goes
    through :func:`check_domain` before any cast.
    """
    unknown = set(columns) - set(defaults)
    if unknown:
        raise UnsupportedParameterError(
            f"unknown design-point column(s) {sorted(unknown)}; "
            f"the walk models {list(defaults)}"
        )
    lengths = {len(np.atleast_1d(v)) for v in columns.values()}
    if len(lengths) > 1:
        raise ValueError(
            f"design-point columns disagree on length: {sorted(lengths)}"
        )
    points = lengths.pop() if lengths else 1
    knobs = {**defaults, **columns}
    check_domain(**knobs)
    return {
        name: np.asarray(value, dtype=_DOMAINS[name][0]) if name in columns
        else np.full(points, value, dtype=_DOMAINS[name][0])
        for name, value in knobs.items()
    }
