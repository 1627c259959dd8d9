"""Pluggable design-point evaluators for design-space exploration.

A DSE sweep walks a grid of hardware configurations and scores each one
on a workload.  *How* rows are scored is a strategy, captured by the one
:class:`Evaluator` protocol: ``evaluate_batch(workload, base_config,
names, rows)`` takes the swept parameter names (sorted) and one value
tuple per grid point, and returns a list aligned with ``rows`` holding
each row's :class:`EvalMetrics` or the exception that row raised.  ViTCoD
fixes its attention masks offline, so every grid row is independent and
one result per row is the natural unit.  The DSE engine
(:mod:`repro.harness.dse`) is written against this surface only: every
chunk is one ``evaluate_batch`` call, in serial runs, pool workers, the
hybrid phases and :mod:`repro.dist` shards alike.

Each swept knob is declared once in the parameter table below: its one
unit conversion (grid value → simulator column, refusing any value it
would truncate) and whether the cycle simulator models it.  Its domain
lives in :func:`repro.hw.params.check_domain`; :func:`check_dse_values`
runs both where a grid enters, so an evaluator never sees an
out-of-domain row.  The built-ins, one class per strategy:

* :class:`AnalyticalEvaluator` — the closed-form
  :class:`~repro.hw.accelerator.ViTCoDAccelerator` phase model (the
  default); a chunk is one array-geometry walk over a leading
  design-point axis (``simulate_attention_grid``);
* :class:`CycleSimEvaluator` — the event-driven
  :class:`~repro.hw.cycle_sim.CycleAccurateSimulator`, the ground truth;
  a chunk is one run of its grid walk, and energy is charged with the
  same :class:`~repro.hw.params.EnergyTable` constants;
* :class:`HybridEvaluator` — a two-phase strategy the DSE engine
  special-cases: prune with the analytical model, re-score the surviving
  frontier cycle-accurately.

A per-point callable ``(workload, config, accel_kwargs) -> EvalMetrics``
— a custom strategy, the scalar reference loop, a test oracle — reaches
the engine through one adapter, :class:`PointEvaluator`;
:func:`resolve_evaluator` applies it to anything without
``evaluate_batch``.

Evaluators cross process boundaries in parallel sweeps, so they must be
picklable.  They cross *host* boundaries in sharded sweeps as JSON:
:func:`evaluator_spec` renders a built-in to a plain dict a result-store
manifest can persist, and :func:`evaluator_from_spec` reconstructs an
equivalent instance on any machine — exactly, for the built-ins.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, List, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from ..hw.params import HardwareConfig, check_domain

__all__ = [
    "EvalMetrics",
    "Evaluator",
    "PointEvaluator",
    "UnsupportedParameterError",
    "AnalyticalEvaluator",
    "CycleSimEvaluator",
    "HybridEvaluator",
    "check_dse_values",
    "dse_grid_columns",
    "dse_parameter_names",
    "resolve_evaluator",
    "evaluator_spec",
    "evaluator_from_spec",
]


class UnsupportedParameterError(ValueError):
    """A swept parameter the evaluator cannot honour (a caller bug).

    The DSE engine re-raises this instead of warn-and-dropping the point:
    a grid that sweeps a knob the chosen evaluator does not model is a
    structurally invalid sweep, not a transient per-point failure.
    """


@dataclass(frozen=True)
class EvalMetrics:
    """The objective values one evaluator assigns to one design point."""

    seconds: float
    energy_joules: float

    def to_dict(self) -> dict:
        """JSON-safe record (floats round-trip bit-exactly through JSON)."""
        return {"seconds": self.seconds, "energy_joules": self.energy_joules}

    @classmethod
    def from_dict(cls, data: dict) -> "EvalMetrics":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seconds=float(data["seconds"]),
            energy_joules=float(data["energy_joules"]),
        )


@runtime_checkable
class Evaluator(Protocol):
    """Strategy scoring grid rows: one result or one failure per row.

    ``names`` are the swept DSE parameter names (sorted, as the grid
    walks them), ``rows`` one value tuple per design point, and
    ``base_config`` the unswept :class:`~repro.hw.params.HardwareConfig`
    every point is derived from.  The returned list aligns with ``rows``:
    each entry is the row's :class:`EvalMetrics` or the exception scoring
    it raised.  An evaluator that cannot honour a swept knob raises
    :class:`UnsupportedParameterError` rather than silently ignoring it.
    """

    name: str

    def evaluate_batch(
        self,
        workload: Any,
        base_config: Any,
        names: Sequence[str],
        rows: Sequence[tuple],
    ) -> List[Union[EvalMetrics, Exception]]:
        ...


def _attention_layers(workload):
    """The attention layers of a ModelWorkload (or a bare layer sequence)."""
    return getattr(workload, "attention_layers", workload)


# ----------------------------------------------------------------------
# The DSE parameter table: ONE declaration per swept knob
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _DseParameter:
    """How one swept DSE knob becomes simulator columns."""

    name: str
    #: Whether the cycle simulator honours the knob.  Drives the derived
    #: :attr:`CycleSimEvaluator._SUPPORTED_KWARGS` set behind the cycle
    #: evaluator's structural rejection.
    cycle_modelled: bool
    #: ``accel_kwargs`` keys the knob may introduce (empty for knobs that
    #: become config fields, which every simulator honours).
    kwargs_keys: tuple
    #: ``(values, default_ae) -> {column: array}`` — the knob's one unit
    #: conversion; it refuses any value it would truncate.
    columns: Callable


def _number(value):
    """``value`` if it is a real number (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"must be a number, got {value!r}")
    return value


def _whole(value, scale, unit):
    """``value * scale`` as an int, refusing to truncate."""
    scaled = _number(value) * scale
    if not isinstance(scaled, numbers.Integral) and not float(scaled).is_integer():
        raise ValueError(f"{scaled!r} {unit} is not a whole number")
    return int(scaled)


def _columns_mac_lines(values, default_ae):
    lines = [_whole(v, 1, "MAC lines") for v in values]
    return {"num_mac_lines": np.array(lines, dtype=np.int64)}


def _columns_bandwidth(values, default_ae):
    bandwidth = [float(_number(v)) * 1e9 for v in values]
    return {"dram_bandwidth_bytes_per_s": np.array(bandwidth, dtype=np.float64)}


def _columns_act_buffer(values, default_ae):
    act_buffer = [_whole(v, 1024, "bytes") for v in values]
    return {"act_buffer_bytes": np.array(act_buffer, dtype=np.int64)}


def _columns_ae(values, default_ae):
    # `None` means the AE datapath is off; the ratio column then holds
    # ``default_ae`` (the simulator's own ratio, unused while AE is off).
    ratios = [default_ae if v is None else float(_number(v)) for v in values]
    return {
        "use_ae": np.array([v is not None for v in values], dtype=bool),
        "ae_compression": np.array(ratios, dtype=np.float64),
    }


def _columns_q_forwarding(values, default_ae):
    rates = [float(_number(v)) for v in values]
    return {"q_forwarding_hit_rate": np.array(rates, dtype=np.float64)}


_DSE_PARAMETERS = {
    p.name: p
    for p in (
        _DseParameter("mac_lines", True, (), _columns_mac_lines),
        _DseParameter("bandwidth_gbps", True, (), _columns_bandwidth),
        _DseParameter("act_buffer_kb", True, (), _columns_act_buffer),
        _DseParameter(
            "ae_compression", True, ("use_ae", "ae_compression"), _columns_ae
        ),
        _DseParameter(
            "q_forwarding_hit_rate",
            False,  # only the analytical model applies Q forwarding
            ("q_forwarding_hit_rate",),
            _columns_q_forwarding,
        ),
    )
}

#: Columns that are :class:`~repro.hw.params.HardwareConfig` fields; every
#: other column is an accelerator kwarg.
_CONFIG_COLUMNS = frozenset(f.name for f in fields(HardwareConfig))


def dse_parameter_names() -> tuple:
    """The swept parameter names the DSE layer understands, sorted.

    The public face of the parameter table for wire-format validators
    and error messages.
    """
    return tuple(sorted(_DSE_PARAMETERS))


def _parameter(name):
    try:
        return _DSE_PARAMETERS[name]
    except KeyError:
        raise ValueError(
            f"unknown grid parameter {name!r}; choose from "
            + ", ".join(dse_parameter_names())
        ) from None


def check_dse_values(name, values):
    """Convert one swept knob's values and check their domain.

    THE grid check (run by :func:`repro.harness.dse.check_grid` wherever
    a grid enters): the knob's one unit conversion, then
    :func:`repro.hw.params.check_domain` on the converted column.  An
    unknown name, a ``None`` outside ``ae_compression``, a value the
    conversion would truncate, or one outside the knob's domain raises
    one :class:`ValueError` naming the parameter and the value.
    """
    parameter = _parameter(name)
    try:
        check_domain(**parameter.columns(values, 1.0))
        return
    except (TypeError, ValueError, OverflowError):
        pass
    for value in values:  # name the first value that fails on its own
        try:
            check_domain(**parameter.columns([value], 1.0))
        except (TypeError, ValueError, OverflowError) as exc:
            reason = "only ae_compression sweeps None" if value is None else exc
            raise ValueError(
                f"grid parameter {name!r} value {value!r}: {reason}"
            ) from None


def dse_grid_columns(names, rows, default_ae):
    """Build grid-simulator columns for a chunk of grid rows.

    One column dict for ``simulate_attention_grid`` (accelerator or cycle
    simulator), each swept value converted by its knob's one conversion.
    ``default_ae`` fills the AE-ratio column for rows whose AE datapath
    is off.
    """
    columns = {}
    for j, name in enumerate(names):
        columns.update(_parameter(name).columns([row[j] for row in rows], default_ae))
    return columns


def _per_row(metrics, names, rows):
    """One grid walk's metrics as one entry per row.

    With no swept knob the columns are empty and the walk scores the base
    point once; each row (``()``) is that point.
    """
    return metrics if names else metrics * len(rows)


class PointEvaluator:
    """Lift a per-point callable into the rows protocol (THE adapter).

    ``point(workload, config, accel_kwargs) -> EvalMetrics`` is called
    once per row: ``config`` is ``base_config`` with the row's swept
    config fields, ``accel_kwargs`` its accelerator kwargs — both built
    from the :func:`dse_grid_columns` columns, so a per-point callable
    reads exactly the values the grid simulators read (``ae_compression
    = None`` arrives as ``{"use_ae": False}``).  An exception a row
    raises becomes that row's entry.  Module-level and picklable, so a
    lifted callable crosses into pool workers like any evaluator.
    """

    def __init__(self, point):
        self.point = point
        self.name = getattr(point, "name", None) or type(point).__qualname__

    def evaluate_batch(self, workload, base_config, names, rows):
        rows = list(rows)
        columns = {
            key: column.tolist()
            for key, column in dse_grid_columns(names, rows, None).items()
        }
        swept = _CONFIG_COLUMNS.intersection(columns)  # config-field columns
        results = []
        for i in range(len(rows)):
            kwargs = {key: column[i] for key, column in columns.items()}
            config = replace(base_config, **{key: kwargs.pop(key) for key in swept})
            if not kwargs.get("use_ae", True):
                del kwargs["ae_compression"]
            try:
                results.append(self.point(workload, config, kwargs))
            except Exception as exc:  # noqa: BLE001 - the row's entry
                results.append(exc)
        return results


class AnalyticalEvaluator:
    """Score rows with the closed-form ViTCoD phase model (the default).

    A chunk is one
    :meth:`~repro.hw.accelerator.ViTCoDAccelerator.simulate_attention_grid`
    array walk: swept parameters become per-point numpy columns (via
    :func:`dse_grid_columns`), and each row's metrics are bit-for-bit
    the accelerator's report at that design point — the per-layer fold
    test oracle holds it to that.
    """

    name = "analytical"

    def evaluate_batch(self, workload, base_config, names, rows):
        from ..hw.accelerator import ViTCoDAccelerator

        rows = list(rows)
        accel = ViTCoDAccelerator(config=base_config)
        columns = dse_grid_columns(names, rows, accel.ae_compression)
        seconds, energy = accel.simulate_attention_grid(workload, columns)
        metrics = [
            EvalMetrics(seconds=s, energy_joules=e)
            for s, e in zip(seconds.tolist(), energy.tolist())
        ]
        return _per_row(metrics, names, rows)


def _cycle_metrics(workload, config, makespan, dram_busy, bytes_per_cycle):
    """Charge cycle-simulated totals into one :class:`EvalMetrics` per point.

    THE cycle energy charge, shared by per-point and batched scoring.  It
    mirrors the analytical model's scheme
    (:meth:`~repro.hw.accelerator.ViTCoDAccelerator._charge_energy`): MACs
    and softmax operations are counted from the workload, DRAM bytes from
    the simulator's observed channel occupancy, SRAM traffic from both, and
    static power from the makespan.  ``makespan``, ``dram_busy`` and
    ``bytes_per_cycle`` may be scalars or length-``P`` arrays; the
    expressions are elementwise, so a batch column and a per-point scalar
    go through the same IEEE ops in the same order.
    """
    layers = _attention_layers(workload)
    macs = sum(l.sddmm_macs + l.spmm_macs for l in layers)
    softmax_ops = sum(l.total_nnz for l in layers)
    # The DRAM channel moves ``bytes_per_cycle`` each busy cycle, so the
    # observed occupancy *is* the traffic estimate (burst effects and
    # all), matching how the event engine charged the time.
    dram_bytes = dram_busy * bytes_per_cycle
    sram_bytes = 2 * dram_bytes + macs * config.bytes_per_element / 4
    e = config.energy
    energy_pj = (
        macs * e.mac_pj
        + dram_bytes * e.dram_byte_pj
        + sram_bytes * e.sram_byte_pj
        + softmax_ops * e.softmax_op_pj
        + makespan * e.static_pj_per_cycle
    )
    seconds = makespan / config.frequency_hz
    return [
        EvalMetrics(seconds=s, energy_joules=pj * 1e-12)
        for s, pj in zip(np.atleast_1d(seconds).tolist(),
                         np.atleast_1d(energy_pj).tolist())
    ]


class CycleSimEvaluator:
    """Score rows with the event-driven cycle simulator (ground truth).

    Latency is the simulated makespan of the whole attention stack; energy
    is charged by :func:`_cycle_metrics` with the same
    :class:`~repro.hw.params.EnergyTable` constants the analytical model
    uses, so analytical and cycle-accurate Pareto fronts are comparable
    point for point.  A chunk is one
    :meth:`~repro.hw.cycle_sim.CycleAccurateSimulator.simulate_attention_grid`
    grid walk (O(rows) per point) — swept knobs become per-point
    numpy columns (via :func:`dse_grid_columns`) — and each row is
    bit-for-bit the scalar reference loop's point
    (:mod:`repro.hw.cycle_reference`).  A sweep of a knob the cycle
    simulator does not model raises :class:`UnsupportedParameterError`.
    """

    name = "cycle"

    #: ``accel_kwargs`` the cycle simulator can honour; anything else (e.g.
    #: ``q_forwarding_hit_rate``, which only the analytical model applies)
    #: raises instead of silently altering the swept grid's meaning.
    #: Derived from the DSE parameter table's ``cycle_modelled`` flags.
    _SUPPORTED_KWARGS = frozenset(
        key
        for parameter in _DSE_PARAMETERS.values()
        if parameter.cycle_modelled
        for key in parameter.kwargs_keys
    )

    @classmethod
    def _reject_unsupported(cls, keys):
        """Raise for ``accel_kwargs`` keys the cycle simulator cannot honour."""
        unsupported = set(keys) - cls._SUPPORTED_KWARGS
        if unsupported:
            raise UnsupportedParameterError(
                "CycleSimEvaluator cannot honour swept parameter(s) "
                f"{sorted(unsupported)}; the cycle simulator only models "
                f"{sorted(cls._SUPPORTED_KWARGS)}"
            )

    def evaluate_batch(self, workload, base_config, names, rows):
        from ..hw.cycle_sim import CycleAccurateSimulator

        self._reject_unsupported(
            key for name in names for key in _parameter(name).kwargs_keys
        )
        rows = list(rows)
        sim = CycleAccurateSimulator(config=base_config)
        columns = dse_grid_columns(names, rows, sim.ae_compression)
        totals = sim.simulate_attention_grid(workload, columns)
        # A bandwidth column is the per-point ``config.bytes_per_cycle``
        # expression evaluated elementwise.
        if "dram_bandwidth_bytes_per_s" in columns:
            bytes_per_cycle = (
                columns["dram_bandwidth_bytes_per_s"] / base_config.frequency_hz
            )
        else:
            bytes_per_cycle = base_config.bytes_per_cycle
        metrics = _cycle_metrics(
            workload,
            base_config,
            totals["makespan"],
            totals["dram_busy"],
            bytes_per_cycle,
        )
        return _per_row(metrics, names, rows)


#: The span recorder of the benchmark (``perfbench/tracehook``) wraps
#: ``evaluate_batch`` under these names, from before each strategy was
#: one class; they are aliases, not separate execution paths.
BatchedAnalyticalEvaluator = AnalyticalEvaluator
BatchedCycleSimEvaluator = CycleSimEvaluator


class HybridEvaluator:
    """Prune with a cheap evaluator, re-score survivors with the real one.

    The DSE engine recognises this type and runs the two-phase sweep:
    every grid point is scored with :attr:`coarse`, and only the Pareto
    frontier of those scores (``pareto_frontier``, in grid order) is
    re-scored with :attr:`fine`.  Both resolve like any
    evaluator spec (a per-point callable is lifted by
    :class:`PointEvaluator`).  Called directly on rows it scores them
    with :attr:`fine`.
    """

    name = "hybrid"

    def __init__(self, coarse=None, fine=None):
        self.coarse = resolve_evaluator(coarse)
        self.fine = resolve_evaluator("cycle" if fine is None else fine)

    def evaluate_batch(self, workload, base_config, names, rows):
        return self.fine.evaluate_batch(workload, base_config, names, rows)


_BUILTIN_EVALUATORS = {
    "analytical": AnalyticalEvaluator,
    "cycle": CycleSimEvaluator,
    "hybrid": HybridEvaluator,
}


def resolve_evaluator(spec) -> Evaluator:
    """Normalise an evaluator spec to an :class:`Evaluator` instance.

    ``None`` means the analytical default; strings name a built-in
    (``"analytical"``, ``"cycle"``, ``"hybrid"``); anything with
    ``evaluate_batch`` is returned as-is, and any other callable is a
    per-point callable lifted into rows by :class:`PointEvaluator`.
    """
    if spec is None:
        return AnalyticalEvaluator()
    if isinstance(spec, str):
        try:
            return _BUILTIN_EVALUATORS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown evaluator {spec!r}; choose from "
                f"{sorted(_BUILTIN_EVALUATORS)} or pass an Evaluator"
            ) from None
    if callable(getattr(spec, "evaluate_batch", None)):
        return spec
    if callable(spec):
        return PointEvaluator(spec)
    raise TypeError(
        f"evaluator must be None, a name, or a callable, got {type(spec)!r}"
    )


def evaluator_spec(evaluator) -> dict:
    """Render an evaluator as a JSON-safe spec dict.

    Built-ins serialize exactly (name plus constructor parameters;
    :class:`HybridEvaluator` nests its coarse/fine specs), so
    ``evaluator_from_spec(evaluator_spec(e))`` scores any point
    identically to ``e``.  Anything else — a user callable — is recorded
    as ``{"name": "custom:<name>"}``: enough for a result-store manifest
    to *identify* the strategy, not enough to reconstruct it (the caller
    must pass the instance again).  Accepts anything
    :func:`resolve_evaluator` does.
    """
    evaluator = resolve_evaluator(evaluator)
    plan = getattr(evaluator, "fault_plan", None)
    if plan is not None and hasattr(evaluator, "inner"):
        # A repro.faults.FaultyEvaluator wrapper: the spec is the *inner*
        # evaluator's spec plus an optional "faults" plan, so the manifest
        # still names the real scoring strategy and a healthy merge stays
        # byte-identical to the faulty one.
        spec = evaluator_spec(evaluator.inner)
        spec["faults"] = plan.spec()
        return spec
    kind = type(evaluator)
    if kind is AnalyticalEvaluator:
        return {"name": "analytical"}
    if kind is CycleSimEvaluator:
        return {"name": "cycle"}
    if kind is HybridEvaluator:
        return {
            "name": "hybrid",
            "coarse": evaluator_spec(evaluator.coarse),
            "fine": evaluator_spec(evaluator.fine),
        }
    name = getattr(evaluator, "name", None) or kind.__qualname__
    return {"name": f"custom:{name}"}


#: Per-strategy key allowlists for :func:`evaluator_from_spec`.  Specs
#: arrive over the wire (store manifests, the serve layer's job API), so
#: a misspelt or injected field must fail loudly instead of being
#: silently dropped — ``{"name": "hybrid", "fin": {...}}`` would
#: otherwise score a different study than the caller asked for.
#: Every strategy also accepts an optional "faults" object — a
#: :func:`repro.faults.plan_from_spec` plan that wraps the evaluator in
#: seeded fault injection (see the README's failure runbook).
_SPEC_KEYS = {
    "analytical": frozenset({"name", "faults"}),
    "cycle": frozenset({"name", "faults"}),
    "hybrid": frozenset({"name", "coarse", "fine", "faults"}),
}


def _spec_error(spec, problem):
    return ValueError(f"bad evaluator spec {spec!r}: {problem}")


def evaluator_from_spec(spec) -> Evaluator:
    """Reconstruct an evaluator from an :func:`evaluator_spec` dict.

    Accepts a bare name string as shorthand for ``{"name": ...}``.  The
    spec is *validated*, not merely pattern-matched: unknown fields raise
    :class:`ValueError` with the offending field named — specs cross host
    and process boundaries (store manifests, the HTTP
    job API), where a silently-tolerated typo would score a different
    study than the one requested.  ``custom:*`` specs (and unknown
    names) raise too: a spec names a strategy across hosts, it cannot
    ship code — reconstruct the instance and pass it explicitly instead.
    The round-trip ``evaluator_from_spec(evaluator_spec(e))`` is exact
    for every built-in.
    """
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise TypeError(f"evaluator spec must be a name or a dict, got {type(spec)!r}")
    name = spec.get("name")
    if not isinstance(name, str):
        raise _spec_error(spec, "missing or non-string 'name'")
    allowed = _SPEC_KEYS.get(name)
    if allowed is None:
        raise ValueError(
            f"cannot reconstruct evaluator from spec {spec!r}; choose from "
            f"{sorted(_SPEC_KEYS)} (custom evaluators must be "
            "re-instantiated and passed explicitly)"
        )
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise _spec_error(
            spec, f"unknown field(s) {unknown} for {name!r} "
            f"(allowed: {sorted(allowed)})"
        )
    faults = spec.get("faults")
    if faults is not None:
        # Build the inner evaluator from the same spec minus the plan,
        # then wrap it in the seeded fault injector.
        from ..faults import FaultPlanError, FaultyEvaluator, plan_from_spec

        try:
            plan = plan_from_spec(faults)
        except FaultPlanError as exc:
            raise _spec_error(spec, f"bad 'faults' plan: {exc}") from None
        inner_spec = {k: v for k, v in spec.items() if k != "faults"}
        return FaultyEvaluator(evaluator_from_spec(inner_spec), plan)
    if name == "analytical":
        return AnalyticalEvaluator()
    if name == "cycle":
        return CycleSimEvaluator()
    coarse = spec.get("coarse")
    fine = spec.get("fine")
    for role, sub in (("coarse", coarse), ("fine", fine)):
        if isinstance(sub, dict) and "faults" in sub:
            raise _spec_error(
                spec,
                f"fault plans attach to the top-level evaluator, not {role!r}",
            )
    try:
        return HybridEvaluator(
            coarse=evaluator_from_spec(coarse) if coarse else None,
            fine=evaluator_from_spec(fine) if fine else None,
        )
    except ValueError as exc:
        raise _spec_error(spec, str(exc)) from None
