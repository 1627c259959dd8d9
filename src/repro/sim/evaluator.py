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
chunk is one ``evaluate_batch`` call, in in-memory sweeps and
:mod:`repro.dist` shards alike.

Each swept knob is declared once in the parameter table below: its one
unit conversion (grid value → simulator columns, refusing any value it
would truncate).  Its domain lives in
:func:`repro.hw.params.check_domain`; :func:`check_dse_values` runs both
where a grid enters, and :func:`check_swept_knobs` refuses a knob the
evaluator's grid walk does not model.  The built-ins, one class per
strategy:

* :class:`AnalyticalEvaluator` — the closed-form
  :class:`~repro.hw.accelerator.ViTCoDAccelerator` phase model (the
  default); a chunk is one array-geometry walk over a leading
  design-point axis (``simulate_attention_grid``);
* :class:`CycleSimEvaluator` — the event-driven
  :class:`~repro.hw.cycle_sim.CycleAccurateSimulator`, the ground truth;
  a chunk is one run of its grid walk, and energy is charged with the
  same :class:`~repro.hw.params.EnergyTable` constants.

A per-point callable ``(workload, config, accel_kwargs) -> EvalMetrics``
— a custom strategy, the scalar reference loop, a test oracle — reaches
the engine through one adapter, :class:`PointEvaluator`;
:func:`resolve_evaluator` applies it to anything without
``evaluate_batch``.

Evaluators cross *host* boundaries in sharded sweeps as JSON:
:func:`evaluator_spec` renders a built-in to a plain dict a result-store
manifest can persist, and :func:`evaluator_from_spec` reconstructs an
equivalent instance on any machine — exactly, for the built-ins.  A
recorded study names its strategy; :func:`check_evaluator_name` refuses a
name that is neither a built-in nor ``custom:*`` where stores and served
jobs are loaded.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace
from typing import Any, List, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from ..hw.params import (
    VITCOD_DEFAULT,
    HardwareConfig,
    UnsupportedParameterError,
    check_domain,
)

__all__ = [
    "EvalMetrics",
    "Evaluator",
    "PointEvaluator",
    "UnsupportedParameterError",
    "AnalyticalEvaluator",
    "CycleSimEvaluator",
    "check_dse_values",
    "check_evaluator_name",
    "check_swept_knobs",
    "dse_grid_columns",
    "dse_parameter_names",
    "evaluator_names",
    "resolve_evaluator",
    "evaluator_spec",
    "evaluator_from_spec",
]


@dataclass(frozen=True)
class EvalMetrics:
    """The objective values one evaluator assigns to one design point."""

    seconds: float
    energy_joules: float


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
# The DSE parameter table: ONE conversion per swept knob
# ----------------------------------------------------------------------
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


def _columns_mac_lines(values):
    lines = [_whole(v, 1, "MAC lines") for v in values]
    return {"num_mac_lines": np.array(lines, dtype=np.int64)}


def _columns_bandwidth(values):
    bandwidth = [float(_number(v)) * 1e9 for v in values]
    return {"dram_bandwidth_bytes_per_s": np.array(bandwidth, dtype=np.float64)}


def _columns_act_buffer(values):
    act_buffer = [_whole(v, 1024, "bytes") for v in values]
    return {"act_buffer_bytes": np.array(act_buffer, dtype=np.int64)}


def _columns_ae(values):
    # `None` means the AE datapath is off; the ratio column then holds an
    # in-domain constant no walk reads.
    ratios = [1.0 if v is None else float(_number(v)) for v in values]
    return {
        "use_ae": np.array([v is not None for v in values], dtype=bool),
        "ae_compression": np.array(ratios, dtype=np.float64),
    }


def _columns_q_forwarding(values):
    rates = [float(_number(v)) for v in values]
    return {"q_forwarding_hit_rate": np.array(rates, dtype=np.float64)}


#: ``knob -> (values -> {column: array})``: each swept knob's one unit
#: conversion; it refuses any value it would truncate.
_DSE_PARAMETERS = {
    "mac_lines": _columns_mac_lines,
    "bandwidth_gbps": _columns_bandwidth,
    "act_buffer_kb": _columns_act_buffer,
    "ae_compression": _columns_ae,
    "q_forwarding_hit_rate": _columns_q_forwarding,
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
    columns = _parameter(name)
    try:
        check_domain(**columns(values))
        return
    except (TypeError, ValueError, OverflowError):
        pass
    for value in values:  # name the first value that fails on its own
        try:
            check_domain(**columns([value]))
        except (TypeError, ValueError, OverflowError) as exc:
            reason = "only ae_compression sweeps None" if value is None else exc
            raise ValueError(
                f"grid parameter {name!r} value {value!r}: {reason}"
            ) from None


def dse_grid_columns(names, rows):
    """Build grid-simulator columns for a chunk of grid rows.

    One column dict for ``simulate_attention_grid`` (accelerator or cycle
    simulator), each swept value converted by its knob's one conversion.
    """
    columns = {}
    for j, name in enumerate(names):
        columns.update(_parameter(name)([row[j] for row in rows]))
    return columns


def check_swept_knobs(evaluator, names):
    """Refuse a sweep of knobs ``evaluator`` does not model.

    THE check where a grid meets its evaluator (the sweeps, ``run_shard``,
    the CLI's ``dse`` commands, ``POST /jobs``): a built-in, or a fault
    wrapper of one, resolves the swept columns over zero rows with its
    walk's own resolver, so a knob outside the defaults the walk passes
    to :func:`~repro.hw.params.design_columns` raises
    :class:`UnsupportedParameterError` with no workload built.  A
    per-point callable that names a walk as ``_simulator`` (the scalar
    reference loop names the cycle walk) is checked the same way through
    its :class:`PointEvaluator`.
    """
    evaluator = resolve_evaluator(evaluator)
    evaluator = getattr(evaluator, "inner", evaluator)
    if isinstance(evaluator, PointEvaluator):
        evaluator = evaluator.point
    simulator = getattr(evaluator, "_simulator", None)
    if simulator is None:
        return
    columns = dse_grid_columns(names, [])
    try:
        simulator(VITCOD_DEFAULT)._resolve_grid_columns(columns)
    except UnsupportedParameterError as exc:
        message = f"evaluator {evaluator.name!r}: {exc}"
        raise UnsupportedParameterError(message) from None


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
    raises becomes that row's entry.
    """

    def __init__(self, point):
        self.point = point
        self.name = getattr(point, "name", None) or type(point).__qualname__

    def evaluate_batch(self, workload, base_config, names, rows):
        rows = list(rows)
        columns = dse_grid_columns(names, rows)
        columns = {key: column.tolist() for key, column in columns.items()}
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
    the accelerator's report at that design point — the scalar model's
    per-layer fold (``tests/analytical_oracle.py``) holds it to that.
    """

    name = "analytical"

    @staticmethod
    def _simulator(config):  # the grid walk this strategy scores with
        from ..hw.accelerator import ViTCoDAccelerator

        return ViTCoDAccelerator(config=config)

    def evaluate_batch(self, workload, base_config, names, rows):
        rows = list(rows)
        seconds, energy = self._simulator(base_config).simulate_attention_grid(
            workload, dse_grid_columns(names, rows)
        )
        metrics = [
            EvalMetrics(seconds=s, energy_joules=e)
            for s, e in zip(seconds.tolist(), energy.tolist())
        ]
        return _per_row(metrics, names, rows)


def _cycle_metrics(workload, config, makespan, dram_busy, bytes_per_cycle):
    """Charge cycle-simulated totals into one :class:`EvalMetrics` per point.

    THE cycle energy charge, shared by per-point and batched scoring.  It
    mirrors the analytical model's scheme (the energy components of
    :meth:`~repro.hw.accelerator.ViTCoDAccelerator._attention_walk`): MACs
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
    (``tests/cycle_reference.py``).  A sweep of a knob the cycle
    simulator does not model raises :class:`UnsupportedParameterError`.
    """

    name = "cycle"

    @staticmethod
    def _simulator(config):  # the grid walk this strategy scores with
        from ..hw.cycle_sim import CycleAccurateSimulator

        return CycleAccurateSimulator(config=config)

    def evaluate_batch(self, workload, base_config, names, rows):
        rows = list(rows)
        totals = self._simulator(base_config).simulate_attention_grid(
            workload, dse_grid_columns(names, rows)
        )
        metrics = _cycle_metrics(
            workload,
            base_config,
            totals["makespan"],
            totals["dram_busy"],
            totals["bytes_per_cycle"],
        )
        return _per_row(metrics, names, rows)


#: The span recorder of the benchmark (``perfbench/tracehook``) wraps
#: ``evaluate_batch`` under these names, from before each strategy was
#: one class; they are aliases, not separate execution paths.
BatchedAnalyticalEvaluator = AnalyticalEvaluator
BatchedCycleSimEvaluator = CycleSimEvaluator


#: THE built-in strategies, by wire name: the one table the spec
#: reader, the CLI's ``--evaluator`` choices and the load-time check of
#: recorded studies all read.
_BUILTIN_EVALUATORS = {
    "analytical": AnalyticalEvaluator,
    "cycle": CycleSimEvaluator,
}


def evaluator_names() -> tuple:
    """The built-in evaluator names, sorted."""
    return tuple(sorted(_BUILTIN_EVALUATORS))


def check_evaluator_name(name):
    """Refuse a recorded evaluator name this version cannot score.

    Store manifests, served jobs' included, name the strategy their
    records were scored with: a built-in, or ``custom:<name>`` for a
    caller's own evaluator.  Any other name, such as a strategy this
    version no longer has, raises one :class:`ValueError` naming the
    built-ins, so such records are never merged or served under a label
    this version does not produce.
    """
    if name in _BUILTIN_EVALUATORS or (
        isinstance(name, str) and name.startswith("custom:")
    ):
        return
    raise ValueError(
        f"unknown evaluator {name!r}: recorded studies must name one of "
        f"{list(evaluator_names())} or custom:*"
    )


def resolve_evaluator(spec) -> Evaluator:
    """Normalise an evaluator spec to an :class:`Evaluator` instance.

    ``None`` means the analytical default; strings name a built-in
    (``"analytical"``, ``"cycle"``); anything with
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
                f"{list(evaluator_names())} or pass an Evaluator"
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

    Built-ins serialize exactly (their name), so
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
    if kind in _BUILTIN_EVALUATORS.values():
        return {"name": kind.name}
    name = getattr(evaluator, "name", None) or kind.__qualname__
    return {"name": f"custom:{name}"}


#: The fields a built-in spec may carry.  Specs arrive over the wire
#: (store manifests, the serve layer's job API), so a misspelt or
#: injected field must fail loudly instead of being silently dropped —
#: ``{"name": "cycle", "engine": ...}`` would otherwise score a different
#: study than the caller asked for.  "faults" is an optional
#: :func:`repro.faults.plan_from_spec` plan that wraps the evaluator in
#: seeded fault injection (see the README's failure runbook).
_SPEC_KEYS = frozenset({"name", "faults"})


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
    kind = _BUILTIN_EVALUATORS.get(name)
    if kind is None:
        raise ValueError(
            f"cannot reconstruct evaluator from spec {spec!r}; choose from "
            f"{list(evaluator_names())} (custom evaluators must be "
            "re-instantiated and passed explicitly)"
        )
    unknown = sorted(set(spec) - _SPEC_KEYS)
    if unknown:
        raise _spec_error(
            spec, f"unknown field(s) {unknown} for {name!r} "
            f"(allowed: {sorted(_SPEC_KEYS)})"
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
        return FaultyEvaluator(kind(), plan)
    return kind()
