"""Pluggable design-point evaluators for design-space exploration.

A DSE sweep walks a grid of hardware configurations and scores each one on
a workload.  *How* a point is scored is a strategy, captured by the
:class:`Evaluator` protocol: a callable mapping ``(workload, config,
accel_kwargs)`` to :class:`EvalMetrics` (the ``seconds`` / ``energy_joules``
pair a :class:`~repro.harness.dse.DesignPoint` is built from).  The DSE
engine (:mod:`repro.harness.dse`) is written against this surface only, so
any simulator — analytical, event-driven, or a future external one — can
stream through :func:`~repro.harness.dse.iter_design_space` unchanged.

Evaluators may additionally implement the :class:`BatchEvaluator`
protocol: ``evaluate_batch(workload, base_config, names, value_rows)``
scores a whole chunk of grid points in one call, returning one
:class:`EvalMetrics` per row.  The DSE engine detects the capability and
hands each bounded chunk to ``evaluate_batch`` instead of looping
``__call__`` per point — with the contract that the batch results are
**bit-for-bit** what the per-point calls would produce, so batching is an
execution detail, never a semantics change.  A batch call that raises
makes the engine fall back to per-point scoring of that chunk, which
re-raises structural errors and attributes per-point failures exactly as
an unbatched sweep would.

Three built-in strategies cover the repo's simulators:

* :class:`AnalyticalEvaluator` — the closed-form
  :class:`~repro.hw.accelerator.ViTCoDAccelerator` phase model (the
  default; behaviour-identical to the pre-evaluator sweeps).  Its
  :class:`BatchedAnalyticalEvaluator` subclass — what ``"analytical"``
  resolves to — adds the batch axis by broadcasting the accelerator's
  array-geometry walk over a leading design-point axis
  (:meth:`~repro.hw.accelerator.ViTCoDAccelerator.simulate_attention_grid`):
  swept knobs become numpy columns instead of per-point
  :class:`~repro.hw.params.HardwareConfig` clones, bit-for-bit equal to
  the per-point path;
* :class:`CycleSimEvaluator` — the event-driven
  :class:`~repro.hw.cycle_sim.CycleAccurateSimulator`, the repo's ground
  truth: latency is the simulated makespan, energy is charged from the
  workload's MAC/softmax counts plus the simulator's observed DRAM
  occupancy with the same :class:`~repro.hw.params.EnergyTable` constants
  the analytical model uses.  Points run the simulator's grid walk
  (:meth:`~repro.hw.cycle_sim.CycleAccurateSimulator.simulate_attention_grid`)
  at P = 1; its :class:`BatchedCycleSimEvaluator` subclass — what
  ``"cycle"`` resolves to — walks a whole chunk at once, swept knobs as
  columns, bit-for-bit equal to the per-point calls;
* :class:`HybridEvaluator` — a two-phase strategy the DSE engine
  special-cases: prune the grid with the cheap analytical model, then
  re-score only the surviving frontier cycle-accurately.  Called directly
  on one point it scores with its fine evaluator.

Evaluator instances cross process boundaries in parallel sweeps, so they
must be picklable (the built-ins are plain objects with scalar state).
They also cross *host* boundaries in sharded sweeps (:mod:`repro.dist`),
as JSON: :func:`evaluator_spec` renders a built-in evaluator to a plain
dict a result-store manifest can persist, and :func:`evaluator_from_spec`
reconstructs an equivalent instance on any machine — the round-trip is
exact for the built-ins, so every shard of a study scores points with the
same strategy the merge step assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, List, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "EvalMetrics",
    "Evaluator",
    "BatchEvaluator",
    "UnsupportedParameterError",
    "AnalyticalEvaluator",
    "BatchedAnalyticalEvaluator",
    "CycleSimEvaluator",
    "BatchedCycleSimEvaluator",
    "HybridEvaluator",
    "apply_dse_parameter",
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
    """Strategy scoring one ``(workload, config, accel_kwargs)`` triple.

    ``accel_kwargs`` are the non-:class:`~repro.hw.params.HardwareConfig`
    knobs routed by the DSE parameter table (``use_ae``, ``ae_compression``,
    ``q_forwarding_hit_rate``); an evaluator that cannot honour a knob must
    raise rather than silently ignore it.
    """

    name: str

    def __call__(self, workload: Any, config: Any, accel_kwargs: dict) -> EvalMetrics:
        ...


@runtime_checkable
class BatchEvaluator(Evaluator, Protocol):
    """An :class:`Evaluator` that can score a whole grid chunk in one call.

    ``names`` are the swept DSE parameter names (sorted, as the grid
    walks them) and ``value_rows`` one value tuple per design point;
    ``base_config`` is the unswept :class:`~repro.hw.params.HardwareConfig`
    every point is derived from.  The returned list aligns with
    ``value_rows`` and must be **bit-for-bit** what per-point ``__call__``
    invocations would produce — the DSE engine treats batching purely as
    an execution strategy.  Implementations signal any problem by
    raising; the engine then re-scores the chunk per point, which
    attributes per-point failures and re-raises structural errors.
    """

    def evaluate_batch(
        self,
        workload: Any,
        base_config: Any,
        names: Sequence[str],
        value_rows: Sequence[tuple],
    ) -> List[EvalMetrics]:
        ...


def _attention_layers(workload):
    """The attention layers of a ModelWorkload (or a bare layer sequence)."""
    return getattr(workload, "attention_layers", workload)


# ----------------------------------------------------------------------
# The DSE parameter table: ONE declaration per swept knob
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _DseParameter:
    """How one swept DSE knob routes onto a design point.

    Each knob is declared once, with both of its execution forms — the
    per-point route (clone a :class:`~repro.hw.params.HardwareConfig`
    field or add an accelerator kwarg) and the batched route (append
    per-point numpy columns for the grid simulators) — side by side, so
    the two paths can never drift: a new knob either defines both forms
    here or exists in neither.
    """

    name: str
    #: Whether the cycle simulator honours the knob.  Drives the derived
    #: :attr:`CycleSimEvaluator._SUPPORTED_KWARGS` set and the batched
    #: cycle evaluator's structural-rejection check, so the per-point and
    #: batched cycle paths accept exactly the same sweeps by construction.
    cycle_modelled: bool
    #: ``accel_kwargs`` keys the knob may introduce (empty for knobs that
    #: route to config fields, which every simulator honours).
    kwargs_keys: tuple
    #: ``(config, accel_kwargs, value) -> (config, accel_kwargs)``
    route: Callable
    #: ``(columns, values, default_ae) -> None`` — append grid columns,
    #: applying the exact conversions ``route`` applies before cloning.
    columns: Callable


def _route_mac_lines(config, kwargs, value):
    return replace(config, num_mac_lines=int(value)), kwargs


def _columns_mac_lines(columns, values, default_ae):
    columns["num_mac_lines"] = np.array([int(v) for v in values], dtype=np.int64)


def _route_bandwidth(config, kwargs, value):
    return replace(config, dram_bandwidth_bytes_per_s=float(value) * 1e9), kwargs


def _columns_bandwidth(columns, values, default_ae):
    columns["dram_bandwidth_bytes_per_s"] = np.array(
        [float(v) * 1e9 for v in values], dtype=np.float64
    )


def _route_act_buffer(config, kwargs, value):
    return replace(config, act_buffer_bytes=int(value * 1024)), kwargs


def _columns_act_buffer(columns, values, default_ae):
    columns["act_buffer_bytes"] = np.array(
        [int(v * 1024) for v in values], dtype=np.int64
    )


def _route_ae(config, kwargs, value):
    if value is None:
        return config, {**kwargs, "use_ae": False}
    return config, {**kwargs, "use_ae": True, "ae_compression": float(value)}


def _columns_ae(columns, values, default_ae):
    # `None` means the AE datapath is off; the ratio column then keeps
    # the simulator's default so validation passes, exactly like the
    # per-point kwargs route.
    columns["use_ae"] = np.array([v is not None for v in values], dtype=bool)
    columns["ae_compression"] = np.array(
        [default_ae if v is None else float(v) for v in values], dtype=np.float64
    )


def _route_q_forwarding(config, kwargs, value):
    return config, {**kwargs, "q_forwarding_hit_rate": float(value)}


def _columns_q_forwarding(columns, values, default_ae):
    columns["q_forwarding_hit_rate"] = np.array(
        [float(v) for v in values], dtype=np.float64
    )


_DSE_PARAMETERS = {
    p.name: p
    for p in (
        _DseParameter("mac_lines", True, (), _route_mac_lines, _columns_mac_lines),
        _DseParameter(
            "bandwidth_gbps", True, (), _route_bandwidth, _columns_bandwidth
        ),
        _DseParameter(
            "act_buffer_kb", True, (), _route_act_buffer, _columns_act_buffer
        ),
        _DseParameter(
            "ae_compression",
            True,
            ("use_ae", "ae_compression"),
            _route_ae,
            _columns_ae,
        ),
        _DseParameter(
            "q_forwarding_hit_rate",
            False,  # only the analytical model applies Q forwarding
            ("q_forwarding_hit_rate",),
            _route_q_forwarding,
            _columns_q_forwarding,
        ),
    )
}


def _unknown_parameter(name):
    return KeyError(
        f"unknown DSE parameter {name!r}; choose from " + ", ".join(_DSE_PARAMETERS)
    )


def dse_parameter_names() -> tuple:
    """The swept parameter names the DSE layer understands, sorted.

    The public face of the parameter table for wire-format validators
    (the serve layer rejects a posted grid naming anything else *before*
    a store is created) and error messages.
    """
    return tuple(sorted(_DSE_PARAMETERS))


def apply_dse_parameter(config, accel_kwargs, name, value):
    """Route one swept parameter to the config or the accelerator kwargs.

    THE per-point parameter route (the DSE engine's ``_apply`` delegates
    here): returns the updated ``(config, accel_kwargs)`` pair; unknown
    names raise ``KeyError`` (a malformed grid is a caller bug).
    """
    try:
        parameter = _DSE_PARAMETERS[name]
    except KeyError:
        raise _unknown_parameter(name) from None
    return parameter.route(config, accel_kwargs, value)


def dse_grid_columns(names, value_rows, default_ae):
    """Build grid-simulator columns for a chunk of design points.

    THE batched parameter route: one column dict for
    ``simulate_attention_grid`` (accelerator or cycle simulator), with
    every value converted exactly as :func:`apply_dse_parameter` converts
    it before cloning a config — so batched and per-point scoring read
    bit-identical design points.  ``default_ae`` fills the AE-ratio
    column for points whose AE datapath is off (the column must still
    pass validation).
    """
    columns = {}
    for j, name in enumerate(names):
        try:
            parameter = _DSE_PARAMETERS[name]
        except KeyError:
            raise _unknown_parameter(name) from None
        parameter.columns(columns, [row[j] for row in value_rows], default_ae)
    return columns


class AnalyticalEvaluator:
    """Score points with the closed-form ViTCoD phase model (the default).

    Exactly the evaluation the pre-evaluator sweeps ran: construct a
    :class:`~repro.hw.accelerator.ViTCoDAccelerator` at the design point
    and read ``seconds`` / ``energy_joules`` off its attention report —
    results are bit-identical to the historical sweep output.
    """

    name = "analytical"

    def __call__(self, workload, config, accel_kwargs):
        from ..hw.accelerator import ViTCoDAccelerator

        accel = ViTCoDAccelerator(config=config, **accel_kwargs)
        report = accel.simulate_attention(workload)
        return EvalMetrics(seconds=report.seconds, energy_joules=report.energy_joules)


class BatchedAnalyticalEvaluator(AnalyticalEvaluator):
    """The analytical strategy with a whole-chunk batch axis (the default).

    Scoring one point is inherited unchanged; ``evaluate_batch`` scores a
    whole chunk of grid points as one
    :meth:`~repro.hw.accelerator.ViTCoDAccelerator.simulate_attention_grid`
    array walk — swept parameters become per-point numpy columns (routed
    exactly as the per-point sweep routes them onto
    :class:`~repro.hw.params.HardwareConfig` fields and accelerator
    kwargs), and the results are **bit-for-bit** what per-point calls
    produce.  Because the strategy is the same, ``evaluator_spec`` still
    renders it as ``{"name": "analytical"}``: batched and per-point
    shards of one :mod:`repro.dist` study share a manifest and produce
    identical stores.

    A chunk containing an invalid point — MAC lines below the allocator's
    minimum, an out-of-range AE ratio — raises for the whole batch; the
    DSE engine then falls back to per-point scoring of that chunk, which
    captures exactly the per-point failures an unbatched sweep would.
    """

    def evaluate_batch(self, workload, base_config, names, value_rows):
        from ..hw.accelerator import ViTCoDAccelerator

        accel = ViTCoDAccelerator(config=base_config)
        columns = dse_grid_columns(
            names, list(value_rows), default_ae=accel.ae_compression
        )
        seconds, energy = accel.simulate_attention_grid(workload, columns)
        return [
            EvalMetrics(seconds=s, energy_joules=e)
            for s, e in zip(seconds.tolist(), energy.tolist())
        ]


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
    """Score points with the event-driven cycle simulator (ground truth).

    Latency is the simulated makespan of the whole attention stack; energy
    is charged by :func:`_cycle_metrics` with the same
    :class:`~repro.hw.params.EnergyTable` constants the analytical model
    uses, so analytical and cycle-accurate Pareto fronts are comparable
    point for point.  One point is one
    :meth:`~repro.hw.cycle_sim.CycleAccurateSimulator.simulate_attention_grid`
    walk at P = 1.
    """

    name = "cycle"

    #: ``accel_kwargs`` the cycle simulator can honour; anything else (e.g.
    #: ``q_forwarding_hit_rate``, which only the analytical model applies)
    #: raises instead of silently altering the swept grid's meaning.
    #: Derived from the DSE parameter table's ``cycle_modelled`` flags, so
    #: the per-point and batched cycle paths reject exactly the same knobs
    #: — a new swept parameter cannot be honoured by one and refused by
    #: the other.
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

    def __call__(self, workload, config, accel_kwargs):
        self._reject_unsupported(accel_kwargs)
        makespan, dram_busy = self._simulate(workload, config, accel_kwargs)
        (metrics,) = _cycle_metrics(
            workload, config, makespan, dram_busy, config.bytes_per_cycle
        )
        return metrics

    def _simulate(self, workload, config, accel_kwargs):
        """``(makespan, dram_busy)`` of one design point."""
        from ..hw.cycle_sim import CycleAccurateSimulator

        sim = CycleAccurateSimulator(config=config, **accel_kwargs)
        totals = sim.simulate_attention_grid(workload, {})
        return totals["makespan"], totals["dram_busy"]


class BatchedCycleSimEvaluator(CycleSimEvaluator):
    """The cycle-accurate strategy with a whole-chunk batch axis.

    Scoring one point is inherited unchanged; ``evaluate_batch`` runs a
    whole chunk of grid points as one
    :meth:`~repro.hw.cycle_sim.CycleAccurateSimulator.simulate_attention_grid`
    (points × layers × jobs) max-plus walk — swept knobs become per-point
    numpy columns (via :func:`dse_grid_columns`, the same table the
    per-point route reads) and energy goes through the same
    :func:`_cycle_metrics` charge, so the results are **bit-for-bit** what
    per-point calls produce.  Because the strategy is the same,
    ``evaluator_spec`` renders both as ``{"name": "cycle"}``: batched and
    per-point shards of one :mod:`repro.dist` study share a manifest and
    produce identical stores.

    A chunk containing an invalid point — MAC lines below the allocator's
    minimum, an out-of-range AE ratio, a zero bandwidth or buffer — raises
    for the whole batch; the DSE engine then falls back to per-point
    scoring of that chunk, which captures exactly the per-point failures
    an unbatched sweep would.  A sweep of a knob the cycle simulator does
    not model raises :class:`UnsupportedParameterError` exactly like the
    per-point path (same table, same message).
    """

    def evaluate_batch(self, workload, base_config, names, value_rows):
        from ..hw.cycle_sim import CycleAccurateSimulator

        self._reject_unsupported(
            key
            for name in names
            if name in _DSE_PARAMETERS
            for key in _DSE_PARAMETERS[name].kwargs_keys
        )
        sim = CycleAccurateSimulator(config=base_config)
        columns = dse_grid_columns(
            names, list(value_rows), default_ae=sim.ae_compression
        )
        totals = sim.simulate_attention_grid(workload, columns)
        # A bandwidth column is the per-point ``config.bytes_per_cycle``
        # expression evaluated elementwise.
        if "dram_bandwidth_bytes_per_s" in columns:
            bytes_per_cycle = (
                columns["dram_bandwidth_bytes_per_s"] / base_config.frequency_hz
            )
        else:
            bytes_per_cycle = base_config.bytes_per_cycle
        return _cycle_metrics(
            workload, base_config, totals["makespan"], totals["dram_busy"],
            bytes_per_cycle,
        )


class HybridEvaluator:
    """Prune with a cheap evaluator, re-score survivors with the real one.

    The DSE engine recognises this type and runs the two-phase sweep:
    every grid point is scored with :attr:`coarse` under incremental
    Pareto pruning, then only the surviving frontier is re-scored with
    :attr:`fine` (in deterministic grid order).  Used as a plain evaluator
    on a single point it simply defers to :attr:`fine`.
    """

    name = "hybrid"

    def __init__(self, coarse: Evaluator = None, fine: Evaluator = None):
        self.coarse = coarse if coarse is not None else BatchedAnalyticalEvaluator()
        self.fine = fine if fine is not None else BatchedCycleSimEvaluator()

    def __call__(self, workload, config, accel_kwargs):
        return self.fine(workload, config, accel_kwargs)


_BUILTIN_EVALUATORS = {
    "analytical": BatchedAnalyticalEvaluator,
    "cycle": BatchedCycleSimEvaluator,
    "hybrid": HybridEvaluator,
}


def resolve_evaluator(spec) -> Evaluator:
    """Normalise an evaluator spec to an :class:`Evaluator` instance.

    ``None`` means the analytical default; strings name a built-in
    (``"analytical"``, ``"cycle"``, ``"hybrid"``); anything callable is
    returned as-is.  ``"analytical"``/``None`` resolve to the
    batch-capable :class:`BatchedAnalyticalEvaluator` and ``"cycle"`` to
    :class:`BatchedCycleSimEvaluator` (each bit-identical to its
    per-point base class point for point — pass an
    ``AnalyticalEvaluator()`` / ``CycleSimEvaluator()`` instance to force
    per-point execution).
    """
    if spec is None:
        return BatchedAnalyticalEvaluator()
    if isinstance(spec, str):
        try:
            return _BUILTIN_EVALUATORS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown evaluator {spec!r}; choose from "
                f"{sorted(_BUILTIN_EVALUATORS)} or pass an Evaluator"
            ) from None
    if callable(spec):
        return spec
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
    if kind is AnalyticalEvaluator or kind is BatchedAnalyticalEvaluator:
        # One strategy, two execution modes: batched and per-point score
        # bit-identically, so they share the manifest spec.
        return {"name": "analytical"}
    if kind is CycleSimEvaluator or kind is BatchedCycleSimEvaluator:
        # Same sharing: a batched shard produces the store a per-point
        # shard would.
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
        # then wrap: FaultyEvaluator is per-point by design, so the
        # retry machinery can attribute every injected failure.
        from ..faults import FaultPlanError, FaultyEvaluator, plan_from_spec

        try:
            plan = plan_from_spec(faults)
        except FaultPlanError as exc:
            raise _spec_error(spec, f"bad 'faults' plan: {exc}") from None
        inner_spec = {k: v for k, v in spec.items() if k != "faults"}
        return FaultyEvaluator(evaluator_from_spec(inner_spec), plan)
    if name == "analytical":
        return BatchedAnalyticalEvaluator()
    if name == "cycle":
        return BatchedCycleSimEvaluator()
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
