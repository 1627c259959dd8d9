"""Telemetry overhead: instrumentation must be (near) free when off.

Three timings of the same batched analytical sweep (1080 grid points in
full mode):

* ``uninstrumented`` — the floor: :mod:`repro.obs` swapped for inert
  stubs inside the DSE engine, so the hot path pays nothing but the
  calls the instrumentation added;
* ``disabled`` — the shipped default: a disabled registry, every
  accessor returning the shared no-op singleton;
* ``enabled`` — full collection, the serve layer's configuration.

The ``obs_overhead`` entry in ``BENCH_perf.json`` records all three;
full mode asserts disabled stays under 3% of the floor and enabled under
10% — the "instrumentation everywhere, cost opt-in" contract of
:mod:`repro.obs`.  The variants are timed interleaved, one call of each
per round, and the gate compares their medians, so host drift slows all
three alike instead of deciding the overheads.
"""

import contextlib
import math
import statistics

from repro import obs
from repro.harness.dse import sweep_design_space
from repro.obs.registry import NOOP_METRIC, NOOP_SPAN, Registry
from repro.perf import BenchResult, Timer, cached_model_workload

import repro.harness.dse as dse_mod


class _InertRegistry:
    enabled = False
    tracer = None


class _InertObs:
    """The cheapest conceivable obs surface — the uninstrumented floor."""

    _registry = _InertRegistry()

    @staticmethod
    def get_registry():
        return _InertObs._registry

    @staticmethod
    def counter(name, help="", **labels):
        return NOOP_METRIC

    @staticmethod
    def span(name, **trace_args):
        return NOOP_SPAN


def test_obs_overhead(bench_recorder, bench_mode, monkeypatch):
    """Instrumented sweep vs telemetry-disabled vs the stubbed floor."""
    full = bench_mode == "full"
    model = "deit-tiny"
    if full:
        # 6 x 5 x 4 x 3 x 3 = 1080 points, every DSE knob swept.
        grid = {
            "mac_lines": [16, 32, 64, 128, 256, 512],
            "bandwidth_gbps": [19.2, 38.4, 76.8, 153.6, 307.2],
            "act_buffer_kb": [64, 128, 256, 512],
            "ae_compression": [None, 0.5, 0.25],
            "q_forwarding_hit_rate": [0.0, 0.3, 0.6],
        }
    else:
        grid = {"mac_lines": [32, 64], "ae_compression": [None, 0.5]}
    grid_points = math.prod(len(v) for v in grid.values())
    workload = cached_model_workload(model, sparsity=0.9)
    rounds = 60 if full else 3

    def sweep():
        return sweep_design_space(workload, grid)

    with monkeypatch.context() as mp:
        mp.setattr(dse_mod, "obs", _InertObs)
        expected = sweep()
    with obs.use_registry(Registry(enabled=False)):
        assert sweep() == expected  # telemetry never alters results
    registry = Registry(enabled=True)
    with obs.use_registry(registry):
        assert sweep() == expected

    @contextlib.contextmanager
    def uninstrumented():
        with monkeypatch.context() as mp:
            mp.setattr(dse_mod, "obs", _InertObs)
            yield

    variants = {
        "uninstrumented": uninstrumented,
        "disabled": lambda: obs.use_registry(Registry(enabled=False)),
        "enabled": lambda: obs.use_registry(registry),
    }
    names = list(variants)
    times = {name: [] for name in names}
    for round_ in range(rounds + 1):  # the first round warms up
        # Each round starts one variant later, so every variant runs in
        # every position of the round equally often.
        shift = round_ % len(names)
        for name in names[shift:] + names[:shift]:
            with variants[name](), Timer() as timer:
                sweep()
            if round_:
                times[name].append(timer.seconds)
    scored = registry.value("dse_points_scored")

    assert scored is not None and scored >= grid_points
    median = {name: statistics.median(t) for name, t in times.items()}
    overhead_disabled = median["disabled"] / median["uninstrumented"] - 1.0
    overhead_enabled = median["enabled"] / median["uninstrumented"] - 1.0
    bench_recorder.record(
        "obs_overhead",
        model=model,
        grid_points=grid_points,
        **{name: BenchResult(name, t, rounds).to_dict()
           for name, t in times.items()},
        overhead_disabled=overhead_disabled,
        overhead_enabled=overhead_enabled,
    )
    if full:
        assert overhead_disabled < 0.03, (
            f"disabled telemetry costs {overhead_disabled:.1%} (>3%)"
        )
        assert overhead_enabled < 0.10, (
            f"enabled telemetry costs {overhead_enabled:.1%} (>10%)"
        )
