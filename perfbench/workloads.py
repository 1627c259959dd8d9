"""The benchmark's workloads: why each exists and what it predicts.

Each workload loads one part of the stack heavily and another lightly,
so a change to one layer has a workload that exercises it and one that
bypasses it.  ``predicts`` records, before any change is made, which
per-layer metrics should move which user-facing metric on this workload
(a later change names the pair it expects to move, and every other pair
must stay put).  The shares quoted come from traced runs.  ``idle``
lists the per-layer metrics the workload cannot produce (layers it does
not run at all, a p95 without ten samples beyond it); they are reported
as 0.  ``traced`` lists the layers it does run: a traced run fails its
shape guards unless each has spans inside the timed windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .fleet_sweep import run_fleet_cycle
from .serve_load import run_serve

_FLEET_ONLY = ("dist.fleet.exit_lag_s", "dist.fleet.restarts")
_STUDY_LAYERS = ("serve.app", "serve.jobs", "serve.cache", "obs.events")
_SERVE_ONLY = (
    "serve.app.post_ms",
    "serve.app.status_ms",
    "serve.app.results_ms",
    "serve.app.polls_per_study",
    "serve.app.errors",
    "serve.jobs.submit_ms",
    "serve.jobs.queue_wait_ms",
    "serve.jobs.shard_ms",
    "serve.jobs.merge_ms",
    "serve.cache.hit_ratio",
    "serve.cache.lookup_ms",
    "obs.events.appends_per_study",
    "obs.events.append_ms",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # also the workload's "why" in BENCHMARK.json
    predicts: tuple  # (per-layer metrics, end-to-end metric they move)
    idle: tuple
    traced: tuple
    run: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serve_fresh",
            why=(
                "distinct 16-point cycle-accurate studies from one closed-"
                "loop client polling every 5 ms: the fixed per-study cost of "
                "the serving write path"
            ),
            predicts=(
                ("serve.app.post_ms, serve.app.status_ms", "latency_p50_ms"),
                ("serve.app.polls_per_study", "cpu_ms_per_kpoint"),
                ("serve.jobs.*", "latency_p50_ms"),
                ("obs.events.* (7 fsynced appends per study)",
                 "latency_p50_ms, cpu_ms_per_kpoint"),
                ("dist.runner.*", "serve.jobs.shard_ms"),
                ("dist.merge.store_status_ms (every poll)", "cpu_ms_per_kpoint"),
                ("hw.cycle_sim.* (about a third of a study)", "latency_p50_ms"),
                ("harness.serialization.*", "serve.jobs.merge_ms"),
                ("perf.cache.build_s", "setup_s"),
                ("dist.fleet.*", "nothing: no fleet runs"),
            ),
            idle=_FLEET_ONLY,
            traced=_STUDY_LAYERS + (
                "dist.store", "dist.runner", "dist.merge", "harness.dse",
                "hw.cycle_sim", "perf.cache", "harness.serialization",
            ),
            run=partial(run_serve, "serve_fresh"),
        ),
        Workload(
            name="serve_cached",
            why=(
                "re-submits 32 finished studies, so every POST is a content-"
                "addressed cache hit: the read path, with no shard, merge or "
                "evaluator"
            ),
            predicts=(
                ("serve.app.post_ms, serve.app.results_ms", "latency_p50_ms"),
                ("serve.jobs.submit_ms", "latency_p50_ms"),
                ("serve.cache.*", "latency_p50_ms"),
                ("obs.events.* (1 append per hit)",
                 "latency_p50_ms, cpu_ms_per_kpoint"),
                ("perf.cache.build_s", "setup_s"),
                ("hw.cycle_sim.*, dist.runner.*, dist.merge.*, harness.dse.*",
                 "nothing: a write-path gain must leave this workload put"),
            ),
            idle=_FLEET_ONLY,
            traced=_STUDY_LAYERS + ("perf.cache",),
            run=partial(run_serve, "serve_cached"),
        ),
        Workload(
            name="fleet_cycle",
            why=(
                "dse-fleet, 2 shards, 16384-point cycle-accurate DeiT-Base "
                "grid, then dse-merge --json: grid walk, shard set-up and "
                "merge render, no serving"
            ),
            predicts=(
                ("hw.cycle_sim.* (about half of a sweep)",
                 "points_per_s, cpu_ms_per_kpoint"),
                ("dist.runner.shard_setup_s, perf.cache.build_s", "setup_s"),
                ("dist.runner.walk_s, dist.runner.imbalance_s "
                 "(the slower shard sets the sweep)", "latency_p50_ms"),
                ("dist.store.*", "points_per_s"),
                ("dist.merge.merge_s, harness.serialization.render_ms",
                 "latency_p50_ms"),
                ("dist.fleet.exit_lag_s", "latency_p50_ms"),
                ("harness.dse.*", "points_per_s, latency_p50_ms"),
                ("serve.*, obs.events.*", "nothing: no server runs"),
            ),
            idle=_SERVE_ONLY + ("latency_p95_ms",),
            traced=(
                "dist.store", "dist.runner", "dist.merge", "dist.fleet",
                "harness.dse", "hw.cycle_sim", "perf.cache",
                "harness.serialization", "python.startup",
            ),
            run=run_fleet_cycle,
        ),
    )
}
