"""Command-line interface: ``python -m repro <experiment> [options]``.

Runs any of the paper's experiments headlessly and prints/export results:

    python -m repro fig15 --sparsity 0.9 --models deit-base levit-128
    python -m repro fig19 --json results.json
    python -m repro roofline
    python -m repro polarize --tokens 197 --heads 12
    python -m repro dse --models deit-tiny --evaluator cycle --n-jobs 4
    python -m repro dse --models deit-base --batch-size 2048   # batched grid
    python -m repro dse --models deit-base --batch-size 1      # walk at P = 1
    python -m repro list

``--n-jobs`` is a worker budget for ``dse`` alone: its pilot times the
first batch and spawns a process pool only when the sweep would repay it.
Every other command scores in one process and rejects ``--n-jobs``; a
sharded study scales out with more shards (``dse-fleet --num-shards N``).

Sharded sweeps (see :mod:`repro.dist`) split one DSE study across
processes or hosts that share a store directory:

    python -m repro dse-shard --shard 1/3 --out store/ --evaluator cycle
    python -m repro dse-shard --shard 2/3 --out store/ --evaluator cycle
    python -m repro dse-shard --shard 3/3 --out store/ --evaluator cycle
    python -m repro dse-status store/
    python -m repro dse-merge store/ --json merged.json

Heterogeneous fleets weight the partition and steal from stragglers
(``--shard 1/3@4,1,1`` gives shard 1 four grid points for every one the
others own; ``--steal`` makes a finished shard claim and evaluate
missing indices of slower shards — see :mod:`repro.dist`):

    python -m repro dse-shard --shard 1/3@4,1,1 --out store/ --steal

Chaos-ready operation (see :mod:`repro.faults` and :mod:`repro.dist.fleet`):
a supervisor forks N shards from its own process (each runs ``dse-shard``
without starting an interpreter) and keeps them alive under crashes and
hangs, and a seeded fault plan makes failures reproducible:

    python -m repro dse-fleet --out store/ --num-shards 3 --steal \\
        --faults '{"seed": 7, "evaluator_error_rate": 0.1}'
    python -m repro dse-status store/ --stall-after 60

The same studies run as a service (see :mod:`repro.serve`): POST a grid
+ evaluator spec, poll progress, fetch results byte-identical to the
``dse`` command's ``--json`` output:

    python -m repro serve --port 8765 --data-dir serve-data/
    curl -X POST localhost:8765/jobs -d '{"grid": {"mac_lines": [16, 32]}}'
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import harness
from .harness.serialization import to_json

__all__ = ["main", "build_parser"]

EXPERIMENTS = {
    "fig1": "accuracy/BLEU vs sparsity curves",
    "fig3": "roofline analysis",
    "fig4": "FLOPs + EdgeGPU latency breakdowns",
    "fig8": "attention-map polarization metrics",
    "fig15": "speedups over the five baselines",
    "fig17": "accuracy vs attention latency",
    "fig19": "latency breakdown + energy",
    "table1": "accelerator taxonomy",
    "ablation": "pruning vs reordering",
    "nlp": "NLP comparison vs Sanger",
    "roofline": "alias of fig3 with ASCII plot",
    "polarize": "run Algorithm 1 and draw the mask",
    "dse": "design-space sweep + Pareto frontier",
    "dse-shard": "evaluate one K/N shard of a sweep into a result store",
    "dse-fleet": "fork and supervise N dse-shard children (crash/hang "
                 "relaunch with backoff)",
    "dse-merge": "merge a sharded store into the full sweep + frontier",
    "dse-status": "per-shard progress of a sharded sweep store",
    "serve": "run the HTTP DSE job service over a durable data dir",
}

#: Default grid of the ``dse`` command (overridable with ``--grid``).
DEFAULT_DSE_GRID = {
    "mac_lines": (16, 32, 64, 128),
    "ae_compression": (None, 0.5),
}


def _parse_grid_value(token):
    """One swept value: ``none`` -> None, else int if exact, else float."""
    token = token.strip()
    if token.lower() == "none":
        return None
    try:
        return int(token)
    except ValueError:
        return float(token)


def parse_grid(specs):
    """Parse repeated ``--grid name=v1,v2,...`` options into a checked DSE
    grid: a malformed or out-of-domain grid exits with one line, before
    any store, shard or pool exists."""
    from .harness.dse import check_grid

    grid = {}
    for spec in specs or ():
        name, sep, values = spec.partition("=")
        if not sep or not values:
            raise SystemExit(
                f"bad --grid spec {spec!r}; expected name=v1,v2,..."
            )
        try:
            grid[name.strip()] = tuple(
                _parse_grid_value(v) for v in values.split(",")
            )
        except ValueError as exc:
            raise SystemExit(
                f"bad --grid value in {spec!r}: {exc}; expected numbers "
                "or 'none'"
            ) from None
    try:
        return check_grid(grid or DEFAULT_DSE_GRID)
    except ValueError as exc:
        raise SystemExit(f"bad --grid: {exc}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ViTCoD (HPCA 2023) reproduction experiment runner",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["list"],
                        help="experiment to run")
    parser.add_argument("store", nargs="?", default=None,
                        help="dse-merge/dse-status: result-store directory")
    parser.add_argument("--sparsity", type=float, default=0.9,
                        help="attention sparsity target (default 0.9)")
    parser.add_argument("--models", nargs="*", default=None,
                        help="model names (default: the six DeiT/LeViT)")
    parser.add_argument("--end-to-end", action="store_true",
                        help="fig15: end-to-end instead of core attention")
    parser.add_argument("--tokens", type=int, default=197,
                        help="polarize: token count")
    parser.add_argument("--heads", type=int, default=12,
                        help="polarize: head count")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the raw result as JSON")
    parser.add_argument("--evaluator", default="analytical",
                        choices=["analytical", "cycle", "hybrid"],
                        help="dse: design-point evaluator (default "
                             "analytical; cycle = event-driven simulator; "
                             "hybrid = analytical prune + cycle re-score)")
    parser.add_argument("--grid", action="append", metavar="NAME=V1,V2,...",
                        default=None,
                        help="dse: one swept parameter (repeatable), e.g. "
                             "--grid mac_lines=32,64 --grid "
                             "ae_compression=none,0.5")
    parser.add_argument("--n-jobs", type=int, default=1,
                        help="dse: worker budget; a pilot decides whether "
                             "a process pool pays (default 1; other "
                             "commands reject it, use dse-fleet "
                             "--num-shards)")
    parser.add_argument("--batch-size", type=int, default=None, metavar="N",
                        help="dse/dse-shard/dse-fleet: grid points scored "
                             "per batch chunk (default adaptive, ~1024; "
                             "1 walks one point at a time; results are "
                             "identical at any size)")
    parser.add_argument("--shard", metavar="K/N[@W]", default=None,
                        help="dse-shard: which shard of an N-way "
                             "partition this process evaluates; append "
                             "@w1,...,wN (or @W: this shard weighs W, "
                             "peers 1) for a weight-proportional slice")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="dse-shard: result-store directory (shared "
                             "by every shard of the study)")
    parser.add_argument("--steal", action="store_true",
                        help="dse-shard: after finishing its own slice, "
                             "claim and evaluate missing indices of "
                             "slower shards (duplicate-tolerant merge "
                             "keeps results bit-identical)")
    parser.add_argument("--steal-chunk", type=int, default=None, metavar="N",
                        help="dse-shard: indices claimed per steal range "
                             "(default 16)")
    parser.add_argument("--claim-ttl", type=float, default=600.0,
                        metavar="SECONDS",
                        help="dse-shard: age after which an abandoned "
                             "steal claim may be taken over (default "
                             "600; <=0 ignores existing claims)")
    parser.add_argument("--handicap", type=float, default=0.0,
                        metavar="SECONDS",
                        help="dse-shard: sleep this long per recorded "
                             "point (an artificial straggler for "
                             "stealing tests and benchmarks)")
    parser.add_argument("--faults", metavar="JSON|PATH", default=None,
                        help="dse/dse-shard/dse-fleet: a seeded fault "
                             "plan (inline JSON object or a file "
                             "holding one) injected around evaluation "
                             "and the store write path — see "
                             "repro.faults and the README failure "
                             "runbook")
    parser.add_argument("--max-point-retries", type=int, default=None,
                        metavar="N",
                        help="dse-shard/dse-fleet: transient-failure "
                             "re-evaluations budgeted per grid point "
                             "(default 4; 0 persists first failures)")
    parser.add_argument("--num-shards", type=int, default=3, metavar="N",
                        help="dse-fleet: shards to fork and "
                             "supervise (default 3)")
    parser.add_argument("--hang-after", type=float, default=30.0,
                        metavar="SECONDS",
                        help="dse-fleet: seconds without a write to "
                             "a shard's ledgers that count as a hang "
                             "and draw a SIGKILL + relaunch (default 30)")
    parser.add_argument("--max-restarts", type=int, default=3, metavar="N",
                        help="dse-fleet: relaunches per shard before "
                             "it is abandoned (default 3)")
    parser.add_argument("--stall-after", type=float, default=None,
                        metavar="SECONDS",
                        help="dse-status: flag incomplete shards whose "
                             "newest record is older than this as "
                             "STALLED")
    parser.add_argument("--port", type=int, default=8765,
                        help="serve: TCP port to listen on (default 8765; "
                             "0 picks an ephemeral port)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="serve: interface to bind (default loopback)")
    parser.add_argument("--data-dir", metavar="DIR", default=None,
                        help="serve: durable job-state directory (jobs "
                             "resume from it after a restart)")
    parser.add_argument("--serve-workers", type=int, default=2, metavar="N",
                        help="serve: shard worker threads (default 2)")
    parser.add_argument("--max-pending", type=int, default=1024, metavar="N",
                        help="serve: bound on queued shard tasks; "
                             "submissions that would overflow it get "
                             "HTTP 503 + Retry-After (default 1024)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="serve: watchdog timeout per shard task "
                             "(default: none); a task over budget "
                             "counts as a failure and consumes a retry")
    parser.add_argument("--task-retries", type=int, default=2, metavar="N",
                        help="serve: per-shard-task retries (with "
                             "backoff) before a job goes failed "
                             "(default 2)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="dse: write the sweep's timed spans as a "
                             "Chrome trace-event file (open in Perfetto "
                             "or chrome://tracing)")
    parser.add_argument("--verbose", action="store_true",
                        help="serve: structured one-line access logs "
                             "(method, path, status, duration ms) via "
                             "the repro.serve.access logger")
    return parser


def _load_fault_plan(arg):
    """Parse ``--faults`` (inline JSON object, or a path to one).

    Returns the validated spec dict, or None when the flag was absent.
    Validation failures surface as :class:`SystemExit` with the plan
    field that was wrong, before any evaluator or store work starts.
    """
    if not arg:
        return None
    import json

    from .faults import FaultPlanError, plan_from_spec

    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit(f"--faults: cannot read {arg!r}: {exc}")
    try:
        spec = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"--faults: invalid JSON: {exc}")
    try:
        plan_from_spec(spec)
    except FaultPlanError as exc:
        raise SystemExit(f"--faults: {exc}")
    return spec


def _format_eta(eta_seconds):
    """Compact human ETA: ``-`` done, ``?`` unknown, else h/m/s."""
    if eta_seconds is None:
        return "?"
    if eta_seconds <= 0:
        return "-"
    seconds = int(round(eta_seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{seconds % 3600 // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{max(seconds, 1)}s"


def _dse_result(model, sparsity, evaluator_name, grid, points):
    """Print the DSE point table and build the JSON payload.

    The payload itself comes from the shared
    :func:`repro.harness.serialization.dse_result_payload` builder, so
    ``dse``, ``dse-merge`` and the serve layer's results endpoint all
    serialise one sweep identically (the CI smoke jobs assert the JSON
    files are byte-identical across the three surfaces).
    """
    from .harness.serialization import dse_result_payload

    payload = dse_result_payload(model, sparsity, evaluator_name, grid, points)
    names_ = sorted(grid)
    rows = payload["points"]
    frontier_size = sum(1 for row in rows if row["pareto"])
    print(harness.format_table(
        names_ + ["seconds", "energy_J", "EDP", "pareto"],
        [[row["parameters"][n] for n in names_]
         + [row["seconds"], row["energy_joules"], row["edp"],
            "*" if row["pareto"] else ""]
         for row in rows],
        float_fmt="{:.3e}",
    ))
    print(f"\n{len(rows)} points ({evaluator_name} evaluator), "
          f"{frontier_size} on the Pareto frontier")
    return payload


def _run(args):
    models = tuple(args.models) if args.models else harness.DEFAULT_MODELS
    name = args.experiment
    if args.store is not None and name not in ("dse-shard", "dse-fleet",
                                               "dse-merge", "dse-status"):
        raise SystemExit(
            f"unexpected positional argument {args.store!r}: only the "
            "dse-shard/dse-fleet/dse-merge/dse-status commands take a "
            "store directory"
        )
    if args.batch_size is not None and args.batch_size < 1:
        raise SystemExit(
            f"--batch-size must be a positive point count, got "
            f"{args.batch_size}"
        )
    if args.n_jobs < 1:
        raise SystemExit(
            f"--n-jobs must be a positive worker count, got {args.n_jobs}"
        )
    if args.n_jobs != 1 and name != "dse":
        raise SystemExit(
            f"--n-jobs applies to dse only, got --n-jobs {args.n_jobs} for "
            f"{name}; scale a sharded study out with dse-fleet "
            "--num-shards N instead"
        )
    if name == "list":
        for key in sorted(EXPERIMENTS):
            print(f"{key:10s} {EXPERIMENTS[key]}")
        return None

    if name == "serve":
        from .serve import run_server
        if not args.data_dir:
            raise SystemExit("serve requires --data-dir DIR (durable job "
                             "state lives there)")
        if args.serve_workers < 1:
            raise SystemExit(
                f"--serve-workers must be >= 1, got {args.serve_workers}"
            )
        if args.max_pending < 1:
            raise SystemExit(
                f"--max-pending must be >= 1, got {args.max_pending}"
            )
        if args.task_timeout is not None and args.task_timeout <= 0:
            raise SystemExit(
                f"--task-timeout must be positive seconds, got "
                f"{args.task_timeout}"
            )
        if args.task_retries < 0:
            raise SystemExit(
                f"--task-retries must be >= 0, got {args.task_retries}"
            )
        run_server(args.data_dir, host=args.host, port=args.port,
                   workers=args.serve_workers, verbose=args.verbose,
                   max_pending=args.max_pending,
                   task_timeout=args.task_timeout,
                   task_retries=args.task_retries)
        return None

    if name == "fig1":
        result = harness.fig1_accuracy_sparsity()
        print(harness.format_table(
            ["sparsity"] + list(result["curves"]),
            [[s] + [result["curves"][c][i] for c in result["curves"]]
             for i, s in enumerate(result["sparsities"])],
        ))
        return result

    if name in ("fig3", "roofline"):
        result = harness.fig3_roofline()
        from .roofline import sddmm_roofline_points
        from .viz import render_roofline
        print(render_roofline(sddmm_roofline_points()))
        print(f"\nridge: {result['ridge_ops_per_byte']:.2f} Ops/Byte")
        return result

    if name == "fig4":
        result = harness.fig4_breakdown(models=models)
        print(harness.format_table(
            ["model", "SA latency frac", "core frac of SA", "MLP FLOPs frac"],
            [[r["model"], r["sa_latency_fraction"], r["core_fraction_of_sa"],
              r["flops_fraction"]["mlp"]] for r in result],
        ))
        return result

    if name == "fig8":
        result = harness.fig8_polarization(sparsity=args.sparsity)
        print(f"mean polarization: {result['mean_polarization']:.3f}")
        return result

    if name == "fig15":
        result = harness.fig15_speedups(sparsity=args.sparsity, models=models,
                                        end_to_end=args.end_to_end)
        baselines = list(result["mean"])
        rows = [
            [m] + [result["per_model"][m][b] for b in baselines]
            for m in result["per_model"]
        ]
        rows.append(["MEAN"] + [result["mean"][b] for b in baselines])
        print(harness.format_table(["model"] + baselines, rows,
                                   float_fmt="{:.1f}"))
        return result

    if name == "fig17":
        result = harness.fig17_accuracy_latency(models=models,
                                                sparsity=args.sparsity)
        print(harness.format_table(
            ["model", "latency reduction", "accuracy drop"],
            [[r["model"], r["latency_reduction"],
              r["dense_accuracy"] - r["vitcod_accuracy"]] for r in result],
        ))
        return result

    if name == "fig19":
        result = harness.fig19_breakdown_energy(models=models)
        from .viz import render_breakdown
        for design, fr in result["mean_breakdown_at_max_sparsity"].items():
            print(f"{design:14s}", render_breakdown(fr))
        print(f"\nS&C vs Sanger: {result['speedup_sc_only_vs_sanger']:.2f}x; "
              f"AE on top: {result['speedup_ae_on_top']:.2f}x; "
              "energy eff vs Sanger: "
              f"{result['energy_efficiency_vs_sanger']:.2f}x")
        return result

    if name == "table1":
        result = harness.table1_taxonomy()
        print(harness.format_table(
            ["accelerator", "field", "dataflow", "pattern", "codesign"],
            [[r["accelerator"], r["field"], r["dataflow"], r["pattern"],
              "yes" if r["codesign"] else "no"] for r in result],
        ))
        return result

    if name == "ablation":
        result = harness.ablation_prune_reorder()
        print(harness.format_table(
            ["sparsity", "pruning benefit", "reordering benefit"],
            [[r["sparsity"], r["pruning_benefit"], r["reordering_benefit"]]
             for r in result["rows"]],
        ))
        return result

    if name == "nlp":
        result = harness.nlp_comparison()
        print(harness.format_table(
            ["sparsity", "speedup vs Sanger", "fixed-mask BLEU drop"],
            [[r["sparsity"], r["speedup_vs_sanger"],
              r["fixed_mask_bleu_drop"]] for r in result],
        ))
        return result

    if name == "dse":
        from . import obs
        from .harness.dse import sweep_design_space
        from .perf import cached_model_workload
        model = args.models[0] if args.models else "deit-tiny"
        grid = parse_grid(args.grid)
        evaluator = args.evaluator
        faults = _load_fault_plan(args.faults)
        if faults is not None:
            # Serial sweeps have no retry layer: transient injected
            # failures surface as dropped points (the dist runner is
            # the path that heals them).  Hybrid's two-phase pruning
            # would silently degrade under the fault wrapper (it scores
            # rows, not phases), so the combination is rejected rather
            # than mis-simulated.
            if args.evaluator == "hybrid":
                raise SystemExit(
                    "--faults with the hybrid evaluator needs the "
                    "sharded path (dse-shard/dse-fleet), which wraps "
                    "only the coarse phase"
                )
            from .faults import FaultyEvaluator
            evaluator = FaultyEvaluator(evaluator, faults)
        # --trace installs a span collector on the default registry for
        # the sweep's duration; tracing observes only — the JSON result
        # stays byte-identical with and without it.
        tracer = obs.tracing(path=args.trace) if args.trace else None
        with tracer if tracer is not None else contextlib.nullcontext():
            with obs.span("dse_workload", model=model):
                workload = cached_model_workload(model, sparsity=args.sparsity)
            points = sweep_design_space(
                workload, grid, n_jobs=args.n_jobs,
                evaluator=evaluator,
                chunksize=args.batch_size,
            )
        if args.trace:
            print(f"wrote Chrome trace {args.trace} (load in Perfetto)",
                  file=sys.stderr)
        return _dse_result(model, args.sparsity, args.evaluator, grid,
                           points)

    if name == "dse-shard":
        from .dist import model_workload_spec, run_shard
        from .perf import cached_model_workload
        if not args.shard:
            raise SystemExit("dse-shard requires --shard K/N")
        out = args.out or args.store
        if not out:
            raise SystemExit("dse-shard requires --out DIR (the store "
                             "directory shared by every shard)")
        if args.steal_chunk is not None and args.steal_chunk < 1:
            raise SystemExit(
                f"--steal-chunk must be a positive index count, got "
                f"{args.steal_chunk}"
            )
        if args.handicap < 0:
            raise SystemExit(
                f"--handicap must be non-negative seconds, got "
                f"{args.handicap}"
            )
        model = args.models[0] if args.models else "deit-tiny"
        grid = parse_grid(args.grid)
        evaluator = args.evaluator
        faults = _load_fault_plan(args.faults)
        if faults is not None:
            from .faults import FaultyEvaluator
            evaluator = FaultyEvaluator(evaluator, faults)
        workload = cached_model_workload(model, sparsity=args.sparsity)
        run_kwargs = {}
        if args.max_point_retries is not None:
            if args.max_point_retries < 0:
                raise SystemExit(
                    f"--max-point-retries must be >= 0, got "
                    f"{args.max_point_retries}"
                )
            run_kwargs["max_point_retries"] = args.max_point_retries
        run = run_shard(
            workload, grid, args.shard, out,
            evaluator=evaluator, chunksize=args.batch_size,
            workload_spec=model_workload_spec(model, sparsity=args.sparsity),
            steal=args.steal, steal_chunk=args.steal_chunk,
            claim_ttl=args.claim_ttl, handicap=args.handicap, **run_kwargs,
        )
        line = (f"shard {run.shard}: {run.evaluated} evaluated, "
                f"{run.skipped} already in store, {run.failed} failed "
                f"({run.total} grid points owned)")
        if run.retried:
            line += f"; {run.retried} transient-failure retries"
        if args.steal:
            line += f"; {run.stolen} stolen from other shards"
        print(line)
        print(f"store: {run.store}")
        return {
            "shard": str(run.shard),
            "store": str(run.store),
            "total": run.total,
            "evaluated": run.evaluated,
            "skipped": run.skipped,
            "failed": run.failed,
            "stolen": run.stolen,
            "retried": run.retried,
            "complete": run.complete,
        }

    if name == "dse-fleet":
        import json as _json

        from .dist import run_fleet
        out = args.out or args.store
        if not out:
            raise SystemExit("dse-fleet requires --out DIR (the store "
                             "directory shared by every shard)")
        if args.num_shards < 1:
            raise SystemExit(
                f"--num-shards must be >= 1, got {args.num_shards}"
            )
        parse_grid(args.grid)  # a bad grid fails here, not in N shards
        faults = _load_fault_plan(args.faults)
        model = args.models[0] if args.models else "deit-tiny"
        shard_args = ["--models", model, "--sparsity", str(args.sparsity),
                      "--evaluator", args.evaluator]
        for spec in args.grid or ():
            shard_args += ["--grid", spec]
        if args.batch_size is not None:
            shard_args += ["--batch-size", str(args.batch_size)]
        if args.steal:
            shard_args.append("--steal")
        if args.steal_chunk is not None:
            shard_args += ["--steal-chunk", str(args.steal_chunk)]
        if args.claim_ttl != 600.0:
            shard_args += ["--claim-ttl", str(args.claim_ttl)]
        if args.handicap:
            shard_args += ["--handicap", str(args.handicap)]
        if args.max_point_retries is not None:
            shard_args += ["--max-point-retries", str(args.max_point_retries)]
        if faults is not None:
            shard_args += ["--faults", _json.dumps(faults)]
        fleet = run_fleet(
            out, args.num_shards, shard_args,
            hang_after=args.hang_after, max_restarts=args.max_restarts,
        )
        line = (f"fleet of {fleet.num_shards} shards: {fleet.restarts} "
                f"relaunches ({fleet.hang_kills} hang kills)")
        if fleet.abandoned:
            line += f"; abandoned shards: {list(fleet.abandoned)}"
        line += "; store " + ("complete" if fleet.complete else "INCOMPLETE")
        print(line)
        print(f"store: {fleet.store}")
        result = {
            "store": str(fleet.store),
            "num_shards": fleet.num_shards,
            "restarts": fleet.restarts,
            "hang_kills": fleet.hang_kills,
            "abandoned": list(fleet.abandoned),
            "complete": fleet.complete,
            "ok": fleet.ok,
        }
        if not fleet.complete:
            if args.json:
                with open(args.json, "w") as fh:
                    fh.write(to_json(result))
            raise SystemExit(
                "dse-fleet: store is incomplete (some grid indices have "
                "no record); re-run the same command to resume, or run "
                "with --steal so survivors absorb abandoned shards"
            )
        return result

    if name == "dse-merge":
        from .dist import merge_store
        store = args.store or args.out
        if not store:
            raise SystemExit("dse-merge requires a store directory")
        merged = merge_store(store)
        manifest = merged.manifest
        workload_spec = manifest.get("workload", {})
        line = (f"merged {manifest['num_shards']} shards "
                f"({manifest['grid_size']} grid points, {merged.dropped} "
                "dropped)")
        if merged.duplicates:
            line += (f"; {merged.duplicates} redundant duplicate records "
                     "tolerated (bit-identical)")
        print(line)
        return _dse_result(
            workload_spec.get("model"),
            workload_spec.get("sparsity"),
            manifest["evaluator"]["name"],
            {k: tuple(v) for k, v in manifest["grid"].items()},
            list(merged.points),
        )

    if name == "dse-status":
        from .dist import store_status
        store = args.store or args.out
        if not store:
            raise SystemExit("dse-status requires a store directory")
        if args.stall_after is not None and args.stall_after <= 0:
            raise SystemExit(
                f"--stall-after must be positive seconds, got "
                f"{args.stall_after}"
            )
        status = store_status(store, stall_after=args.stall_after)
        print(harness.format_table(
            ["shard", "scored", "failed", "stolen", "steals", "retries",
             "pending", "total", "done%", "ok%", "eta", "state"],
            [[str(s.shard), s.scored, s.failed, s.stolen, s.steals,
              s.retries, s.pending, s.total, f"{s.fraction_done:.0%}",
              f"{s.fraction_scored:.0%}", _format_eta(s.eta_seconds),
              "STALLED" if s.stalled else ""]
             for s in status.shards],
        ))
        line = (f"\n{status.done}/{status.grid_size} grid points done "
                f"({status.fraction_done:.0%}), {status.scored} scored, "
                f"{status.failed} failed")
        if status.stolen:
            line += f", {status.stolen} stolen"
        if status.retries:
            line += f", {status.retries} retries"
        if status.stalled_shards:
            line += (", shards "
                     f"{[str(s) for s in status.stalled_shards]} STALLED")
        if not status.complete:
            line += f"; ETA {_format_eta(status.eta_seconds)}"
        if status.manifest["evaluator"].get("name") == "hybrid":
            line += f"; {status.fine_records} survivors fine re-scored"
        print(line)
        return {
            "grid_size": status.grid_size,
            "done": status.done,
            "scored": status.scored,
            "failed": status.failed,
            "stolen": status.stolen,
            "steals": status.steals,
            "fraction_done": status.fraction_done,
            "fraction_scored": status.fraction_scored,
            "eta_seconds": status.eta_seconds,
            "complete": status.complete,
            "fine_records": status.fine_records,
            "retries": status.retries,
            "stalled_shards": [str(s) for s in status.stalled_shards],
            "shards": [
                {"shard": str(s.shard), "done": s.done,
                 "scored": s.scored, "failed": s.failed,
                 "stolen": s.stolen, "steals": s.steals,
                 "retries": s.retries, "stalled": s.stalled,
                 "total": s.total,
                 "fraction_done": s.fraction_done,
                 "fraction_scored": s.fraction_scored,
                 "eta_seconds": s.eta_seconds}
                for s in status.shards
            ],
        }

    if name == "polarize":
        from .sparsity import split_and_conquer, synthetic_vit_attention
        from .viz import render_mask
        maps = synthetic_vit_attention(args.tokens, num_heads=args.heads)
        result_obj = split_and_conquer(maps, target_sparsity=args.sparsity)
        print(render_mask(result_obj.partitions[0].reordered_mask))
        print(f"\nsparsity {result_obj.sparsity:.1%}, "
              f"global tokens {result_obj.num_global_tokens.tolist()}")
        return {
            "sparsity": result_obj.sparsity,
            "num_global_tokens": result_obj.num_global_tokens.tolist(),
        }

    raise SystemExit(f"unknown experiment {name!r}")  # pragma: no cover


def main(argv=None):
    args = build_parser().parse_args(argv)
    result = _run(args)
    if args.json and result is not None:
        with open(args.json, "w") as fh:
            fh.write(to_json(result))
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
