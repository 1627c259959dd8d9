"""Command-line interface: ``python -m repro <experiment> [options]``.

Runs any of the paper's experiments headlessly and prints/export results:

    python -m repro fig15 --sparsity 0.9 --models deit-base levit-128
    python -m repro fig19 --json results.json
    python -m repro roofline
    python -m repro polarize --tokens 197 --heads 12
    python -m repro dse --models deit-tiny --evaluator cycle
    python -m repro dse --models deit-base --batch-size 2048   # batched grid
    python -m repro dse --models deit-base --batch-size 1      # walk at P = 1
    python -m repro list

Every command scores in one process; a study scales out with more shards:

    python -m repro dse-fleet --out store/ --num-shards 4 --evaluator cycle

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
a supervisor checks the ``dse-shard`` options once, forks N shards from
its own process (each calls the function ``dse-shard`` runs, with its
own shard, and starts no interpreter) and keeps them alive under crashes
and hangs, and a seeded fault plan makes failures reproducible:

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
from .ledger import StoreError
from .sim.evaluator import check_swept_knobs, evaluator_names

__all__ = ["COMMANDS", "main", "build_parser"]

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
    any store or shard exists."""
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


def _sweep_grid(args):
    """``--grid``, checked by :func:`parse_grid` and against the knobs
    ``--evaluator`` models: one line, before any workload or store."""
    grid = parse_grid(args.grid)
    try:
        check_swept_knobs(args.evaluator, sorted(grid))
    except ValueError as exc:
        raise SystemExit(f"bad --grid: {exc}") from None
    return grid


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ViTCoD (HPCA 2023) reproduction experiment runner",
    )
    parser.add_argument("experiment", choices=[*_experiments(), "list"],
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
                        choices=evaluator_names(),
                        help="dse: design-point evaluator (default "
                             "analytical; cycle = event-driven simulator)")
    parser.add_argument("--grid", action="append", metavar="NAME=V1,V2,...",
                        default=None,
                        help="dse: one swept parameter (repeatable), e.g. "
                             "--grid mac_lines=32,64 --grid "
                             "ae_compression=none,0.5")
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


def _read_store(read, store, **kwargs):
    """``read(store, **kwargs)``, exiting with the one line ``<store>:
    <message>`` if the store is refused: a manifest naming a grid or
    evaluator this version cannot score (``ValueError``), or any
    :class:`~repro.ledger.StoreError` (no manifest, another schema, a
    half-run or corrupt store)."""
    try:
        return read(store, **kwargs)
    except (ValueError, StoreError) as exc:
        raise SystemExit(f"{store}: {exc}") from None


def _existing_manifest(store):
    """``store``'s manifest, or ``None`` before any shard created it;
    ``dse-shard`` and ``dse-fleet`` read it through :func:`_read_store`
    before a shard scores or forks."""
    from .dist import ResultStore

    return ResultStore(store).read_manifest(missing_ok=True)


def _write_json(path, chunks):
    """Write ``chunks`` of JSON text to ``path`` and say so."""
    with open(path, "w") as fh:
        fh.writelines(chunks)
    print(f"\nwrote {path}")


def _dse_result(model, sparsity, evaluator_name, grid, points, json_path,
                frontier=None):
    """Print the DSE point table and write the JSON payload to ``json_path``.

    The payload itself comes from the shared
    :func:`repro.harness.serialization.dse_result_payload` builder, so
    ``dse``, ``dse-merge`` and the serve layer's results endpoint all
    serialise one sweep identically (the CI smoke jobs assert the JSON
    files are byte-identical across the three surfaces).  The table goes
    to stdout line by line and the JSON into its file chunk by chunk,
    each row and point dict built as it is read: the text
    ``format_table`` and ``to_json`` return whole, never held whole.
    ``frontier`` is ``pareto_frontier(points)`` when the caller has it
    (a merge does).
    """
    from .harness.serialization import (
        LazyArray, dse_result_payload, flag_frontier, iter_json,
    )

    if frontier is None:
        frontier = harness.pareto_frontier(points)
    payload = dse_result_payload(model, sparsity, evaluator_name, grid, points,
                                 frontier=frontier)
    names_ = sorted(grid)

    def rows():  # the payload's points, parameters in ``names_`` order
        for point, pareto in flag_frontier(points, frontier):
            yield ([value for _, value in point.parameters]
                   + [point.seconds, point.energy_joules, point.edp,
                      "*" if pareto else ""])

    for line in harness.iter_table(
        names_ + ["seconds", "energy_J", "EDP", "pareto"],
        LazyArray(rows, len(points)), float_fmt="{:.3e}",
    ):
        print(line)
    print(f"\n{len(points)} points ({evaluator_name} evaluator), "
          f"{len(frontier)} on the Pareto frontier")
    if json_path:
        _write_json(json_path, iter_json(payload))


def _fields(report, names):
    """``{name: report.name}`` for each of the space-separated ``names``:
    a report's ``--json`` (``to_json`` sorts the keys)."""
    return {name: getattr(report, name) for name in names.split()}


def _models(args):
    """``--models``, or the paper's six DeiT/LeViT models."""
    return tuple(args.models) if args.models else harness.DEFAULT_MODELS


def _model(args):
    """The one model a DSE study runs on: ``--models``' first."""
    return args.models[0] if args.models else "deit-tiny"


def _evaluator(args):
    """``--evaluator``, wrapped in the ``--faults`` plan (an inline JSON
    object, or a path to one) if there is one.

    A plan that does not read, parse or validate exits with one line
    naming what was wrong, before any evaluator or store work starts.
    """
    if not args.faults:
        return args.evaluator
    import json

    from .faults import FaultPlanError, FaultyEvaluator

    text = args.faults
    if not text.lstrip().startswith("{"):
        try:
            with open(text) as fh:
                text = fh.read()
        except OSError as exc:
            raise SystemExit(f"--faults: cannot read {args.faults!r}: {exc}")
    try:
        spec = json.loads(text)
    except ValueError as exc:
        raise SystemExit(f"--faults: invalid JSON: {exc}")
    try:
        return FaultyEvaluator(args.evaluator, spec)
    except FaultPlanError as exc:
        raise SystemExit(f"--faults: {exc}")


def _list(args):
    for name in _experiments():
        print(f"{name:10s} {COMMANDS[name][0]}")


def _serve(args):
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


def _fig1(args):
    result = harness.fig1_accuracy_sparsity()
    print(harness.format_table(
        ["sparsity"] + list(result["curves"]),
        [[s] + [result["curves"][c][i] for c in result["curves"]]
         for i, s in enumerate(result["sparsities"])],
    ))
    return result


def _fig3(args):
    from .roofline import sddmm_roofline_points
    from .viz import render_roofline

    result = harness.fig3_roofline()
    print(render_roofline(sddmm_roofline_points()))
    print(f"\nridge: {result['ridge_ops_per_byte']:.2f} Ops/Byte")
    return result


def _fig4(args):
    result = harness.fig4_breakdown(models=_models(args))
    print(harness.format_table(
        ["model", "SA latency frac", "core frac of SA", "MLP FLOPs frac"],
        [[r["model"], r["sa_latency_fraction"], r["core_fraction_of_sa"],
          r["flops_fraction"]["mlp"]] for r in result],
    ))
    return result


def _fig8(args):
    result = harness.fig8_polarization(sparsity=args.sparsity)
    print(f"mean polarization: {result['mean_polarization']:.3f}")
    return result


def _fig15(args):
    result = harness.fig15_speedups(sparsity=args.sparsity,
                                    models=_models(args),
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


def _fig17(args):
    result = harness.fig17_accuracy_latency(models=_models(args),
                                            sparsity=args.sparsity)
    print(harness.format_table(
        ["model", "latency reduction", "accuracy drop"],
        [[r["model"], r["latency_reduction"],
          r["dense_accuracy"] - r["vitcod_accuracy"]] for r in result],
    ))
    return result


def _fig19(args):
    from .viz import render_breakdown

    result = harness.fig19_breakdown_energy(models=_models(args))
    for design, fr in result["mean_breakdown_at_max_sparsity"].items():
        print(f"{design:14s}", render_breakdown(fr))
    print(f"\nS&C vs Sanger: {result['speedup_sc_only_vs_sanger']:.2f}x; "
          f"AE on top: {result['speedup_ae_on_top']:.2f}x; "
          "energy eff vs Sanger: "
          f"{result['energy_efficiency_vs_sanger']:.2f}x")
    return result


def _table1(args):
    result = harness.table1_taxonomy()
    print(harness.format_table(
        ["accelerator", "field", "dataflow", "pattern", "codesign"],
        [[r["accelerator"], r["field"], r["dataflow"], r["pattern"],
          "yes" if r["codesign"] else "no"] for r in result],
    ))
    return result


def _ablation(args):
    result = harness.ablation_prune_reorder()
    print(harness.format_table(
        ["sparsity", "pruning benefit", "reordering benefit"],
        [[r["sparsity"], r["pruning_benefit"], r["reordering_benefit"]]
         for r in result["rows"]],
    ))
    return result


def _nlp(args):
    result = harness.nlp_comparison()
    print(harness.format_table(
        ["sparsity", "speedup vs Sanger", "fixed-mask BLEU drop"],
        [[r["sparsity"], r["speedup_vs_sanger"],
          r["fixed_mask_bleu_drop"]] for r in result],
    ))
    return result


def _polarize(args):
    from .sparsity import split_and_conquer, synthetic_vit_attention
    from .viz import render_mask

    maps = synthetic_vit_attention(args.tokens, num_heads=args.heads)
    result = split_and_conquer(maps, target_sparsity=args.sparsity)
    print(render_mask(result.partitions[0].reordered_mask))
    print(f"\nsparsity {result.sparsity:.1%}, "
          f"global tokens {result.num_global_tokens.tolist()}")
    return {
        "sparsity": result.sparsity,
        "num_global_tokens": result.num_global_tokens.tolist(),
    }


def _dse(args):
    from . import obs
    from .harness.dse import sweep_design_space
    from .perf import cached_model_workload

    model = _model(args)
    grid = _sweep_grid(args)
    # Serial sweeps have no retry layer: transient injected failures
    # surface as dropped points (the dist runner is the path that heals
    # them).
    evaluator = _evaluator(args)
    # --trace installs a span collector on the default registry for the
    # sweep's duration; tracing observes only — the JSON result stays
    # byte-identical with and without it.
    tracer = obs.tracing(path=args.trace) if args.trace else None
    with tracer if tracer is not None else contextlib.nullcontext():
        with obs.span("dse_workload", model=model):
            workload = cached_model_workload(model, sparsity=args.sparsity)
        points = sweep_design_space(
            workload, grid, evaluator=evaluator, chunksize=args.batch_size,
        )
    if args.trace:
        print(f"wrote Chrome trace {args.trace} (load in Perfetto)",
              file=sys.stderr)
    _dse_result(model, args.sparsity, args.evaluator, grid, points, args.json)


def _shard_runner(args, out):
    """Check every ``dse-shard`` option in ``args`` against the store
    ``out``, each with one line on failure, and return ``score(shard)``,
    which scores shard ``shard`` (``K/N`` or a ``ShardSpec``) into it.

    ``dse-shard`` runs it on ``--shard``; ``dse-fleet`` forks it once per
    shard, so every child scores with exactly the options the supervisor
    parsed and checked, and checks nothing again.
    """
    from .dist import ShardSpec

    if args.shard is not None:
        try:
            ShardSpec.parse(args.shard)
        except ValueError as exc:
            raise SystemExit(f"--shard: {exc}") from None
    if args.steal_chunk is not None and args.steal_chunk < 1:
        raise SystemExit("--steal-chunk must be a positive index count, "
                         f"got {args.steal_chunk}")
    if args.handicap < 0:
        raise SystemExit(f"--handicap must be non-negative seconds, got "
                         f"{args.handicap}")
    if args.max_point_retries is not None and args.max_point_retries < 0:
        raise SystemExit(f"--max-point-retries must be >= 0, got "
                         f"{args.max_point_retries}")
    model = _model(args)
    grid = _sweep_grid(args)
    _read_store(_existing_manifest, out)
    evaluator = _evaluator(args)
    retries = {}
    if args.max_point_retries is not None:
        retries["max_point_retries"] = args.max_point_retries

    def score(shard):
        from .dist import model_workload_spec, run_shard
        from .perf import cached_model_workload

        workload = cached_model_workload(model, sparsity=args.sparsity)
        try:
            run = run_shard(
                workload, grid, shard, out,
                evaluator=evaluator, chunksize=args.batch_size,
                workload_spec=model_workload_spec(model,
                                                  sparsity=args.sparsity),
                steal=args.steal, steal_chunk=args.steal_chunk,
                claim_ttl=args.claim_ttl, handicap=args.handicap,
                **retries,
            )
        except StoreError as exc:
            # Another study's store, a corrupt ledger: one line, like
            # dse-merge; injected faults raise other errors.
            raise SystemExit(f"{out}: {exc}") from None
        line = (f"shard {run.shard}: {run.evaluated} evaluated, "
                f"{run.skipped} already in store, {run.failed} failed "
                f"({run.total} grid points owned)")
        if run.retried:
            line += f"; {run.retried} transient-failure retries"
        if args.steal:
            line += f"; {run.stolen} stolen from other shards"
        print(line)
        print(f"store: {run.store}")
        counts = "total evaluated skipped failed stolen retried complete"
        return {"shard": str(run.shard), "store": str(run.store),
                **_fields(run, counts)}

    return score


def _dse_shard(args):
    if not args.shard:
        raise SystemExit("dse-shard requires --shard K/N")
    out = args.out or args.store
    if not out:
        raise SystemExit("dse-shard requires --out DIR (the store "
                         "directory shared by every shard)")
    return _shard_runner(args, out)(args.shard)


def _dse_fleet(args):
    from .dist import run_fleet

    out = args.out or args.store
    if not out:
        raise SystemExit("dse-fleet requires --out DIR (the store "
                         "directory shared by every shard)")
    if args.num_shards < 1:
        raise SystemExit(
            f"--num-shards must be >= 1, got {args.num_shards}"
        )
    # A bad option, a bad grid or a refused store fails here, not in N
    # shards.
    shard = _shard_runner(args, out)
    fleet = run_fleet(
        out, args.num_shards, shard,
        hang_after=args.hang_after, max_restarts=args.max_restarts,
    )
    line = (f"fleet of {fleet.num_shards} shards: {fleet.restarts} "
            f"relaunches ({fleet.hang_kills} hang kills)")
    if fleet.abandoned:
        line += f"; abandoned shards: {list(fleet.abandoned)}"
    line += "; store " + ("complete" if fleet.complete else "INCOMPLETE")
    print(line)
    print(f"store: {fleet.store}")
    result = {"store": str(fleet.store), "abandoned": list(fleet.abandoned),
              **_fields(fleet, "num_shards restarts hang_kills complete ok")}
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


def _dse_merge(args):
    from .dist import merge_store

    store = args.store or args.out
    if not store:
        raise SystemExit("dse-merge requires a store directory")
    merged = _read_store(merge_store, store)
    manifest = merged.manifest
    workload_spec = manifest.get("workload", {})
    line = (f"merged {manifest['num_shards']} shards "
            f"({manifest['grid_size']} grid points, {merged.dropped} "
            "dropped)")
    if merged.duplicates:
        line += (f"; {merged.duplicates} redundant duplicate records "
                 "tolerated (bit-identical)")
    print(line)
    _dse_result(
        workload_spec.get("model"),
        workload_spec.get("sparsity"),
        manifest["evaluator"]["name"],
        {k: tuple(v) for k, v in manifest["grid"].items()},
        merged.points,
        args.json,
        frontier=merged.frontier,
    )


def _dse_status(args):
    from .dist import store_status

    store = args.store or args.out
    if not store:
        raise SystemExit("dse-status requires a store directory")
    if args.stall_after is not None and args.stall_after <= 0:
        raise SystemExit(
            f"--stall-after must be positive seconds, got "
            f"{args.stall_after}"
        )
    status = _read_store(store_status, store, stall_after=args.stall_after)
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
                 f"{[str(s.shard) for s in status.stalled_shards]} STALLED")
    if not status.complete:
        line += f"; ETA {_format_eta(status.eta_seconds)}"
    print(line)
    counts = ("done scored failed stolen steals retries fraction_done "
              "fraction_scored eta_seconds")
    return {
        **_fields(status, f"grid_size complete {counts}"),
        "stalled_shards": [str(s.shard) for s in status.stalled_shards],
        "shards": [{"shard": str(s.shard), **_fields(s, f"total stalled {counts}")}
                   for s in status.shards],
    }


#: Every command: ``name -> (description, command)``.  A command takes
#: the parsed arguments, prints its report and returns what ``--json``
#: writes (``None``: nothing, or it wrote the file itself).  The
#: ``dse-*`` commands work on a result store, so only they take the
#: ``store`` positional.
COMMANDS = {
    "fig1": ("accuracy/BLEU vs sparsity curves", _fig1),
    "fig3": ("roofline analysis", _fig3),
    "fig4": ("FLOPs + EdgeGPU latency breakdowns", _fig4),
    "fig8": ("attention-map polarization metrics", _fig8),
    "fig15": ("speedups over the five baselines", _fig15),
    "fig17": ("accuracy vs attention latency", _fig17),
    "fig19": ("latency breakdown + energy", _fig19),
    "table1": ("accelerator taxonomy", _table1),
    "ablation": ("pruning vs reordering", _ablation),
    "nlp": ("NLP comparison vs Sanger", _nlp),
    "roofline": ("alias of fig3 with ASCII plot", _fig3),
    "polarize": ("run Algorithm 1 and draw the mask", _polarize),
    "dse": ("design-space sweep + Pareto frontier", _dse),
    "dse-shard": ("evaluate one K/N shard of a sweep into a result store",
                  _dse_shard),
    "dse-fleet": ("fork and supervise N dse-shard children (crash/hang "
                  "relaunch with backoff)", _dse_fleet),
    "dse-merge": ("merge a sharded store into the full sweep + frontier",
                  _dse_merge),
    "dse-status": ("per-shard progress of a sharded sweep store",
                   _dse_status),
    "serve": ("run the HTTP DSE job service over a durable data dir",
              _serve),
    "list": ("list the experiments", _list),
}


def _experiments():
    """Every command but ``list``, sorted: what ``list`` prints."""
    return sorted(name for name in COMMANDS if name != "list")


def main(argv=None):
    args = build_parser().parse_args(argv)
    store_commands = [name for name in COMMANDS if name.startswith("dse-")]
    if args.store is not None and args.experiment not in store_commands:
        raise SystemExit(
            f"unexpected positional argument {args.store!r}: only the "
            f"{'/'.join(store_commands)} commands take a store directory"
        )
    if args.batch_size is not None and args.batch_size < 1:
        raise SystemExit(
            f"--batch-size must be a positive point count, got "
            f"{args.batch_size}"
        )
    result = COMMANDS[args.experiment][1](args)
    if args.json and result is not None:
        _write_json(args.json, [to_json(result)])
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
