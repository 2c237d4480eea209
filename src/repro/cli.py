"""Command-line interface: run DABench-LLM from a shell.

The paper's artifact drives its analysis with shell scripts plus an
``ana.py``; this CLI is the equivalent for the simulation-backed
reproduction::

    python -m repro platforms
    python -m repro tier1 --platform cerebras --model gpt2-small --batch 64
    python -m repro sweep-layers --platform cerebras --model gpt2-small \
        --layers 1 6 12 24 48 78
    python -m repro batch-sweep --platform sambanova --model gpt2-small \
        --batches 4 8 16 32 --option mode=O1
    python -m repro scaling --platform sambanova --model llama2-7b \
        --configs tp=2 tp=4 tp=8 --option mode=O1
    python -m repro grid --platform cerebras --model gpt2-small \
        --layers 2 6 12 --batches 16 64 --resume sweep.jsonl \
        --max-retries 2 --cell-timeout 120
    python -m repro campaign --platforms cerebras sambanova gpu \
        --model gpt2-small --layers 2 12 --batches 16 64 \
        --max-workers 8 --journal-dir journal/ --resume

Platform-specific compile options are passed as repeated
``--option key=value`` flags (and per-config in ``scaling``). Add
``--json FILE`` to dump machine-readable results.

The sweep commands (``grid``, ``batch-sweep``, ``scaling``,
``campaign``) share one resilience flag group (a single argparse parent
parser, so the flags cannot drift between subcommands):
``--max-retries`` / ``--cell-timeout`` for retry and deadline control,
``--max-workers`` to fan cells across worker threads,
``--resume [JOURNAL]`` to checkpoint cells and skip already-finished
ones on a re-run (``--journal`` to checkpoint without skipping),
``--journal-dir`` for a sharded journal directory (one shard per
worker — the right store for parallel campaigns; combine with a bare
``--resume``), ``--schedule`` / ``--predictor`` to dispatch cells by
predicted cost (``longest-first`` cuts makespan on unbalanced grids;
see ``docs/campaign.md``), ``--trace [DIR]`` / ``--ledger PATH`` for
structured tracing and the persisted cross-run duration ledger (see
``docs/observability.md``), and ``--inject-faults RATE`` /
``--fault-seed`` to chaos-test a campaign with seeded, per-platform
calibrated transient faults. ``repro trace DIR`` summarizes a recorded
trace and exports it to Chrome-tracing JSON; ``repro cache stats DIR``
prints a compile-cache directory's entry counts and bytes, split by
tier (whole-cell entries vs per-stage artifacts — see
``docs/performance.md``).

All execution behaviour flows through one
:class:`~repro.resilience.ExecutionPolicy` built by
:func:`_policy_from_args` — the CLI has no side-channel into the sweep
entry points (the pre-policy ``executor=``/``journal=`` keywords were
removed in 0.3; see ``docs/extending.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.campaign import Campaign, CampaignLane
from repro.common.errors import ConfigurationError
from repro.core.backend import AcceleratorBackend
from repro.core.report import (
    GRID_HEADERS,
    TIER1_HEADERS,
    describe_tier1,
    render_table,
    sweep_cell_row,
    tier1_summary_row,
)
from repro.core.serialize import (
    batch_sweep_to_dict,
    campaign_to_dict,
    scaling_point_to_dict,
    sweep_cell_to_dict,
    sweep_entry_to_dict,
    tier1_to_dict,
)
from repro.core.tier1 import Tier1Profiler
from repro.core.tier2 import DeploymentOptimizer, ScalabilityAnalyzer
from repro.resilience import (
    DISPATCH_MODES,
    DISPATCH_THREAD,
    PREDICTORS,
    SCHEDULE_POLICIES,
    Clock,
    ExecutionPolicy,
    FaultInjectingBackend,
    FaultPlan,
    RetryPolicy,
    ShardedJournal,
)
from repro.models.config import (
    GPT2_PRESETS,
    LLAMA2_PRESETS,
    ModelConfig,
    TrainConfig,
    gpt2_model,
    llama2_model,
)
from repro.models.precision import Precision, PrecisionPolicy
from repro.workloads import decoder_block_probe
from repro.workloads.sweeps import SweepSpec, run_grid

PLATFORMS = ("cerebras", "sambanova", "graphcore", "graphcore-pod", "gpu")


def make_backend(name: str) -> AcceleratorBackend:
    """Instantiate a backend by CLI platform name."""
    if name == "cerebras":
        from repro.cerebras import CerebrasBackend
        return CerebrasBackend()
    if name == "sambanova":
        from repro.sambanova import SambaNovaBackend
        return SambaNovaBackend()
    if name == "graphcore":
        from repro.graphcore import GraphcoreBackend
        return GraphcoreBackend()
    if name == "graphcore-pod":
        from repro.graphcore import GraphcoreBackend
        from repro.hardware.specs import BOW_POD
        return GraphcoreBackend(BOW_POD)
    if name == "gpu":
        from repro.gpu import GPUBackend
        return GPUBackend()
    raise ConfigurationError(
        f"unknown platform {name!r}; choose from {PLATFORMS}")


def parse_model(spec: str) -> ModelConfig:
    """Parse a model spec.

    Accepted forms: ``gpt2-small``, ``llama2-7b``, ``gpt2-small:24``
    (layer-count override), and ``probe:<hidden>x<layers>`` for
    decoder-block probes.
    """
    if spec.startswith("probe:"):
        dims = spec.split(":", 1)[1]
        try:
            hidden_str, layer_str = dims.split("x")
            return decoder_block_probe(int(hidden_str), int(layer_str))
        except ValueError:
            raise ConfigurationError(
                f"bad probe spec {spec!r}; expected probe:<hidden>x<layers>"
            ) from None
    layers = None
    if ":" in spec:
        spec, layer_str = spec.rsplit(":", 1)
        layers = int(layer_str)
    family, _sep, size = spec.partition("-")
    if family == "gpt2" and size in GPT2_PRESETS:
        model = gpt2_model(size)
    elif family == "llama2" and size in LLAMA2_PRESETS:
        model = llama2_model(size)
    else:
        raise ConfigurationError(
            f"unknown model {spec!r}; use gpt2-<{'/'.join(GPT2_PRESETS)}>, "
            f"llama2-<{'/'.join(LLAMA2_PRESETS)}>, or probe:<h>x<l>")
    return model.with_layers(layers) if layers is not None else model


def parse_precision(label: str) -> PrecisionPolicy:
    """Parse a precision label: fp32/fp16/bf16/cb16, mixed-<fmt>,
    matmul-<fmt>."""
    if label == "full" or label == "fp32":
        return PrecisionPolicy.full()
    if label.startswith("mixed-"):
        return PrecisionPolicy.mixed(Precision(label.split("-", 1)[1]))
    if label.startswith("matmul-"):
        return PrecisionPolicy.matmul_only(Precision(label.split("-", 1)[1]))
    return PrecisionPolicy.pure(Precision(label))


def parse_options(pairs: Sequence[str]) -> dict[str, Any]:
    """Parse repeated ``key=value`` options with int coercion."""
    options: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"bad option {pair!r}; expected k=v")
        key, value = pair.split("=", 1)
        try:
            options[key] = int(value)
        except ValueError:
            options[key] = value
    return options


def _train_from_args(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(batch_size=args.batch, seq_len=args.seq_len,
                       precision=parse_precision(args.precision),
                       training=not getattr(args, "inference", False))


def _emit(args: argparse.Namespace, payload: Any, text: str) -> None:
    print(text)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\n[json written to {args.json}]")


def _fault_backend(args: argparse.Namespace, backend: AcceleratorBackend,
                   platform: str) -> AcceleratorBackend:
    """Wrap the backend in chaos-mode fault injection when requested."""
    if not args.inject_faults:
        return backend
    if not 0.0 < args.inject_faults <= 1.0:
        raise ConfigurationError(
            "--inject-faults rate must be in (0, 1]: "
            f"{args.inject_faults}")
    plan = FaultPlan.chaos(args.inject_faults, seed=args.fault_seed,
                           platform=platform)
    return FaultInjectingBackend(backend, plan)


def _policy_from_args(args: argparse.Namespace) -> ExecutionPolicy:
    """Build the ExecutionPolicy the shared resilience flags describe."""
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        raise ConfigurationError(
            f"--cell-timeout must be positive: {args.cell_timeout}")
    if args.max_retries < 0:
        raise ConfigurationError(
            f"--max-retries must be >= 0: {args.max_retries}")
    if args.heartbeat_interval <= 0:
        raise ConfigurationError(
            "--heartbeat-interval must be positive: "
            f"{args.heartbeat_interval}")
    if args.quarantine_after <= 0:
        raise ConfigurationError(
            f"--quarantine-after must be >= 1: {args.quarantine_after}")
    if args.max_pool_rebuilds < 0:
        raise ConfigurationError(
            f"--max-pool-rebuilds must be >= 0: {args.max_pool_rebuilds}")
    resume = bool(args.resume)
    journal = args.resume if isinstance(args.resume, str) else args.journal
    if args.journal_dir:
        if journal is not None:
            raise ConfigurationError(
                "--journal-dir conflicts with a journal file; pass a "
                "bare --resume to resume from the directory")
        journal = ShardedJournal(args.journal_dir)
    if resume and journal is None:
        raise ConfigurationError(
            "--resume needs a journal: give it a path, or combine a "
            "bare --resume with --journal-dir")
    return ExecutionPolicy(
        retry=RetryPolicy(max_retries=args.max_retries),
        deadline=args.cell_timeout,
        journal=journal,
        resume=resume,
        retry_failed=args.retry_failed,
        max_workers=args.max_workers,
        dispatch=args.dispatch,
        schedule=args.schedule,
        predictor=args.predictor,
        heartbeat_interval=args.heartbeat_interval,
        quarantine_after=args.quarantine_after,
        max_pool_rebuilds=args.max_pool_rebuilds,
        trace=args.trace,
        ledger=args.ledger,
        cache=args.cache,
        clock=args.clock,
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_platforms(_args: argparse.Namespace) -> int:
    rows = []
    for name in PLATFORMS:
        backend = make_backend(name)
        chip = backend.system.chip
        rows.append([name, backend.system.name,
                     f"{chip.compute_units} {chip.compute_unit_name}s",
                     f"{chip.peak_flops / 1e12:.0f} TFLOP/s",
                     backend.system.total_chips])
    print(render_table(
        ["platform", "system", "units/chip", "peak", "max chips"], rows,
        title="Available platforms"))
    return 0


def cmd_tier1(args: argparse.Namespace) -> int:
    backend = make_backend(args.platform)
    profiler = Tier1Profiler(backend)
    result = profiler.profile(parse_model(args.model),
                              _train_from_args(args),
                              **parse_options(args.option))
    text = "\n".join([
        render_table(TIER1_HEADERS, [tier1_summary_row(result)],
                     title="Tier-1 profile"),
        "",
        describe_tier1(result),
    ])
    _emit(args, tier1_to_dict(result), text)
    return 0


def cmd_sweep_layers(args: argparse.Namespace) -> int:
    backend = make_backend(args.platform)
    profiler = Tier1Profiler(backend)
    entries = profiler.sweep_layers(parse_model(args.model),
                                    _train_from_args(args), args.layers,
                                    **parse_options(args.option))
    rows = []
    for entry in entries:
        if entry.failed:
            rows.append([entry.value, "Fail", "-", "-", "-"])
        else:
            result = entry.result
            rows.append([entry.value,
                         f"{result.compute_allocation:.1%}",
                         f"{result.load_imbalance:.3f}",
                         f"{result.achieved_flops / 1e12:.1f}",
                         f"{result.tokens_per_second:,.0f}"])
    text = render_table(
        ["layers", "allocation", "LI", "TFLOP/s", "tokens/s"], rows,
        title=f"Layer sweep on {backend.name}")
    _emit(args, [sweep_entry_to_dict(e) for e in entries], text)
    return 0


def cmd_batch_sweep(args: argparse.Namespace) -> int:
    backend = _fault_backend(args, make_backend(args.platform),
                             args.platform)
    optimizer = DeploymentOptimizer(backend)
    sweep = optimizer.batch_sweep(parse_model(args.model),
                                  _train_from_args(args), args.batches,
                                  policy=_policy_from_args(args),
                                  **parse_options(args.option))
    rows = [[b, f"{t:,.0f}" if t else sweep.errors.get(b, "Fail")]
            for b, t in zip(sweep.batch_sizes, sweep.tokens_per_second)]
    text = "\n".join([
        render_table(["batch", "tokens/s"], rows,
                     title=f"Batch sweep on {backend.name}"),
        "",
        f"scaling exponent: {sweep.scaling_exponent:.2f} "
        f"({'near-linear' if sweep.near_linear else 'saturating'}); "
        f"saturation batch: {sweep.saturation_batch}",
    ])
    _emit(args, batch_sweep_to_dict(sweep), text)
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    backend = _fault_backend(args, make_backend(args.platform),
                             args.platform)
    analyzer = ScalabilityAnalyzer(backend)
    base = parse_options(args.option)
    configs = []
    for spec in args.configs:
        options = dict(base)
        options.update(parse_options(spec.split(",")))
        configs.append((spec, options))
    points = analyzer.sweep(parse_model(args.model),
                            _train_from_args(args), configs,
                            policy=_policy_from_args(args))
    rows = [[p.label,
             "Fail" if p.failed else f"{p.tokens_per_second:,.0f}",
             f"{p.compute_allocation:.1%}",
             f"{p.communication_fraction:.1%}"] for p in points]
    text = render_table(
        ["config", "tokens/s", "alloc", "comm share"], rows,
        title=f"Scaling sweep on {backend.name}")
    _emit(args, [scaling_point_to_dict(p) for p in points], text)
    return 0


def _grid_specs(args: argparse.Namespace) -> list[SweepSpec]:
    model = parse_model(args.model)
    train = _train_from_args(args)
    options = parse_options(args.option)
    return [
        SweepSpec(label=f"L{layers}/b{batch}",
                  model=model.with_layers(layers),
                  train=train.with_batch_size(batch),
                  options=options)
        for layers in args.layers
        for batch in args.batches
    ]


def cmd_grid(args: argparse.Namespace) -> int:
    backend = _fault_backend(args, make_backend(args.platform),
                             args.platform)
    cells = run_grid(backend, _grid_specs(args),
                     measure=not args.compile_only,
                     policy=_policy_from_args(args))
    text = render_table(GRID_HEADERS, [sweep_cell_row(c) for c in cells],
                        title=f"Grid sweep on {backend.name}")
    _emit(args, [sweep_cell_to_dict(c) for c in cells], text)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a recorded trace directory (and export it)."""
    from repro.observe import (
        events_for_key,
        load_events,
        merged_trace_text,
        summarize_events,
        write_chrome_trace,
    )

    events = load_events(args.dir, run=args.run)
    if args.key:
        events = events_for_key(events, args.key)
    if not events:
        print("no trace events found", file=sys.stderr)
        return 1
    if args.merged:
        print(merged_trace_text(events), end="")
    else:
        writers = {event.writer for event in events}
        keys = {event.key for event in events if event.key}
        rows = [[name, count]
                for name, count in summarize_events(events).items()]
        print(render_table(["event", "count"], rows,
                           title=f"Trace: {len(events)} events, "
                                 f"{len(keys)} cells, "
                                 f"{len(writers)} writers"))
    if args.chrome:
        path = write_chrome_trace(events, args.chrome)
        print(f"\n[chrome trace written to {path}]")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect a content-addressed compile-cache directory."""
    from pathlib import Path

    from repro.cache import CompileCache

    root = Path(args.dir)
    if not root.is_dir():
        raise ConfigurationError(f"not a cache directory: {root}")
    hexdigits = set("0123456789abcdef")
    for child in sorted(root.iterdir()):
        if child.name == "ledger.json":
            continue
        if child.is_dir() and (child.name == CompileCache.STAGE_DIR
                               or (len(child.name) == 2
                                   and set(child.name) <= hexdigits)):
            continue
        raise ConfigurationError(
            f"not a cache directory: {root} "
            f"(unexpected entry {child.name!r})")
    cache = CompileCache(root)
    entries = cache.entries()
    rows: list[list[object]] = [
        ["cell", len(entries),
         sum(path.stat().st_size for path in entries)],
    ]
    for stage_name, paths in sorted(cache.stage_entries().items()):
        rows.append([f"stage:{stage_name}", len(paths),
                     sum(path.stat().st_size for path in paths)])
    total_entries = sum(int(row[1]) for row in rows)
    total_bytes = sum(int(row[2]) for row in rows)
    rows.append(["total", total_entries, total_bytes])
    print(render_table(["tier", "entries", "bytes"], rows,
                       title=f"Cache {root}"))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    specs = _grid_specs(args)
    lanes = [
        CampaignLane(backend=_fault_backend(args, make_backend(name), name),
                     specs=specs, label=name)
        for name in args.platforms
    ]
    campaign = Campaign(lanes, _policy_from_args(args),
                        measure=not args.compile_only)
    result = campaign.run()
    _emit(args, campaign_to_dict(result),
          result.report(title="Campaign").render())
    return 0


# ----------------------------------------------------------------------
def _workload_parent(platform: bool = True) -> argparse.ArgumentParser:
    """Shared workload flags as an argparse parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    if platform:
        p.add_argument("--platform", required=True, choices=PLATFORMS)
    p.add_argument("--model", required=True,
                   help="gpt2-<size>[:layers], llama2-<size>[:layers], "
                        "or probe:<hidden>x<layers>")
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seq-len", type=int, default=1024)
    p.add_argument("--precision", default="fp16",
                   help="fp32/fp16/bf16/cb16, mixed-<fmt>, "
                        "matmul-<fmt>")
    p.add_argument("--option", action="append", default=[],
                   metavar="K=V", help="backend compile option")
    p.add_argument("--inference", action="store_true",
                   help="benchmark forward-only inference instead of "
                        "training steps")
    p.add_argument("--json", help="also write results to this file")
    return p


def _resilience_parent() -> argparse.ArgumentParser:
    """The one definition of the resilience flag group.

    Every sweep subcommand inherits this parent parser, so the flags
    (and their semantics, read by :func:`_policy_from_args`) cannot
    drift between ``grid``, ``batch-sweep``, ``scaling``, and
    ``campaign``.
    """
    p = argparse.ArgumentParser(add_help=False)
    group = p.add_argument_group("resilience")
    group.add_argument("--max-retries", type=int, default=0,
                       help="retries per cell for transient faults")
    group.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-cell deadline; hung cells are cut "
                            "off and recorded")
    group.add_argument("--max-workers", type=int, default=1,
                       help="workers fanning sweep cells out "
                            "(1 = sequential)")
    group.add_argument("--dispatch", choices=DISPATCH_MODES,
                       default=DISPATCH_THREAD,
                       help="how --max-workers are realized: thread "
                            "(shared address space, right for "
                            "IO-bound cells) or process (one worker "
                            "process per slot — real multi-core for "
                            "CPU-bound cells; needs --journal-dir "
                            "or no journal)")
    group.add_argument("--resume", metavar="JOURNAL", default=None,
                       nargs="?", const=True,
                       help="checkpoint cells to this JSONL journal "
                            "and skip already-finished ones; bare "
                            "--resume uses --journal-dir")
    group.add_argument("--journal", metavar="JOURNAL", default=None,
                       help="checkpoint cells without skipping "
                            "(fresh run)")
    group.add_argument("--journal-dir", metavar="DIR", default=None,
                       help="sharded journal directory (one shard per "
                            "worker thread; the right store for "
                            "parallel runs)")
    group.add_argument("--retry-failed", action="store_true",
                       help="with --resume, re-execute journaled "
                            "failures too")
    group.add_argument("--schedule", choices=SCHEDULE_POLICIES,
                       default=SCHEDULE_POLICIES[0],
                       help="cell dispatch order: lane-major (arrival "
                            "order), longest-first (predicted-cost LPT "
                            "— cuts makespan on unbalanced grids), or "
                            "shortest-first (quick feedback)")
    group.add_argument("--predictor", choices=PREDICTORS,
                       default="ewma",
                       help="cost model ranking cells for --schedule: "
                            "analytic (static cost-model estimate) or "
                            "ewma (online, learns per-backend cell "
                            "durations as the run progresses)")
    group.add_argument("--heartbeat-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="process dispatch: how often worker "
                            "processes stamp their heartbeat files "
                            "(supervisor kills a worker whose beat "
                            "goes stale past interval x grace)")
    group.add_argument("--quarantine-after", type=int, default=2,
                       metavar="N",
                       help="process dispatch: a cell that kills its "
                            "worker this many times is quarantined "
                            "as a final failure instead of retried")
    group.add_argument("--max-pool-rebuilds", type=int, default=5,
                       metavar="N",
                       help="process dispatch: how many times a "
                            "broken worker pool is rebuilt before "
                            "the campaign gives up")
    group.add_argument("--trace", metavar="DIR", default=False,
                       nargs="?", const=True,
                       help="record structured trace events; bare "
                            "--trace writes beside the --journal-dir "
                            "shards, or give an explicit directory "
                            "(inspect with 'repro trace DIR')")
    group.add_argument("--ledger", metavar="PATH", default=None,
                       help="persisted cross-run duration ledger: "
                            "warm-starts the ewma predictor and "
                            "adapts the supervisor heartbeat on "
                            "re-runs")
    group.add_argument("--cache", metavar="DIR", default=None,
                       help="content-addressed compile cache: "
                            "deterministic cells already stored under "
                            "this directory replay without touching "
                            "the backend; fresh clean results are "
                            "published for the next run")
    group.add_argument("--inject-faults", type=float, default=0.0,
                       metavar="RATE",
                       help="chaos-test: inject seeded transient "
                            "faults at this rate per backend call")
    group.add_argument("--fault-seed", type=int, default=0,
                       help="seed for --inject-faults")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DABench-LLM benchmarking CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list simulated platforms")

    workload = _workload_parent()
    resilience = _resilience_parent()

    sub.add_parser("tier1", help="intra-chip Tier-1 profile",
                   parents=[workload])

    sweep = sub.add_parser("sweep-layers", help="Tier-1 layer sweep",
                           parents=[workload])
    sweep.add_argument("--layers", type=int, nargs="+", required=True)

    batch = sub.add_parser("batch-sweep",
                           help="Tier-2 batch deployment sweep",
                           parents=[workload, resilience])
    batch.add_argument("--batches", type=int, nargs="+", required=True)

    scaling = sub.add_parser("scaling", help="Tier-2 scalability sweep",
                             parents=[workload, resilience])
    scaling.add_argument("--configs", nargs="+", required=True,
                         metavar="K=V[,K=V...]",
                         help="one option bundle per configuration")

    grid = sub.add_parser(
        "grid", help="layer x batch grid with checkpoint/resume",
        parents=[workload, resilience])
    grid.add_argument("--layers", type=int, nargs="+", required=True)
    grid.add_argument("--batches", type=int, nargs="+", required=True)
    grid.add_argument("--compile-only", action="store_true",
                      help="skip the run phase (compile-time metrics)")

    campaign = sub.add_parser(
        "campaign",
        help="parallel multi-backend layer x batch campaign",
        parents=[_workload_parent(platform=False), resilience])
    campaign.add_argument("--platforms", nargs="+", required=True,
                          choices=PLATFORMS, metavar="PLATFORM",
                          help="one campaign lane per platform "
                               f"({', '.join(PLATFORMS)})")
    campaign.add_argument("--layers", type=int, nargs="+", required=True)
    campaign.add_argument("--batches", type=int, nargs="+",
                          required=True)
    campaign.add_argument("--compile-only", action="store_true",
                          help="skip the run phase "
                               "(compile-time metrics)")

    trace = sub.add_parser(
        "trace", help="summarize / export a recorded campaign trace")
    trace.add_argument("dir", help="trace directory (the --journal-dir "
                                   "or explicit --trace directory)")
    trace.add_argument("--run", default=None,
                       help="only this campaign run's shards")
    trace.add_argument("--key", default=None,
                       help="only this cell's events, in causal order")
    trace.add_argument("--merged", action="store_true",
                       help="print the canonical merged trace "
                            "(deterministic JSON lines) instead of "
                            "the summary")
    trace.add_argument("--chrome", metavar="FILE", default=None,
                       help="also export Chrome-tracing JSON "
                            "(chrome://tracing, Perfetto)")

    cache = sub.add_parser(
        "cache", help="inspect a compile-cache directory")
    cache.add_argument("action", choices=["stats"],
                       help="stats: entry counts and bytes per tier "
                            "(whole-cell entries and per-stage "
                            "artifacts)")
    cache.add_argument("dir", help="the cache directory (a policy's "
                                   "--cache DIR)")
    return parser


COMMANDS = {
    "platforms": cmd_platforms,
    "tier1": cmd_tier1,
    "sweep-layers": cmd_sweep_layers,
    "batch-sweep": cmd_batch_sweep,
    "scaling": cmd_scaling,
    "grid": cmd_grid,
    "campaign": cmd_campaign,
    "trace": cmd_trace,
    "cache": cmd_cache,
}


def main(argv: Sequence[str] | None = None, *,
         clock: Clock | None = None) -> int:
    """Run one CLI command; returns its exit code.

    ``clock`` is the time source of every policy the command builds
    (``None`` = wall clock): a :class:`~repro.resilience.FakeClock`
    makes retry backoff and deadlines cost no real time.
    """
    args = build_parser().parse_args(argv)
    args.clock = clock
    try:
        return COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
