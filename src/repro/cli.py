"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tune <workload>``      — tune one registered workload. Chain workloads
                             (``G1``..``G12``, ``S1``..``S9``) print the
                             chosen schedule; model workloads (``ffn-base``,
                             ``gqa-32x8``, ...) are partitioned and every
                             fusion group is tuned.
* ``partition <model>``    — partition a model workload and print its fusion
                             groups and the per-anchor rejection diagnostics.
* ``compare <workload>``   — run every baseline on a workload (one Fig. 8 row).
* ``experiments [name]``   — run one or all experiment drivers.
* ``list``                 — list workloads (chains + model zoo), GPUs and
                             experiments.
* ``config show``          — print the effective session config as a schema
                             table (field, value, default, flag, env var).
* ``config dump``          — serialize the effective config to JSON (stdout
                             or ``--out file.json``) for ``--config`` reuse.
* ``cache stats``          — show the persistent schedule cache (entries, hits,
                             per-variant and per-tier breakdowns).
* ``cache clear``          — wipe the persistent schedule cache.
* ``cache warmup``         — batch-tune workloads into the cache up front.
* ``serve``                — run the compile service under a Zipf replay load
                             (N client threads over the zoo serving mix) and
                             persist a telemetry snapshot.
* ``metrics``              — print the last serving session's telemetry
                             snapshot as JSON (includes the tuning-efficiency
                             histograms ``serve.tune.measurements`` and
                             ``serve.model.ranking_accuracy``); ``--prom``
                             renders Prometheus text exposition instead.
* ``trace <workload>``     — run one tune (chain) or whole-model compile
                             (model) with the span tracer on and write a
                             Perfetto-loadable Chrome trace (``--out``) plus
                             raw ``traces.jsonl`` in the cache dir.
                             ``serve --trace`` does the same for a whole
                             serving session.
* ``model train``          — fit the learned cost model from the measurement
                             dataset (optionally measuring workloads first to
                             grow it) and persist the snapshot.
* ``model stats``          — show the measurement dataset and cost-model
                             snapshot (samples, ranking accuracy, features).

Every tuning flag is one :class:`~repro.config.SessionConfig` field: the
flag↔field mapping lives in one declarative table (:data:`FLAG_TABLE`), and
each verb attaches the subset it supports. Verbs that tune accept
``--config file.json`` (a ``config dump`` artifact); the precedence is
defaults < ``--config`` file < ``REPRO_*`` environment < explicit flags.

Every verb that tunes, compiles, serves or traces runs through one
:class:`~repro.session.Session`: it owns the schedule cache, the cost
model, the compile service and the trace lifecycle (closing it persists
the model snapshot and ``traces.jsonl``), so the handlers here only turn
flags into a config and print results.

``tune`` consults the persistent schedule cache by default: the second run
for the same workload/GPU is a pure lookup. Disable with ``--no-cache``;
point at a non-default store with ``--cache-dir`` (or ``$REPRO_CACHE_DIR``).

``tune`` and ``cache warmup`` accept ``--strategy`` (``evolutionary``,
``random``, ``exhaustive``, ``annealing``) to pick the search strategy over
the pruned space, and ``tune`` accepts ``--workers`` to parallelize the
per-round top-n measurements; cached schedules are keyed per strategy.
``tune --exec-backend`` picks the numeric execution engine
(``compiled``/``vectorized``/``scalar``/``auto``) and ``tune --verify best|all``
executes tuned schedules against the unfused reference.

``tune --cost-model`` turns on learned-cost-model guidance: candidates are
re-ranked by the model and only the predicted top ``--topk`` are hardware-
measured each round (falling back to measure-everything while the model is
sample-starved). The model and its measurement dataset live next to the
schedule cache and improve across runs; guided schedules are cached under a
distinct ``+topk{k}`` variant key.

Examples::

    python -m repro tune S2 --gpu a100
    python -m repro tune G4 --strategy annealing --workers 4
    python -m repro tune G4 --cost-model --topk 2
    python -m repro config dump --seed 3 --out run.json
    python -m repro tune G4 --config run.json
    python -m repro model train G1 G2 S1
    python -m repro model stats
    python -m repro compare G4 --gpu rtx3080 --ansor-trials 256
    python -m repro experiments fig7
    python -m repro cache warmup G1 G2 S1 --jobs 4 --strategy exhaustive
    python -m repro cache stats
    python -m repro serve --clients 32 --requests 8
    python -m repro metrics
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os

from repro.baselines import default_baselines
from repro.cache import ScheduleCache
from repro.codegen import EXEC_BACKENDS, compile_schedule
from repro.config import (
    DYNAMIC_MODES,
    FLAT_FIELDS,
    VARIANTS,
    VERIFY_MODES,
    SessionConfig,
    apply_env,
    env_var_for,
    field_paths,
)
from repro.gpu.specs import by_name
from repro.ir.chain import ComputeChain
from repro.search.engine.strategy import strategy_names
from repro.session import Session
from repro.utils import fmt_time, format_table
from repro.workloads import (
    ATTENTION_CONFIGS,
    GEMM_CHAIN_CONFIGS,
    get_workload,
    iter_workloads,
)

__all__ = [
    "main",
    "build_parser",
    "workload_by_name",
    "FLAG_TABLE",
    "FLAGS_BY_PATH",
    "add_config_flags",
    "config_from_args",
]


# -- the declarative flag <-> config-field table -------------------------------


def _csv(text: str) -> tuple[str, ...]:
    """``"m,n"`` → ``("m", "n")`` for tuple-valued flags."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


@dataclasses.dataclass(frozen=True)
class FlagSpec:
    """One row of :data:`FLAG_TABLE`: a CLI flag bound to a config field.

    Attributes:
        path: The dotted :class:`~repro.config.SessionConfig` path the flag
            sets (``"search.seed"``).
        flag: The canonical long option (verbs may attach it under an alias,
            e.g. ``serve`` exposes ``serve.workers`` as plain ``--workers``).
        help: The option help text.
        kind: ``"value"`` for normal options, ``"true"``/``"false"`` for
            presence flags (``--cost-model`` sets True, ``--no-cache`` sets
            False). Presence flags default to ``None`` = "not passed", never
            to a real value, so precedence stays defaults < file < env < flag.
        type: Optional ``argparse`` type callable for value flags.
        choices: Optional choices tuple, or a zero-arg callable resolved at
            parser-build time (strategies can be registered at runtime).
    """

    path: str
    flag: str
    help: str
    kind: str = "value"
    type: object = None
    choices: object = None


#: One row per ``SessionConfig`` leaf field. The parity test asserts this
#: table and :func:`repro.config.field_paths` cover each other exactly, so a
#: new config field without a flag (or a flag bound to a dead field) fails CI.
FLAG_TABLE: tuple[FlagSpec, ...] = (
    FlagSpec("gpu", "--gpu", "target GPU (a100, rtx3080)"),
    FlagSpec("search.variant", "--variant", choices=VARIANTS,
             help="tuner variant (cache keys include it)"),
    FlagSpec("search.strategy", "--strategy", choices=strategy_names,
             help="search strategy over the pruned space "
                  "(cached schedules are keyed per strategy)"),
    FlagSpec("search.population_size", "--population", type=int,
             help="Algorithm-1 population size per round. Caution under "
                  "warmup: cached entries are keyed by workload, so later "
                  "`tune` runs reuse whatever quality this budget found"),
    FlagSpec("search.top_n", "--top-n", type=int,
             help="candidates measured per search round"),
    FlagSpec("search.epsilon", "--epsilon", type=float,
             help="relative-improvement convergence threshold"),
    FlagSpec("search.max_rounds", "--max-rounds", type=int,
             help="Algorithm-1 round limit (when set below the min-rounds "
                  "floor, the floor is lowered to match)"),
    FlagSpec("search.min_rounds", "--min-rounds", type=int,
             help="rounds to run before convergence may stop the search"),
    FlagSpec("search.seed", "--seed", type=int,
             help="search seed. Cached schedules are keyed by workload, "
                  "not seed — pass --no-cache to force a fresh search"),
    FlagSpec("search.workers", "--workers", type=int,
             help="measurement thread-pool width per search round "
                  "(results are deterministic for any width)"),
    FlagSpec("search.cost_model", "--cost-model", kind="true",
             help="learned-cost-model guidance: re-rank candidates with the "
                  "persistent model (trained on past measurements) and "
                  "hardware-measure only the predicted top --topk per round"),
    FlagSpec("search.measure_topk", "--topk", type=int,
             help="measurements per round under --cost-model, default 2 "
                  "(guided schedules cache under a +topk{k} key)"),
    FlagSpec("exec.backend", "--exec-backend", choices=EXEC_BACKENDS,
             help="numeric execution engine for tuned schedules: compiled "
                  "(native C kernel), vectorized (batched tile program), "
                  "scalar (per-cell interpreter), or auto (compiled when "
                  "available and worthwhile, then vectorized, then scalar)"),
    FlagSpec("exec.verify", "--verify", choices=VERIFY_MODES,
             help="numeric verification: best = execute the winning schedule "
                  "against the unfused reference; all = execute every "
                  "measured candidate (wrong ones count as launch failures)"),
    FlagSpec("exec.dynamic", "--dynamic", choices=DYNAMIC_MODES,
             help="dynamic-shape handling: buckets = tune once per "
                  "power-of-two sequence-length bucket (at the bucket "
                  "ceiling) and serve every in-bucket length from that "
                  "schedule, tail tiles masked"),
    FlagSpec("exec.dynamic_loops", "--dynamic-loops", type=_csv,
             help="comma-separated loop names treated as dynamic under "
                  "--dynamic buckets (default: m)"),
    FlagSpec("cache.enabled", "--no-cache", kind="false",
             help="skip the persistent schedule cache"),
    FlagSpec("cache.dir", "--cache-dir",
             help="cache directory (default: $REPRO_CACHE_DIR or "
                  "~/.cache/mcfuser-repro)"),
    FlagSpec("serve.workers", "--serve-workers", type=int,
             help="service tune worker-pool width"),
    FlagSpec("serve.queue_limit", "--queue-limit", type=int,
             help="service admission queue depth before load shedding"),
    FlagSpec("obs.trace", "--trace", kind="true",
             help="trace the whole session (admission through kernel "
                  "execution) and write serve_trace.json + traces.jsonl "
                  "to the cache dir"),
)

FLAGS_BY_PATH: dict[str, FlagSpec] = {spec.path: spec for spec in FLAG_TABLE}

#: dotted path -> flat name (``FLAT_FIELDS`` reversed; both are bijections).
_PATH_TO_FLAT: dict[str, str] = {path: name for name, path in FLAT_FIELDS.items()}


def _dest_of(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def add_config_flags(
    parser: argparse.ArgumentParser,
    paths: tuple[str, ...],
    aliases: dict[str, str] | None = None,
) -> None:
    """Attach the table rows for ``paths`` to ``parser``, plus ``--config``.

    Every flag defaults to ``None`` ("not passed"), so
    :func:`config_from_args` can layer explicit flags over the config file
    and environment. ``aliases`` renames a flag for one verb (``serve``
    exposes ``serve.workers`` as its historical ``--workers``, ``cache
    warmup`` as ``--jobs``).
    """
    aliases = aliases or {}
    dests: list[tuple[str, str]] = []
    for path in paths:
        spec = FLAGS_BY_PATH[path]
        flag = aliases.get(path, spec.flag)
        dest = _dest_of(flag)
        if spec.kind == "value":
            choices = spec.choices() if callable(spec.choices) else spec.choices
            parser.add_argument(flag, dest=dest, default=None, type=spec.type,
                                choices=choices, help=spec.help)
        else:
            parser.add_argument(flag, dest=dest, default=None,
                                action="store_const",
                                const=spec.kind == "true", help=spec.help)
        dests.append((path, dest))
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="load a SessionConfig JSON file (see `repro "
                             "config dump`); explicit flags override it")
    parser.set_defaults(_config_dests=dests)


def config_from_args(
    args: argparse.Namespace, skip: tuple[str, ...] = ()
) -> SessionConfig:
    """The effective :class:`SessionConfig` for one parsed invocation.

    Precedence: defaults < ``--config`` file < ``REPRO_*`` environment <
    explicit flags. ``skip`` excludes paths a verb resolves itself (``tune``
    owns the ``--cost-model``/``--topk`` coupling).

    One historical quirk is preserved: ``--max-rounds`` below the
    ``min_rounds`` floor lowers the floor to match (a cap of 2 means "run 2
    rounds", not a validation error), unless ``--min-rounds`` is explicit.
    """
    if getattr(args, "config", None):
        base = SessionConfig.load(args.config)
    else:
        base = SessionConfig()
    cfg = apply_env(base)
    explicit: dict[str, object] = {}
    for path, dest in getattr(args, "_config_dests", []):
        if path in skip:
            continue
        value = getattr(args, dest, None)
        if value is not None:
            explicit[path] = value
    cap = explicit.get("search.max_rounds")
    if (cap is not None and "search.min_rounds" not in explicit
            and cap < cfg.search.min_rounds):
        explicit["search.min_rounds"] = cap
    if not explicit:
        return cfg
    return cfg.evolve(**{_PATH_TO_FLAT[p]: v for p, v in explicit.items()})


#: The flag subset each tuning verb attaches (paths into FLAG_TABLE).
_TUNE_PATHS = (
    "gpu", "search.variant", "search.strategy", "search.population_size",
    "search.top_n", "search.epsilon", "search.max_rounds",
    "search.min_rounds", "search.seed", "search.workers",
    "search.cost_model", "search.measure_topk", "exec.backend",
    "exec.verify", "exec.dynamic", "exec.dynamic_loops", "cache.enabled",
    "cache.dir",
)
_WARMUP_PATHS = (
    "gpu", "search.variant", "search.strategy", "search.population_size",
    "search.top_n", "search.epsilon", "search.max_rounds",
    "search.min_rounds", "search.seed", "search.workers", "serve.workers",
    "cache.dir",
)
_SERVE_PATHS = (
    "gpu", "search.seed", "search.population_size", "search.max_rounds",
    "search.min_rounds", "exec.dynamic", "cache.enabled", "cache.dir",
    "serve.workers", "serve.queue_limit", "obs.trace",
)
_MODEL_TRAIN_PATHS = (
    "gpu", "search.seed", "search.strategy", "search.workers", "cache.dir",
)
_TRACE_PATHS = (
    "gpu", "search.seed", "search.strategy", "search.workers",
    "exec.backend", "cache.enabled", "cache.dir",
)


# -- shared helpers ------------------------------------------------------------


def _metrics_path(cfg: SessionConfig) -> str:
    """Where ``serve`` persists (and ``metrics`` reads) the telemetry snapshot."""
    from repro.serving.telemetry import SNAPSHOT_FILENAME

    return os.path.join(cfg.cache.resolved_dir(), SNAPSHOT_FILENAME)


def workload_by_name(name: str) -> ComputeChain:
    """Resolve a chain-level workload name (``G*``, ``S*``) to its chain."""
    spec = get_workload(name)
    if spec.level != "chain":
        raise KeyError(
            f"workload {spec.name!r} is a model; use `repro tune {spec.name}` "
            "or `repro partition` instead"
        )
    return spec.build()


# -- tune ----------------------------------------------------------------------


def _tune_config(args: argparse.Namespace) -> SessionConfig:
    """The tune verb's config, resolving the --cost-model/--topk coupling.

    Historically ``--topk`` only counts under cost-model guidance: plain
    ``tune --topk 3`` stays a full-measurement run. Guidance turns on via
    ``--cost-model``, or a config file/env that set ``search.cost_model``
    or a positive ``search.measure_topk``.
    """
    cfg = config_from_args(
        args, skip=("search.cost_model", "search.measure_topk")
    )
    guided = bool(args.cost_model) or cfg.search.cost_model \
        or cfg.search.measure_topk > 0
    if guided:
        topk = args.topk if args.topk is not None \
            else (cfg.search.measure_topk or 2)
        return cfg.evolve(cost_model=True, measure_topk=topk)
    return cfg


def _tune_model(args: argparse.Namespace, session: Session) -> int:
    """Partition a model workload and tune its fusion groups through the
    session's compile service (identical shapes coalesce onto one tune)."""
    graph = get_workload(args.workload).build()
    ticket = session.service.submit_model(graph)
    partition = ticket.partition
    print(f"model: {graph}")
    print(f"fusion groups: {len(partition.subgraphs)}  "
          f"residual ops: {len(partition.rest)}  "
          f"rejections: {partition.rejection_reasons() or 'none'}")
    rows = []
    for sg, result in zip(partition.subgraphs, ticket.results()):
        report = result.report
        rows.append([
            sg.output,
            sg.kind,
            f"{report.search.num_measurements} meas"
            if result.source == "tuned" else result.source,
            report.best_candidate.describe(),
            fmt_time(report.best_time),
        ])
    print(format_table(["group", "kind", "tuning", "best schedule", "kernel"], rows))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    cfg = _tune_config(args)
    if get_workload(args.workload).level == "model":
        with Session(cfg) as session:
            return _tune_model(args, session)
    session = Session(cfg)
    chain = workload_by_name(args.workload)
    report = session.tune(chain)
    print(f"workload: {chain}")
    if report.bucket:
        ceilings = ", ".join(f"{l}<={c}" for l, c in sorted(report.bucket.items()))
        kind = "bucket hit — ceiling schedule rebuilt at this shape" if (
            report.bucket_hit
        ) else ("exact hit" if report.cache_hit else "tuned at the bucket ceiling")
        print(f"bucket: {ceilings} ({kind})")
    if report.cache_hit:
        print("cache: hit — schedule restored, no search performed")
    else:
        print(f"space: {report.pruning.after_rule4} candidates "
              f"(from {report.pruning.original:,})")
    print(f"best:  {report.best_candidate.describe()}")
    print(f"time:  {fmt_time(report.best_time)}  ({report.tflops:.1f} TFLOP/s)")
    print(f"tuned in {fmt_time(report.tuning_seconds)} "
          f"({report.search.num_measurements} measurements, "
          f"{report.search.rounds} rounds, {report.strategy} strategy, "
          f"{report.workers} worker(s))")
    verified = "verified against reference" if report.verified else "unverified"
    print(f"exec:  {report.exec_backend} backend ({verified})")
    cost_model = session.cost_model
    session.close()  # refit + persist the model snapshot, write the trace
    if cost_model is not None:
        acc = cost_model.accuracy
        acc_txt = f"{acc:.0%}" if acc is not None and acc == acc else "n/a"
        guided = report.search.model_rounds
        print(f"model: top-{cfg.search.measure_topk} guidance in "
              f"{guided}/{report.search.rounds} "
              f"round(s), {len(cost_model.dataset)} dataset sample(s), "
              f"ranking accuracy {acc_txt}")
    print()
    print(report.best_schedule.pretty())
    if args.show_ptx:
        print()
        print(compile_schedule(report.best_schedule, session.gpu).ptx)
    return 0


# -- config --------------------------------------------------------------------


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def cmd_config_show(args: argparse.Namespace) -> int:
    """Print the effective config as a schema table plus derived keys."""
    cfg = config_from_args(args)
    defaults = SessionConfig()
    rows = [
        [
            path,
            _fmt_value(cfg.get(path)),
            _fmt_value(defaults.get(path)),
            FLAGS_BY_PATH[path].flag,
            env_var_for(path),
        ]
        for path in field_paths()
    ]
    print(format_table(["field", "value", "default", "flag", "env"], rows))
    print(f"variant key:  {cfg.variant_key}")
    print(f"content hash: {cfg.content_hash()}")
    print(f"cache dir:    {cfg.cache.resolved_dir()}")
    return 0


def cmd_config_dump(args: argparse.Namespace) -> int:
    """Serialize the effective config to JSON for later ``--config`` runs."""
    cfg = config_from_args(args)
    text = cfg.to_json()
    if args.out:
        cfg.save(args.out)
        print(f"config written to {args.out}  (hash {cfg.content_hash()[:12]})")
    else:
        print(text)
    return 0


# -- compare / experiments / partition / list ----------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = config_from_args(args)
    gpu = by_name(cfg.gpu)
    chain = workload_by_name(args.workload)
    rows = []
    pytorch_time = None
    for baseline in default_baselines(ansor_trials=args.ansor_trials):
        result = baseline.run_chain(chain, gpu, seed=cfg.search.seed)
        if result is None:
            rows.append([baseline.name, "-", "-", "-"])
            continue
        if baseline.name == "PyTorch":
            pytorch_time = result.time
        speedup = f"{pytorch_time / result.time:.2f}x" if pytorch_time else "-"
        rows.append(
            [baseline.name, fmt_time(result.time), speedup, fmt_time(result.tuning_seconds)]
        )
    print(f"{chain} on {gpu.name}")
    print(format_table(["system", "time", "vs PyTorch", "tuning"], rows))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    if args.name:
        ALL_EXPERIMENTS[args.name].main()
    else:
        for module in ALL_EXPERIMENTS.values():
            module.main()
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    """Partition one model workload and print groups + rejection reasons."""
    from repro.frontend.partition import partition_graph

    gpu = by_name(config_from_args(args).gpu)
    spec = get_workload(args.workload)
    if spec.level != "model":
        print(f"{spec.name} is a chain-level workload; nothing to partition")
        return 1
    graph = spec.build()
    partition = partition_graph(graph, gpu, mbci_only=not args.all_chains)
    print(f"{graph} on {gpu.name}")
    if partition.subgraphs:
        rows = [
            [
                sg.output,
                sg.kind,
                f"b={sg.chain.batch} " + ",".join(f"{l}={s}" for l, s in sg.chain.loops.items()),
                len(sg.nodes),
                f"{sg.chain.arithmetic_intensity():.0f}",
            ]
            for sg in partition.subgraphs
        ]
        print(format_table(["group", "kind", "shape", "ops", "phi"], rows))
    else:
        print("no fusion groups")
    if partition.rejected:
        print()
        print("rejected anchors:")
        rows = [[r.anchor, r.reason, r.detail] for r in partition.rejected]
        print(format_table(["anchor", "reason", "detail"], rows))
    return 0


def cmd_list(_: argparse.Namespace) -> int:
    print("GEMM chains (Table II):")
    for name, cfg in GEMM_CHAIN_CONFIGS.items():
        print(f"  {name:4s} batch={cfg[0]} M={cfg[1]} N={cfg[2]} K={cfg[3]} H={cfg[4]}")
    print("attention modules (Table III):")
    for name, cfg in ATTENTION_CONFIGS.items():
        print(f"  {name:4s} heads={cfg.heads} M={cfg.m} N={cfg.n} K={cfg.k} H={cfg.h}"
              f"  ({cfg.network})")
    print("model zoo (general-DAG partitioner):")
    for spec in iter_workloads(level="model"):
        print(f"  {spec.name:14s} [{spec.family}] {spec.description}")
    print("GPUs: a100, rtx3080")
    print(f"search strategies: {', '.join(strategy_names())}")
    from repro.experiments import ALL_EXPERIMENTS

    print(f"experiments: {', '.join(ALL_EXPERIMENTS)}")
    return 0


# -- cache ---------------------------------------------------------------------


def cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.serving.telemetry import load_snapshot

    cfg = config_from_args(args)
    cache = ScheduleCache(cfg.cache.resolved_dir())
    stats = cache.stats()
    print(f"cache: {stats.path}")
    print(f"entries: {stats.disk_entries}")
    print(f"total hits: {stats.total_hits}   total misses: {stats.total_misses}")
    entries = cache.entries()
    if entries:
        rows = [
            [
                e.workload,
                e.gpu,
                e.variant,
                f"{e.expr}",
                fmt_time(e.best_time),
                fmt_time(e.tuning_seconds),
                e.hits,
            ]
            for e in entries
        ]
        print()
        print(format_table(
            ["workload", "gpu", "variant", "expr", "kernel", "tuned in", "hits"], rows
        ))
        # per-variant rollup: how each (tuner variant + strategy) key space
        # is populated and how much simulated tuning it cost to fill.
        by_variant: dict[str, list] = {}
        for e in entries:
            agg = by_variant.setdefault(e.variant, [0, 0, 0.0])
            agg[0] += 1
            agg[1] += e.hits
            agg[2] += e.tuning_seconds
        print()
        print("per-variant:")
        print(format_table(
            ["variant", "entries", "hits", "tuning cost"],
            [
                [variant, n, hits, fmt_time(cost)]
                for variant, (n, hits, cost) in sorted(by_variant.items())
            ],
        ))
    snapshot = load_snapshot(_metrics_path(cfg))
    if snapshot is not None:
        counters = snapshot.get("counters", {})
        tiers = [
            [tier, counters.get(f"serve.hits.{tier}", 0)]
            for tier in ("hot", "bucket")
        ]
        served = sum(n for _, n in tiers)
        requests = counters.get("serve.requests", 0)
        print()
        print("per-tier (last serving session):")
        print(format_table(["tier", "hits"], tiers))
        rate = f"{served / requests:.0%}" if requests else "-"
        print(f"requests: {requests}   tier hit rate: {rate}")
        print(f"coalesced: {counters.get('serve.coalesced', 0)}   "
              f"tunes: {counters.get('serve.tunes', 0)}   "
              f"shed: {counters.get('serve.shed', 0)}")
        hists = snapshot.get("histograms", {})
        meas = hists.get("serve.tune.measurements") or {}
        if meas.get("count"):
            line = (f"measurements/tune: {meas['mean']:.1f} avg "
                    f"over {meas['count']} tune(s)")
            acc = hists.get("serve.model.ranking_accuracy") or {}
            if acc.get("count"):
                line += f"   model ranking accuracy: {acc['mean']:.0%}"
            print(line)
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    cache = ScheduleCache(config_from_args(args).cache.resolved_dir())
    n = cache.stats().disk_entries
    cache.clear()
    print(f"cleared {n} cached schedule(s) from {cache.path}")
    return 0


def cmd_cache_warmup(args: argparse.Namespace) -> int:
    names = list(args.workloads)
    if args.all or not names:
        names = [*GEMM_CHAIN_CONFIGS, *ATTENTION_CONFIGS]
    chains = [workload_by_name(name) for name in names]
    with Session(config_from_args(args)) as session:
        results = session.tune_all(chains)
        firsts = {}
        for r in results:
            firsts.setdefault(r.signature, r)
        cached = sum(r.source in ("hot", "bucket") for r in firsts.values())
        seconds = sum(r.report.tuning_seconds for r in results if r.source == "tuned")
        print(f"warmed {len(firsts)} unique workload(s) "
              f"({len(results) - len(firsts)} duplicate(s), {cached} already cached) "
              f"in {fmt_time(seconds)} simulated tuning time")
        cache = session.cache
        print(f"cache now holds {cache.stats().disk_entries} entries at {cache.path}")
    return 0


# -- serve / metrics -----------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile service under the Zipf replay load generator."""
    from repro.experiments import serve_load
    from repro.obs import TRACE_FILENAME, save_chrome_trace
    from repro.serving.telemetry import save_snapshot

    cfg = config_from_args(args)
    budget_flags = (args.population, args.max_rounds, args.min_rounds)
    if args.quick and not args.config and all(v is None for v in budget_flags):
        cfg = cfg.evolve(**serve_load.QUICK_TUNER_KWARGS)
    directory = cfg.cache.resolved_dir()
    with Session(cfg) as session:
        result = serve_load.run(
            clients=args.clients,
            requests_per_client=args.requests,
            workload_names=args.workloads or None,
            signatures=args.signatures,
            zipf_s=args.zipf,
            cache=session.cache,
            quick=args.quick,
            lengths=args.lengths,
            config=cfg,
        )
        spans = session.tracer.recorder.spans() if cfg.obs.trace else []
        if spans:
            chrome = save_chrome_trace(
                spans, os.path.join(directory, "serve_trace.json")
            )
            print(f"{len(spans)} span(s): chrome trace at {chrome}, raw spans "
                  f"at {os.path.join(directory, TRACE_FILENAME)}")
    print(result.table())
    m = result.meta
    for line in serve_load.summary_lines(m):
        print(line)
    path = save_snapshot(m["snapshot"], _metrics_path(cfg))
    print(f"metrics snapshot written to {path}  (view with `repro metrics`)")
    clean = m["reconciled"] and not m["errors"] and not m["failed_requests"]
    return 0 if clean else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    """Print the persisted telemetry snapshot of the last serving session."""
    from repro.serving.telemetry import load_snapshot

    cfg = config_from_args(args)
    path = _metrics_path(cfg)
    snapshot = load_snapshot(path)
    if snapshot is None:
        print(f"no metrics snapshot at {path}; run `repro serve` first")
        return 1
    if args.prom:
        from repro.obs import prometheus_text

        print(prometheus_text(snapshot), end="")
        return 0
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


# -- model ---------------------------------------------------------------------


def cmd_model_train(args: argparse.Namespace) -> int:
    """Fit (and persist) the learned cost model from the measurement dataset.

    With workload names, each is tuned first — uncached, full measurement,
    model attached — so its (features, measured time) pairs grow the
    dataset before the fit. The model lives in the cache dir even though
    the schedule cache is off; closing the session saves the snapshot.
    """
    from repro.search.cost_model import default_model_path

    cfg = config_from_args(args).evolve(cost_model=True, cache_enabled=False)
    with Session(cfg) as session:
        model = session.cost_model
        for name in args.workloads:
            report = session.tune(workload_by_name(name))
            print(f"measured {name}: {report.search.num_measurements} samples "
                  f"({fmt_time(report.tuning_seconds)} simulated tuning)")
        if not model.fit(force=True):
            print(f"dataset too small to fit: {len(model.dataset)} sample(s), "
                  f"need {model.min_samples} — tune with --cost-model or pass "
                  f"workloads to `model train` to grow it")
            return 1
    acc = model.accuracy
    acc_txt = f"{acc:.0%}" if acc is not None and acc == acc else "n/a"
    print(f"fitted on {model.samples} sample(s); "
          f"holdout pairwise ranking accuracy {acc_txt}")
    print(f"model snapshot written to {default_model_path(cfg.cache.resolved_dir())}")
    return 0


def cmd_model_stats(args: argparse.Namespace) -> int:
    """Show the measurement dataset and the persisted model snapshot."""
    from repro.search.cost_model import (
        LearnedCostModel,
        MeasurementDataset,
        default_dataset_path,
        default_model_path,
    )
    from repro.search.features import FEATURE_NAMES, FEATURE_VERSION

    cfg = config_from_args(args)
    directory = cfg.cache.resolved_dir()
    dataset = MeasurementDataset(default_dataset_path(directory))
    print(f"dataset: {default_dataset_path(directory)}")
    print(f"samples: {len(dataset)}"
          + (f"   (skipped {dataset.corrupt_lines} corrupt line(s))"
             if dataset.corrupt_lines else ""))
    per_workload: dict[str, int] = {}
    for record in dataset.records():
        name = record.get("workload") or "?"
        per_workload[name] = per_workload.get(name, 0) + 1
    if per_workload:
        print(format_table(
            ["workload", "samples"],
            [[name, n] for name, n in sorted(per_workload.items())],
        ))
    model = LearnedCostModel.load(default_model_path(directory), dataset=dataset)
    if model is None:
        print(f"model: no snapshot at {default_model_path(directory)} "
              "(run `repro model train` or `repro tune --cost-model`)")
        return 0
    acc = model.accuracy
    acc_txt = f"{acc:.0%}" if acc is not None and acc == acc else "n/a"
    print(f"model: fitted on {model.samples} sample(s), "
          f"ranking accuracy {acc_txt}, "
          f"{len(FEATURE_NAMES)} features (v{FEATURE_VERSION})")
    return 0


# -- trace ---------------------------------------------------------------------


def _trace_summary_lines(spans, coverage: float) -> list[str]:
    """Per-span-name rollup + coverage line for traced runs."""
    by_span: dict[str, list[float]] = {}
    for r in spans:
        by_span.setdefault(r.name, []).append(r.duration)
    rows = [
        [name, len(durs), fmt_time(sum(durs)), fmt_time(max(durs))]
        for name, durs in sorted(
            by_span.items(), key=lambda kv: -sum(kv[1])
        )
    ]
    lines = [format_table(["span", "count", "total", "max"], rows)]
    lines.append(f"root-span coverage by direct children: {coverage:.1%}")
    return lines


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace one workload end to end and export a Chrome-trace file.

    Chain workloads run one tune; model workloads run a full
    ``compile_model`` (partition -> per-group tunes -> residual lowering
    -> simulated execution). Closing the traced session also persists the
    raw spans as JSONL in the cache dir for offline analysis.
    """
    from repro.obs import TRACE_FILENAME, save_chrome_trace, trace_coverage

    cfg = config_from_args(args).evolve(trace=True)
    spec = get_workload(args.workload)
    with Session(cfg) as session:
        if spec.level == "model":
            result = session.compile(spec.build())
            headline = (
                f"{args.workload}: {fmt_time(result.time)} model time, "
                f"{result.mbci_subgraphs} fused sub-graph(s), "
                f"{fmt_time(result.tuning_seconds)} simulated tuning"
            )
        else:
            report = session.tune(spec.build())
            headline = (
                f"{args.workload}: best {fmt_time(report.best_time)}, "
                f"{report.search.num_measurements} measurement(s), "
                f"{fmt_time(report.tuning_seconds)} simulated tuning"
            )
        recorder = session.tracer.recorder
        spans = recorder.spans()
    out = save_chrome_trace(spans, args.out)
    print(headline)
    for line in _trace_summary_lines(spans, trace_coverage(spans)):
        print(line)
    if recorder.dropped:
        print(f"flight recorder dropped {recorder.dropped} span(s) "
              "(ring buffer full)")
    print(f"chrome trace written to {out}  "
          "(load in https://ui.perfetto.dev or chrome://tracing)")
    print(f"raw spans written to "
          f"{os.path.join(cfg.cache.resolved_dir(), TRACE_FILENAME)}")
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="tune one workload with MCFuser")
    p_tune.add_argument("workload")
    add_config_flags(p_tune, _TUNE_PATHS)
    p_tune.add_argument("--show-ptx", action="store_true")
    p_tune.set_defaults(fn=cmd_tune)

    p_cfg = sub.add_parser(
        "config", help="show or dump the effective session config"
    )
    cfg_sub = p_cfg.add_subparsers(dest="config_command", required=True)

    p_show = cfg_sub.add_parser(
        "show",
        help="print the effective config (defaults < --config file < "
             "REPRO_* env < flags) as a schema table",
    )
    add_config_flags(p_show, tuple(field_paths()))
    p_show.set_defaults(fn=cmd_config_show)

    p_dump = cfg_sub.add_parser(
        "dump", help="serialize the effective config to JSON for --config"
    )
    add_config_flags(p_dump, tuple(field_paths()))
    p_dump.add_argument("--out", default=None,
                        help="write to this path instead of stdout")
    p_dump.set_defaults(fn=cmd_config_dump)

    p_part = sub.add_parser(
        "partition", help="partition a model workload and show fusion groups"
    )
    p_part.add_argument("workload")
    add_config_flags(p_part, ("gpu",))
    p_part.add_argument("--all-chains", action="store_true",
                        help="keep compute-bound chains too (mbci_only=False)")
    p_part.set_defaults(fn=cmd_partition)

    p_cmp = sub.add_parser("compare", help="run all baselines on one workload")
    p_cmp.add_argument("workload")
    add_config_flags(p_cmp, ("gpu", "search.seed"))
    p_cmp.add_argument("--ansor-trials", type=int, default=1000)
    p_cmp.set_defaults(fn=cmd_compare)

    p_exp = sub.add_parser("experiments", help="run experiment drivers")
    p_exp.add_argument("name", nargs="?", default=None)
    p_exp.set_defaults(fn=cmd_experiments)

    p_list = sub.add_parser("list", help="list workloads, GPUs and experiments")
    p_list.set_defaults(fn=cmd_list)

    p_cache = sub.add_parser("cache", help="inspect and manage the schedule cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_stats = cache_sub.add_parser("stats", help="show cache contents and hit counters")
    add_config_flags(p_stats, ("cache.dir",))
    p_stats.set_defaults(fn=cmd_cache_stats)

    p_clear = cache_sub.add_parser("clear", help="delete every cached schedule")
    add_config_flags(p_clear, ("cache.dir",))
    p_clear.set_defaults(fn=cmd_cache_clear)

    p_warm = cache_sub.add_parser(
        "warmup",
        help="tune workloads into the cache through the compile service "
             "(one tune per distinct signature, --jobs worker threads)",
    )
    p_warm.add_argument("workloads", nargs="*",
                        help="workload names (G1..G12, S1..S9); empty or --all = all")
    p_warm.add_argument("--all", action="store_true")
    add_config_flags(p_warm, _WARMUP_PATHS, aliases={"serve.workers": "--jobs"})
    p_warm.set_defaults(fn=cmd_cache_warmup)

    p_serve = sub.add_parser(
        "serve",
        help="run the compile service under a Zipf replay load and report "
             "throughput/latency/hit-rate",
    )
    p_serve.add_argument("--clients", type=int, default=32,
                         help="concurrent client threads")
    p_serve.add_argument("--requests", type=int, default=8,
                         help="requests each client issues")
    p_serve.add_argument("--signatures", type=int, default=8,
                         help="distinct workload signatures in the default mix")
    p_serve.add_argument("--workloads", nargs="*", default=None,
                         help="explicit chain-level workload mix "
                              "(overrides --signatures)")
    p_serve.add_argument("--zipf", type=float, default=1.1,
                         help="Zipf exponent of the request skew")
    p_serve.add_argument("--lengths", type=int, default=0,
                         help="ragged-shape mix: number of distinct sequence "
                              "lengths to sample (0 = fixed-shape mix); "
                              "pairs naturally with --dynamic buckets")
    p_serve.add_argument("--quick", action="store_true",
                         help="CI smoke mode: fewer clients/requests, reduced "
                              "tune budget")
    add_config_flags(p_serve, _SERVE_PATHS,
                     aliases={"serve.workers": "--workers"})
    p_serve.set_defaults(fn=cmd_serve)

    p_model = sub.add_parser(
        "model", help="train and inspect the learned tuning cost model"
    )
    model_sub = p_model.add_subparsers(dest="model_command", required=True)

    p_mtrain = model_sub.add_parser(
        "train",
        help="fit the cost model from the measurement dataset and persist it",
    )
    p_mtrain.add_argument("workloads", nargs="*",
                          help="chain workloads to measure into the dataset "
                               "first (uncached, full measurement)")
    add_config_flags(p_mtrain, _MODEL_TRAIN_PATHS)
    p_mtrain.set_defaults(fn=cmd_model_train)

    p_mstats = model_sub.add_parser(
        "stats", help="show the measurement dataset and model snapshot"
    )
    add_config_flags(p_mstats, ("cache.dir",))
    p_mstats.set_defaults(fn=cmd_model_stats)

    p_metrics = sub.add_parser(
        "metrics", help="print the last serving session's telemetry snapshot"
    )
    p_metrics.add_argument("--prom", action="store_true",
                           help="Prometheus text exposition format instead "
                                "of JSON")
    add_config_flags(p_metrics, ("cache.dir",))
    p_metrics.set_defaults(fn=cmd_metrics)

    p_trace = sub.add_parser(
        "trace",
        help="trace one workload end to end and export a Chrome-trace file",
    )
    p_trace.add_argument("workload",
                         help="chain workload (one tune) or model workload "
                              "(full compile_model)")
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome-trace output path (Perfetto-loadable)")
    add_config_flags(p_trace, _TRACE_PATHS)
    p_trace.set_defaults(fn=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
