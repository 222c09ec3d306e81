"""The traced run: per-layer time, counts and memory.

Spans are recorded from this file only, around calls into each layer's
public entry points (nothing under ``src/`` is instrumented for the
benchmark).  The recorder is :class:`repro.obs.trace.Tracer`; spans stay
in memory and are written to ``.perfbench/results/`` when the run ends.

A traced run of workload W makes, in order:

1. the untraced ``op_s`` of W, the base of ``trace.coverage`` and
   ``trace.overhead``: the median of this checkout's recorded end-to-end
   runs of W, or, when there are none, one operation made here as the
   end-to-end run makes it;
2. a traced replica of W's operation built from library calls;
3. probes of every layer on the input that exercises it (the paper
   corpus for parsing and analysis, the backbone for routing and sweep,
   net5 for serving, fresh interpreters for the CLI);
4. a separate ``tracemalloc`` pass giving each layer's peak memory on a
   small input, so tracing allocations never distorts the timings.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import json
import os
import shutil
import tracemalloc
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from perfbench import inputs, workloads
from perfbench.harness import Bench, NoiseProbe, http_json, median
from perfbench.workloads import Outcome, Sizing

LAYERS = (
    "cli", "ios", "diag", "ingest", "model", "core", "exec", "routing", "sweep", "serve",
)

CORE_STAGES = (
    "process_graph", "instances", "pathways", "address_space",
    "consistency", "reachability", "survivability",
)

#: Every per-layer metric and its unit, in report order.
PER_LAYER: Dict[str, str] = {
    "cli.import_s": "s",
    "cli.import_networkx_s": "s",
    "ios.parse_s": "s",
    "ios.lines_per_s": "lines/s",
    "diag.sink_overhead_s": "s",
    "diag.info_count": "count",
    "ingest.from_directory_s": "s",
    "ingest.from_directory_serial_s": "s",
    "ingest.from_directory_nocache_s": "s",
    "ingest.pool_gain": "ratio",
    "ingest.cache_write_s": "s",
    "ingest.blockcache_hit_ratio": "ratio",
    "ingest.warm_from_directory_s": "s",
    "ingest.cache_hits": "count",
    "ingest.snapshot_s": "s",
    "model.links_s": "s",
    **{f"core.{stage}_s": "s" for stage in CORE_STAGES},
    "core.pathways_max_archive_s": "s",
    "exec.overhead_s": "s",
    "exec.checkpoint_write_s": "s",
    "routing.baseline_s": "s",
    "routing.scenario_p50_s": "s",
    "routing.scenario_max_s": "s",
    "routing.iterations": "count",
    "routing.converged_share": "ratio",
    "sweep.enumerate_s": "s",
    "sweep.delta_s": "s",
    "sweep.pool_gain": "ratio",
    "serve.generation_s": "s",
    "serve.payload_s": "s",
    "serve.http_status_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.peak_mb": "MB" for layer in LAYERS},
}

#: Every 12th scenario of the backbone plan (links and routers both) is
#: run serially for the per-scenario routing figures and the pool gain.
SCENARIO_STRIDE = 12
#: Edits in the traced serve replica.
TRACED_EDITS = 5
#: GET /status requests timed against an in-process HTTP surface.
STATUS_REQUESTS = 50


class Recorder:
    """Spans around layer calls, plus the patches that place them."""

    def __init__(self) -> None:
        from repro.obs.trace import Tracer  # noqa: PLC0415

        self.tracer = Tracer()

    def span(self, name: str, layer: str, **attributes: Any):
        return self.tracer.span(name, layer=layer, **attributes)

    def wrap(self, func: Callable, name: str, layer: str) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, layer):
                return func(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, owner: Any, attribute: str, name: str, layer: str) -> Iterator[None]:
        """Replace the function ``owner.attribute`` (module or class) by a
        traced wrapper for the block."""
        raw = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(raw, name, layer))
        try:
            yield
        finally:
            setattr(owner, attribute, raw)

    def spans(self, root: Optional[Any] = None) -> Iterator[Any]:
        stack = list(root.children if root is not None else self.tracer.roots)
        while stack:
            span = stack.pop()
            yield span
            stack.extend(span.children)

    def total(self, name: str, root: Optional[Any] = None) -> float:
        return sum(s.seconds for s in self.spans(root) if s.name == name)

    def durations(self, name: str, root: Optional[Any] = None) -> List[float]:
        return [s.seconds for s in self.spans(root) if s.name == name]

    def self_times(self) -> Dict[str, float]:
        """Per layer: span time minus the part its child spans cover."""
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans():
            layer = span.attributes.get("layer")
            if layer in totals:
                totals[layer] += span.seconds - sum(c.seconds for c in span.children)
        return totals


def _cold_ingest_state() -> None:
    """Forget the stanza memo and the warm parse pool, as a new process would."""
    from repro.ingest.parallel import shutdown_pool  # noqa: PLC0415
    from repro.ios.blockcache import clear_shared_memo  # noqa: PLC0415

    shutdown_pool()
    clear_shared_memo()


def _cli_budget():
    from repro.ingest import MAX_AUTO_JOBS, WorkerBudget, available_cpus  # noqa: PLC0415

    return WorkerBudget(total=max(1, min(available_cpus(), MAX_AUTO_JOBS)), archive_jobs=1)


def _archives(tree: str) -> List[str]:
    return sorted(
        os.path.join(tree, name)
        for name in os.listdir(tree)
        if os.path.isdir(os.path.join(tree, name))
    )


def _traced_executor(rec: Recorder, store: Any):
    """An executor whose stage runners each sit inside a layer span."""
    from repro.exec.executor import (  # noqa: PLC0415
        STAGE_RUNNERS,
        AnalysisExecutor,
        ExecutorConfig,
    )

    runners = {
        stage: rec.wrap(
            runner,
            "model.links" if stage == "links" else f"core.{stage}",
            "model" if stage == "links" else "core",
        )
        for stage, runner in STAGE_RUNNERS.items()
    }
    return AnalysisExecutor(ExecutorConfig(checkpoints=store, runners=runners))


# -- replicas of each workload's operation ----------------------------------------


def replica_corpus(rec: Recorder, bench: Bench, tree: str) -> Tuple[Any, List[Any]]:
    """``repro corpus`` as library calls: ingest then execute, per archive."""
    from repro.exec.checkpoint import CheckpointStore  # noqa: PLC0415
    from repro.ingest import ParseCache  # noqa: PLC0415
    from repro.model.network import Network  # noqa: PLC0415

    caches = bench.fresh_dir("traced-corpus")
    cache = ParseCache(os.path.join(caches, "cache"))
    store = CheckpointStore(root=os.path.join(caches, "checkpoints"))
    budget = _cli_budget()
    executions = []
    _cold_ingest_state()
    with contextlib.ExitStack() as stack:
        stack.enter_context(rec.patched(CheckpointStore, "store", "exec.checkpoint_write", "exec"))
        executor = _traced_executor(rec, store)
        with rec.span("replica.corpus-cold", "replica") as root:
            for path in _archives(tree):
                with rec.span("ingest.from_directory", "ingest"):
                    network = Network.from_directory(
                        path, on_error="skip-block", cache=cache, budget=budget
                    )
                with rec.span("exec.run_archive", "exec", archive=os.path.basename(path)):
                    executions.append(executor.run_archive(network.name, network))
    shutil.rmtree(caches, ignore_errors=True)
    return root, executions


def replica_sweep(rec: Recorder, bench: Bench, tree: str) -> Tuple[Any, Any]:
    """``repro sweep --no-checkpoint`` as library calls."""
    import repro.sweep.runner as runner  # noqa: PLC0415
    from repro.ingest import ParseCache  # noqa: PLC0415
    from repro.model.network import Network  # noqa: PLC0415
    from repro.sweep import SweepConfig, run_network_sweep  # noqa: PLC0415

    caches = bench.fresh_dir("traced-sweep")
    _cold_ingest_state()
    with contextlib.ExitStack() as stack:
        stack.enter_context(rec.patched(runner, "enumerate_scenarios", "sweep.enumerate", "sweep"))
        stack.enter_context(rec.patched(runner, "compute_baseline", "routing.baseline", "routing"))
        with rec.span("replica.sweep-backbone", "replica") as root:
            for path in _archives(tree):
                with rec.span("ingest.from_directory", "ingest"):
                    network = Network.from_directory(
                        path, on_error="skip-block", cache=ParseCache(caches)
                    )
                with rec.span("sweep.run_network_sweep", "sweep"):
                    result = run_network_sweep(
                        network, archive=os.path.basename(path), config=SweepConfig()
                    )
    shutil.rmtree(caches, ignore_errors=True)
    return root, result


def replica_serve(
    rec: Recorder, bench: Bench, pristine: str, seed: int, edits: int
) -> Tuple[Any, List[Any], str]:
    """The daemon's generation cycle as library calls: a cold generation,
    then ``edits`` single-file edits each followed by a warm generation."""
    import random  # noqa: PLC0415

    import repro.serve.generation as generation  # noqa: PLC0415
    from repro.exec.checkpoint import CheckpointStore  # noqa: PLC0415
    from repro.exec.executor import AnalysisExecutor, ExecutorConfig  # noqa: PLC0415
    from repro.ingest import ParseCache  # noqa: PLC0415
    from repro.ingest.snapshot import snapshot_corpus  # noqa: PLC0415

    session = bench.fresh_dir("traced-serve")
    tree = os.path.join(session, "net5")
    shutil.copytree(pristine, tree)
    cache = ParseCache(os.path.join(session, "cache"))
    store = CheckpointStore(root=os.path.join(session, "checkpoints"))
    rng = random.Random(seed)
    files = sorted(os.listdir(tree))
    outcomes = []
    _cold_ingest_state()

    def one_generation(label: str) -> Any:
        with rec.span("ingest.snapshot", "ingest"):
            digest = snapshot_corpus(tree).digest
        executor = AnalysisExecutor(ExecutorConfig(resume=True, checkpoints=store))
        with rec.span("serve.run_generation", "serve", kind=label):
            outcome = generation.run_generation(
                tree, digest, executor=executor, jobs=1, cache=cache
            )
        outcomes.append(outcome)
        return outcome

    with contextlib.ExitStack() as stack:
        stack.enter_context(
            rec.patched(generation, "build_generation_payload", "serve.payload", "serve")
        )
        stack.enter_context(rec.patched(AnalysisExecutor, "run_archive", "exec.run_archive", "exec"))
        one_generation("cold")
        with rec.span("replica.serve-edit", "replica") as root:
            for index in range(edits):
                name = rng.choice(files)
                path = os.path.join(tree, name)
                with open(path, encoding="utf-8") as handle:
                    text = workloads.apply_edit(handle.read(), rng, index)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                one_generation("edit")
    return root, outcomes, session


# -- layer probes -------------------------------------------------------------------


def _read_corpus(tree: str) -> List[Tuple[str, str]]:
    texts = []
    for archive in _archives(tree):
        for name in sorted(os.listdir(archive)):
            with open(os.path.join(archive, name), encoding="utf-8") as handle:
                texts.append((name, handle.read()))
    return texts


def probe_parse(rec: Recorder, tree: str, metrics: Dict[str, float]) -> None:
    """ios: bare parser per file; diag: the same with a diagnostic sink."""
    from repro.diag import DiagnosticSink  # noqa: PLC0415
    from repro.ios.parser import parse_config  # noqa: PLC0415

    texts = _read_corpus(tree)
    lines = sum(text.count("\n") for _, text in texts)
    with rec.span("ios.parse_config", "ios") as bare:
        for name, text in texts:
            parse_config(text, mode="lenient", block_cache=None)
    sink = DiagnosticSink()
    with rec.span("diag.parse_with_sink", "diag") as sunk:
        for name, text in texts:
            parse_config(text, mode="lenient", block_cache=None, sink=sink, source=name)
    metrics["ios.parse_s"] = bare.seconds
    metrics["ios.lines_per_s"] = lines / bare.seconds
    metrics["diag.sink_overhead_s"] = sunk.seconds - bare.seconds
    metrics["diag.info_count"] = sum(1 for d in sink if d.severity == "info")


def probe_ingest(rec: Recorder, tree: str, metrics: Dict[str, float]) -> None:
    """from_directory without a file cache: default jobs, then serial."""
    from repro.ios import blockcache  # noqa: PLC0415
    from repro.model.network import Network  # noqa: PLC0415

    budget = _cli_budget()
    _cold_ingest_state()
    with rec.span("ingest.from_directory_nocache", "ingest") as pooled:
        for path in _archives(tree):
            Network.from_directory(path, on_error="skip-block", cache=None, budget=budget)
    _cold_ingest_state()
    before = blockcache.shared_stats()
    with rec.span("ingest.from_directory_serial", "ingest") as serial:
        for path in _archives(tree):
            Network.from_directory(path, on_error="skip-block", jobs=1, cache=None)
    after = blockcache.shared_stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    metrics["ingest.from_directory_nocache_s"] = pooled.seconds
    metrics["ingest.from_directory_serial_s"] = serial.seconds
    metrics["ingest.pool_gain"] = serial.seconds / pooled.seconds
    metrics["ingest.blockcache_hit_ratio"] = hits / lookups if lookups else 0.0


def probe_warm_ingest(rec: Recorder, tree: str, seed: int, metrics: Dict[str, float]) -> None:
    """One edit, then from_directory against the cache the cold pass warmed."""
    import random  # noqa: PLC0415

    from repro.ingest import ParseCache  # noqa: PLC0415
    from repro.ingest.snapshot import snapshot_corpus  # noqa: PLC0415
    from repro.model.network import Network  # noqa: PLC0415

    cache = ParseCache(os.path.join(os.path.dirname(tree), "warm-cache"))
    Network.from_directory(tree, on_error="skip-block", jobs=1, cache=cache)
    rng = random.Random(seed + 1)
    name = rng.choice(sorted(os.listdir(tree)))
    path = os.path.join(tree, name)
    with open(path, encoding="utf-8") as handle:
        text = workloads.apply_edit(handle.read(), rng, 0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    hits = cache.stats.hits
    with rec.span("ingest.from_directory_warm", "ingest") as warm:
        Network.from_directory(tree, on_error="skip-block", jobs=1, cache=cache)
    with rec.span("ingest.snapshot_corpus", "ingest") as snap:
        snapshot_corpus(tree)
    metrics["ingest.warm_from_directory_s"] = warm.seconds
    metrics["ingest.cache_hits"] = cache.stats.hits - hits
    metrics["ingest.snapshot_s"] = snap.seconds


def probe_routing(rec: Recorder, tree: str, metrics: Dict[str, float]) -> None:
    """Baseline fixpoint, then a serial slice of the sweep with inner spans."""
    import repro.sweep.runner as runner  # noqa: PLC0415
    from repro.model.network import Network  # noqa: PLC0415
    from repro.routing.engine import RoutingSimulation  # noqa: PLC0415
    from repro.sweep import SweepConfig, enumerate_scenarios, run_network_sweep  # noqa: PLC0415
    from repro.sweep.scenarios import ScenarioPlan  # noqa: PLC0415

    path = _archives(tree)[0]
    network = Network.from_directory(path, on_error="skip-block", jobs=1)
    with rec.span("routing.baseline_run", "routing") as base:
        RoutingSimulation(network).run(on_divergence="degrade")
    with rec.span("sweep.enumerate_scenarios", "sweep") as enum:
        plan = enumerate_scenarios(network)
    subset = plan.scenarios[::SCENARIO_STRIDE]
    sliced = ScenarioPlan(scenarios=list(subset), singles=len(subset))

    simulations: List[Any] = []

    class TracedSimulation(RoutingSimulation):
        def run(self, *args: Any, **kwargs: Any) -> Any:
            if not (self.failed_routers or self.failed_subnets):
                return super().run(*args, **kwargs)  # the sweep's own baseline
            with rec.span("routing.scenario", "routing"):
                result = super().run(*args, **kwargs)
            simulations.append(result)
            return result

    original = runner.RoutingSimulation
    runner.RoutingSimulation = TracedSimulation
    try:
        with rec.patched(runner, "scenario_delta", "sweep.delta", "sweep"):
            with rec.span("sweep.serial_slice", "sweep") as serial:
                run_network_sweep(network, config=SweepConfig(jobs=1), plan=sliced)
    finally:
        runner.RoutingSimulation = original
    # The pooled run is untraced inside: spans would only land in the workers.
    with rec.span("sweep.pooled_slice", "sweep") as pooled:
        run_network_sweep(network, config=SweepConfig(), plan=sliced)
    scenario_times = rec.durations("routing.scenario", serial)
    metrics["routing.baseline_s"] = base.seconds
    metrics["routing.scenario_p50_s"] = median(scenario_times)
    metrics["routing.scenario_max_s"] = max(scenario_times)
    metrics["routing.iterations"] = sum(s.iterations for s in simulations)
    metrics["routing.converged_share"] = sum(s.converged for s in simulations) / len(simulations)
    metrics["sweep.enumerate_s"] = enum.seconds
    metrics["sweep.delta_s"] = rec.total("sweep.delta", serial)
    metrics["sweep.pool_gain"] = serial.seconds / pooled.seconds


def probe_http(rec: Recorder, payload: Dict[str, Any], metrics: Dict[str, float]) -> None:
    """Median GET /status against an in-process HTTP surface."""
    from repro.serve import ServeHTTP, ServeState  # noqa: PLC0415

    state = ServeState()
    state.publish(payload, payload["corpus_digest"])
    http = ServeHTTP(state, host="127.0.0.1", port=0)
    http.start()
    times = []
    try:
        for _ in range(STATUS_REQUESTS):
            with rec.span("serve.http_status", "serve") as span:
                code, _ = http_json(http.url + "/status")
            if code != 200:
                raise RuntimeError(f"/status returned {code}")
            times.append(span.seconds)
    finally:
        http.stop()
    metrics["serve.http_status_s"] = median(times)


def probe_cli(rec: Recorder, bench: Bench, metrics: Dict[str, float]) -> None:
    """Fresh-interpreter imports: the CLI module, and networkx alone."""
    for metric, statement in (
        ("cli.import_s", "import repro.cli"),
        ("cli.import_networkx_s", "import networkx"),
    ):
        times = []
        for _ in range(3):
            with rec.span(metric, "cli") as span:
                bench.run([bench.python, "-c", statement], "cli-import")
            times.append(span.seconds)
        metrics[metric] = median(times)


# -- memory pass ----------------------------------------------------------------------


def memory_pass(bench: Bench, net5: str, backbone: str) -> Dict[str, float]:
    """tracemalloc peak (MB above the level at the call's start) per layer.

    One call per layer on net5 (routing and sweep: the backbone); the
    core figure is the largest single stage, taken inside the executor
    run that gives the exec figure; the sweep figure is the larger of
    scenario enumeration and one scenario delta.
    """
    from repro.diag import DiagnosticSink  # noqa: PLC0415
    from repro.exec.checkpoint import CheckpointStore  # noqa: PLC0415
    from repro.exec.executor import STAGE_RUNNERS, AnalysisExecutor, ExecutorConfig  # noqa: PLC0415
    from repro.ingest.snapshot import snapshot_corpus  # noqa: PLC0415
    from repro.ios.parser import parse_config  # noqa: PLC0415
    from repro.model.network import Network  # noqa: PLC0415
    from repro.routing.engine import RoutingSimulation  # noqa: PLC0415
    from repro.serve import build_generation_payload  # noqa: PLC0415
    from repro.sweep import compute_baseline, enumerate_scenarios, scenario_delta  # noqa: PLC0415

    peaks: Dict[str, float] = {}

    def measure(layer: str, call: Callable[[], Any]) -> Any:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        value = call()
        _, peak = tracemalloc.get_traced_memory()
        peaks[layer] = max(peaks.get(layer, 0.0), (peak - start) / 2**20)
        return value

    def stage_measured(runner: Callable) -> Callable:
        # Nested inside the exec call: restore the outer peak afterwards.
        def measured(ctx: Any, params: Dict[str, Any]) -> Any:
            _, outer_peak = tracemalloc.get_traced_memory()
            value = measure("core", lambda: runner(ctx, params))
            peaks["_outer"] = max(peaks.get("_outer", 0.0), outer_peak)
            return value

        return measured

    texts = []
    for name in sorted(os.listdir(net5)):
        with open(os.path.join(net5, name), encoding="utf-8") as handle:
            texts.append((name, handle.read()))
    scratch = bench.fresh_dir("memory")
    launch = bench.run(
        [bench.python, "-X", "tracemalloc", "-c",
         "import tracemalloc, repro.cli; print(tracemalloc.get_traced_memory()[1])"],
        "cli-memory",
    )
    peaks["cli"] = int(launch.stdout().strip()) / 2**20
    # Fixpoints the sweep-layer figure needs as inputs, computed untraced.
    bb = Network.from_directory(_archives(backbone)[0], on_error="skip-block", jobs=1)
    baseline = compute_baseline(bb)
    scenario = enumerate_scenarios(bb).scenarios[0]
    failed = RoutingSimulation(
        bb, failed_routers=scenario.failed_routers, failed_subnets=scenario.failed_subnets
    ).run(on_divergence="degrade")
    _cold_ingest_state()
    tracemalloc.start()
    try:
        measure("ios", lambda: [parse_config(t, mode="lenient", block_cache=None) for _, t in texts])
        sink = DiagnosticSink()
        measure("diag", lambda: [
            parse_config(t, mode="lenient", block_cache=None, sink=sink, source=n)
            for n, t in texts
        ])
        del sink
        network = measure(
            "ingest", lambda: Network.from_directory(net5, on_error="skip-block", jobs=1)
        )
        measure("model", lambda: network.links)
        runners = {
            stage: runner if stage == "links" else stage_measured(runner)
            for stage, runner in STAGE_RUNNERS.items()
        }
        executor = AnalysisExecutor(ExecutorConfig(
            checkpoints=CheckpointStore(root=os.path.join(scratch, "checkpoints")),
            runners=runners,
        ))
        start, _ = tracemalloc.get_traced_memory()
        execution = executor.run_archive(network.name, network)
        _, peak = tracemalloc.get_traced_memory()
        peaks["exec"] = (max(peak, peaks.pop("_outer", 0.0)) - start) / 2**20
        digest = snapshot_corpus(net5).digest
        measure("serve", lambda: build_generation_payload(
            network, execution, corpus=net5, digest=digest
        ))
        del network, execution
        measure("routing", lambda: RoutingSimulation(bb).run(on_divergence="degrade"))
        measure("sweep", lambda: enumerate_scenarios(bb))
        measure("sweep", lambda: scenario_delta(baseline, failed, scenario))
    finally:
        tracemalloc.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    return peaks


# -- the traced run ------------------------------------------------------------------


def recorded_op_s(state: str, name: str, sizing: Sizing) -> Optional[float]:
    """Median ``op_s`` of this checkout's recorded, correct end-to-end runs
    of ``name`` at ``sizing``, or None when there are none."""
    values = []
    pattern = os.path.join(state, "results", f"*-{name}-seed*-trace0.json")
    for path in glob.glob(pattern):
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            continue
        result = document.get("result") or {}
        if document.get("sizing") == dataclasses.asdict(sizing) and result.get("correct"):
            values.append(result["metrics"]["op_s"]["value"])
    return median(values) if values else None


def run_traced(name: str, bench: Bench, seed: int, expected: Dict, sizing: Sizing) -> Outcome:
    """Per-layer metrics of one workload (see the module docstring)."""
    outcome = Outcome(name)
    op_s = recorded_op_s(bench.state, name, sizing)
    if op_s is None:
        base_sizing = dataclasses.replace(
            sizing,
            corpus_setups=1,
            sweep_setups=1,
            serve_setups=1,
            min_edits=min(sizing.min_edits, 10),
        )
        base = workloads.run_workload(name, bench, seed, 0.0, expected, False, base_sizing)
        op_s = base.metrics["op_s"][0]
        outcome.attempted, outcome.failed = base.attempted, base.failed
        outcome.problems.extend(base.problems)
        outcome.samples.extend(base.samples)
        outcome.digests.update(base.digests)

    # Corpus-side layers run on the workload's own corpus in a corpus-cold
    # traced run, and on the smaller serve-scale corpus otherwise, which
    # keeps every traced run well inside its time limit.
    corpus_scale = sizing.corpus_scale if name == "corpus-cold" else sizing.serve_scale
    corpus = inputs.corpus_input(bench.state, bench.src, seed, corpus_scale)
    backbone = inputs.backbone_input(bench.state, bench.src, seed, sizing.backbone_routers)
    net5 = inputs.net5_input(bench.state, bench.src, seed, sizing.serve_scale)

    rec = Recorder()
    metrics: Dict[str, float] = {}
    probe = NoiseProbe()

    # The workload's own replica runs first, before the other probes have
    # grown this process (the sweep pool forks it).
    sweep_root = None
    if name == "sweep-backbone":
        sweep_root, result = replica_sweep(rec, bench, backbone.path)
        bad = [row for row in result.rows if row["status"] != "ok"]
        if bad:
            outcome.fail("traced sweep replica: scenarios below ok")
        outcome.attempted += len(result.rows)
        outcome.failed += len(bad)

    corpus_root, executions = replica_corpus(rec, bench, corpus.path)
    stage_sum = sum(
        rec.total(f"core.{stage}", corpus_root) for stage in CORE_STAGES
    ) + rec.total("model.links", corpus_root)
    metrics["ingest.from_directory_s"] = rec.total("ingest.from_directory", corpus_root)
    metrics["model.links_s"] = rec.total("model.links", corpus_root)
    for stage in CORE_STAGES:
        metrics[f"core.{stage}_s"] = rec.total(f"core.{stage}", corpus_root)
    metrics["core.pathways_max_archive_s"] = max(rec.durations("core.pathways", corpus_root))
    metrics["exec.overhead_s"] = rec.total("exec.run_archive", corpus_root) - stage_sum
    metrics["exec.checkpoint_write_s"] = rec.total("exec.checkpoint_write", corpus_root)
    not_ok = [e.archive for e in executions if e.status != "ok"]
    if not_ok:
        outcome.fail(f"traced corpus replica: archives not ok: {not_ok}")
    if name == "corpus-cold":
        outcome.attempted += len(executions)
        outcome.failed += len(not_ok)

    serve_root, generations, session = replica_serve(rec, bench, net5.path, seed, TRACED_EDITS)
    incomplete = [g for g in generations if not g.complete]
    if incomplete:
        outcome.fail("traced serve replica: a generation did not complete")
    if name == "serve-edit":
        outcome.attempted += len(generations)
        outcome.failed += len(incomplete)
    edit_spans = [s for s in serve_root.children if s.name == "serve.run_generation"]
    metrics["serve.generation_s"] = median([s.seconds for s in edit_spans])
    metrics["serve.payload_s"] = median(rec.durations("serve.payload", serve_root))
    probe_http(rec, generations[-1].payload, metrics)
    shutil.rmtree(session, ignore_errors=True)

    probe_parse(rec, corpus.path, metrics)
    probe_ingest(rec, corpus.path, metrics)
    metrics["ingest.cache_write_s"] = (
        metrics["ingest.from_directory_s"] - metrics["ingest.from_directory_nocache_s"]
    )
    warm_tree = os.path.join(bench.fresh_dir("warm-ingest"), "net5")
    shutil.copytree(net5.path, warm_tree)
    probe_warm_ingest(rec, warm_tree, seed, metrics)
    probe_routing(rec, backbone.path, metrics)
    probe_cli(rec, bench, metrics)

    replica = {
        "corpus-cold": corpus_root,
        "sweep-backbone": sweep_root,
        "serve-edit": serve_root,
    }[name]
    if name == "serve-edit":
        # Per edit: the median edit cycle against the median edit latency.
        cycles = [s.seconds for s in edit_spans]
        metrics["trace.coverage"] = median(cycles) / op_s
        metrics["trace.overhead"] = (replica.seconds / len(cycles)) / op_s
    else:
        metrics["trace.coverage"] = sum(c.seconds for c in replica.children) / op_s
        metrics["trace.overhead"] = replica.seconds / op_s
    for layer, value in rec.self_times().items():
        metrics[f"{layer}.self_s"] = value
    for layer, value in memory_pass(bench, net5.path, backbone.path).items():
        metrics[f"{layer}.peak_mb"] = value
    outcome.samples.append(probe.finish(kind="traced", seconds=replica.seconds))
    outcome.spans = [span.as_dict() for span in rec.tracer.roots]

    missing = [key for key in PER_LAYER if key not in metrics]
    if missing:
        raise RuntimeError(f"traced run did not produce {missing}")
    outcome.metrics = {key: (metrics[key], PER_LAYER[key]) for key in PER_LAYER}
    return outcome
