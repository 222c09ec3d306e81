"""The three end-to-end workloads, run against the real CLI and daemon.

Each workload is a closed loop from this one client process: the next
command (or edit) starts only after the previous one finished.  Every
launch gets fresh cache and checkpoint directories and its own ``HOME``,
so a "cold" sample can never find a warm cache.  Correctness is checked
against the generator's ground truth and a recorded result digest; a
failed check counts that workload's operations as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.harness import (
    Bench,
    BenchError,
    NoiseProbe,
    http_json,
    median,
    p75,
    stop_process,
)

WORKLOADS = ("corpus-cold", "sweep-backbone", "serve-edit")

#: ``repro serve --poll-interval``: short, so an edit is picked up fast.
SERVE_POLL_INTERVAL = 0.02
#: Client-side /status polling period while waiting for a publish.
STATUS_POLL = 0.02
#: An edit not published within this many seconds counts as failed.
EDIT_TIMEOUT = 60.0

#: End-to-end metric -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "op_p75_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Sizing:
    """Input sizes and sample counts (the defaults are the benchmark)."""

    corpus_scale: float = inputs.CORPUS_SCALE
    backbone_routers: int = inputs.BACKBONE_ROUTERS
    serve_scale: float = inputs.SERVE_SCALE
    corpus_setups: int = 5
    sweep_setups: int = 3
    serve_setups: int = 3
    #: Enough edits that ten fall beyond the upper quartile.
    min_edits: int = 40


TINY = Sizing(
    corpus_scale=0.02,
    backbone_routers=8,
    serve_scale=0.02,
    corpus_setups=1,
    sweep_setups=1,
    serve_setups=1,
    min_edits=4,
)


@dataclass
class Outcome:
    """One workload run: metrics, operation counts, check failures."""

    workload: str
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: List[Dict[str, Any]] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    #: Span tree of a traced run (empty for end-to-end runs).
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)


def result_digest(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(
    outcome: Outcome,
    expected: Dict[str, Dict[str, str]],
    key: str,
    slot: str,
    digest: str,
    record: bool,
) -> None:
    """Compare ``digest`` with the one recorded for this input ``slot``."""
    outcome.digests[key] = digest
    if record:
        expected.setdefault(key, {})[slot] = digest
        return
    want = expected.get(key, {}).get(slot)
    if want is None:
        outcome.fail(f"{key}: no recorded digest for variant {slot}")
    elif want != digest:
        outcome.fail(f"{key}: result digest {digest[:16]} != recorded {want[:16]}")


def _interleaved(
    outcome: Outcome,
    setups: int,
    seconds: float,
    take_setup: Callable[[], float],
    take_op: Callable[[], float],
) -> List[float]:
    """Alternate set-up and operation samples.

    Half the set-up launches run before the first operation and the
    rest between and after operations, so slow host drift lands on both.
    Operations repeat while one more, at the median duration so far,
    would still end within ``seconds`` of operation time (at least one).
    """
    setup_times: List[float] = []
    op_times: List[float] = []
    for _ in range((setups + 1) // 2):
        setup_times.append(take_setup())
    while True:
        op_times.append(take_op())
        if sum(op_times) + median(op_times) > seconds:
            break
        if len(setup_times) < setups:
            setup_times.append(take_setup())
    while len(setup_times) < setups:
        setup_times.append(take_setup())
    outcome.metrics["setup_s"] = (median(setup_times), "s")
    return op_times


def _probe(outcome: Outcome, kind: str, run: Callable[[], Tuple[float, Dict]]) -> float:
    probe = NoiseProbe()
    seconds, extra = run()
    outcome.samples.append(probe.finish(kind=kind, seconds=seconds, **extra))
    return seconds


# -- corpus-cold ----------------------------------------------------------------


def corpus_check(
    outcome: Outcome, payload: Dict[str, Any], truth: Dict[str, int]
) -> Tuple[int, int]:
    """Ground-truth check of one ``repro corpus --json`` payload.

    Returns (archives attempted, archives failed): an archive fails when
    it is missing, its router count differs from the generator's
    ``NetworkSpec.router_count``, or any analysis stage is not ``ok``.
    """
    seen = {entry.get("archive"): entry for entry in payload.get("archives", [])}
    failed = 0
    for name, routers in sorted(truth.items()):
        entry = seen.get(name)
        if entry is None:
            outcome.fail(f"corpus: archive {name} missing from the report")
            failed += 1
            continue
        stages = (entry.get("execution") or {}).get("stages") or []
        bad = [s["stage"] for s in stages if s.get("status") != "ok"]
        if entry.get("routers") != routers:
            outcome.fail(
                f"corpus: {name} has {entry.get('routers')} routers, "
                f"generator built {routers}"
            )
            failed += 1
        elif entry.get("status") != "ok" or bad or len(stages) != 8:
            outcome.fail(f"corpus: {name} stages not ok: {bad or entry.get('status')}")
            failed += 1
    extra = sorted(set(seen) - set(truth))
    if extra:
        outcome.fail(f"corpus: unexpected archives {extra}")
    return len(truth), failed


def corpus_digest(payload: Dict[str, Any]) -> str:
    from repro.report.corpus import normalize_corpus_payload  # noqa: PLC0415

    return result_digest(normalize_corpus_payload({**payload, "corpus": "<corpus>"}))


def run_corpus_cold(
    bench: Bench,
    seed: int,
    seconds: float,
    expected: Dict,
    record: bool = False,
    sizing: Sizing = Sizing(),
) -> Outcome:
    """``repro corpus <dir> --json`` over the paper corpus, caches empty."""
    outcome = Outcome("corpus-cold")
    corpus = inputs.corpus_input(bench.state, bench.src, seed, sizing.corpus_scale)
    rss: List[float] = []

    def setup() -> Tuple[float, Dict]:
        empty = bench.fresh_dir("empty-corpus")
        caches = bench.fresh_dir("setup-caches")
        launch = bench.run(
            bench.repro_argv(
                ["corpus", empty, "--json", "--cache-dir", os.path.join(caches, "c"),
                 "--checkpoint-dir", os.path.join(caches, "k")]
            ),
            "corpus-setup",
        )
        if launch.returncode != 0:
            outcome.fail(f"corpus set-up exited {launch.returncode}: {launch.stderr_tail()}")
        return launch.seconds, {}

    def op() -> Tuple[float, Dict]:
        caches = bench.fresh_dir("corpus-caches")
        launch = bench.run(
            bench.repro_argv(
                ["corpus", corpus.path, "--json",
                 "--cache-dir", os.path.join(caches, "cache"),
                 "--checkpoint-dir", os.path.join(caches, "checkpoints")]
            ),
            "corpus-op",
        )
        shutil.rmtree(caches, ignore_errors=True)
        rss.append(launch.maxrss_mb)
        attempted, failed = len(corpus.routers), len(corpus.routers)
        if launch.returncode != 0:
            outcome.fail(f"corpus exited {launch.returncode}: {launch.stderr_tail()}")
        try:
            payload = json.loads(launch.stdout())
        except ValueError:
            outcome.fail("corpus: output is not JSON")
        else:
            attempted, failed = corpus_check(outcome, payload, corpus.routers)
            check_digest(
                outcome, expected, "corpus-cold",
                f"v{inputs.variant(seed)}-x{sizing.corpus_scale}",
                corpus_digest(payload), record,
            )
        outcome.attempted += attempted
        outcome.failed += failed
        return launch.seconds, {"rss_mb": launch.maxrss_mb}

    ops = _interleaved(
        outcome,
        sizing.corpus_setups,
        seconds,
        lambda: _probe(outcome, "setup", setup),
        lambda: _probe(outcome, "op", op),
    )
    _finish(outcome, ops, rss)
    return outcome


def _finish(outcome: Outcome, ops: List[float], rss: List[float]) -> None:
    outcome.metrics["op_s"] = (median(ops), "s")
    outcome.metrics["op_p75_s"] = (p75(ops), "s")
    outcome.metrics["peak_rss_mb"] = (max(rss), "MB")
    if outcome.problems and outcome.failed == 0:
        # A failed check fails the run's operations even when no single
        # one could be blamed (a digest mismatch, a crashed set-up).
        outcome.failed = outcome.attempted


# -- sweep-backbone ---------------------------------------------------------------


def sweep_digest(payload: Dict[str, Any]) -> str:
    from repro.report.sweep import normalize_sweep_payload  # noqa: PLC0415

    return result_digest(normalize_sweep_payload({**payload, "root": "<root>"}))


def sweep_check(outcome: Outcome, payload: Dict[str, Any], expected: int) -> Tuple[int, int]:
    """Every one of the ``expected`` scenarios must be present and ``ok``."""
    rows = [row for entry in payload.get("archives", []) for row in entry.get("rows", [])]
    not_ok = [row["scenario"] for row in rows if row.get("status") != "ok"]
    missing = max(0, expected - len(rows))
    if len(rows) != expected:
        outcome.fail(f"sweep: {len(rows)} scenarios, expected {expected}")
    if not_ok:
        outcome.fail(f"sweep: scenarios not ok: {not_ok[:5]}")
    return expected, len(not_ok) + missing


def run_sweep_backbone(
    bench: Bench,
    seed: int,
    seconds: float,
    expected: Dict,
    record: bool = False,
    sizing: Sizing = Sizing(),
) -> Outcome:
    """``repro sweep <dir> --json --no-checkpoint`` over a 48-router backbone."""
    outcome = Outcome("sweep-backbone")
    tree = inputs.backbone_input(bench.state, bench.src, seed, sizing.backbone_routers)
    # The backbone template closes each PoP into the core ring with one
    # internal link per router: one link and one router scenario each.
    scenarios = 2 * tree.routers["bench"]
    rss: List[float] = []

    def sweep(extra: List[str], label: str):
        cache = bench.fresh_dir(f"{label}-cache")
        launch = bench.run(
            bench.repro_argv(
                ["sweep", tree.path, "--json", "--no-checkpoint", "--cache-dir", cache,
                 *extra]
            ),
            label,
        )
        shutil.rmtree(cache, ignore_errors=True)
        if launch.returncode != 0:
            outcome.fail(f"{label} exited {launch.returncode}: {launch.stderr_tail()}")
        try:
            return launch, json.loads(launch.stdout())
        except ValueError:
            outcome.fail(f"{label}: output is not JSON")
            return launch, None

    def setup() -> Tuple[float, Dict]:
        launch, payload = sweep(["--max-scenarios", "0"], "sweep-setup")
        if payload is not None and payload["totals"]["scenarios"] != 0:
            outcome.fail("sweep set-up ran scenarios")
        return launch.seconds, {}

    def op() -> Tuple[float, Dict]:
        launch, payload = sweep([], "sweep-op")
        rss.append(launch.maxrss_mb)
        attempted, failed = scenarios, scenarios
        if payload is not None:
            attempted, failed = sweep_check(outcome, payload, scenarios)
            check_digest(
                outcome, expected, "sweep-backbone",
                f"v{inputs.variant(seed)}-r{sizing.backbone_routers}",
                sweep_digest(payload), record,
            )
        outcome.attempted += attempted
        outcome.failed += failed
        return launch.seconds, {"rss_mb": launch.maxrss_mb}

    ops = _interleaved(
        outcome,
        sizing.sweep_setups,
        seconds,
        lambda: _probe(outcome, "setup", setup),
        lambda: _probe(outcome, "op", op),
    )
    _finish(outcome, ops, rss)
    return outcome


# -- serve-edit -------------------------------------------------------------------


def apply_edit(text: str, rng: random.Random, index: int) -> str:
    """One seeded, realistic single-file change an operator might make."""
    lines = text.split("\n")
    kind = rng.randrange(3)
    if kind == 0:
        interfaces = [i for i, line in enumerate(lines) if line.startswith("interface ")]
        if interfaces:
            at = rng.choice(interfaces) + 1
            if at < len(lines) and lines[at].startswith(" description "):
                lines[at] = f" description bench-edit-{index}"
            else:
                lines.insert(at, f" description bench-edit-{index}")
            return "\n".join(lines)
    if kind == 1:
        line = f"ip route 192.168.{index % 250}.0 255.255.255.0 Null0"
    else:
        line = f"logging host 10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
    end = len(lines)
    while end > 0 and lines[end - 1] in ("", "end"):
        end -= 1
    lines.insert(end, line)
    return "\n".join(lines)


class Daemon:
    """One ``repro serve`` process over one tree, with fresh caches."""

    def __init__(self, bench: Bench, tree: str) -> None:
        sandbox = bench.fresh_dir("serve")
        home = os.path.join(sandbox, "home")
        os.makedirs(home)
        self.stderr_path = os.path.join(sandbox, "stderr")
        argv = bench.repro_argv(
            ["serve", tree, "--port", "0", "--poll-interval", str(SERVE_POLL_INTERVAL),
             "--cache-dir", os.path.join(sandbox, "cache"),
             "--checkpoint-dir", os.path.join(sandbox, "checkpoints")]
        )
        self._stderr = open(self.stderr_path, "wb")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=sandbox,
            env=bench.child_env(home),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        self.url = ""
        self.rss_mb = 0.0

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from launch until ``/ready`` answers 200."""
        line = self.proc.stdout.readline()
        if " on " not in line:
            raise BenchError(f"serve did not report its URL: {line!r} {self.stderr_tail()}")
        self.url = line.rsplit(" on ", 1)[1].strip()
        deadline = self.start + timeout
        while True:
            try:
                code, _ = http_json(self.url + "/ready")
            except OSError:
                code = None
            if code == 200:
                return time.perf_counter() - self.start
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise BenchError(f"serve never became ready: {self.stderr_tail()}")
            time.sleep(0.01)

    def get(self, path: str) -> Any:
        code, body = http_json(self.url + path)
        if code != 200:
            raise BenchError(f"GET {path} -> {code}: {body}")
        return body

    def published(self) -> Dict[str, Any]:
        """The served generation, reassembled from the HTTP surface."""
        from repro.serve import GENERATION_SCHEMA  # noqa: PLC0415

        status = self.get("/status")
        manifest = self.get("/manifest")
        return {
            "schema": GENERATION_SCHEMA,
            "corpus_digest": status["published_digest"],
            "name": manifest.get("name"),
            "status": (manifest.get("execution") or {}).get("status"),
            "manifest": manifest,
            "instances": self.get("/instances"),
            "pathways": self.get("/pathways"),
            "diagnostics": self.get("/diagnostics"),
        }

    def stop(self) -> int:
        code, self.rss_mb = stop_process(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        return code

    def stderr_tail(self, limit: int = 2000) -> str:
        self._stderr.flush()
        with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-limit:]


def normalized_generation(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.serve import normalize_generation  # noqa: PLC0415

    return normalize_generation(payload)


def cold_generation(tree: str) -> Dict[str, Any]:
    """A cold one-shot generation of ``tree``: no caches, no checkpoints."""
    from repro.exec.executor import AnalysisExecutor, ExecutorConfig  # noqa: PLC0415
    from repro.ingest.snapshot import snapshot_corpus  # noqa: PLC0415
    from repro.serve import run_generation  # noqa: PLC0415

    digest = snapshot_corpus(tree).digest
    result = run_generation(
        tree, digest, executor=AnalysisExecutor(ExecutorConfig()), jobs=1, cache=None
    )
    if result.payload is None:
        raise BenchError(f"cold generation failed: {result.error}")
    return result.payload


def edit_session(
    outcome: Outcome,
    daemon: Daemon,
    tree: str,
    scratch: str,
    seed: int,
    seconds: float,
    sizing: Sizing,
) -> List[float]:
    """Apply seeded edits one at a time; time each until it is published."""
    from repro.ingest.snapshot import snapshot_corpus  # noqa: PLC0415

    rng = random.Random(seed)
    files = sorted(os.listdir(tree))
    latencies: List[float] = []
    index = 0
    while len(latencies) < sizing.min_edits or sum(latencies) < seconds:
        outcome.attempted += 1
        before = daemon.get("/status")["generation"]
        name = rng.choice(files)
        with open(os.path.join(tree, name), encoding="utf-8") as handle:
            text = apply_edit(handle.read(), rng, index)
        staged = os.path.join(scratch, name)
        with open(staged, "w", encoding="utf-8") as handle:
            handle.write(text)
        start = time.perf_counter()
        os.replace(staged, os.path.join(tree, name))
        while True:
            status = daemon.get("/status")
            if status["generation"] > before:
                break
            if time.perf_counter() - start > EDIT_TIMEOUT:
                break
            time.sleep(STATUS_POLL)
        latency = time.perf_counter() - start
        index += 1
        if status["generation"] <= before:
            outcome.failed += 1
            outcome.fail(f"serve: edit {index} never published: {status}")
            break
        if (
            status["published_digest"] != snapshot_corpus(tree).digest
            or status["health"] != "ok"
        ):
            outcome.failed += 1
            outcome.fail(f"serve: edit {index} published a wrong generation: {status}")
        latencies.append(latency)
    return latencies


def serve_digest(payload: Dict[str, Any]) -> str:
    return result_digest(normalized_generation(payload))


def run_serve_edit(
    bench: Bench,
    seed: int,
    seconds: float,
    expected: Dict,
    record: bool = False,
    sizing: Sizing = Sizing(),
) -> Outcome:
    """``repro serve`` on net5; seeded single-file edits, one at a time."""
    outcome = Outcome("serve-edit")
    pristine = inputs.net5_input(bench.state, bench.src, seed, sizing.serve_scale)
    setup_times: List[float] = []
    latencies: List[float] = []
    rss: List[float] = []

    def launch_only() -> None:
        probe = NoiseProbe()
        daemon = Daemon(bench, pristine.path)
        try:
            setup_times.append(daemon.wait_ready())
        finally:
            daemon.stop()
        outcome.samples.append(probe.finish(kind="setup", seconds=setup_times[-1]))

    for _ in range(sizing.serve_setups // 2):
        launch_only()

    session = bench.fresh_dir("serve-edit")
    tree = os.path.join(session, "net5")
    shutil.copytree(pristine.path, tree)
    scratch = os.path.join(session, "staging")
    os.makedirs(scratch)
    probe = NoiseProbe()
    daemon = Daemon(bench, tree)
    try:
        setup_times.append(daemon.wait_ready())
        first = daemon.published()
        routers = first["manifest"].get("routers")
        if routers != pristine.routers["net5"]:
            outcome.fail(f"serve: {routers} routers, generator built {pristine.routers['net5']}")
        check_digest(
            outcome, expected, "serve-edit",
            f"v{inputs.variant(seed)}-x{sizing.serve_scale}",
            serve_digest(first), record,
        )
        latencies = edit_session(outcome, daemon, tree, scratch, seed, seconds, sizing)
        final = normalized_generation(daemon.published())
    finally:
        code = daemon.stop()
    rss.append(daemon.rss_mb)
    outcome.samples.append(
        probe.finish(kind="edit-session", seconds=sum(latencies), edits=len(latencies))
    )
    if code != 0:
        outcome.fail(f"serve exited {code} on SIGTERM: {daemon.stderr_tail()}")
    if final != normalized_generation(cold_generation(tree)):
        outcome.fail("serve: published generation differs from a cold one-shot run")

    while len(setup_times) < sizing.serve_setups:
        launch_only()

    outcome.metrics["setup_s"] = (median(setup_times), "s")
    if not latencies:
        raise BenchError("serve: no edit was published")
    _finish(outcome, latencies, rss)
    return outcome


RUNNERS = {
    "corpus-cold": run_corpus_cold,
    "sweep-backbone": run_sweep_backbone,
    "serve-edit": run_serve_edit,
}


def run_workload(
    name: str,
    bench: Bench,
    seed: int,
    seconds: float,
    expected: Dict,
    record: bool = False,
    sizing: Optional[Sizing] = None,
) -> Outcome:
    return RUNNERS[name](bench, seed, seconds, expected, record, sizing or Sizing())
