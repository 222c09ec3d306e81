"""Benchmark entry point: ``python3 perfbench/run.py --workload <name>``.

Runs one workload (or ``all`` three, one after another) against the
``repro`` sources of the checkout this file lives in, prints every
metric by name and unit, records the run under ``.perfbench/results/``,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced per-layer pass instead.  The exit code is 0 only when every
correctness check passed; a checkout without ``src/repro`` exits 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_EXPECTED = os.path.join(HERE, "expected.json")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="repro end-to-end and per-layer benchmark"
    )
    parser.add_argument(
        "--workload",
        required=True,
        choices=("corpus-cold", "sweep-backbone", "serve-edit", "all"),
    )
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=20.0,
        help="operation time to measure per workload: no op is started that "
        "would overrun it, but at least one runs and serve-edit makes at "
        "least 40 edits (default 20)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this run's result digests in perfbench/expected.json "
        "instead of checking them",
    )
    parser.add_argument(
        "--expected",
        default=DEFAULT_EXPECTED,
        help="recorded result digests (default: perfbench/expected.json)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny inputs and sample counts (for the benchmark's own tests)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="cache/results directory (default: <checkout>/.perfbench)",
    )
    return parser.parse_args(argv)


def preflight() -> Optional[str]:
    """Why this checkout cannot be benchmarked, or None."""
    for part in (("src", "repro", "__init__.py"), ("src", "repro", "cli.py")):
        if not os.path.isfile(os.path.join(ROOT, *part)):
            return f"{os.path.join(*part)} not found under {ROOT}"
    return None


def load_expected(path: str) -> Dict[str, Dict[str, str]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def save_expected(path: str, expected: Dict[str, Dict[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every launched process is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    problem = preflight()
    if problem is not None:
        print(f"error: cannot benchmark this checkout: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench import harness, workloads  # noqa: PLC0415

    import repro  # noqa: PLC0415

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    state = os.path.abspath(args.state_dir or os.path.join(ROOT, ".perfbench"))
    work = harness.make_work_dir(state)
    home = os.path.join(work, "home")
    os.makedirs(home)
    # This process, too, must never see a user cache or chaos setting.
    environ = harness.scrubbed_environ(home)
    os.environ.clear()
    os.environ.update(environ)
    tempfile.tempdir = home
    bench = harness.Bench(root=ROOT, state=state, work=work)
    # Byte-compile once, outside every timer, as an installed package is.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    sizing = workloads.TINY if args.tiny else workloads.Sizing()
    expected = load_expected(args.expected)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    started = time.time()
    try:
        if args.trace:
            from perfbench import layers  # noqa: PLC0415

            outcomes = [
                layers.run_traced(name, bench, args.seed, expected, sizing)
                for name in names
            ]
        else:
            outcomes = [
                workloads.run_workload(
                    name, bench, args.seed, args.seconds, expected, args.record, sizing
                )
                for name in names
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        save_expected(args.expected, expected)

    result = summarize(outcomes, prefixed=args.workload == "all")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for outcome in outcomes:
        print(
            f"{outcome.workload}: ops={outcome.attempted} ops_failed={outcome.failed} "
            f"correct={outcome.correct}"
        )
        for message in outcome.problems:
            print(f"{outcome.workload}: CHECK FAILED: {message}")
    record_run(state, args, sizing, started, outcomes, result, harness.host_facts(ROOT))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summarize(outcomes: List[Any], prefixed: bool) -> Dict[str, Any]:
    """The final JSON object (``all`` names metrics ``<workload>/<metric>``)."""
    return {
        "correct": all(outcome.correct for outcome in outcomes),
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": {
            (f"{outcome.workload}/{name}" if prefixed else name): {
                "value": value,
                "unit": unit,
            }
            for outcome in outcomes
            for name, (value, unit) in outcome.metrics.items()
        },
    }


def record_run(
    state: str,
    args: argparse.Namespace,
    sizing: Any,
    started: float,
    outcomes: List[Any],
    result: Dict[str, Any],
    host: Dict[str, Any],
) -> None:
    """Append the run, with its noise diagnostics, to the results directory."""
    folder = os.path.join(state, "results")
    os.makedirs(folder, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = os.path.join(
        folder, f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizing": dataclasses.asdict(sizing),
        "host": host,
        "result": result,
        "workloads": [
            {
                "workload": outcome.workload,
                "ops": outcome.attempted,
                "ops_failed": outcome.failed,
                "problems": outcome.problems,
                "digests": outcome.digests,
                "samples": outcome.samples,
                "spans": outcome.spans,
            }
            for outcome in outcomes
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
