"""Seeded benchmark inputs, generated once and cached on disk.

Inputs are made before any timer starts.  Each is keyed by workload
kind, seed variant and scale, plus a digest of the generator sources,
so a checkout that changes the generator never reuses a stale tree.
The benchmark seed selects one of :data:`VARIANTS` generator seeds: the
same seed always gives the same inputs, and every variant has its
deterministic result digest recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Dict, Tuple

#: Generator seeds reachable from the benchmark seed (``seed % VARIANTS``).
VARIANTS = 4
#: ``paper_corpus`` seed of variant 0, the paper's own.
CORPUS_BASE_SEED = 2004
#: ``build_backbone`` seed of variant 0.
BACKBONE_BASE_SEED = 9

CORPUS_SCALE = 0.5
SERVE_SCALE = 0.25
BACKBONE_ROUTERS = 48
BACKBONE_POP_SIZE = 6

_GENERATOR_SOURCES = ("synth", "ios")


@dataclass(frozen=True)
class TreeInput:
    """A generated config tree plus the generator's ground truth."""

    path: str
    #: archive name -> ``NetworkSpec.router_count``
    routers: Dict[str, int]
    files: int
    lines: int


def variant(seed: int) -> int:
    return seed % VARIANTS


def _generator_digest(src: str) -> str:
    digest = hashlib.sha256()
    for package in _GENERATOR_SOURCES:
        base = os.path.join(src, "repro", package)
        for folder, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, base).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:12]


def _write_archive(folder: str, configs: Dict[str, str]) -> Tuple[int, int]:
    os.makedirs(folder)
    lines = 0
    for name, text in sorted(configs.items()):
        with open(os.path.join(folder, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        lines += text.count("\n")
    return len(configs), lines


def _cached(state: str, src: str, key: str, build) -> TreeInput:
    """Return the cached tree for ``key``, building it first if absent.

    ``build(tmpdir)`` writes the tree and returns (routers, files, lines);
    the truth file is written last and marks the tree complete.
    """
    base = os.path.join(state, "inputs", f"{key}-{_generator_digest(src)}")
    truth_path = os.path.join(base, "truth.json")
    if not os.path.exists(truth_path):
        shutil.rmtree(base, ignore_errors=True)
        tmp = f"{base}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        routers, files, lines = build(os.path.join(tmp, "tree"))
        with open(os.path.join(tmp, "truth.json"), "w", encoding="utf-8") as handle:
            json.dump({"routers": routers, "files": files, "lines": lines}, handle)
        os.rename(tmp, base)
    with open(truth_path, encoding="utf-8") as handle:
        truth = json.load(handle)
    return TreeInput(
        path=os.path.join(base, "tree"),
        routers=truth["routers"],
        files=truth["files"],
        lines=truth["lines"],
    )


def corpus_input(state: str, src: str, seed: int, scale: float = CORPUS_SCALE) -> TreeInput:
    """``paper_corpus(scale, 2004 + variant)``: one subdirectory per network."""
    generator_seed = CORPUS_BASE_SEED + variant(seed)

    def build(tree: str):
        from repro.synth.corpus import build_corpus  # noqa: PLC0415

        os.makedirs(tree)
        routers, files, lines = {}, 0, 0
        for network in build_corpus(scale=scale, seed=generator_seed):
            count, n_lines = _write_archive(
                os.path.join(tree, network.name), network.configs
            )
            routers[network.name] = network.spec.router_count
            files += count
            lines += n_lines
        return routers, files, lines

    return _cached(state, src, f"corpus-v{variant(seed)}-x{scale}", build)


def backbone_input(
    state: str, src: str, seed: int, routers: int = BACKBONE_ROUTERS
) -> TreeInput:
    """``build_backbone("bench", 1, routers, 9 + variant, pop_size=6)`` as a
    one-archive corpus directory."""
    generator_seed = BACKBONE_BASE_SEED + variant(seed)

    def build(tree: str):
        from repro.synth.templates.backbone import build_backbone  # noqa: PLC0415

        configs, spec = build_backbone(
            "bench", 1, routers, seed=generator_seed, pop_size=BACKBONE_POP_SIZE
        )
        os.makedirs(tree)
        files, lines = _write_archive(os.path.join(tree, "bench"), configs)
        return {"bench": spec.router_count}, files, lines

    return _cached(state, src, f"backbone-v{variant(seed)}-r{routers}", build)


def net5_input(state: str, src: str, seed: int, scale: float = SERVE_SCALE) -> TreeInput:
    """net5 of ``paper_corpus(scale, 2004 + variant)`` as a single archive."""
    generator_seed = CORPUS_BASE_SEED + variant(seed)

    def build(tree: str):
        from repro.synth.corpus import build_corpus  # noqa: PLC0415

        for network in build_corpus(scale=scale, seed=generator_seed):
            if network.name == "net5":
                files, lines = _write_archive(tree, network.configs)
                return {"net5": network.spec.router_count}, files, lines
        raise RuntimeError("paper corpus has no net5")

    return _cached(state, src, f"net5-v{variant(seed)}-x{scale}", build)
