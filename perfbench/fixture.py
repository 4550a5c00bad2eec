"""The benchmark fixture: the bench model, built once per source tree.

The fixture is the model of ``benchmarks/common.py`` (vocab 64, dim 64,
8 layers, 4 heads, max_len 128) pretrained for 250 AdamW steps on the
pretraining language.  The serve workloads additionally need it
LUC-compressed, adapted and voting-calibrated with the ``adapt`` recipe.

Building costs about 25 s, so both are cached under ``perfbench/.cache``
keyed by a hash of ``src/repro`` and this file; a changed source tree
builds afresh.  The build runs in a child process so that its memory
high-water mark never reaches a workload's ``peak_rss_mb``.  Nothing here
is timed.

Usage (what ``run.py`` does on a cache miss)::

    PYTHONPATH=src python3 -m perfbench.fixture <cache-dir>
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_ROOT = os.path.join(ROOT, "perfbench", ".cache")

PRETRAIN_STEPS = 250
SERVE_ADAPT_STEPS = 300
BATCH, SEQ = 8, 32
EXIT_POINTS = (3, 6, 8)
WINDOW = 2
BUDGET = 0.30


def edge_config(shards: int = 1, micro_batches: int = 1):
    """The ``adapt`` recipe: LUC budget 0.30 over bits {2,4,8} x prune
    {0,.3,.5}, then window-2 tuning over exits [3,6,8] round-robin."""
    from repro.adaptive import AdaptiveTuningConfig
    from repro.pipeline import EdgeLLMConfig

    return EdgeLLMConfig(
        compute_budget=BUDGET,
        bit_options=(2, 4, 8),
        prune_options=(0.0, 0.3, 0.5),
        tuning=AdaptiveTuningConfig(
            window=WINDOW, exit_points=list(EXIT_POINTS), schedule="round_robin"
        ),
        shards=shards,
        micro_batches=micro_batches,
    )


def source_key() -> str:
    """Hash of every program source file plus this recipe."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    paths = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, f) for f in filenames if f.endswith(".py")]
    for path in sorted(paths) + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def pretrain():
    """The bench base model, exactly as ``benchmarks/common.py`` builds it."""
    from repro.data import MarkovChainCorpus, lm_batches
    from repro.nn import AdamW, TransformerConfig, TransformerLM
    from repro.tensor import cross_entropy

    model = TransformerLM(TransformerConfig(
        vocab_size=64, dim=64, num_layers=8, num_heads=4, max_len=128, seed=0,
    ))
    corpus = MarkovChainCorpus(vocab_size=64, order=1, seed=0)
    opt = AdamW(model.parameters(), lr=3e-3)
    rng = np.random.default_rng(0)
    for inputs, targets in lm_batches(corpus, BATCH, SEQ, PRETRAIN_STEPS, rng):
        loss = cross_entropy(model(inputs), targets)
        opt.zero_grad()
        loss.backward()
        opt.step()
    return model


def build(cache_dir: str) -> None:
    """Write ``base.npz`` and ``served.pkl`` into ``cache_dir``."""
    from repro.nn import load_model, save_model
    from repro.pipeline import EdgeLLM

    from perfbench.inputs import target_sampler

    os.makedirs(cache_dir, exist_ok=True)
    base_path = os.path.join(cache_dir, "base.npz")
    save_model(pretrain(), base_path + ".tmp.npz")
    os.replace(base_path + ".tmp.npz", base_path)

    sampler = target_sampler()
    rng = np.random.default_rng(12345)
    llm = EdgeLLM(load_model(base_path), edge_config())
    llm.compress(*sampler.lm_batches(1, 4, SEQ, rng)[0])
    llm.adapt(sampler.lm_batches(SERVE_ADAPT_STEPS, BATCH, SEQ, rng))
    voter = llm.calibrate_voting(*sampler.lm_batches(1, 8, SEQ, rng)[0])
    llm.close()
    served = os.path.join(cache_dir, "served.pkl")
    with open(served + ".tmp", "wb") as fh:
        pickle.dump((llm.model, llm.trainer.exit_heads, voter), fh)
    os.replace(served + ".tmp", served)


def ensure() -> str:
    """The cache directory for this source tree, built if missing."""
    cache_dir = os.path.join(CACHE_ROOT, source_key())
    if not os.path.exists(os.path.join(cache_dir, "served.pkl")):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        subprocess.run(
            [sys.executable, "-m", "perfbench.fixture", cache_dir],
            cwd=ROOT, env=env, check=True, timeout=850,
            stdout=sys.stderr,
        )
    return cache_dir


def load_base(cache_dir: str):
    from repro.nn import load_model

    return load_model(os.path.join(cache_dir, "base.npz"))


def load_served(cache_dir: str):
    """(model, exit_heads, calibrated voter) — bytes this module wrote."""
    with open(os.path.join(cache_dir, "served.pkl"), "rb") as fh:
        return pickle.load(fh)


if __name__ == "__main__":
    build(sys.argv[1])
