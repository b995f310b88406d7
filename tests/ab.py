"""A/B probe: cold and warm predict chunks of two checkouts, alternated in one process.

Loads ``src/tapeformer`` of this checkout and of ``--against DIR`` (another
checkout) as two packages through ``buildcost.load``, or with ``--aa`` this
checkout twice, so that both sides see the same machine at the same time:
timings of separate processes on a shared machine drift by more than a
small change moves them. Both sides prepare the same ``gen-synthetic
--nodes 400 --classes 4 --seed 0`` corpus with their own ``dataset``
module and predict its test centers in chunks of 16, as the benchmark's
predict phases do, at the desk config (``gen-synthetic``'s model config,
``ego_max_nodes=16``) and the default one (32). Each round takes the next
chunk and runs, for one side and then the other (the order flips every
round), two phases:

- ``cold``: a fresh model (an empty subgraph store) predicts the chunk and
  scores it with ``evaluation.metrics``: sampling and encoding the chunk's
  subgraphs, the forward, the metrics;
- ``warm``: the same model predicts the chunk again: the forward alone.

It prints JSON with, per config and phase, each side's median thread CPU
time per node in microseconds, each round's ratio of this side's time to
the other's, their median and the number of rounds this side was faster.
``cold_build`` and ``cold_metrics`` are the medians of the parts of the
cold phase spent in ``SubgraphStore.build`` and ``evaluation.metrics``.
Round 0 warms both sides up and is not counted. This checkout is always
imported first, so a layout effect of the import order is not randomised.

    python tests/ab.py --against ../parent           # 20 rounds per config
    python tests/ab.py --aa --rounds 40              # this checkout against itself
"""
from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from buildcost import ROOT, load, timed

CHUNK = 16
CONFIGS = ("desk", "default")


def side(name: str, corpus: Path, config: dict):
    """The modules of the library loaded as the package ``name``, and the
    corpus as its ``dataset`` module prepares, saves and loads it."""
    mod = {m: importlib.import_module(f"{name}.{m}")
           for m in ("dataset", "evaluation", "fusion", "model", "training")}
    data = config["data"]
    ds = mod["dataset"].prepare(corpus / "docs.jsonl", corpus / "edges.tsv",
                                corpus / "features.bin", corpus / "llm_cache.jsonl",
                                data["class_names"], text_dim=data["text_dim"], seed=0)
    art = corpus / f"{name}.bin"
    mod["dataset"].save_dataset(ds, art)
    return mod, mod["dataset"].load_dataset(art)


def model_configs(mod, ds, which: str, config: dict):
    gm = mod["model"]
    fields = {f.name for f in dataclasses.fields(gm.GraphormerConfig)} - {"num_classes"}
    kw = {k: v for k, v in config["model"].items() if k in fields} if which == "desk" else {}
    cfg = gm.GraphormerConfig(num_classes=ds.num_classes, **kw)
    return cfg, mod["fusion"].FusionConfig(d_model=cfg.d_model, source_dims=ds.source_dims())


def one_round(mod, ds, configs, part) -> dict[str, float]:
    """Thread CPU microseconds per node of each phase on the chunk ``part``."""
    gm, ev, tr = mod["model"], mod["evaluation"], mod["training"]
    spent = {"cold_build": 0, "cold_metrics": 0}
    store_build, metrics = gm.SubgraphStore.build, ev.metrics
    model = gm.GraphormerModel(*configs, seed=0)
    gm.SubgraphStore.build = timed(spent, "cold_build", store_build)
    ev.metrics = timed(spent, "cold_metrics", metrics)
    try:
        t0 = time.thread_time_ns()
        preds = tr.predict(model, ds, part, seed=0)
        ev.metrics(ev.confusion(preds, ds.labels[part], ds.num_classes))
        spent["cold"] = time.thread_time_ns() - t0
    finally:
        gm.SubgraphStore.build, ev.metrics = store_build, metrics
    t0 = time.thread_time_ns()
    warm = tr.predict(model, ds, part, seed=0)
    spent["warm"] = time.thread_time_ns() - t0
    if not np.array_equal(warm, preds):
        raise AssertionError("warm predictions differ from cold ones")
    return {phase: ns / 1e3 / len(part) for phase, ns in spent.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--against", type=Path, help="the other checkout")
    which.add_argument("--aa", action="store_true", help="this checkout against itself")
    ap.add_argument("--rounds", type=int, default=20, help="counted rounds per config (20)")
    args = ap.parse_args(argv)
    other = ROOT if args.aa else args.against.resolve()
    with tempfile.TemporaryDirectory() as work:
        corpus = Path(work)
        load(ROOT / "src", "tapeformer")
        load(other / "src", "tapeformer_against")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = importlib.import_module("tapeformer.cli").main(
                ["gen-synthetic", "--out", str(corpus), "--nodes", "400", "--classes", "4",
                 "--seed", "0"])
        if rc != 0:
            raise RuntimeError(f"gen-synthetic exited {rc}")
        config = json.loads((corpus / "config.json").read_text(encoding="utf-8"))
        sides = {"this": side("tapeformer", corpus, config),
                 "against": side("tapeformer_against", corpus, config)}
        ids = importlib.import_module("tapeformer.training").make_temporal_split(
            sides["this"][1].years, sides["this"][1].labels, train_last_year=2017,
            test_first_year=2019).test_ids
        chunks = [ids[lo:lo + CHUNK] for lo in range(0, len(ids) - CHUNK + 1, CHUNK)]
        out = {"libraries": {label: str(Path(mod["model"].__file__).parent)
                             for label, (mod, _) in sides.items()},
               "rounds": args.rounds, "chunk": CHUNK}
        for which in CONFIGS:
            configs = {label: model_configs(mod, ds, which, config)
                       for label, (mod, ds) in sides.items()}
            runs = {label: [] for label in sides}
            for r in range(args.rounds + 1):
                order = ("this", "against") if r % 2 else ("against", "this")
                for label in order:
                    mod, ds = sides[label]
                    runs[label].append(one_round(mod, ds, configs[label], chunks[r % len(chunks)]))
            result = {}
            for phase in runs["this"][0]:
                mine, theirs = ([run[phase] for run in runs[label][1:]] for label in sides)
                result[phase] = {"this": round(float(np.median(mine)), 2),
                                 "against": round(float(np.median(theirs)), 2)}
                if phase in ("cold", "warm"):
                    ratios = [a / b for a, b in zip(mine, theirs)]
                    result[phase]["ratio"] = {
                        "median": round(float(np.median(ratios)), 3),
                        "wins": sum(q < 1 for q in ratios),
                        "per_round": [round(q, 3) for q in ratios]}
            out[which] = result
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
