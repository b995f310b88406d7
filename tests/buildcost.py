"""Build cost probe: what one subgraph-store entry costs to build, by stage.

Builds every center of the ``gen-synthetic --nodes 400 --classes 4
--seed 0`` graph into a fresh ``SubgraphStore`` at the desk config
(``ego_max_nodes=16``, as ``gen-synthetic`` writes it) and the default
one (32), in passes of 16 and of 64 centers, and prints JSON with the
median over ``--repeats`` builds of each stage's thread CPU time per
center, in microseconds:

- ``sample``: ``sample_ego_subgraph``;
- ``adjacency``, ``bfs``, ``paths``: ``local_adjacency``, ``bfs_spd``
  and ``build_path_features``;
- ``batch``: the rest of ``build_batch``;
- ``split``: ``SubgraphStack.split``;
- ``store``: the rest of ``SubgraphStore.build`` (its bookkeeping);
- ``total``: the whole ``SubgraphStore.build`` call.

Each stage is timed by a wrapper around the name ``SubgraphStore.build``
calls, so it measures any version of the library that has these names.
``--against DIR`` also imports the library under ``DIR/src`` (another
checkout) and alternates the two build by build, in one process, so
that both see the same machine; ``total_ratio`` then holds, per
setting, each repeat's total over the other library's and their median.
With ``--memory`` it also prints the ``tracemalloc`` peak of one pass
at each setting, from a separate build.

    python tests/buildcost.py                                # 15 builds per setting
    python tests/buildcost.py --against ../parent --memory   # this checkout vs another
"""
from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS

import argparse
import importlib
import importlib.util
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {"desk": 16, "default": 32}  # ego_max_nodes
PASSES = (16, 64)
STAGES = {  # stage -> (SubgraphStack or None for the model module, attribute) wrapped
    "sample": (None, "sample_ego_subgraph"),
    "adjacency": (None, "local_adjacency"),
    "bfs": (None, "bfs_spd"),
    "paths": (None, "build_path_features"),
    "batch": (None, "build_batch"),
    "split": ("SubgraphStack", "split"),
}


def load(src: Path, name: str):
    """``src/tapeformer`` imported as the package ``name``: (its model
    module, the seed-0 400-node graph built by its own graph module)."""
    spec = importlib.util.spec_from_file_location(
        name, src / "tapeformer" / "__init__.py",
        submodule_search_locations=[str(src / "tapeformer")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    gm = importlib.import_module(f"{name}.model")
    gr = importlib.import_module(f"{name}.graph")
    syn = importlib.import_module(f"{name}.synthetic")
    data = syn.generate(syn.SyntheticParams(num_nodes=400, num_classes=4, seed=0))
    return gm, gr.from_edge_list(data.edges, 400)


def timed(spent: dict, name: str, fn):
    """``fn``, adding the thread CPU time of each call to ``spent[name]``."""
    def wrapper(*args, **kwargs):
        t0 = time.thread_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.thread_time_ns() - t0
    return wrapper


def build_once(gm, g, cfg, seed: int) -> dict[str, float]:
    """Microseconds per center of each stage of one build of every center."""
    spent = dict.fromkeys(STAGES, 0)
    owners = {name: gm if owner is None else getattr(gm, owner)
              for name, (owner, _) in STAGES.items()}
    saved = {name: getattr(owners[name], attr) for name, (_, attr) in STAGES.items()}
    for name, (_, attr) in STAGES.items():
        setattr(owners[name], attr, timed(spent, name, saved[name]))
    try:
        store = gm.SubgraphStore()
        t0 = time.thread_time_ns()
        store.build(g, cfg, range(g.num_nodes), seed)
        total = time.thread_time_ns() - t0
    finally:
        for name, (_, attr) in STAGES.items():
            setattr(owners[name], attr, saved[name])
    spent["batch"] -= spent["adjacency"] + spent["bfs"] + spent["paths"]
    spent["store"] = total - sum(spent.values())
    spent["total"] = total
    return {name: ns / 1e3 / g.num_nodes for name, ns in spent.items()}


def pass_peak(gm, g, cfg, per_pass: int, seed: int) -> int:
    """tracemalloc peak, in bytes, of building the first ``per_pass`` centers."""
    store = gm.SubgraphStore()
    tracemalloc.start()
    try:
        store.build(g, cfg, range(per_pass), seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=15, help="builds per setting (default 15)")
    ap.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    ap.add_argument("--against", type=Path, help="another checkout to alternate builds with")
    ap.add_argument("--memory", action="store_true", help="also print each pass's traced peak")
    args = ap.parse_args(argv)
    libs = {"this": load(ROOT / "src", "tapeformer")}
    if args.against is not None:
        libs["against"] = load(args.against.resolve() / "src", "tapeformer_against")
    out = {"libraries": {label: str(Path(gm.__file__).parent) for label, (gm, _) in libs.items()},
           "repeats": args.repeats, "seed": args.seed,
           "us_per_center": {label: {} for label in libs}}
    if args.against is not None:
        out["total_ratio"] = {}
    if args.memory:
        out["pass_peak_bytes"] = {label: {} for label in libs}
    for config, k in CONFIGS.items():
        for per_pass in PASSES:
            setting = f"{config}/{per_pass}"
            runs = {label: [] for label in libs}
            for repeat in range(args.repeats + 1):  # repeat 0 warms up: lazy tables, allocator
                for label, (gm, g) in libs.items():
                    default_pairs, gm.BUILD_PASS_PAIRS = gm.BUILD_PASS_PAIRS, per_pass * k * k
                    try:
                        cfg = gm.GraphormerParams(ego_max_nodes=k).for_classes(4)
                        runs[label].append(build_once(gm, g, cfg, args.seed))
                        if args.memory and repeat == 0:
                            out["pass_peak_bytes"][label][setting] = pass_peak(
                                gm, g, cfg, per_pass, args.seed)
                    finally:
                        gm.BUILD_PASS_PAIRS = default_pairs
            for label, rs in runs.items():
                out["us_per_center"][label][setting] = {
                    name: round(float(np.median([r[name] for r in rs[1:]])), 2) for name in rs[0]}
            if args.against is not None:
                ratios = [a["total"] / b["total"]
                          for a, b in zip(runs["this"][1:], runs["against"][1:])]
                out["total_ratio"][setting] = {"median": round(float(np.median(ratios)), 3),
                                               "per_repeat": [round(r, 3) for r in ratios]}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
