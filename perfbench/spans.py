"""Spans recorded from outside the program, and the per-layer metrics
derived from them.

The traced run replaces each public function or method listed in
``PATCHES`` with a wrapper that records a span (name, start, end,
parent). A name is patched where its caller looks it up: ``model.py``
imports the structural and sampling functions by name, so they are
patched on ``tapeformer.model``; ``dataset.py`` does the same for the
ingestion functions. Individual autodiff ops are not wrapped.

Besides spans, a few hooks read counts off arguments and results
(subgraph sizes, path pairs, bytes built, tape size once the loss is
recorded).
Counts depend only on the inputs, so they repeat exactly for a seed.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# (module, class or None, attribute, span name)
PATCHES = [
    ("tapeformer.dataset", None, "prepare", "dataset.prepare"),
    ("tapeformer.dataset", None, "save_dataset", "dataset.save_dataset"),
    ("tapeformer.dataset", None, "load_dataset", "dataset.load_dataset"),
    ("tapeformer.dataset", None, "load_node_documents", "text.load_node_documents"),
    ("tapeformer.dataset", None, "load_feature_matrix", "text.load_feature_matrix"),
    ("tapeformer.dataset", None, "load_llm_records", "text.load_llm_records"),
    ("tapeformer.dataset", None, "build_bundle", "text.build_bundle"),
    ("tapeformer.dataset", None, "load_edge_list", "graph.load_edge_list"),
    ("tapeformer.model", None, "sample_ego_subgraph", "graph.sample_ego_subgraph"),
    ("tapeformer.model", None, "local_adjacency", "structural.local_adjacency"),
    ("tapeformer.model", None, "bfs_spd", "structural.bfs_spd"),
    ("tapeformer.model", None, "build_path_features", "structural.build_path_features"),
    ("tapeformer.model", None, "build_batch", "model.build_batch"),
    ("tapeformer.model", None, "attention_bias", "model.attention_bias"),
    ("tapeformer.model", None, "multi_head_attention", "model.multi_head_attention"),
    ("tapeformer.model", "GraphormerModel", "batch_for", "model.batch_for"),
    ("tapeformer.model", "GraphormerModel", "logits_for_centers", "model.logits_for_centers"),
    ("tapeformer.model", "GraphormerModel", "forward_fused", "model.forward_fused"),
    ("tapeformer.fusion", "FusionLayer", "fuse", "fusion.fuse"),
    ("tapeformer.autodiff", None, "backward", "autodiff.backward"),
    ("tapeformer.autodiff", None, "save_parameters", "autodiff.save_parameters"),
    ("tapeformer.autodiff", None, "load_parameters", "autodiff.load_parameters"),
    ("tapeformer.training", None, "smoothed_cross_entropy", "training.smoothed_cross_entropy"),
    ("tapeformer.training", "Adam", "step", "training.Adam.step"),
    ("tapeformer.training", None, "accuracy_on", "training.accuracy_on"),
    ("tapeformer.training", None, "predict", "training.predict"),
    ("tapeformer.evaluation", None, "confusion", "evaluation.confusion"),
    ("tapeformer.evaluation", None, "metrics", "evaluation.metrics"),
]

ROOT = "bench"

# per-layer metrics: (name, unit, better)
PER_LAYER = [
    ("graph.sample_ego_subgraph.calls", "count", "lower"),
    ("graph.sample_ego_subgraph.self_s", "s", "lower"),
    ("graph.sample_ego_subgraph.p50_ms", "ms", "lower"),
    ("graph.sample_ego_subgraph.p90_ms", "ms", "lower"),
    ("graph.ego_nodes_mean", "nodes", "lower"),
    ("graph.load_edge_list.self_s", "s", "lower"),
    ("structural.local_adjacency.self_s", "s", "lower"),
    ("structural.bfs_spd.self_s", "s", "lower"),
    ("structural.build_path_features.self_s", "s", "lower"),
    ("structural.build_path_features.p50_ms", "ms", "lower"),
    ("structural.build_path_features.p90_ms", "ms", "lower"),
    ("structural.path_pairs", "count", "lower"),
    ("structural.path_steps", "count", "lower"),
    ("model.build_batch.calls", "count", "lower"),
    ("model.build_batch.self_s", "s", "lower"),
    ("model.build_batch.bytes", "bytes", "lower"),
    ("model.batch_for.calls", "count", "lower"),
    ("model.batch_for.hit_ratio", "fraction", "higher"),
    ("model.logits_for_centers.self_s", "s", "lower"),
    ("model.logits_for_centers.p50_ms", "ms", "lower"),
    ("model.logits_for_centers.p90_ms", "ms", "lower"),
    ("model.forward_fused.self_s", "s", "lower"),
    ("model.attention_bias.self_s", "s", "lower"),
    ("model.multi_head_attention.calls", "count", "lower"),
    ("model.multi_head_attention.self_s", "s", "lower"),
    ("fusion.fuse.calls", "count", "lower"),
    ("fusion.fuse.self_s", "s", "lower"),
    ("fusion.fuse.rows", "count", "lower"),
    ("fusion.unique_row_ratio", "fraction", "higher"),
    ("autodiff.tape_ops_per_step", "count", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.backward.self_s", "s", "lower"),
    ("autodiff.backward.p50_ms", "ms", "lower"),
    ("autodiff.backward.p90_ms", "ms", "lower"),
    ("autodiff.save_parameters.self_s", "s", "lower"),
    ("autodiff.load_parameters.self_s", "s", "lower"),
    ("training.smoothed_cross_entropy.self_s", "s", "lower"),
    ("training.Adam.step.calls", "count", "lower"),
    ("training.Adam.step.self_s", "s", "lower"),
    ("training.accuracy_on.self_s", "s", "lower"),
    ("training.predict.self_s", "s", "lower"),
    ("text.load_node_documents.self_s", "s", "lower"),
    ("text.load_feature_matrix.self_s", "s", "lower"),
    ("text.load_llm_records.self_s", "s", "lower"),
    ("text.build_bundle.self_s", "s", "lower"),
    ("dataset.prepare.self_s", "s", "lower"),
    ("dataset.save_dataset.self_s", "s", "lower"),
    ("dataset.load_dataset.self_s", "s", "lower"),
    ("dataset.artifact_bytes", "bytes", "lower"),
    ("evaluation.confusion.self_s", "s", "lower"),
    ("evaluation.metrics.self_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "fraction", "lower"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Tracer:
    """Spans and counters for one traced workload run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index]; index 0 is the root span
        self.spans: list[list] = [[ROOT, time.perf_counter(), None, -1]]
        self._stack = [0]
        self._undo: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tape_ops: list[int] = []
        self._lfc_nodes: list[np.ndarray] = []  # batches of the open logits_for_centers

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for module, cls, attr, name in PATCHES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            orig = owner.__dict__[attr]
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def finish(self) -> None:
        self.spans[0][2] = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "run": self.run_id, "name": name,
                                    "start": start, "end": end, "parent": parent}) + "\n")

    # -- derived metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        own = self_times(self.spans)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(i)
        out: dict[str, float] = {}
        for name, idx in by_name.items():
            durations = [(self.spans[i][2] - self.spans[i][1]) * 1e3 for i in idx]
            out[f"{name}.calls"] = len(idx)
            out[f"{name}.self_s"] = float(sum(own[i] for i in idx))
            out[f"{name}.p50_ms"] = float(np.percentile(durations, 50))
            out[f"{name}.p90_ms"] = float(np.percentile(durations, 90))
        out["bench.unattributed_s"] = out.pop(f"{ROOT}.self_s")
        c = self.counts
        out["graph.ego_nodes_mean"] = c["ego_nodes"] / max(1, out.get("graph.sample_ego_subgraph.calls", 0))
        out["structural.path_pairs"] = c["path_pairs"]
        out["structural.path_steps"] = c["path_steps"]
        out["model.build_batch.bytes"] = c["batch_bytes"]
        out["model.batch_for.hit_ratio"] = 1.0 - (
            out.get("model.build_batch.calls", 0) / max(1, out.get("model.batch_for.calls", 0)))
        out["fusion.fuse.rows"] = c["fused_rows"]
        out["fusion.unique_row_ratio"] = c["lfc_unique"] / max(1.0, c["lfc_rows"])
        out["autodiff.tape_ops_per_step"] = float(np.median(self.tape_ops or [0]))
        out["dataset.artifact_bytes"] = c["artifact_bytes"]
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` holds ``(name, start, end, parent)`` rows with parent -1
    for a root. Child intervals are clipped to the parent and merged,
    so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# -- counting hooks, run after the span: (tracer, args, kwargs, result) ------


def _count_ego(t, args, kwargs, sub):
    t.counts["ego_nodes"] += sub.num_nodes


def _count_paths(t, args, kwargs, paths):
    t.counts["path_pairs"] += len(paths.per_pair)
    t.counts["path_steps"] += sum(f.shape[0] for f in paths.per_pair.values())


def _count_batch(t, args, kwargs, batch):
    t.counts["batch_bytes"] += sum(
        a.nbytes for a in (batch.nodes, batch.spd.dist, batch.spd_buckets,
                           batch.path_coeffs, batch.in_deg, batch.out_deg))


def _count_batch_for(t, args, kwargs, batch):
    t._lfc_nodes.append(batch.nodes)


def _lfc_end(t, args, kwargs, logits):
    if t._lfc_nodes:
        t.counts["lfc_rows"] += sum(len(n) for n in t._lfc_nodes)
        t.counts["lfc_unique"] += len(np.unique(np.concatenate(t._lfc_nodes)))
    t._lfc_nodes = []


def _count_fuse(t, args, kwargs, out):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    t.counts["fused_rows"] += next(iter(rows.values())).shape[0]


def _tape_size(t, args, kwargs, loss):
    from tapeformer import autodiff

    t.tape_ops.append(autodiff.tape_size())


def _artifact_bytes(t, args, kwargs, digest):
    path = args[1] if len(args) > 1 else kwargs["path"]
    t.counts["artifact_bytes"] = os.path.getsize(path)


_AFTER = {
    "graph.sample_ego_subgraph": _count_ego,
    "structural.build_path_features": _count_paths,
    "model.build_batch": _count_batch,
    "model.batch_for": _count_batch_for,
    "model.logits_for_centers": _lfc_end,
    "fusion.fuse": _count_fuse,
    "dataset.save_dataset": _artifact_bytes,
    "training.smoothed_cross_entropy": _tape_size,
}
