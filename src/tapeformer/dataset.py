"""Prepared-dataset artifact: everything training needs in one binary file.

Ingestion (documents, edge list, feature matrix, LLM cache) happens
once; the artifact stores the graph's CSR arrays, labels, years, class
names and the four embedding matrices. Serialization is canonical
(sorted JSON meta, fixed array order), so preparing the same inputs
twice yields byte-identical files and the same content hash.
"""
from __future__ import annotations

import hashlib
import json
import logging
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binfile import Reader, payload
from .graph import DirectedGraph, load_edge_list
from .text import (
    SOURCES,
    DataError,
    EmbeddingBundle,
    EncodingParams,
    build_bundle,
    load_feature_matrix,
    load_llm_records,
    load_node_documents,
)

log = logging.getLogger(__name__)

__all__ = ["PreparedDataset", "prepare", "save_dataset", "load_dataset"]

_MAGIC = b"TAPEDS01"
_U64 = struct.Struct("<Q")
_DTYPES = {0: np.float64, 1: np.int64}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


@dataclass
class PreparedDataset:
    class_names: list[str]
    labels: np.ndarray  # int64, -1 where unlabeled
    years: np.ndarray
    graph: DirectedGraph
    bundle: EmbeddingBundle
    text_dim: int
    pred_top_k: int
    seed: int

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def source_dims(self) -> dict[str, int]:
        return {s: self.bundle.source(s).shape[1] for s in SOURCES}


def prepare(
    node_docs_path,
    edges_path,
    features_path,
    llm_cache_path,
    class_names: list[str],
    text_dim: int = EncodingParams.text_dim,
    pred_top_k: int = EncodingParams.pred_top_k,
    seed: int = 0,
    overrides: dict[str, np.ndarray] | None = None,
) -> PreparedDataset:
    """Ingest the four input files and build the dataset in memory."""
    t0 = time.perf_counter()
    docs = load_node_documents(node_docs_path)
    n = len(docs)
    if n == 0:
        raise DataError(f"{node_docs_path}: no documents")
    t1 = time.perf_counter()
    graph = load_edge_list(edges_path, num_nodes=n)
    t2 = time.perf_counter()
    features = load_feature_matrix(features_path)
    if features.shape[0] != n:
        raise DataError(
            f"{features_path}: {features.shape[0]} feature rows for {n} documents"
        )
    t3 = time.perf_counter()
    records = load_llm_records(llm_cache_path, class_names) if llm_cache_path else {}
    unmatched = [i for i in records if not 0 <= i < n]  # document ids are 0..n-1
    if unmatched and len(unmatched) == len(records):
        raise DataError(f"{llm_cache_path}: no LLM record matches a document: all "
                        f"{len(records)} ids lie outside [0, {n}), the first {unmatched[0]}")
    if unmatched:
        log.warning("%s: ignoring %d LLM record(s) whose id matches no document in [0, %d), "
                    "the first %d", llm_cache_path, len(unmatched), n, unmatched[0])
        records = {i: r for i, r in records.items() if 0 <= i < n}
    t4 = time.perf_counter()
    labels = np.asarray([-1 if d.label is None else d.label for d in docs], dtype=np.int64)
    c = len(class_names)
    bad = np.flatnonzero((labels < -1) | (labels >= c))
    if len(bad):
        raise DataError(f"{node_docs_path}: node {bad[0]} has label {labels[bad[0]]}, "
                        f"outside [-1, {c}) for the {c} configured classes")
    years = np.asarray([d.year for d in docs], dtype=np.int64)
    bundle = build_bundle(docs, records, features, num_classes=len(class_names),
                          text_dim=text_dim, pred_top_k=pred_top_k, seed=seed,
                          overrides=overrides)
    t5 = time.perf_counter()
    log.info("prepared dataset: %d nodes, %d edges, %d classes, %d cached LLM records "
             "(docs %.3fs, edges %.3fs, features %.3fs, LLM cache %.3fs, bundle %.3fs)",
             n, graph.num_edges, len(class_names), len(records),
             t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)
    return PreparedDataset(class_names=class_names, labels=labels, years=years,
                           graph=graph, bundle=bundle, text_dim=text_dim,
                           pred_top_k=pred_top_k, seed=seed)


def _arrays_of(ds: PreparedDataset) -> list[tuple[str, np.ndarray]]:
    g = ds.graph
    return [
        ("labels", ds.labels),
        ("years", ds.years),
        ("out_offsets", g.out_offsets),
        ("out_targets", g.out_targets),
        ("in_offsets", g.in_offsets),
        ("in_targets", g.in_targets),
        ("h_expl", ds.bundle.h_expl),
        ("h_pred", ds.bundle.h_pred),
        ("h_text", ds.bundle.h_text),
        ("h_ogb", ds.bundle.h_ogb),
    ]


def save_dataset(ds: PreparedDataset, path) -> str:
    """Write the artifact; returns (and writes alongside) its sha256 hash.

    Array payloads are hashed and written from the arrays' own buffers.
    """
    meta = {
        "class_names": ds.class_names,
        "num_nodes": ds.num_nodes,
        "num_edges": ds.graph.num_edges,
        "text_dim": ds.text_dim,
        "pred_top_k": ds.pred_top_k,
        "seed": ds.seed,
        "self_loops_dropped": ds.graph.self_loops_dropped,
        "duplicates_dropped": ds.graph.duplicates_dropped,
    }
    meta_raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    arrays = _arrays_of(ds)
    parts = [_MAGIC, _U64.pack(len(meta_raw)), meta_raw, _U64.pack(len(arrays))]
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        raw = name.encode("utf-8")
        parts += [_U64.pack(len(raw)), raw, struct.pack("<B", _DTYPE_CODES[arr.dtype]),
                  _U64.pack(arr.ndim), *map(_U64.pack, arr.shape), payload(arr)]
    t0 = time.perf_counter()
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    hexhash = digest.hexdigest()
    t1 = time.perf_counter()
    with open(path, "wb") as f:
        f.writelines(parts)
    with open(str(path) + ".sha256", "w", encoding="utf-8") as f:
        f.write(hexhash + "\n")
    log.info("wrote dataset artifact %s: %d bytes (hash %.3fs, write %.3fs)",
             path, sum(len(p) for p in parts), t1 - t0, time.perf_counter() - t1)
    return hexhash


def load_dataset(path) -> PreparedDataset:
    """Read and validate an artifact; any inconsistency is a DataError.

    Each array is read straight into its final buffer and hashed there.
    """
    t0 = time.perf_counter()
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        r = Reader(f, DataError(f"{path}: truncated dataset artifact"), digest)
        if r.take(len(_MAGIC)) != _MAGIC:
            raise DataError(f"{path}: not a prepared dataset artifact")
        (meta_len,) = _U64.unpack(r.take(8))
        meta = r.utf8(meta_len, DataError(f"{path}: artifact meta is not UTF-8"))
        try:
            meta = json.loads(meta)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: artifact meta is not JSON: {e}") from None
        (count,) = _U64.unpack(r.take(8))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = _U64.unpack(r.take(8))
            name = r.utf8(nlen, DataError(f"{path}: an array name is not UTF-8"))
            code = r.take(1)[0]
            if code not in _DTYPES:
                raise DataError(f"{path}: array {name!r} has unknown dtype code {code}")
            (rank,) = _U64.unpack(r.take(8))
            shape = tuple(_U64.unpack(r.take(8))[0] for _ in range(rank))
            arrays[name] = r.array(shape, _DTYPES[code])
        if r.left:
            raise DataError(f"{path}: trailing bytes after the last array")
    t1 = time.perf_counter()
    sidecar = Path(str(path) + ".sha256")
    if sidecar.exists() and sidecar.read_bytes().strip() != digest.hexdigest().encode():
        raise DataError(f"{path}: sha256 {digest.hexdigest()} differs from {sidecar}")
    _check_artifact(path, meta, arrays)
    graph = DirectedGraph(
        num_nodes=meta["num_nodes"],
        out_offsets=arrays["out_offsets"],
        out_targets=arrays["out_targets"],
        in_offsets=arrays["in_offsets"],
        in_targets=arrays["in_targets"],
        num_edges=meta["num_edges"],
        self_loops_dropped=meta["self_loops_dropped"],
        duplicates_dropped=meta["duplicates_dropped"],
    )
    bundle = EmbeddingBundle(h_expl=arrays["h_expl"], h_pred=arrays["h_pred"],
                             h_text=arrays["h_text"], h_ogb=arrays["h_ogb"])
    bundle.validate()
    log.info("loaded dataset artifact %s: %d nodes, %d edges (read+hash %.3fs, validation %.3fs)",
             path, graph.num_nodes, graph.num_edges, t1 - t0, time.perf_counter() - t1)
    return PreparedDataset(
        class_names=list(meta["class_names"]),
        labels=arrays["labels"],
        years=arrays["years"],
        graph=graph,
        bundle=bundle,
        text_dim=meta["text_dim"],
        pred_top_k=meta["pred_top_k"],
        seed=meta["seed"],
    )


def _check_artifact(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """The invariants save_dataset's input holds: the meta keys, array
    shapes that agree with the node and edge counts, CSR adjacency with
    sorted in-range targets, and labels in [-1, num_classes)."""
    counts = ("num_nodes", "num_edges", "text_dim", "pred_top_k", "seed",
              "self_loops_dropped", "duplicates_dropped")
    if not isinstance(meta, dict):
        raise DataError(f"{path}: artifact meta is not a JSON object")
    missing = sorted({"class_names", *counts} - set(meta))
    if missing:
        raise DataError(f"{path}: artifact meta is missing keys {missing}")
    not_int = [k for k in counts if type(meta[k]) is not int]
    if not_int or not isinstance(meta["class_names"], list):
        raise DataError(f"{path}: artifact meta has ill-typed values for {not_int or 'class_names'}")
    n, m = meta["num_nodes"], meta["num_edges"]
    expected = {"labels": (n,), "years": (n,), "out_offsets": (n + 1,), "out_targets": (m,),
                "in_offsets": (n + 1,), "in_targets": (m,)}
    missing = sorted((set(expected) | {f"h_{s}" for s in SOURCES}) - set(arrays))
    if missing:
        raise DataError(f"{path}: artifact is missing arrays {missing}")
    for name, shape in expected.items():
        a = arrays[name]
        if a.shape != shape or a.dtype != np.int64:
            raise DataError(f"{path}: {name} is {a.dtype} {a.shape}, expected int64 {shape} "
                            f"for {n} nodes and {m} edges")
    for s in SOURCES:
        a = arrays[f"h_{s}"]
        if a.ndim != 2 or a.shape[0] != n or a.dtype != np.float64:
            raise DataError(f"{path}: h_{s} is {a.dtype} {a.shape}, expected float64 ({n}, d)")
    for side in ("out", "in"):
        off, tgt = arrays[f"{side}_offsets"], arrays[f"{side}_targets"]
        if off[0] != 0 or off[-1] != m or np.any(np.diff(off) < 0):
            raise DataError(f"{path}: {side}_offsets must rise monotonically from 0 to {m}")
        if m and (tgt.min() < 0 or tgt.max() >= n):
            raise DataError(f"{path}: {side}_targets has a node id outside [0, {n})")
        # row-major keys rise strictly iff each row's targets are sorted and distinct
        keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(off)) * n + tgt
        if np.any(np.diff(keys) <= 0):
            raise DataError(f"{path}: {side}_targets are not sorted within a row")
    labels, c = arrays["labels"], len(meta["class_names"])
    if n and (labels.min() < -1 or labels.max() >= c):
        raise DataError(f"{path}: labels must lie in [-1, {c}) for {c} classes")
