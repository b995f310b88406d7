"""Prepared-dataset artifact: everything training needs in one binary file.

Ingestion (documents, edge list, feature matrix, LLM cache) happens
once; the artifact stores the graph's out-CSR arrays (an older
artifact's ``in_offsets`` and ``in_targets`` are read, hashed and
ignored), labels, years, class names and the embedding bundle, each
source ``s`` as the array ``h_<s>``. Serialization is canonical (sorted
JSON meta, fixed array order), so preparing the same inputs twice
yields byte-identical files and the same content hash. Loading checks
the class names and the bundle with the same rules that ``prepare``
applies.
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
from .graph import DirectedGraph, GraphConstructionError, from_out_csr, load_edge_list
from .model import GraphormerParams
from .text import (
    SOURCES,
    DataError,
    EncodingParams,
    build_bundle,
    check_source,
    check_values,
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
_SOURCE_OF = {f"h_{s}": s for s in SOURCES}  # the source each bundle array of the artifact holds
_SOURCE_RUN_BYTES = 1 << 24  # of a source's float64 rows, read, checked and cast at once


@dataclass
class PreparedDataset:
    class_names: list[str]
    labels: np.ndarray  # int64, -1 where unlabeled
    years: np.ndarray
    graph: DirectedGraph
    # SOURCES -> (n, d): float64 from prepare (see text.check_source), the model dtype once loaded
    bundle: dict[str, np.ndarray]
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
        return {s: self.bundle[s].shape[1] for s in SOURCES}


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
    _check_class_names(class_names)
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


def _check_class_names(names: list) -> None:
    """Class names are distinct strings; a DataError names the first
    entry that is not a string, or the names given twice."""
    odd = [c for c in names if not isinstance(c, str)]
    if odd:
        raise DataError(f"class name {odd[0]!r} is not a string")
    repeated = sorted({c for c in names if names.count(c) > 1})
    if repeated:
        raise DataError(f"class names {repeated} given more than once")


def _arrays_of(ds: PreparedDataset) -> list[tuple[str, np.ndarray]]:
    g = ds.graph
    return [
        ("labels", ds.labels),
        ("years", ds.years),
        ("out_offsets", g.out_offsets),
        ("out_targets", g.out_targets),
        *((name, ds.bundle[s]) for name, s in _SOURCE_OF.items()),
    ]


def save_dataset(ds: PreparedDataset, path) -> str:
    """Write the artifact; returns (and writes alongside) its sha256 hash.

    Array payloads are hashed and written from the arrays' own buffers.
    The artifact holds float64 and int64 arrays only: a bundle loaded in
    another dtype is refused by name, not rounded back to float64.
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
        if arr.dtype not in _DTYPE_CODES:
            raise ValueError(f"cannot save array {name!r} of dtype {arr.dtype}: the artifact "
                             f"holds float64 and int64 arrays; load the dataset with "
                             f'load_dataset(..., dtype="float64") to save it again')
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


def load_dataset(path, dtype: str = GraphormerParams.dtype) -> PreparedDataset:
    """Read and validate an artifact; any inconsistency is a DataError naming the file.

    Each array is read straight into its final buffer and hashed there,
    but for the embedding sources, which ``_read_source`` reads in runs
    of rows, checking each as ``prepare`` checks it and casting it to
    ``dtype`` (by default the model's) before reading the next, so a
    load holds one run of float64 beside its result.
    """
    t0 = time.perf_counter()
    sources_s = 0.0  # reading, checking and casting the sources
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            r = Reader(f, DataError("truncated dataset artifact"), digest)
            if r.take(len(_MAGIC)) != _MAGIC:
                raise DataError("not a prepared dataset artifact")
            (meta_len,) = _U64.unpack(r.take(8))
            meta = r.utf8(meta_len, DataError("artifact meta is not UTF-8"))
            try:
                meta = json.loads(meta)
            except json.JSONDecodeError as e:
                raise DataError(f"artifact meta is not JSON: {e}") from None
            _check_meta(meta)
            (count,) = _U64.unpack(r.take(8))
            arrays: dict[str, np.ndarray] = {}
            for _ in range(count):
                (nlen,) = _U64.unpack(r.take(8))
                name = r.utf8(nlen, DataError("an array name is not UTF-8"))
                code = r.take(1)[0]
                if code not in _DTYPES:
                    raise DataError(f"array {name!r} has unknown dtype code {code}")
                (rank,) = _U64.unpack(r.take(8))
                shape = tuple(_U64.unpack(r.take(8))[0] for _ in range(rank))
                if name in _SOURCE_OF:
                    ts = time.perf_counter()
                    arrays[name] = _read_source(r, _SOURCE_OF[name], _DTYPES[code], shape,
                                                meta["num_nodes"], dtype)
                    sources_s += time.perf_counter() - ts
                else:
                    arrays[name] = r.array(shape, _DTYPES[code])
            if r.left:
                raise DataError("trailing bytes after the last array")
        t1 = time.perf_counter()
        sidecar = Path(str(path) + ".sha256")
        if sidecar.exists() and sidecar.read_bytes().strip() != digest.hexdigest().encode():
            raise DataError(f"sha256 {digest.hexdigest()} differs from {sidecar}")
        _check_artifact(meta, arrays)
        graph = from_out_csr(arrays["out_offsets"], arrays["out_targets"],
                             meta["self_loops_dropped"], meta["duplicates_dropped"])
    except (DataError, GraphConstructionError) as e:
        raise DataError(f"{path}: {e}") from None
    bundle = {s: arrays[name] for name, s in _SOURCE_OF.items()}
    log.info("loaded dataset artifact %s: %d nodes, %d edges, bundle in %s (read+hash %.3fs, "
             "sources %.3fs, validation %.3fs)", path, graph.num_nodes, graph.num_edges,
             np.dtype(dtype), t1 - t0 - sources_s, sources_s, time.perf_counter() - t1)
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


def _read_source(r: Reader, s: str, stored, shape: tuple[int, ...], n: int, dtype) -> np.ndarray:
    """Source ``s``, stored as ``stored`` in ``shape``, read from ``r`` into
    a ``dtype`` matrix in runs of rows, each checked by ``check_values``
    and cast before the next is read. A finite value beyond ``dtype``'s
    range is a DataError naming the largest magnitude read."""
    out = r.empty(shape, stored, dtype)
    check_source(s, stored, shape, n)
    per = max(1, _SOURCE_RUN_BYTES // max(1, 8 * shape[1]))  # float64 rows per run
    buf = None if out.dtype == stored else np.empty((min(per, n), shape[1]), stored)
    for lo in range(0, n, per):
        run = out[lo:lo + per] if buf is None else buf[:min(per, n - lo)]  # float64: in place
        r.fill(run)
        check_values(s, run)
        try:
            with np.errstate(over="raise"):  # run is finite: only a value beyond dtype's overflows
                if buf is not None:
                    out[lo:lo + len(run)] = run
        except FloatingPointError:  # the earlier runs fit, so this one holds the largest value
            raise DataError(f"source {s!r} has finite values beyond the {out.dtype} range "
                            f"(largest magnitude {np.abs(run).max():.6g})") from None
    return out


def _check_meta(meta) -> None:
    """The meta block's keys, their types and the class names."""
    counts = ("num_nodes", "num_edges", "text_dim", "pred_top_k", "seed",
              "self_loops_dropped", "duplicates_dropped")
    if not isinstance(meta, dict):
        raise DataError("artifact meta is not a JSON object")
    missing = sorted({"class_names", *counts} - set(meta))
    if missing:
        raise DataError(f"artifact meta is missing keys {missing}")
    not_int = [k for k in counts if type(meta[k]) is not int]
    if not_int or not isinstance(meta["class_names"], list):
        raise DataError(f"artifact meta has ill-typed values for {not_int or 'class_names'}")
    _check_class_names(meta["class_names"])


def _check_artifact(meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """The invariants save_dataset's input holds, the meta's and the
    bundle's aside (``_check_meta`` and ``_read_source`` check those
    as each is read, ``from_out_csr`` the out-CSR): array shapes that
    agree with the node and edge counts, and labels in [-1, num_classes)."""
    n, m = meta["num_nodes"], meta["num_edges"]
    expected = {"labels": (n,), "years": (n,), "out_offsets": (n + 1,), "out_targets": (m,)}
    missing = sorted((set(expected) | set(_SOURCE_OF)) - set(arrays))
    if missing:
        raise DataError(f"artifact is missing arrays {missing}")
    for name, shape in expected.items():
        a = arrays[name]
        if a.shape != shape or a.dtype != np.int64:
            raise DataError(f"{name} is {a.dtype} {a.shape}, expected int64 {shape} "
                            f"for {n} nodes and {m} edges")
    labels, c = arrays["labels"], len(meta["class_names"])
    if n and (labels.min() < -1 or labels.max() >= c):
        raise DataError(f"labels must lie in [-1, {c}) for {c} classes")
