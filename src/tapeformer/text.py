"""Turns node text and cached LLM outputs into per-node embedding matrices.

Four sources per node: hashed text features, hashed explanation
features, a rank-weighted distribution over the LLM's predicted
classes, and the dataset's own feature vectors. The heavy LM stage is
replaced by deterministic feature hashing so the whole pipeline runs on
a laptop; precomputed matrices from a real LM can be swapped in per
source. Missing LLM records degrade to zero rows instead of failing --
component ablations depend on being able to run with sources absent.
"""
from __future__ import annotations

import json
import logging
import re
import struct
import zlib
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

__all__ = [
    "NodeDocument",
    "LlmRecord",
    "EmbeddingBundle",
    "EncodingParams",
    "DataError",
    "SOURCES",
    "tokenize",
    "format_prompt",
    "stub_llm_provider",
    "encode_text",
    "encode_predictions",
    "build_bundle",
    "load_node_documents",
    "load_llm_records",
    "load_feature_matrix",
    "save_feature_matrix",
]

SOURCES = ("expl", "pred", "text", "ogb")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class EncodingParams:
    """The embedding settings a run config sets, with their defaults."""

    text_dim: int = 256  # width of the hashed text and explanation encodings
    pred_top_k: int = 5  # LLM predictions kept per node


@dataclass
class NodeDocument:
    id: int
    title: str
    abstract: str
    label: int | None
    year: int


@dataclass
class LlmRecord:
    node_id: int
    predictions: list[int]  # ranked class indices, best first, no duplicates
    explanation: str


@dataclass
class EmbeddingBundle:
    """The four per-node embedding matrices, row i = node i."""

    h_expl: np.ndarray
    h_pred: np.ndarray
    h_text: np.ndarray
    h_ogb: np.ndarray

    def validate(self) -> None:
        rows = {m.shape[0] for m in (self.h_expl, self.h_pred, self.h_text, self.h_ogb)}
        if len(rows) != 1:
            raise DataError(f"embedding matrices disagree on row count: {sorted(rows)}")
        for name in SOURCES:
            m = getattr(self, f"h_{name}")
            if not np.isfinite(m).all():
                raise DataError(f"non-finite values in h_{name}")

    @property
    def num_nodes(self) -> int:
        return self.h_text.shape[0]

    def source(self, name: str) -> np.ndarray:
        return getattr(self, f"h_{name}")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


PROMPT_TEMPLATE = (
    "Title: {title}\n"
    "Abstract: {abstract}\n"
    "\n"
    "Question: which of the following {num_classes} research areas best describes "
    "this paper? Areas: {class_list}.\n"
    "Answer with the areas ranked from most to least likely, then give a short "
    "explanation of the reasoning behind the top choice."
)


def format_prompt(doc: NodeDocument, class_names: list[str]) -> str:
    """Render the classification prompt; byte-identical for equal inputs."""
    return PROMPT_TEMPLATE.format(
        title=doc.title,
        abstract=doc.abstract,
        num_classes=len(class_names),
        class_list=", ".join(class_names),
    )


def stub_llm_provider(doc: NodeDocument, class_names: list[str], seed: int = 0,
                      top_k: int = 5) -> LlmRecord:
    """Deterministic stand-in for a hosted LLM.

    Classes are ranked by multiset token overlap: the number of document
    token occurrences matching a token of the class name (ties fall back
    to class-index order). The explanation is a fixed template naming
    the matched tokens. ``seed`` is accepted for interface parity with
    sampling providers and ignored here.
    """
    doc_tokens = tokenize(doc.title + " " + doc.abstract)
    counts: dict[str, int] = {}
    for t in doc_tokens:
        counts[t] = counts.get(t, 0) + 1
    scored = []
    for idx, name in enumerate(class_names):
        name_tokens = set(tokenize(name))
        overlap = sorted(t for t in name_tokens if t in counts)
        score = sum(counts[t] for t in overlap)
        scored.append((-score, idx, overlap))
    scored.sort()
    ranked = scored[: min(top_k, len(class_names))]
    predictions = [idx for _, idx, _ in ranked]
    top_name = class_names[predictions[0]]
    top_overlap = ranked[0][2]
    if top_overlap:
        explanation = (
            f"The paper most likely belongs to {top_name}: "
            f"it mentions {', '.join(top_overlap)}."
        )
    else:
        explanation = f"No area terms appear in the text; defaulting to {top_name}."
    return LlmRecord(node_id=doc.id, predictions=predictions, explanation=explanation)


def encode_text(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Feature-hash unigrams into ``dim`` signed buckets, L2-normalized.

    crc32 keyed by the seed keeps the mapping stable across processes
    and platforms; an all-zero vector (empty text) stays all-zero.
    """
    if dim < 1:
        raise ValueError("encode_text: dim must be >= 1")
    salt = zlib.crc32(struct.pack("<q", seed))
    vec = np.zeros(dim, dtype=np.float64)
    for tok in tokenize(text):
        h = zlib.crc32(tok.encode("utf-8"), salt)
        sign = 1.0 if h & 0x80000000 else -1.0
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def encode_predictions(rec: LlmRecord | None, num_classes: int, top_k: int) -> np.ndarray:
    """Rank-weighted class distribution: weight 1/rank, normalized to 1.

    A missing record or empty prediction list yields the zero vector.
    """
    if top_k < 1:
        raise ValueError("encode_predictions: top_k must be >= 1")
    vec = np.zeros(num_classes, dtype=np.float64)
    if rec is None or not rec.predictions:
        return vec
    take = rec.predictions[:top_k]
    for rank, cls in enumerate(take, start=1):
        if not 0 <= cls < num_classes:
            raise DataError(f"prediction class {cls} out of range [0, {num_classes})")
        vec[cls] = 1.0 / rank
    return vec / vec.sum()


def build_bundle(
    docs: list[NodeDocument],
    records: dict[int, LlmRecord],
    ogb_features: np.ndarray,
    num_classes: int,
    text_dim: int = EncodingParams.text_dim,
    pred_top_k: int = EncodingParams.pred_top_k,
    seed: int = 0,
    overrides: dict[str, np.ndarray] | None = None,
) -> EmbeddingBundle:
    """Assemble the four embedding matrices for all documents.

    ``overrides`` replaces a computed source ("expl"/"pred"/"text"/"ogb")
    with a precomputed matrix, e.g. real LM embeddings.
    """
    n = len(docs)
    ogb = np.asarray(ogb_features, dtype=np.float64)
    if ogb.shape[0] != n:
        raise DataError(f"feature matrix has {ogb.shape[0]} rows for {n} documents")
    h_text = np.zeros((n, text_dim), dtype=np.float64)
    h_expl = np.zeros((n, text_dim), dtype=np.float64)
    h_pred = np.zeros((n, num_classes), dtype=np.float64)
    for i, doc in enumerate(docs):
        h_text[i] = encode_text(doc.title + "\n" + doc.abstract, text_dim, seed)
        rec = records.get(doc.id)
        if rec is not None:
            h_expl[i] = encode_text(rec.explanation, text_dim, seed)
            h_pred[i] = encode_predictions(rec, num_classes, pred_top_k)
    matrices = {"expl": h_expl, "pred": h_pred, "text": h_text, "ogb": ogb}
    for name, mat in (overrides or {}).items():
        if name not in SOURCES:
            raise DataError(f"unknown embedding source override: {name!r}")
        mat = np.asarray(mat, dtype=np.float64)
        if mat.shape[0] != n:
            raise DataError(f"override for {name!r} has {mat.shape[0]} rows, expected {n}")
        matrices[name] = mat
    bundle = EmbeddingBundle(
        h_expl=matrices["expl"], h_pred=matrices["pred"],
        h_text=matrices["text"], h_ogb=matrices["ogb"],
    )
    bundle.validate()
    return bundle


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def load_node_documents(path) -> list[NodeDocument]:
    """Parse the node-document JSONL file; ids must be exactly 0..n-1."""
    docs: list[NodeDocument] = []
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{ln}: invalid JSON: {e}") from None
            try:
                doc = NodeDocument(
                    id=int(obj["id"]),
                    title=str(obj["title"]),
                    abstract=str(obj.get("abstract", "")),
                    label=None if obj.get("label") is None else int(obj["label"]),
                    year=int(obj["year"]),
                )
            except (KeyError, TypeError, ValueError) as e:
                raise DataError(f"{path}:{ln}: bad document record: {e}") from None
            if not doc.title:
                raise DataError(f"{path}:{ln}: empty title for node {doc.id}")
            if doc.id in seen:
                raise DataError(f"{path}:{ln}: duplicate node id {doc.id}")
            seen.add(doc.id)
            docs.append(doc)
    docs.sort(key=lambda d: d.id)
    for i, doc in enumerate(docs):
        if doc.id != i:
            raise DataError(f"{path}: node ids must be a dense range 0..n-1; missing id {i}")
    return docs


def load_llm_records(path, class_names: list[str]) -> dict[int, LlmRecord]:
    """Parse the LLM-cache JSONL file, mapping class names to indices.

    Unknown class names are dropped (counted and logged); duplicate node
    ids and malformed lines are hard errors with line numbers.
    """
    name_to_idx = {name: i for i, name in enumerate(class_names)}
    records: dict[int, LlmRecord] = {}
    unknown = 0
    duplicates = 0
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{ln}: invalid JSON: {e}") from None
            try:
                node_id = int(obj["id"])
                names = list(obj["predictions"])
                explanation = str(obj.get("explanation", ""))
            except (KeyError, TypeError, ValueError) as e:
                raise DataError(f"{path}:{ln}: bad LLM record: {e}") from None
            if node_id in records:
                raise DataError(f"{path}:{ln}: duplicate LLM record for node {node_id}")
            preds: list[int] = []
            for name in names:
                idx = name_to_idx.get(name)
                if idx is None:
                    unknown += 1
                elif idx in preds:
                    duplicates += 1
                else:
                    preds.append(idx)
            records[node_id] = LlmRecord(node_id=node_id, predictions=preds, explanation=explanation)
    if unknown:
        log.warning("%s: dropped %d prediction(s) with unknown class names", path, unknown)
    if duplicates:
        log.warning("%s: dropped %d duplicate prediction(s)", path, duplicates)
    return records


_FMAT_MAGIC = b"FMAT0001"


def save_feature_matrix(path, matrix: np.ndarray) -> None:
    """Write the binary matrix format: magic, u64 rows, u64 cols, float64 data."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {m.shape}")
    with open(path, "wb") as f:
        f.write(_FMAT_MAGIC)
        f.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        f.write(m.tobytes())


def load_feature_matrix(path) -> np.ndarray:
    """Read a feature matrix: binary (magic-tagged) or CSV with `n,d` header."""
    with open(path, "rb") as f:
        head = f.read(len(_FMAT_MAGIC))
        if head == _FMAT_MAGIC:
            n, d = struct.unpack("<QQ", f.read(16))
            raw = f.read(n * d * 8)
            if len(raw) != n * d * 8:
                raise DataError(f"{path}: truncated feature matrix")
            return np.frombuffer(raw, dtype="<f8").reshape(n, d).copy()
    # CSV fallback: first non-comment line is `rows,cols`
    with open(path, "r", encoding="utf-8") as f:
        header = None
        data: list[np.ndarray] = []
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                try:
                    header = tuple(int(x) for x in line.split(","))
                    assert len(header) == 2
                except (ValueError, AssertionError):
                    raise DataError(f"{path}:{ln}: expected `rows,cols` header") from None
                continue
            try:
                data.append(np.asarray([float(x) for x in line.split(",")], dtype=np.float64))
            except ValueError:
                raise DataError(f"{path}:{ln}: non-numeric matrix entry") from None
    if header is None:
        raise DataError(f"{path}: empty feature matrix file")
    n, d = header
    if len(data) != n or any(row.size != d for row in data):
        raise DataError(f"{path}: matrix body does not match header ({n}, {d})")
    return np.vstack(data) if data else np.zeros((0, d))
