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
import struct
import zlib
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .binfile import Reader, payload, utf8_lines

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

_TEXT_CHUNK = 64  # texts tokenized together by _encode_texts

# bytes.translate table for tokenizing: ASCII letters and digits map to
# themselves (the text is lowered first), every other byte to a space
_TOKEN_BYTES = bytes(b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
                     for b in range(256))


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class EncodingParams:
    """The embedding settings a run config sets, with their defaults."""

    text_dim: int = 256  # width of the hashed text and explanation encodings
    pred_top_k: int = 5  # LLM predictions kept per node

    def __post_init__(self):
        for name in ("text_dim", "pred_top_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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


def _token_bytes(text: str) -> bytes:
    """``text`` lowered and UTF-8 encoded, with every byte outside [a-z0-9]
    turned into a space; ``.split()`` then yields its tokens.

    Non-ASCII characters encode to bytes >= 0x80 only, so they split
    tokens exactly where the regex ``[a-z0-9]+`` over the lowered text
    would. "surrogatepass" lets a lone surrogate (a JSON ``\\ud800``
    escape) through as three such bytes instead of raising.
    """
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES)


def tokenize(text: str) -> list[str]:
    """The maximal runs of [a-z0-9] in the lowered text."""
    return _token_bytes(text).decode("ascii").split()


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
    return _encode_texts([text], dim, seed)[0]


def _encode_texts(texts, dim: int, seed: int) -> np.ndarray:
    """``encode_text`` of every text in the iterable, one row each.

    crc32 hashes each token occurrence's ASCII bytes as the tokenizer
    leaves them, ``_TEXT_CHUNK`` texts at a time so that only one
    chunk's token objects are alive at once, and one ``bincount`` sums
    every row's signed buckets. The sums are small integers, hence exact
    in any order, and the norm is their exact sum of squares: rows equal
    ``encode_text``'s bit for bit.
    """
    if dim < 1:
        raise ValueError("encode_text: dim must be >= 1")
    salt = zlib.crc32(struct.pack("<q", seed))
    hashes, lengths = [np.zeros(0, dtype=np.int64)], []  # concatenable with no texts at all
    texts = iter(texts)
    while chunk := [_token_bytes(text).split() for text in islice(texts, _TEXT_CHUNK)]:
        lengths += map(len, chunk)
        hashes.append(np.fromiter(map(zlib.crc32, chain.from_iterable(chunk), repeat(salt)),
                                  dtype=np.int64))
    h = np.concatenate(hashes)
    sign = np.where(h & 0x80000000, 1.0, -1.0)
    rows = len(lengths)
    flat = np.repeat(np.arange(rows, dtype=np.int64) * dim, lengths)
    flat += h % dim
    out = np.bincount(flat, weights=sign, minlength=rows * dim)
    out = out.astype(np.float64, copy=False).reshape(rows, dim)  # int64 when no tokens at all
    norm = np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]
    np.divide(out, norm, out=out, where=norm > 0.0)
    return out


def encode_predictions(rec: LlmRecord | None, num_classes: int, top_k: int) -> np.ndarray:
    """Rank-weighted class distribution: weight 1/rank, normalized to 1.

    A missing record or empty prediction list yields the zero vector.
    """
    return _prediction_rows([rec], num_classes, top_k)[0]


def _prediction_rows(recs, num_classes: int, top_k: int) -> np.ndarray:
    """``encode_predictions`` of each record (or None), one row each: one
    scatter of every 1/rank weight, then one division by the row sums."""
    if top_k < 1:
        raise ValueError("encode_predictions: top_k must be >= 1")
    rows, classes, ranks = array("q"), array("q"), array("q")
    for i, rec in enumerate(recs):
        if rec is not None:
            take = rec.predictions[:top_k]
            rows.extend([i] * len(take))
            classes.extend(take)
            ranks.extend(range(1, len(take) + 1))
    cls = np.frombuffer(classes, dtype=np.int64)
    bad = (cls < 0) | (cls >= num_classes)
    if bad.any():
        raise DataError(f"prediction class {cls[bad][0]} out of range [0, {num_classes})")
    out = np.zeros((len(recs), num_classes), dtype=np.float64)
    out[np.frombuffer(rows, dtype=np.int64), cls] = 1.0 / np.frombuffer(ranks, dtype=np.int64)
    total = out.sum(axis=1, keepdims=True)
    np.divide(out, total, out=out, where=total > 0.0)
    return out


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
    # rows 0..n-1 hash the title and abstract, rows n..2n-1 the explanation
    # (empty, so zero, without a record)
    hashed = _encode_texts(chain(
        (doc.title + "\n" + doc.abstract for doc in docs),
        (records[doc.id].explanation if doc.id in records else "" for doc in docs),
    ), text_dim, seed)
    h_text, h_expl = hashed[:n], hashed[n:]
    h_pred = _prediction_rows([records.get(doc.id) for doc in docs], num_classes, pred_top_k)
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


def _jsonl_objects(path):
    """Yield (line number, parsed object) for each non-blank line of a
    JSONL file; a line that is not a JSON object raises naming it."""
    for ln, line in utf8_lines(path, DataError):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}:{ln}: invalid JSON: {e}") from None
        if type(obj) is not dict:
            raise DataError(f"{path}:{ln}: expected a JSON object, got {line[:80]}")
        yield ln, obj


def _integer(obj: dict, key: str, path, ln: int, nullable: bool = False) -> int | None:
    """``obj[key]`` if it is a JSON integer that fits in int64 (or null,
    when ``nullable``); a float, bool or string is a DataError naming the
    line and the field, not truncated or coerced."""
    v = obj.get(key) if nullable else obj[key]
    if (type(v) is int and -2**63 <= v < 2**63) or (nullable and v is None):
        return v
    raise DataError(f"{path}:{ln}: {key!r} must be a 64-bit integer, got {json.dumps(v)[:80]}")


def _text(value) -> str:
    """A text field's string; null (like an absent key) is empty text."""
    return "" if value is None else str(value)


def load_node_documents(path) -> list[NodeDocument]:
    """Parse the node-document JSONL file; ids must be exactly 0..n-1."""
    docs: list[NodeDocument] = []
    seen: set[int] = set()
    for ln, obj in _jsonl_objects(path):
        try:
            doc = NodeDocument(
                id=_integer(obj, "id", path, ln),
                title=_text(obj["title"]),
                abstract=_text(obj.get("abstract")),
                label=_integer(obj, "label", path, ln, nullable=True),
                year=_integer(obj, "year", path, ln),
            )
        except KeyError as e:
            raise DataError(f"{path}:{ln}: bad document record: missing key {e}") from None
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


def _bad_predictions(path, ln: int, value) -> DataError:
    return DataError(f"{path}:{ln}: 'predictions' must be a JSON array of class-name strings, "
                     f"got {json.dumps(value)[:80]}")


def load_llm_records(path, class_names: list[str]) -> dict[int, LlmRecord]:
    """Parse the LLM-cache JSONL file, mapping class names to indices.

    Unknown class names are dropped (counted and logged); duplicate node
    ids and malformed lines are hard errors with line numbers.
    """
    name_to_idx = {name: i for i, name in enumerate(class_names)}
    records: dict[int, LlmRecord] = {}
    unknown = 0
    duplicates = 0
    for ln, obj in _jsonl_objects(path):
        try:
            node_id = _integer(obj, "id", path, ln)
            names = obj["predictions"]
        except KeyError as e:
            raise DataError(f"{path}:{ln}: bad LLM record: missing key {e}") from None
        if node_id in records:
            raise DataError(f"{path}:{ln}: duplicate LLM record for node {node_id}")
        if type(names) is not list:
            raise _bad_predictions(path, ln, names)
        preds: list[int] = []
        for name in names:
            if type(name) is not str:
                raise _bad_predictions(path, ln, names)
            idx = name_to_idx.get(name)
            if idx is None:
                unknown += 1
            elif idx in preds:
                duplicates += 1
            else:
                preds.append(idx)
        records[node_id] = LlmRecord(node_id=node_id, predictions=preds,
                                     explanation=_text(obj.get("explanation")))
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
        f.write(payload(m))


def load_feature_matrix(path) -> np.ndarray:
    """Read a feature matrix: binary (magic-tagged) or CSV with `n,d` header."""
    with open(path, "rb") as f:
        if f.read(len(_FMAT_MAGIC)) == _FMAT_MAGIC:
            r = Reader(f, DataError(f"{path}: truncated feature matrix"))
            n, d = struct.unpack("<QQ", r.take(16))
            m = r.array((n, d), "<f8")
            if r.left:  # e.g. a column count too small, which would shift every row
                raise DataError(f"{path}: {r.left} bytes after the ({n}, {d}) feature matrix")
            return m
    # CSV fallback: first non-comment line is `rows,cols`
    header = None
    data: list[np.ndarray] = []
    for ln, line in utf8_lines(path, DataError):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            try:
                n, d = map(int, line.split(","))
            except ValueError:  # not two integer fields
                raise DataError(f"{path}:{ln}: expected `rows,cols` header") from None
            if n < 0 or d < 0:
                raise DataError(f"{path}:{ln}: negative dimension in header {line!r}")
            header = n, d
            continue
        try:
            data.append(np.asarray([float(x) for x in line.split(",")], dtype=np.float64))
        except ValueError:
            raise DataError(f"{path}:{ln}: non-numeric matrix entry") from None
    if header is None:
        raise DataError(f"{path}: empty feature matrix file")
    if len(data) != n or any(row.size != d for row in data):
        raise DataError(f"{path}: matrix body does not match header ({n}, {d})")
    return np.vstack(data) if data else np.zeros((0, d))
