"""Desk-scale benchmark generator.

Produces a planted-partition citation corpus: class-indicative phrases
mixed into titles/abstracts at a configurable rate, citations that
prefer same-class (and always earlier) papers at a configurable rate,
dataset feature vectors drawn around per-class directions, and an LLM
cache generated by the deterministic stub provider. Publication years
are assigned stratified per class so the chronological split always
contains every class in every partition.

``text_signal`` controls both the density and the purity of textual
evidence: a token is a topic phrase with that probability, and a topic
phrase belongs to the true class with the same probability (otherwise
to a uniformly random class). Every phrase embeds its class name token,
so at signal 1.0 all tokens name the true class and the stub provider
is exact by construction, while at 0 the text carries no label
information at all.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .text import LlmRecord, NodeDocument, stub_llm_provider

log = logging.getLogger(__name__)

__all__ = ["SyntheticParams", "SyntheticData", "generate", "write_synthetic_files"]

_WORDS_PER_CLASS = 6
_NOISE_VOCAB = 160
# shares of each class given train (pre-2018) and val (2018) years; the
# rest, and at least one node, get test years
_TRAIN_FRAC = 0.6
_VAL_FRAC = 0.2


@dataclass
class SyntheticParams:
    num_nodes: int = 400
    num_classes: int = 4
    text_signal: float = 0.35
    homophily: float = 0.75
    feature_signal: float = 0.1
    feature_dim: int = 128
    avg_out_degree: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.num_nodes < 5 * self.num_classes:
            raise ValueError(
                f"{self.num_nodes} nodes cannot cover {self.num_classes} classes "
                "across train/val/test; need at least 5 per class"
            )
        for name in ("feature_dim", "avg_out_degree"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("text_signal", "homophily", "feature_signal"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SyntheticData:
    class_names: list[str]
    docs: list[NodeDocument]
    edges: list[tuple[int, int]]
    features: np.ndarray
    records: dict[int, LlmRecord]

    @property
    def labels(self) -> np.ndarray:
        return np.asarray([d.label for d in self.docs], dtype=np.int64)


def _assign_years(params: SyntheticParams, labels: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Stratified years: every class appears in train/val/test."""
    years = np.empty(params.num_nodes, dtype=np.int64)
    for cls in range(params.num_classes):
        ids = np.nonzero(labels == cls)[0]
        ids = ids[rng.permutation(len(ids))]
        n = len(ids)
        n_train = max(1, int(round(_TRAIN_FRAC * n)))
        n_val = max(1, int(round(_VAL_FRAC * n)))
        n_train = min(n_train, n - 2)  # always keep one val and one test node
        n_val = min(n_val, n - n_train - 1)
        years[ids[:n_train]] = rng.integers(2012, 2018, size=n_train)
        years[ids[n_train:n_train + n_val]] = 2018
        years[ids[n_train + n_val:]] = rng.integers(2019, 2021, size=n - n_train - n_val)
    return years


def _make_text(rng, length, cls, phrases, noise, signal):
    toks = []
    for _ in range(length):
        if rng.random() < signal:
            k = cls if rng.random() < signal else int(rng.integers(0, len(phrases)))
            pool = phrases[k]
            toks.append(pool[rng.integers(0, len(pool))])
        else:
            toks.append(noise[rng.integers(0, len(noise))])
    return " ".join(toks)


def generate(params: SyntheticParams) -> SyntheticData:
    rng = np.random.default_rng(params.seed)
    n, c = params.num_nodes, params.num_classes
    class_names = [f"field{k}" for k in range(c)]
    # each phrase carries the class name token plus a class-specific word
    phrases = [
        [class_names[k]] + [f"{class_names[k]} kw{k}{j}" for j in range(_WORDS_PER_CLASS)]
        for k in range(c)
    ]
    noise = [f"filler{j}" for j in range(_NOISE_VOCAB)]
    labels = (np.arange(n) % c)[rng.permutation(n)]
    years = _assign_years(params, labels, rng)

    # citations point at strictly earlier papers; same-class with prob homophily
    order = np.lexsort((np.arange(n), years))  # chronological, id tie-break
    by_class_earlier: list[list[int]] = [[] for _ in range(c)]
    earlier: list[int] = []
    edges: list[tuple[int, int]] = []
    for t in range(n):
        v = int(order[t])
        if earlier:
            m = min(len(earlier), 1 + int(rng.poisson(params.avg_out_degree - 1)))
            targets: set[int] = set()
            for _ in range(m):
                same = by_class_earlier[labels[v]]
                if same and rng.random() < params.homophily:
                    targets.add(same[int(rng.integers(0, len(same)))])
                else:
                    targets.add(earlier[int(rng.integers(0, len(earlier)))])
            edges.extend((v, u) for u in sorted(targets))
        earlier.append(v)
        by_class_earlier[labels[v]].append(v)

    docs: list[NodeDocument] = []
    for i in range(n):
        cls = int(labels[i])
        title = _make_text(rng, int(rng.integers(4, 9)), cls, phrases, noise,
                           params.text_signal)
        abstract = _make_text(rng, int(rng.integers(16, 33)), cls, phrases, noise,
                              params.text_signal)
        docs.append(NodeDocument(id=i, title=title, abstract=abstract,
                                 label=cls, year=int(years[i])))

    mu = rng.standard_normal((c, params.feature_dim))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    g = rng.standard_normal((n, params.feature_dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    s = params.feature_signal
    features = s * mu[labels] + (1.0 - s) * g
    features /= np.linalg.norm(features, axis=1, keepdims=True)

    records = {d.id: stub_llm_provider(d, class_names) for d in docs}
    log.info("synthetic corpus: %d nodes, %d classes, %d edges", n, c, len(edges))
    return SyntheticData(class_names=class_names, docs=docs, edges=edges,
                         features=features, records=records)


def write_synthetic_files(data: SyntheticData, out_dir) -> dict[str, str]:
    """Write docs/edges/features/cache files; returns their paths."""
    from pathlib import Path

    from .text import save_feature_matrix

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "node_docs": str(out / "docs.jsonl"),
        "edges": str(out / "edges.tsv"),
        "ogb_features": str(out / "features.bin"),
        "llm_cache": str(out / "llm_cache.jsonl"),
    }
    with open(paths["node_docs"], "w", encoding="utf-8") as f:
        for d in data.docs:
            f.write(json.dumps({"id": d.id, "title": d.title, "abstract": d.abstract,
                                "label": d.label, "year": d.year}) + "\n")
    with open(paths["edges"], "w", encoding="utf-8") as f:
        f.write("# src\tdst\n")
        for u, v in data.edges:
            f.write(f"{u}\t{v}\n")
    save_feature_matrix(paths["ogb_features"], data.features)
    with open(paths["llm_cache"], "w", encoding="utf-8") as f:
        for i in sorted(data.records):
            rec = data.records[i]
            f.write(json.dumps({
                "id": rec.node_id,
                "predictions": [data.class_names[k] for k in rec.predictions],
                "explanation": rec.explanation,
            }) + "\n")
    return paths
