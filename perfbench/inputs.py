"""Seeded input generator for the benchmark workloads.

Writes the four input files ``prepare`` reads (documents, edge list,
feature matrix, LLM cache) plus ``corpus.json``, which records the
class names, the text width, the model and training config, and the
node, edge and split counts the workload must find after ingestion.
The same seed always gives byte-identical input files.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np


def write_desk_corpus(out: Path, seed: int, nodes: int = 400) -> dict:
    """`gen-synthetic --nodes 400 --classes 4` at ``seed``.

    Runs the CLI command so the corpus and its model/train config are
    exactly what a user gets; the config lands in ``config.json``.
    """
    from tapeformer import cli

    out.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["gen-synthetic", "--out", str(out), "--nodes", str(nodes),
                       "--classes", "4", "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"gen-synthetic exited {rc}")
    cfg = json.loads((out / "config.json").read_text())
    with open(out / "docs.jsonl", encoding="utf-8") as f:
        years = np.asarray([json.loads(line)["year"] for line in f])
    with open(out / "edges.tsv", encoding="utf-8") as f:
        num_edges = sum(1 for line in f if line.strip() and not line.startswith("#"))
    corpus = {
        "class_names": cfg["data"]["class_names"],
        "text_dim": cfg["data"]["text_dim"],
        "model": cfg["model"],
        "train": cfg["train"],
        "num_nodes": len(years),
        "num_edges": num_edges,
        "split": [int((years <= 2017).sum()), int((years == 2018).sum()),
                  int((years >= 2019).sum())],
    }
    (out / "corpus.json").write_text(json.dumps(corpus))
    return corpus
