"""Classification metrics and the component-ablation runner.

Accuracy plus macro-averaged precision/recall/F1 from the (C, C)
confusion counts. Per-class values with a zero denominator count as 0
and stay in the macro mean over all classes (the class count divides
the sums unconditionally); they are tallied so callers can audit.
``score`` is the one path from a trained model to its metrics on a set
of nodes: predict, count, report. The ablation runner retrains the
model under named source/architecture toggles on one seed, split and
subgraph store, and scores each on the test split.
"""
from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass

import numpy as np

from .model import GraphormerConfig, SubgraphStore, build_model
from .text import SOURCES
from .training import TrainConfig, TemporalSplit, predict, train

log = logging.getLogger(__name__)

__all__ = [
    "MetricsReport",
    "AblationRow",
    "confusion",
    "metrics",
    "score",
    "report_to_json",
    "parse_toggle",
    "run_ablation",
    "format_ablation_table",
    "DEFAULT_ABLATION",
]

# the standard toggle set: each single-source model row plus the
# structure-free row and the full configuration
DEFAULT_ABLATION = (
    "graphormer+TA",
    "graphormer+P",
    "graphormer+E",
    "TA+P+E",
    "full",
)

_GROUPS = {
    "ta": ("text", "ogb"),
    "p": ("pred",),
    "e": ("expl",),
    "text": ("text",),
    "ogb": ("ogb",),
    "pred": ("pred",),
    "expl": ("expl",),
}


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: list[ClassMetrics]
    zero_denominator_classes: int = 0


def confusion(preds, labels, num_classes: int) -> np.ndarray:
    """(C, C) int64 counts: rows are true classes, columns predicted ones."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError(f"prediction/label shapes disagree: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise ValueError("cannot build a confusion matrix from zero predictions")
    for name, arr in (("prediction", preds), ("label", labels)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValueError(f"{name} class index out of range [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    return counts


def metrics(counts: np.ndarray) -> MetricsReport:
    """The report of a ``confusion`` count matrix, in Python ints and floats:
    the float64 values of the counts' arithmetic, macro sums class by class."""
    rows = counts.tolist()
    per_class: list[ClassMetrics] = []
    zero_den = hits = total = 0
    sum_p = sum_r = sum_f1 = 0.0  # the macro sums, class by class
    for i, (row, p_den) in enumerate(zip(rows, map(sum, zip(*rows)))):
        tp, r_den = row[i], sum(row)
        hits, total = hits + tp, total + r_den
        if p_den == 0 or r_den == 0:
            zero_den += 1
        p = tp / p_den if p_den > 0 else 0.0
        r = tp / r_den if r_den > 0 else 0.0
        f1 = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
        per_class.append(ClassMetrics(precision=p, recall=r, f1=f1, support=r_den))
        sum_p, sum_r, sum_f1 = sum_p + p, sum_r + r, sum_f1 + f1
    if zero_den:
        log.info("metrics: %d class(es) had a zero precision/recall denominator", zero_den)
    return MetricsReport(
        accuracy=hits / total,
        macro_precision=sum_p / len(rows),
        macro_recall=sum_r / len(rows),
        macro_f1=sum_f1 / len(rows),
        per_class=per_class,
        zero_denominator_classes=zero_den,
    )


def score(model, data, ids, seed: int) -> MetricsReport:
    """Predict the nodes ``ids`` and report the metrics against their labels."""
    preds = predict(model, data, ids, seed=seed)
    return metrics(confusion(preds, data.labels[ids], data.num_classes))


def report_to_json(report: MetricsReport) -> str:
    payload = asdict(report)
    payload["per_class"] = [{"class": i, **m} for i, m in enumerate(payload["per_class"])]
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# ablation runner
# ---------------------------------------------------------------------------


def parse_toggle(name: str) -> tuple[str, tuple[str, ...]]:
    """Map a configuration name to (model kind, active sources).

    Tokens joined by '+': ``graphormer`` selects the structural model
    (its absence selects the feature-only MLP); ``TA``/``P``/``E`` are
    the source groups text+ogb / predictions / explanations. The
    fine-grained source names are accepted too, and ``full`` is
    shorthand for the whole system.
    """
    if name.lower() == "full":
        return "graphormer", tuple(SOURCES)
    kind = "mlp"
    sources: list[str] = []
    for token in name.split("+"):
        t = token.strip().lower()
        if t == "graphormer":
            kind = "graphormer"
        elif t == "mlp":
            kind = "mlp"
        elif t in _GROUPS:
            for s in _GROUPS[t]:
                if s not in sources:
                    sources.append(s)
        else:
            valid = sorted({"graphormer", "mlp", *(_GROUPS)})
            raise ValueError(f"unknown ablation toggle {token!r} in {name!r}; valid tokens: "
                             f"{valid}, or the whole name 'full' alone for the full system")
    if not sources:
        raise ValueError(f"ablation configuration {name!r} enables no embedding sources")
    return kind, tuple(s for s in SOURCES if s in sources)


@dataclass
class AblationRow:
    name: str
    kind: str
    sources: tuple[str, ...]
    val_accuracy: float
    test_report: MetricsReport


def run_ablation(data, split: TemporalSplit, model_cfg: GraphormerConfig,
                 train_cfg: TrainConfig, toggles=DEFAULT_ABLATION) -> list[AblationRow]:
    """Train every named configuration on the same split and seed, and
    score each at its best-validation checkpoint on the test split. The
    rows share one ``SubgraphStore``: each center is built once, for the
    first graph transformer row, and the later rows look it up."""
    parsed = [(name, *parse_toggle(name)) for name in toggles]
    rows: list[AblationRow] = []
    store = SubgraphStore()
    for name, kind, sources in sorted(parsed, key=lambda x: x[0]):
        model = build_model(model_cfg, kind, sources, data.source_dims(), train_cfg.seed, store)
        log.info("ablation %s: kind=%s sources=%s", name, kind, ",".join(sources))
        result = train(model, data, split, train_cfg)
        rows.append(AblationRow(name=name, kind=kind, sources=sources,
                                val_accuracy=result.best_val_accuracy,
                                test_report=score(model, data, split.test_ids, train_cfg.seed)))
    return rows


def format_ablation_table(rows: list[AblationRow]) -> str:
    """Aligned-column text table, one line per configuration."""
    header = ("configuration", "model", "sources", "val_acc", "test_acc", "test_macro_f1")
    cells = [header]
    for r in rows:
        cells.append((
            r.name, r.kind, "+".join(r.sources),
            f"{r.val_accuracy:.4f}", f"{r.test_report.accuracy:.4f}",
            f"{r.test_report.macro_f1:.4f}",
        ))
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines) + "\n"
