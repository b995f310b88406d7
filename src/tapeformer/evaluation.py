"""Classification metrics and the component-ablation runner.

Accuracy plus macro-averaged precision/recall/F1 from a confusion
matrix. Per-class values with a zero denominator count as 0 and stay in
the macro mean over all classes (the class count divides the sums
unconditionally); they are tallied so callers can audit. The ablation
runner retrains the model under named source/architecture toggles on a
shared seed and split and tabulates the results.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .model import GraphormerConfig, build_model
from .text import SOURCES
from .training import TrainConfig, TemporalSplit, predict, train

log = logging.getLogger(__name__)

__all__ = [
    "ConfusionMatrix",
    "MetricsReport",
    "AblationRow",
    "confusion",
    "metrics",
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
class ConfusionMatrix:
    counts: np.ndarray  # (C, C) int64, rows = true class, cols = predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


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


def confusion(preds, labels, num_classes: int) -> ConfusionMatrix:
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
    return ConfusionMatrix(counts=counts)


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    counts = cm.counts
    c = cm.num_classes
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    per_class: list[ClassMetrics] = []
    zero_den = 0
    for i in range(c):
        p_den = tp[i] + fp[i]
        r_den = tp[i] + fn[i]
        if p_den == 0 or r_den == 0:
            zero_den += 1
        p = tp[i] / p_den if p_den > 0 else 0.0
        r = tp[i] / r_den if r_den > 0 else 0.0
        f1 = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
        per_class.append(ClassMetrics(precision=p, recall=r, f1=f1, support=int(r_den)))
    if zero_den:
        log.info("metrics: %d class(es) had a zero precision/recall denominator", zero_den)
    return MetricsReport(
        accuracy=float(tp.sum() / cm.total),
        macro_precision=float(sum(m.precision for m in per_class) / c),
        macro_recall=float(sum(m.recall for m in per_class) / c),
        macro_f1=float(sum(m.f1 for m in per_class) / c),
        per_class=per_class,
        zero_denominator_classes=zero_den,
    )


def report_to_json(report: MetricsReport) -> str:
    payload = {
        "accuracy": report.accuracy,
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
        "per_class": [
            {"class": i, "precision": m.precision, "recall": m.recall,
             "f1": m.f1, "support": m.support}
            for i, m in enumerate(report.per_class)
        ],
        "zero_denominator_classes": report.zero_denominator_classes,
    }
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
            valid = sorted({"graphormer", "mlp", "full", *(_GROUPS)})
            raise ValueError(f"unknown ablation toggle {token!r} in {name!r}; valid tokens: {valid}")
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
    """Train and evaluate every named configuration on the same split/seed."""
    parsed = [(name, *parse_toggle(name)) for name in toggles]
    rows: list[AblationRow] = []
    for name, kind, sources in sorted(parsed, key=lambda x: x[0]):
        model = build_model(model_cfg, kind, sources, data.source_dims(), train_cfg.seed)
        log.info("ablation %s: kind=%s sources=%s", name, kind, ",".join(sources))
        result = train(model, data, split, train_cfg)
        model.load_state(result.best_state)
        preds = predict(model, data, split.test_ids, seed=train_cfg.seed)
        cm = confusion(preds, data.labels[split.test_ids], model_cfg.num_classes)
        rows.append(AblationRow(name=name, kind=kind, sources=sources,
                                val_accuracy=result.best_val_accuracy,
                                test_report=metrics(cm)))
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
