"""Loss, optimizer, schedule, temporal split, and the training loop.

Training iterates over seeded shuffles of the training centers. The
loss, label-smoothed cross-entropy, is one engine op. Each optimizer
step accumulates gradients over ``grad_accum_steps`` micro-batches (each
micro-batch loss is scaled by the accumulation count, so accumulation
reproduces the equivalent large batch exactly), then applies Adam at the
warmup/decay learning rate. Micro-batches and prediction chunks run with
the engine's per-op finite checks off; a non-finite loss or logit
replays them with the checks on, so the error names the first op that
went non-finite. Validation accuracy drives checkpoint selection and
early stopping. Single-threaded runs are bit-reproducible for a given
seed.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .text import DataError

log = logging.getLogger(__name__)

__all__ = [
    "TrainParams",
    "TrainConfig",
    "SplitParams",
    "TemporalSplit",
    "TrainingDiverged",
    "TrainResult",
    "HistoryRow",
    "smoothed_cross_entropy",
    "Adam",
    "lr_at",
    "make_temporal_split",
    "predict",
    "accuracy_on",
    "train",
    "write_history_csv",
]


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; message carries step/lr/grad diagnostics."""


@dataclass
class TrainParams:
    """The training hyperparameters a run config sets, with their defaults."""

    epochs: int = 100
    base_lr: float = 0.002
    warmup_steps: int | None = None  # None: one epoch of optimizer steps
    label_smoothing: float = 0.1
    grad_accum_steps: int = 1
    batch_size: int = 8
    early_stop_patience: int = 10

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label smoothing must be in [0, 1)")
        if self.early_stop_patience < 1:
            raise ValueError("patience must be >= 1")
        if self.grad_accum_steps < 1 or self.batch_size < 1:
            raise ValueError("batch_size and grad_accum_steps must be >= 1")
        if not self.base_lr > 0.0:
            raise ValueError(f"base_lr must be > 0, got {self.base_lr}")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0 or null, got {self.warmup_steps}")


@dataclass
class TrainConfig(TrainParams):
    seed: int = 0


@dataclass
class SplitParams:
    """The temporal split boundaries a run config sets, with their defaults."""

    train_last_year: int = 2017
    test_first_year: int = 2019


@dataclass
class TemporalSplit:
    """Chronological partition of the labeled nodes."""

    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray

    def of(self, name: str) -> np.ndarray:
        try:
            return getattr(self, f"{name}_ids")
        except AttributeError:
            raise ValueError(f"unknown split {name!r}; use train/val/test") from None


@dataclass
class HistoryRow:
    epoch: int
    step: int
    train_loss: float
    val_accuracy: float
    lr: float


@dataclass
class TrainResult:
    best_state: dict[str, np.ndarray]
    best_val_accuracy: float
    best_epoch: int
    history: list[HistoryRow] = field(default_factory=list)


def smoothed_cross_entropy(logits: Tensor, labels: np.ndarray, smoothing: float) -> Tensor:
    """Mean cross-entropy against smoothed targets.

    The target row puts 1 - eps on the label and eps/C elsewhere; eps=0
    recovers plain cross-entropy, recorded as one ``autodiff.cross_entropy``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"label out of range [0, {c})")
    targets = np.full((n, c), smoothing / c, dtype=np.float64)
    targets[np.arange(n), labels] += 1.0 - smoothing
    return ad.cross_entropy(logits, targets)


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    Moments and parameters are updated in place through two scratch
    rows sized for the largest parameter, in the operation order of the
    textbook formulas, so the result is bit for bit what evaluating
    them with temporaries gives.
    """

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.t = 0
        rows = np.empty((2, max((t.data.size for t in params.values()), default=0)))
        # per parameter, two views of the shared rows in its shape
        self._scratch = {k: [row[: t.data.size].reshape(t.data.shape) for row in rows]
                         for k, t in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[k], self.v[k]
            num, den = self._scratch[k]
            # m = b1 * m + (1 - b1) * g
            m *= b1
            np.multiply(g, 1.0 - b1, num)
            m += num
            # v = b2 * v + (1 - b2) * (g * g)
            v *= b2
            np.multiply(g, g, num)
            num *= 1.0 - b2
            v += num
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, num)
            num *= lr
            np.divide(v, c2, den)
            np.sqrt(den, den)
            den += self.eps
            num /= den
            p.data -= num

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def lr_at(step: int, base_lr: float, warmup: int, total: int) -> float:
    """Linear 0 -> base_lr over ``warmup`` steps, then linear base_lr -> 0
    at step ``total``."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if warmup > 0 and step < warmup:
        return base_lr * step / warmup
    if step >= total:
        return 0.0
    span = max(1, total - warmup)
    return base_lr * (total - step) / span


def make_temporal_split(
    years: np.ndarray,
    labels: np.ndarray | None = None,
    train_last_year: int = SplitParams.train_last_year,
    test_first_year: int = SplitParams.test_first_year,
) -> TemporalSplit:
    """Partition labeled nodes chronologically.

    Train: year <= train_last_year; test: year >= test_first_year; the
    years in between validate. Unlabeled nodes (label < 0 or None) are
    excluded. Any empty partition is a configuration error.
    """
    years = np.asarray(years, dtype=np.int64)
    if train_last_year >= test_first_year:
        raise DataError("train_last_year must be < test_first_year")
    labeled = np.ones(len(years), dtype=bool) if labels is None else np.asarray(labels) >= 0
    ids = np.nonzero(labeled)[0]
    y = years[ids]
    split = TemporalSplit(
        train_ids=ids[y <= train_last_year],
        val_ids=ids[(y > train_last_year) & (y < test_first_year)],
        test_ids=ids[y >= test_first_year],
    )
    for name in ("train", "val", "test"):
        part = split.of(name)
        if part.size == 0:
            raise DataError(f"temporal split produced an empty {name} partition; "
                            f"check year boundaries ({train_last_year}, {test_first_year})")
        log.info("split %s: %d nodes", name, part.size)
    return split


def predict(model, data, ids, seed: int, chunk: int = 16) -> np.ndarray:
    """Argmax class per node, computed without touching the tape.

    Each chunk of ids is one padded forward whose pair arrays hold
    ``chunk * k * k`` rows, so the chunk bounds its memory. Every id is
    built before the first chunk, in the model's capped build passes.
    Chunks run without per-op finite checks; a chunk with a non-finite
    logit runs again with them on, and the ``FloatingPointError`` names
    the first op that went non-finite.
    """
    ids = np.asarray(ids, dtype=np.int64)
    out = np.empty(len(ids), dtype=np.int64)
    model.build_centers(data, ids, seed)
    with ad.no_grad():
        for lo in range(0, len(ids), chunk):
            part = ids[lo:lo + chunk]
            with ad.finite_checks(False):
                logits = model.logits_for_centers(data, part, seed=seed).data
            if not np.isfinite(logits).all():
                why = _first_non_finite_op(lambda: model.logits_for_centers(data, part, seed=seed))
                raise FloatingPointError(f"predict produced non-finite logits; {why}")
            out[lo:lo + len(part)] = np.argmax(logits, axis=1)
    return out


def accuracy_on(model, data, ids, seed: int) -> float:
    preds = predict(model, data, ids, seed)
    return float((preds == data.labels[np.asarray(ids, dtype=np.int64)]).mean())


def _grad_norms(params: dict[str, Tensor], top: int = 5) -> str:
    norms = sorted(
        ((float(np.linalg.norm(t.grad)) if t.grad is not None else 0.0, k) for k, t in params.items()),
        reverse=True,
    )
    return ", ".join(f"{k}={n:.3e}" for n, k in norms[:top])


def _micro_batch_loss(model, data, centers, cfg: TrainConfig, rng) -> Tensor:
    logits = model.logits_for_centers(data, centers, seed=cfg.seed, train=True, rng=rng)
    return smoothed_cross_entropy(logits, data.labels[centers], cfg.label_smoothing)


def _first_non_finite_op(forward) -> str:
    """Re-run ``forward()`` with per-op finite checks on and name the
    first op whose output went non-finite."""
    try:
        with ad.finite_checks(True), ad.no_grad():
            forward()
    except FloatingPointError as e:
        return f"first non-finite op on replay: {e}"
    return "no op went non-finite on replay"


def train(model, data, split: TemporalSplit, cfg: TrainConfig) -> TrainResult:
    """Run the full loop; returns the best-validation checkpoint and history.

    Every training center is built before the first step, so the
    micro-batch loop only looks batches up."""
    params = model.parameters()
    opt = Adam(params)
    train_ids = np.asarray(split.train_ids, dtype=np.int64)
    model.build_centers(data, train_ids, cfg.seed)
    micro = cfg.batch_size
    per_step = micro * cfg.grad_accum_steps
    steps_per_epoch = max(1, -(-len(train_ids) // per_step))
    warmup = cfg.warmup_steps if cfg.warmup_steps is not None else steps_per_epoch
    total = cfg.epochs * steps_per_epoch
    rng = np.random.default_rng(cfg.seed)
    history: list[HistoryRow] = []
    best_acc = -1.0
    best_state: dict[str, np.ndarray] = {}
    best_epoch = 0
    stale = 0
    global_step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = train_ids[rng.permutation(len(train_ids))]
        pos = 0
        losses = []
        while pos < len(order):
            opt.zero_grad()
            lr = lr_at(global_step + 1, cfg.base_lr, warmup, total)
            for _ in range(cfg.grad_accum_steps):
                centers = order[pos:pos + micro]
                pos += micro
                if len(centers) == 0:
                    break
                replay = rng.bit_generator.state
                # per-op finite checks are off in the hot path; a non-finite
                # loss replays the micro-batch with them on to find the op
                with ad.finite_checks(False):
                    loss = _micro_batch_loss(model, data, centers, cfg, rng)
                if not np.isfinite(loss.data):
                    rng.bit_generator.state = replay
                    why = _first_non_finite_op(lambda: _micro_batch_loss(model, data, centers, cfg, rng))
                    raise TrainingDiverged(
                        f"non-finite loss at step {global_step + 1} (lr={lr:.3e}); {why}; "
                        f"largest grad norms: {_grad_norms(params)}"
                    )
                scaled = ad.mul_scalar(loss, 1.0 / cfg.grad_accum_steps)
                ad.backward(scaled)
                ad.tape_clear()
                losses.append(float(loss.data))
            global_step += 1
            opt.step(lr)
        val_acc = accuracy_on(model, data, split.val_ids, seed=cfg.seed)
        row = HistoryRow(epoch=epoch, step=global_step,
                         train_loss=float(np.mean(losses)) if losses else float("nan"),
                         val_accuracy=val_acc, lr=lr)
        history.append(row)
        log.info("epoch %d: loss=%.4f val_acc=%.4f lr=%.2e", epoch, row.train_loss, val_acc, lr)
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_state = {k: t.data.copy() for k, t in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                log.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
                break
    return TrainResult(best_state=best_state, best_val_accuracy=best_acc,
                       best_epoch=best_epoch, history=history)


def write_history_csv(path, history: list[HistoryRow]) -> None:
    """epoch,step,train_loss,val_accuracy,lr with full-precision floats."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "step", "train_loss", "val_accuracy", "lr"])
        for row in history:
            w.writerow([row.epoch, row.step, repr(row.train_loss),
                        repr(row.val_accuracy), repr(row.lr)])
