"""Loss, optimizer, schedule, temporal split, and the training loop.

Training iterates over seeded shuffles of the training centers; the seeded
generator does nothing else. A training forward is the same
``logits_for_centers`` call as a prediction forward, recorded because it
runs outside ``autodiff.no_grad``. The loss, label-smoothed cross-entropy,
is one engine op. Each optimizer step accumulates gradients over
``grad_accum_steps`` micro-batches (each one's ``backward`` starts from
its share of the step's centers, so even an epoch's short last step is the
equivalent large batch's, and consumes its tape), then applies Adam at the
warmup/decay learning rate and drops the gradients before validation.
Micro-batch losses and prediction chunks (of a build pass's
``pass_centers`` ids) go through ``_guarded``: it runs the forward with
the engine's per-op finite checks off, and on a non-finite result replays
it with the checks on, off the tape, so the error names the first op that
went non-finite. Validation accuracy drives checkpoint selection and early
stopping. ``train`` leaves the model at its best-validation checkpoint,
and returns or raises with no gradients and an empty tape. Single-threaded
runs are bit-reproducible for a given seed.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import node_ids
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
    """Loss went non-finite; the message names the step, the lr and the op a replay blames."""


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
    targets = np.full((n, c), smoothing / c, dtype=logits.data.dtype)
    targets[np.arange(n), labels] += 1.0 - smoothing
    return ad.cross_entropy(logits, targets)


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    The moments are two flat buffers holding the parameters end to end
    in dict order; ``m[k]`` and ``v[k]`` are views of parameter ``k``'s
    slice in its shape. The parameters form greedy blocks of adjacent
    ones, none longer than the largest parameter, and a step updates
    each block in one pass over its slice of the moments and two scratch
    rows of that length: the ops that read a gradient and the final
    update run per parameter, the rest once per block. Every element
    goes through the textbook formulas' ops in their order with the same
    scalars, so the result is bit for bit what evaluating them per
    parameter with temporaries gives.

    A parameter whose ``grad`` is None steps with a zero gradient. While
    its moments are zero that leaves it and them exactly as they are
    (the update is 0 / eps), so it is the same as skipping it; ``train``
    keeps that condition, since its loss reaches a parameter in every
    step or in none (``spatial.bias`` and ``edge.weight`` at
    ``num_layers=0``).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        data = [t.data for t in params.values()]  # moments and scratch in the parameters' dtype
        dtype = np.result_type(np.float32, *data)
        sizes = [a.size for a in data]
        self._moments = np.zeros((2, sum(sizes)), dtype)
        self._rows = np.empty((2, max(sizes, default=0)), dtype)
        # greedy blocks of adjacent parameters that fit the scratch rows: [flat start,
        # flat stop, [(parameter, its slice of the first scratch row in its shape)]]
        self._blocks: list[list] = []
        self.m, self.v = {}, {}
        lo = 0
        for (k, p), size in zip(params.items(), sizes):
            hi, shape = lo + size, p.data.shape
            if not self._blocks or hi - self._blocks[-1][0] > self._rows.shape[1]:
                self._blocks.append([lo, hi, []])
            block = self._blocks[-1]
            block[1] = hi
            self.m[k], self.v[k] = (row[lo:hi].reshape(shape) for row in self._moments)
            block[2].append((p, self._rows[0, lo - block[0]:hi - block[0]].reshape(shape)))
            lo = hi

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for lo, hi, members in self._blocks:
            m, v = self._moments[:, lo:hi]
            num, den = self._rows[:, :hi - lo]
            # m = b1 * m + (1 - b1) * g
            m *= b1
            for p, g_num in members:
                np.multiply(0.0 if p.grad is None else p.grad, 1.0 - b1, g_num)
            m += num
            # v = b2 * v + (1 - b2) * (g * g)
            v *= b2
            for p, g_num in members:
                g = 0.0 if p.grad is None else p.grad
                np.multiply(g, g, g_num)
            num *= 1.0 - b2
            v += num
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, num)
            num *= lr
            np.divide(v, c2, den)
            np.sqrt(den, den)
            den += self.eps
            num /= den
            for p, g_num in members:
                p.data -= g_num

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
    labels: np.ndarray,
    train_last_year: int = SplitParams.train_last_year,
    test_first_year: int = SplitParams.test_first_year,
) -> TemporalSplit:
    """Partition labeled nodes chronologically.

    Train: year <= train_last_year; test: year >= test_first_year; the
    years in between validate. Unlabeled nodes (label < 0) are
    excluded. Any empty partition is a configuration error.
    """
    years = np.asarray(years, dtype=np.int64)
    if train_last_year >= test_first_year:
        raise DataError("train_last_year must be < test_first_year")
    ids = np.nonzero(np.asarray(labels) >= 0)[0]
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


def _guarded(forward, fail) -> Tensor:
    """``forward()`` run with per-op finite checks off. A non-finite
    result replays it with the checks on and off the tape, then raises
    ``fail(why)``, where ``why`` names the first op that went non-finite."""
    with ad.finite_checks(False):
        out = forward()
    if np.isfinite(out.data).all():
        return out
    try:
        with ad.finite_checks(True), ad.no_grad():
            forward()
    except FloatingPointError as e:
        why = f"first non-finite op on replay: {e}"
    else:
        why = "no op went non-finite on replay"
    raise fail(why)


def predict(model, data, ids, seed: int) -> np.ndarray:
    """Argmax class per node, computed without touching the tape.

    Each chunk of ``model.cfg.pass_centers`` ids is one padded forward,
    sized as a build pass, so ``BUILD_PASS_PAIRS`` bounds its memory. Every
    id is built before the first chunk, in those passes. Each chunk runs
    through ``_guarded``, so a non-finite logit raises a
    ``FloatingPointError`` that names the first op that went non-finite.
    """
    ids = node_ids(ids)
    out = np.empty(len(ids), dtype=np.int64)
    model.build_centers(data, ids, seed)
    with ad.no_grad():
        for lo in range(0, len(ids), model.cfg.pass_centers):
            part = ids[lo:lo + model.cfg.pass_centers]
            logits = _guarded(lambda: model.logits_for_centers(data, part, seed=seed),
                              lambda why: FloatingPointError(
                                  f"predict produced non-finite logits; {why}"))
            out[lo:lo + len(part)] = np.argmax(logits.data, axis=1)
    return out


def accuracy_on(model, data, ids, seed: int) -> float:
    preds = predict(model, data, ids, seed)
    return float((preds == data.labels[np.asarray(ids, dtype=np.int64)]).mean())


def train(model, data, split: TemporalSplit, cfg: TrainConfig) -> TrainResult:
    """Run the full loop and leave ``model`` at its best-validation
    checkpoint; returns that checkpoint and the history.

    An empty training or validation partition is a ``DataError``, raised
    before any work. Every training center is built before the first step,
    so the micro-batch loop only looks batches up. The checkpoint is
    loaded after the last epoch's log line. Gradients go right after each
    Adam update; ``train`` returns or raises with none and an empty tape."""
    for name in ("train", "val"):
        if len(split.of(name)) == 0:
            raise DataError(f"cannot train on an empty {name} partition")
    params = model.parameters()
    opt = Adam(params)
    try:
        train_ids = np.asarray(split.train_ids, dtype=np.int64)
        model.build_centers(data, train_ids, cfg.seed)
        micro = cfg.batch_size
        per_step = micro * cfg.grad_accum_steps
        steps_per_epoch = -(-len(train_ids) // per_step)
        warmup = cfg.warmup_steps if cfg.warmup_steps is not None else steps_per_epoch
        total = cfg.epochs * steps_per_epoch
        rng = np.random.default_rng(cfg.seed)
        history: list[HistoryRow] = []
        best_acc = -1.0
        best_state: dict[str, np.ndarray] = {}
        best_epoch = 0
        stale = 0
        global_step = 0
        opt.zero_grad()
        for epoch in range(1, cfg.epochs + 1):
            order = train_ids[rng.permutation(len(train_ids))]
            losses = []
            for start in range(0, len(order), per_step):
                step = order[start:start + per_step]
                lr = lr_at(global_step + 1, cfg.base_lr, warmup, total)
                for lo in range(0, len(step), micro):
                    centers = step[lo:lo + micro]
                    loss = _guarded(
                        lambda: smoothed_cross_entropy(
                            model.logits_for_centers(data, centers, seed=cfg.seed),
                            data.labels[centers], cfg.label_smoothing),
                        lambda why: TrainingDiverged(
                            f"non-finite loss at step {global_step + 1} (lr={lr:.3e}); {why}"))
                    ad.backward(loss, len(centers) / len(step))
                    losses.append(float(loss.data))
                global_step += 1
                opt.step(lr)
                opt.zero_grad()
            val_acc = accuracy_on(model, data, split.val_ids, seed=cfg.seed)
            row = HistoryRow(epoch=epoch, step=global_step,
                             train_loss=float(np.mean(losses)),
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
    finally:  # what a raise leaves: a step's partial gradients, a diverged forward's records
        opt.zero_grad()
        ad.tape_clear()
    model.load_state(best_state)
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
