"""One workload run in its own process: set-up, train, predict, checks.

Usage (normally started by ``run.py``)::

    python3 perfbench/workload.py <spec.json>

The spec names the workload, the generated input directory, the time
budget, whether to trace, and where to write the result JSON. The
calls follow ``tapeformer prepare`` / ``train`` / ``eval`` through the
library's public API, each looked up on its module at call time so the
traced run's wrappers see them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from speed import Speedometer, cpu_clock  # perfbench/speed.py; the script dir leads sys.path

WORKLOADS = {
    # model: "desk" = the config gen-synthetic writes, "default" =
    # GraphormerConfig defaults; sample: seeded (train, val, test) center
    # counts, or None for the whole split; repeats: train+predict rounds
    # per run, each on a fresh model, so that the cold phases are sampled
    # more than once (about 6 s and 7 s each on the reference machine)
    "desk-train": {"model": "desk", "sample": (120, 40, 80), "repeats": 8},
    "default-train": {"model": "default", "sample": (32, 8, 32), "repeats": 7},
}
EPOCHS = 3
SETUPS = 8  # timed set-ups per run
# prediction phases are short and the machine's speed drifts, so they are
# timed in chunks of PREDICT_CHUNK test centers: each chunk once cold, then
# WARM_PASSES times warm, spreading both samples over the whole phase
PREDICT_CHUNK = 16
WARM_PASSES = 2


class _EpochClock(logging.Handler):
    """Timestamps the end of each epoch from the training loop's log line.

    ``train`` logs "epoch N: ..." right after the epoch's validation
    pass, so listening to its logger times epochs without wrapping it.
    The speed probe between two marks is left out of both epochs.
    """

    def __init__(self, speed: Speedometer):
        super().__init__(logging.INFO)
        self.speed = speed
        self.marks: list[tuple[float, float]] = []  # (epoch end, next epoch start)

    def emit(self, record):
        if str(record.msg).startswith("epoch %d:"):
            end = cpu_clock()
            self.speed.probe()
            self.marks.append((end, cpu_clock()))


class Run:
    def __init__(self, spec: dict, speed: Speedometer):
        self.speed = speed
        self.name = spec["workload"]
        self.w = WORKLOADS[self.name]
        self.seed = int(spec["seed"])
        self.inputs = Path(spec["inputs"])
        self.work = Path(spec["work"])
        self.corpus = json.loads((self.inputs / "corpus.json").read_text())
        self.samples: dict[str, list[float]] = {}
        # for each timed sample, the index of the speed probe that follows it
        self.probe_after: dict[str, list[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: list[str] = []
        self.pred_digest = hashlib.sha256()

    def sample(self, metric: str, value: float, probe_after: int | None = None) -> None:
        self.samples.setdefault(metric, []).append(float(value))
        if probe_after is not None:
            self.probe_after.setdefault(metric, []).append(probe_after)

    def check(self, ok: bool, ops: int, what: str) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.checks.append(what)

    # -- phases ------------------------------------------------------------

    def model_configs(self, ds):
        from tapeformer import fusion, model

        fields = {f.name for f in dataclasses.fields(model.GraphormerConfig)}
        kw = {}
        if self.w["model"] == "desk":
            kw = {k: v for k, v in self.corpus["model"].items() if k in fields}
        kw.pop("num_classes", None)
        mcfg = model.GraphormerConfig(num_classes=ds.num_classes, **kw)
        fcfg = fusion.FusionConfig(d_model=mcfg.d_model, source_dims=ds.source_dims())
        return mcfg, fcfg

    def new_model(self, ds):
        from tapeformer import model

        mcfg, fcfg = self.model_configs(ds)
        return model.GraphormerModel(mcfg, fcfg, seed=self.seed)

    def split(self, ds):
        from tapeformer import training

        split = training.make_temporal_split(ds.years, ds.labels,
                                             train_last_year=2017, test_first_year=2019)
        sizes = [len(split.train_ids), len(split.val_ids), len(split.test_ids)]
        self.check(sizes == self.corpus["split"], 1, f"split sizes {sizes}")
        if self.w["sample"] is None:
            return split
        rng = np.random.default_rng([self.seed, 7])
        picked = [np.sort(rng.choice(ids, size=n, replace=False))
                  for ids, n in zip((split.train_ids, split.val_ids, split.test_ids),
                                    self.w["sample"])]
        return training.TemporalSplit(*picked)

    def setup(self):
        """prepare -> save_dataset -> load_dataset -> split -> model."""
        from tapeformer import dataset

        c = self.corpus
        art = self.work / "dataset.bin"
        self.speed.probe()
        after = len(self.speed.times)
        t0 = cpu_clock()
        ds = dataset.prepare(self.inputs / "docs.jsonl", self.inputs / "edges.tsv",
                             self.inputs / "features.bin", self.inputs / "llm_cache.jsonl",
                             c["class_names"], text_dim=c["text_dim"], seed=self.seed)
        digest = dataset.save_dataset(ds, art)
        ds = dataset.load_dataset(art)
        split = self.split(ds)
        model = self.new_model(ds)
        self.sample("setup_s", cpu_clock() - t0, after)
        self.speed.probe()
        self.check(True, 3, "ingestion")
        return ds, split, model, art, digest

    def check_dataset(self, ds, art: Path, digest: str) -> None:
        h = hashlib.sha256()
        with open(art, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        self.check(h.hexdigest() == digest, 1, "artifact sha256 differs from save_dataset's")
        counts = (ds.num_nodes, ds.graph.num_edges)
        want = (self.corpus["num_nodes"], self.corpus["num_edges"])
        self.check(counts == want, 1, f"node/edge counts {counts} != generated {want}")

    def train_and_predict(self, ds, split, model) -> None:
        from tapeformer import autodiff, evaluation, training

        epochs = EPOCHS
        tcfg = training.TrainConfig(
            epochs=epochs, early_stop_patience=epochs, seed=self.seed,
            **{k: v for k, v in self.corpus["train"].items()
               if k in ("base_lr", "batch_size", "label_smoothing", "grad_accum_steps")})
        n_train = len(split.train_ids)
        steps = epochs * math.ceil(n_train / tcfg.batch_size)
        clock = _EpochClock(self.speed)
        log = logging.getLogger("tapeformer.training")
        log.addHandler(clock)
        log.setLevel(logging.INFO)
        log.propagate = False
        self.speed.probe()
        first = len(self.speed.times)  # the probe after epoch 1
        t0 = cpu_clock()
        try:
            result = training.train(model, ds, split, tcfg)
        finally:
            log.removeHandler(clock)
        marks = [(t0, t0)] + clock.marks
        hist = result.history
        self.check(len(hist) == epochs and len(clock.marks) == epochs
                   and all(math.isfinite(r.train_loss) for r in hist),
                   steps, f"history has {len(hist)} rows of {epochs} or non-finite loss")
        for e in range(1, len(marks)):
            name = "train_epoch1_centers_per_s" if e == 1 else "train_steady_centers_per_s"
            self.sample(name, n_train / (marks[e][0] - marks[e - 1][1]), first + e - 1)
        self.sample("train_loss_final", hist[-1].train_loss)
        self.sample("val_accuracy", result.best_val_accuracy)

        ckpt = self.work / "checkpoint.bin"
        autodiff.save_parameters(ckpt, result.best_state)
        ids = split.test_ids
        fresh = self.new_model(ds)
        fresh.load_state(autodiff.load_parameters(ckpt))
        parts = []
        for lo in range(0, len(ids), PREDICT_CHUNK):
            part = ids[lo:lo + PREDICT_CHUNK]
            after = len(self.speed.times)
            t0 = cpu_clock()
            cold = training.predict(fresh, ds, part, seed=self.seed)
            evaluation.metrics(evaluation.confusion(cold, ds.labels[part], ds.num_classes))
            self.sample("predict_cold_nodes_per_s", len(part) / (cpu_clock() - t0), after)
            for _ in range(WARM_PASSES):
                t0 = cpu_clock()
                warm = training.predict(fresh, ds, part, seed=self.seed)
                self.sample("predict_warm_nodes_per_s", len(part) / (cpu_clock() - t0), after)
                self.check(np.array_equal(warm, cold), len(part),
                           "warm predictions differ from cold ones")
            parts.append(cold)
            self.speed.probe()
        cold = np.concatenate(parts)
        self.check(cold.shape == ids.shape and bool(np.all((cold >= 0) & (cold < ds.num_classes))),
                   len(ids), "cold predictions have a bad length or class")
        self.pred_digest.update(cold.tobytes())


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    # traced-mode runs (fixed work) skip the probes: nothing normalises
    # their times, and probes would only add unattributed time
    speed = Speedometer(enabled=not spec["fixed"])
    run = Run(spec, speed)
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(run_id=f"{run.name}/seed{run.seed}")
        tracer.install()
    setups = 1 if spec["fixed"] else SETUPS
    t_start, cpu_start = time.perf_counter(), cpu_clock()
    state = None
    for _ in range(setups):
        state = None  # free the previous dataset before preparing the next
        state = run.setup()
    ds, split, model, art, digest = state
    run.check_dataset(ds, art, digest)
    # a fixed number of repeats keeps work (and peak RSS) equal across runs;
    # --seconds caps the measurement when the machine is much slower
    repeats = 0
    t_measure = time.perf_counter()
    for _ in range(1 if spec["fixed"] else run.w["repeats"]):
        elapsed = time.perf_counter() - t_measure
        if repeats and elapsed * (repeats + 1) / repeats > spec["seconds"]:
            break
        if repeats:
            model = run.new_model(ds)
        run.train_and_predict(ds, split, model)
        repeats += 1
    wall, cpu = time.perf_counter() - t_start, cpu_clock() - cpu_start
    raw = {k: list(v) for k, v in run.samples.items()}
    for name, after in run.probe_after.items():
        values = run.samples[name]
        power = 1 if name.endswith("_per_s") else -1  # rates scale up, times down
        values[:] = [v * speed.factor(i) ** power for v, i in zip(values, after)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.sample("peak_rss_mb", rss_mb)
    out = {
        "samples": run.samples,
        "raw_samples": raw,
        "speed_factor": speed.factor(),
        "speed_probes": speed.times,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks_failed": run.checks,
        "repeats": repeats,
        "wall_s": wall,
        "cpu_s": cpu,
        "pred_sha256": run.pred_digest.hexdigest(),
    }
    if tracer is not None:
        tracer.finish()
        tracer.uninstall()
        out["per_layer"] = tracer.metrics()
        tracer.write(spec["spans"])
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
