"""Memory probe: where a training run peaks.

Generates the ``gen-synthetic --nodes 400 --classes 4 --seed <seed>``
corpus in a temporary directory and, under ``tracemalloc``, prepares,
saves and loads it, builds a model and trains it for 3 epochs (early
stopping off) on a seeded sample of the training and validation
centers, as the benchmark's workloads sample them: ``--model default``
(the default) builds the library's default model config and samples 32
and 8 centers, as ``default-train`` does; ``--model desk`` builds the
config ``gen-synthetic`` writes and samples 120 and 40, as
``desk-train`` does. It prints:

- the traced peak of each phase: training forward, backward, the Adam
  step and no-grad forward (the validation pass);
- the op the run peaks at: its phase and its tape record index (for a
  no-grad forward, its op index within that forward);
- the source lines holding the most memory as that op ends, from a
  second, identical run that takes a snapshot there.

A phase runs from one op to the next: an op's peak covers its own
arithmetic and whatever the caller did since the op before, and a
backward record's covers its closures and the accumulation of their
gradients.

    python tests/peak.py                     # default config, seed 11, top 12 lines
    python tests/peak.py --model desk --seed 3 --top 20
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = {"default": (32, 8), "desk": (120, 40)}  # training and validation centers
EPOCHS = 3
MIB = 1 << 20


class Probe:
    """Splits a run into segments at every op, backward record and Adam
    step, and keeps the traced peak of each, labelled (phase, index, op)."""

    def __init__(self, snapshot_at: int | None = None):
        self.label = ("set-up", 0, "")
        self.segments = 0
        self.phase_peaks: dict[str, int] = {}
        self.peak, self.peak_label, self.peak_segment = 0, self.label, 0
        self.no_grad_ops = 0
        self.snapshot_at = snapshot_at
        self.snapshot = None
        self.snapshot_current = 0

    def mark(self, close=None, open=None) -> None:
        """End the segment in progress, labelled ``close`` (or the label it
        was opened with), and open one labelled ``open``."""
        label = close or self.label
        current, peak = tracemalloc.get_traced_memory()
        self.phase_peaks[label[0]] = max(self.phase_peaks.get(label[0], 0), peak)
        if peak > self.peak:
            self.peak, self.peak_label, self.peak_segment = peak, label, self.segments
        if self.segments == self.snapshot_at:
            self.snapshot, self.snapshot_current = tracemalloc.take_snapshot(), current
        self.segments += 1
        tracemalloc.reset_peak()
        self.label = open or label

    def install(self, stack: contextlib.ExitStack) -> None:
        """Wrap ``autodiff._make`` (each op and the closures it records),
        ``autodiff.backward`` and ``Adam.step`` for the ``ExitStack``'s life."""
        from tapeformer import autodiff as ad
        from tapeformer import training as tr

        make, backward, step = ad._make, ad.backward, tr.Adam.step

        def probed_make(op_name, data, inputs, closures):
            # the op's arithmetic has run: the segment ending here is its own
            if ad._state.recording:
                index = ad.tape_size()
                self.no_grad_ops = 0
                self.mark(("training forward", index, op_name))
            else:
                index = self.no_grad_ops
                self.no_grad_ops += 1
                self.mark(("no-grad forward", index, op_name))
            return make(op_name, data, inputs,
                        lambda: [self._closure(fn, index, op_name) for fn in closures()])

        def probed_backward(out, grad=None):
            self.mark(open=("backward", "set-up", ""))
            backward(out, grad)
            self.mark(open=("after backward", 0, ""))

        def probed_step(opt, lr):
            self.mark(open=("Adam step", opt.t + 1, ""))
            step(opt, lr)
            self.mark(open=("after the Adam step", 0, ""))

        for owner, name, fn in ((ad, "_make", probed_make), (ad, "backward", probed_backward),
                                (tr.Adam, "step", probed_step)):
            stack.callback(setattr, owner, name, getattr(owner, name))
            setattr(owner, name, fn)

    def _closure(self, fn, index, op_name):
        def run(g):
            if self.label[:2] != ("backward", index):
                self.mark(open=("backward", index, op_name))
            return fn(g)

        return run


def write_corpus(out: Path, seed: int) -> dict:
    from tapeformer import cli

    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["gen-synthetic", "--out", str(out), "--nodes", "400", "--classes", "4",
                     "--seed", str(seed)]) != 0:
            raise RuntimeError("gen-synthetic failed")
    return json.loads((out / "config.json").read_text(encoding="utf-8"))


def run(corpus: Path, config: dict, which: str, seed: int, probe: Probe) -> None:
    """Set up and train, as the ``<which>-train`` workload does, under ``probe``."""
    from tapeformer import dataset, fusion, model, training

    data = config["data"]
    with contextlib.ExitStack() as stack:
        probe.install(stack)
        ds = dataset.prepare(corpus / "docs.jsonl", corpus / "edges.tsv",
                             corpus / "features.bin", corpus / "llm_cache.jsonl",
                             data["class_names"], text_dim=data["text_dim"], seed=seed)
        dataset.save_dataset(ds, corpus / "dataset.bin")
        ds = dataset.load_dataset(corpus / "dataset.bin")
        split = training.make_temporal_split(ds.years, ds.labels,
                                             train_last_year=2017, test_first_year=2019)
        rng = np.random.default_rng([seed, 7])
        train_ids, val_ids = (np.sort(rng.choice(ids, size=n, replace=False))
                              for ids, n in zip((split.train_ids, split.val_ids), SAMPLE[which]))
        fields = {f.name for f in dataclasses.fields(model.GraphormerConfig)} - {"num_classes"}
        kw = {k: v for k, v in config["model"].items() if k in fields} if which == "desk" else {}
        mcfg = model.GraphormerConfig(num_classes=ds.num_classes, **kw)
        fcfg = fusion.FusionConfig(d_model=mcfg.d_model, source_dims=ds.source_dims())
        net = model.GraphormerModel(mcfg, fcfg, seed=seed)
        tcfg = training.TrainConfig(
            epochs=EPOCHS, early_stop_patience=EPOCHS, seed=seed,
            **{k: v for k, v in config["train"].items()
               if k in ("base_lr", "batch_size", "label_smoothing", "grad_accum_steps")})
        training.train(net, ds, training.TemporalSplit(train_ids, val_ids, split.test_ids), tcfg)
        probe.mark(("end of train", 0, ""))


def traced(corpus: Path, config: dict, which: str, seed: int, probe: Probe) -> Probe:
    gc.collect()
    tracemalloc.start()
    try:
        run(corpus, config, which, seed, probe)
    finally:
        tracemalloc.stop()
    return probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--model", choices=sorted(SAMPLE), default="default",
                        help="model config and sample, as the <model>-train workload")
    parser.add_argument("--seed", type=int, default=11, help="corpus and sample seed")
    parser.add_argument("--top", type=int, default=12, help="source lines to list")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        corpus = Path(work)
        config = write_corpus(corpus, args.seed)
        first = traced(corpus, config, args.model, args.seed, Probe())
        second = traced(corpus, config, args.model, args.seed,
                        Probe(snapshot_at=first.peak_segment))
    phase, index, op = first.peak_label
    print(f"traced peak: {first.peak / MIB:.2f} MiB at {phase}, "
          f"{'op' if phase == 'no-grad forward' else 'record'} {index} {op}".rstrip())
    print("peak by phase:")
    for name, peak in first.phase_peaks.items():
        print(f"  {name:<20} {peak / MIB:8.2f} MiB")
    if second.snapshot is None or second.peak_label != first.peak_label:
        print("the second run did not repeat the first; no holders", file=sys.stderr)
        return 1
    print(f"top holders as that op ends ({second.snapshot_current / MIB:.2f} MiB traced):")
    for stat in second.snapshot.statistics("lineno")[:args.top]:
        frame = stat.traceback[0]
        name = Path(frame.filename)
        where = name.relative_to(ROOT) if name.is_relative_to(ROOT) else name.name
        print(f"  {stat.size / MIB:8.2f} MiB {stat.count:7d} blocks  {where}:{frame.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
