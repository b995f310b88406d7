"""Golden outputs: sha256 digests of the files a few small CLI runs write.

The chain runs in a fresh directory, one subprocess per command, with
``OPENBLAS_NUM_THREADS=1``: the quick start on the seed-0 400-node
corpus (2 epochs, ``eval --split test``, a 1-epoch ``ablate``), a
1-epoch ``train`` at the library's default model config, and one
1-epoch quick-start ``train`` per entry of ``VARIANTS``. The quick
start's ``train`` runs once more with ``OPENBLAS_NUM_THREADS=2``, which
must not move its bits. The bits depend on the BLAS and SIMD kernels,
so each record is keyed by numpy version, BLAS name and version, and
the highest SIMD level numpy found.

    python tests/golden.py            # print this machine's key and digests
    python tests/golden.py --record   # store them in tests/golden.json

A change that moves the bits on purpose records again and lists the
old and new digests in CHANGES.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
RUN_FILES = ("history.csv", "checkpoint.bin", "val_metrics.json")
TWO_THREADS = "quick start, OPENBLAS_NUM_THREADS=2"

# 1-epoch quick-start trains, by the --set overrides that make them: no
# transformer layer, float64 throughout, a short last accumulated step
# (240 training centers in steps of 22 leave 20, micro-batches of 11 and
# 9), and a path width set by max_spd (3) and by ego_max_nodes (3 - 1)
VARIANTS = {
    "model.num_layers=0": ("model.num_layers=0",),
    "model.dtype=float64": ("model.dtype=float64",),
    "train.grad_accum_steps=2": ("train.grad_accum_steps=2", "train.batch_size=11"),
    "model.max_spd=3": ("model.max_spd=3",),
    "model.ego_max_nodes=3": ("model.ego_max_nodes=3",),
}


def machine_key() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    level = (simd["found"] or simd["baseline"] or ["none"])[-1]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, {level}"


def _tapeformer(cwd: Path, *args: str) -> None:
    _run(cwd, "1", args)


def _run(cwd: Path, threads: str, args: tuple[str, ...]) -> None:
    env = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
    done = subprocess.run([sys.executable, "-m", "tapeformer", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"tapeformer {' '.join(args)} exited {done.returncode}: "
                           f"{done.stderr.strip()}")


def _digests(out: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def run_chain(work: Path) -> dict[str, dict[str, str]]:
    """Run the chain under ``work`` and digest what each run wrote."""
    from tapeformer.model import GraphormerParams

    bench, default = work / "bench", work / "default"
    config = str(bench / "config.json")
    _tapeformer(work, "gen-synthetic", "--out", str(bench), "--nodes", "400", "--classes", "4",
                "--seed", "0")
    _tapeformer(work, "prepare", "--config", config)
    _tapeformer(work, "train", "--config", config, "--set", "train.epochs=2")
    _tapeformer(work, "eval", "--config", config, "--checkpoint", str(bench / "checkpoint.bin"),
                "--split", "test")
    _tapeformer(work, "ablate", "--config", config, "--set", "train.epochs=1")
    model_defaults = [a for f in dataclasses.fields(GraphormerParams)
                      for a in ("--set", f"model.{f.name}={f.default}")]
    _tapeformer(work, "train", "--config", config, "--set", "train.epochs=1",
                "--set", f"paths.out_dir={default}", *model_defaults)
    digests = {
        "quick start": _digests(bench, (*RUN_FILES, "eval_test.json", "ablation.json")),
        "default model, 1 epoch": _digests(default, RUN_FILES),
    }
    for n, (name, sets) in enumerate(VARIANTS.items()):
        out = work / f"variant{n}"
        _tapeformer(work, "train", "--config", config, "--set", "train.epochs=1",
                    "--set", f"paths.out_dir={out}", *(a for s in sets for a in ("--set", s)))
        digests[f"{name}, 1 epoch"] = _digests(out, RUN_FILES)
    threads = work / "threads"
    _run(work, "2", ("train", "--config", config, "--set", "train.epochs=2",
                     "--set", f"paths.out_dir={threads}"))
    digests[TWO_THREADS] = _digests(threads, RUN_FILES)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help=f"store the digests under this machine's key in {GOLDEN.name}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    key = machine_key()
    with tempfile.TemporaryDirectory() as work:
        digests = run_chain(Path(work))
    print(json.dumps({key: digests}, indent=2))
    if args.record:
        records = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        records[key] = digests
        GOLDEN.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded under {key!r} in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
