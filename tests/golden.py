"""Golden outputs: sha256 digests of the files a few small CLI runs write.

The chain runs in a fresh directory, one subprocess per command, with
``OPENBLAS_NUM_THREADS=1``: the quick start on the seed-0 400-node
corpus (2 epochs, ``eval --split test``, a 1-epoch ``ablate``) and a
1-epoch ``train`` at the library's default model config. The bits
depend on the BLAS and SIMD kernels, so each record is keyed by numpy
version, BLAS name and version, and the highest SIMD level numpy found.

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


def machine_key() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    level = (simd["found"] or simd["baseline"] or ["none"])[-1]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, {level}"


def _tapeformer(cwd: Path, *args: str) -> None:
    env = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
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
    run_files = ("history.csv", "checkpoint.bin", "val_metrics.json")
    return {
        "quick start": _digests(bench, (*run_files, "eval_test.json", "ablation.json")),
        "default model, 1 epoch": _digests(default, run_files),
    }


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
