#!/usr/bin/env python3
"""tapeformer benchmark: seeded workloads through the public API.

Run every workload untraced and then traced, printing every metric::

    python3 perfbench/run.py

Run one workload with one seed, as a before/after comparison does::

    python3 perfbench/run.py --workload desk-train --seed 3 --seconds 60 --trace 0

``--trace 0`` reports the end-to-end metrics from an untraced run;
``--trace 1`` runs the workload once untraced and once traced (each in
its own process, on the same inputs) and reports the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (``meta {...}``) holds the run metadata. The exit code is 0
only when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from spans import PER_LAYER_UNITS
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
DEADLINE_S = 170.0

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_epoch1_centers_per_s", "centers/s", "higher"),
    ("train_steady_centers_per_s", "centers/s", "higher"),
    ("predict_cold_nodes_per_s", "nodes/s", "higher"),
    ("predict_warm_nodes_per_s", "nodes/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
END_TO_END_UNITS = {name: unit for name, unit, _ in END_TO_END}
END_TO_END_BETTER = {name: better for name, _, better in END_TO_END}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    return int(100 * (1 - 10 / n)) if n >= 11 else None


def summarize(values: list[float], better: str = "lower") -> dict:
    """Median, quartiles and the tail percentile on the worse side."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    p = tail_percentile(len(vals))
    if p is not None:
        if better == "higher":  # slow rates are the tail
            p = 100 - p
        out[f"p{p}"] = statistics.quantiles(vals, n=100)[p - 1]
    return out


def _git(*args: str) -> str | None:
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_meta() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def run_child(spec: dict, work: Path, deadline: float) -> dict:
    """Run workload.py on ``spec`` in its own process and read its result."""
    path = work / f"spec-{spec['trace']}.json"
    spec = dict(spec, out=str(work / f"result-{spec['trace']}.json"))
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the child's stdout goes to our stderr: our last stdout line is the result
    subprocess.run([sys.executable, str(HERE / "workload.py"), str(path)],
                   env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(Path(spec["out"]).read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate inputs, run the workload, and return (result, meta)."""
    deadline = time.monotonic() + DEADLINE_S
    work = SCRATCH / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        inputs.write_desk_corpus(work / "inputs", seed)
        gen_s = time.perf_counter() - t0
        spec = {"workload": name, "seed": seed, "inputs": str(work / "inputs"),
                "work": str(work), "seconds": seconds, "trace": 0, "fixed": trace}
        plain = run_child(spec, work, deadline)
        runs = [plain]
        if trace:
            spans = SCRATCH / "spans" / f"{name}-seed{seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced = run_child(dict(spec, trace=1, spans=str(spans)), work, deadline)
            runs.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [c for r in runs for c in r["checks_failed"]]
    if trace:
        if traced["pred_sha256"] != plain["pred_sha256"]:
            problems.append("traced predictions differ from untraced ones")
            failed += 1
        values = dict(traced["per_layer"])
        values["bench.trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"] - 1.0
        units = PER_LAYER_UNITS
        counts = {k: 1 for k in units}
    else:
        values = {k: statistics.median(v) for k, v in plain["samples"].items()}
        units = END_TO_END_UNITS
        counts = {k: len(v) for k, v in plain["samples"].items()}
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items() if k in values}
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not produced: {missing}")
        failed += 1
    result = {"correct": failed == 0 and not problems, "attempted": max(1, attempted),
              "failed": failed, "metrics": metrics}
    meta = dict(machine_meta(), workload=name, seed=seed, trace=int(trace),
                input_gen_s=gen_s, repeats=plain["repeats"], sample_counts=counts,
                wall_s=[r["wall_s"] for r in runs], cpu_s=[r["cpu_s"] for r in runs],
                problems=problems,
                speed_factor=plain["speed_factor"],
                speed_probes_ms=[round(t * 1e3, 2) for t in plain["speed_probes"]],
                raw_medians={k: statistics.median(v) for k, v in plain["raw_samples"].items()},
                stats={k: summarize(v, END_TO_END_BETTER.get(k, "lower"))
                       for k, v in plain["samples"].items()})
    return result, meta


def print_table(name: str, result: dict, meta: dict) -> None:
    print(f"== {name} seed={meta['seed']} trace={meta['trace']} "
          f"repeats={meta['repeats']} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}")
    stats = meta["stats"]
    for k, m in result["metrics"].items():
        s = stats.get(k)
        extra = ""
        if s is not None:
            extra = " ".join(f"{q}={v:.6g}" for q, v in s.items() if q not in ("median", "n"))
            extra = f"  n={s['n']} {extra}"
        print(f"  {k:42s} {m['value']:.6g} {m['unit']}{extra}")
    for p in meta["problems"]:
        print(f"  CHECK FAILED: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "tapeformer" / "__init__.py").is_file():
        print(f"error: no tapeformer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload:
        modes = [(args.workload, bool(args.trace))]
    else:
        traces = [False, True] if args.trace is None else [bool(args.trace)]
        modes = [(w, t) for t in traces for w in WORKLOADS]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in modes:
        result, meta = run_workload(name, args.seed, args.seconds, trace)
        print_table(name, result, meta)
        print("meta " + json.dumps(meta, sort_keys=True))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        prefix = "" if args.workload else f"{name}."
        merged["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
        sys.stdout.flush()
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
