"""Tests of the benchmark itself (not of tapeformer).

Run from the repository root::

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = [name for name, unit, _ in spans.PER_LAYER if unit in ("count", "bytes", "nodes")]


def test_self_time_of_nested_spans():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),     # child of root
        ("a1", 1.5, 2.0, 1),    # children of a
        ("a2", 2.5, 3.5, 1),
        ("b", 5.0, 9.0, 0),     # child of root
        ("b1", 4.0, 6.0, 4),    # starts before its parent: clipped to [5, 6]
        ("b2", 5.5, 7.0, 4),    # overlaps b1: union [5, 7]
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 0.5, 1.0, 2.0, 2.0, 1.5])


def test_names_follow_the_contract_and_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert workloads == list(workload.WORKLOADS)
    assert e2e == run.END_TO_END
    assert layer == spans.PER_LAYER
    for name in workloads + [n for n, _, _ in e2e + layer]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(workloads)) == len(workloads)
    assert len({n for n, _, _ in e2e + layer}) == len(e2e) + len(layer)


def test_speed_factor_is_the_mean_of_the_probes_around_a_sample():
    meter = speed.Speedometer(enabled=False)
    assert meter.factor(0) == 1.0  # no probes: nothing to scale by
    meter.times = [0.050, 0.100, 0.025]
    assert meter.factor(1) == pytest.approx(1.5)  # between probes 0 and 1
    assert meter.factor(2) == pytest.approx(1.25)
    assert meter.factor() == pytest.approx(1.0)  # the run's median probe


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99


@pytest.fixture(scope="module")
def tiny(tmp_path_factory, monkeysession):
    """A 60-node desk corpus and a two-epoch workload over it."""
    root = tmp_path_factory.mktemp("tiny")
    inputs.write_desk_corpus(root / "inputs", seed=3, nodes=60)
    monkeysession.setitem(workload.WORKLOADS, "tiny",
                          {"model": "desk", "sample": None, "repeats": 1})
    monkeysession.setattr(workload, "EPOCHS", 2)
    return root


@pytest.fixture(scope="module")
def monkeysession():
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()


def _run(root: Path, tag: str, trace: int) -> dict:
    work = root / tag
    work.mkdir()
    spec = {"workload": "tiny", "seed": 3, "inputs": str(root / "inputs"), "work": str(work),
            "seconds": 0, "trace": trace, "fixed": True, "out": str(work / "out.json"),
            "spans": str(work / "spans.jsonl")}
    (work / "spec.json").write_text(json.dumps(spec))
    assert workload.main(str(work / "spec.json")) == 0
    out = json.loads((work / "out.json").read_text())
    assert out["failed"] == 0 and out["checks_failed"] == []
    return out


def test_traced_counts_repeat_and_predictions_match_untraced(tiny):
    first = _run(tiny, "traced1", trace=1)
    second = _run(tiny, "traced2", trace=1)
    plain = _run(tiny, "plain", trace=0)
    counts = {k: first["per_layer"][k] for k in COUNTS}
    assert counts == {k: second["per_layer"][k] for k in COUNTS}
    assert counts["model.build_batch.calls"] > 0 and counts["autodiff.tape_ops_per_step"] > 0
    assert first["pred_sha256"] == second["pred_sha256"] == plain["pred_sha256"]
    # the wrappers are gone once the traced run ends
    from tapeformer import model

    assert not hasattr(model.build_batch, "__wrapped__")
