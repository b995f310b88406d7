"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The benchmark fixtures
(400-node corpus, trained model variants, citation-scale files) are
session-scoped and shared across criteria.
"""
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer import evaluation as ev
from tapeformer import graph as gr
from tapeformer import model as gm
from tapeformer import structural as st
from tapeformer import training as tr
from tapeformer.autodiff import Tensor
from tapeformer.cli import load_config
from tapeformer.cli import main as cli_main
from tapeformer.dataset import load_dataset, prepare
from tapeformer.fusion import FusionConfig
from tapeformer.model import GraphormerConfig, GraphormerModel

from helpers import (
    check_gradients,
    edge_encoding_cij,
    edge_pairs,
    ego_stack,
    floyd_warshall,
    random_edge_list,
    relabelled_stack,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}" + (f" -- {detail}" if detail else ""),
          flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """The synthetic benchmark: n=400, C=4, default signals, seed 0."""
    out = tmp_path_factory.mktemp("bench")
    assert cli_main(["gen-synthetic", "--out", str(out), "--nodes", "400",
                     "--classes", "4", "--seed", "0"]) == 0
    assert cli_main(["prepare", "--config", str(out / "config.json")]) == 0
    return out


def _train_variant(bench_dir, kind, sources, seed=0, dataset_path=None):
    cfg = load_config(bench_dir / "config.json")
    ds = load_dataset(dataset_path or bench_dir / "dataset.bin")
    split = tr.make_temporal_split(ds.years, ds.labels, **dataclasses.asdict(cfg.split))
    model = gm.build_model(cfg.model.for_classes(ds.num_classes), kind, sources,
                           ds.source_dims(), seed)
    tr.train(model, ds, split, tr.TrainConfig(**dataclasses.asdict(cfg.train), seed=cfg.seed))
    preds = tr.predict(model, ds, split.test_ids, seed=seed)
    return float((preds == ds.labels[split.test_ids]).mean())


@pytest.fixture(scope="session")
def bench_accuracies(bench):
    t0 = time.time()
    acc = {
        "full": _train_variant(bench, "graphormer", ("expl", "pred", "text", "ogb")),
        "ta_p_e": _train_variant(bench, "mlp", ("expl", "pred", "text", "ogb")),
        "ogb_only": _train_variant(bench, "graphormer", ("ogb",)),
    }
    acc["elapsed"] = time.time() - t0
    return acc


@pytest.fixture(scope="session")
def arxiv_scale_files(tmp_path_factory):
    """Synthetic files at the exact ogbn-arxiv scale and official split sizes."""
    out = tmp_path_factory.mktemp("arxiv_scale")
    n, m = 169_343, 1_166_243
    n_train, n_val = 90_941, 29_799  # test = 48_603
    class_names = [f"cs{k:02d}" for k in range(40)]
    years = np.empty(n, dtype=np.int64)
    years[:n_train] = 2010 + (np.arange(n_train) % 8)  # <= 2017
    years[n_train:n_train + n_val] = 2018
    years[n_train + n_val:] = 2019 + (np.arange(n - n_train - n_val) % 2)
    lines = [
        f'{{"id": {i}, "title": "paper {i} on {class_names[i % 40]}", '
        f'"abstract": "study {i % 1000} of {class_names[i % 40]} methods", '
        f'"label": {i % 40}, "year": {years[i]}}}'
        for i in range(n)
    ]
    (out / "docs.jsonl").write_text("\n".join(lines) + "\n")
    # deterministic unique directed edges, no self-loops, exact count
    src = np.arange(m, dtype=np.int64) % n
    v = (src + 1 + np.arange(m, dtype=np.int64) // n) % n
    edge_lines = [f"{u}\t{w}" for u, w in zip(src.tolist(), v.tolist())]
    (out / "edges.tsv").write_text("\n".join(edge_lines) + "\n")
    rng = np.random.default_rng(0)
    from tapeformer.text import save_feature_matrix

    save_feature_matrix(out / "features.bin", rng.standard_normal((n, 128)) * 0.1)
    cache_lines = [
        json.dumps({"id": i, "predictions": [class_names[i % 40]], "explanation": f"expl {i}"})
        for i in range(1000)
    ]
    (out / "llm_cache.jsonl").write_text("\n".join(cache_lines) + "\n")
    return out, class_names, (n, m, n_train, n_val)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)

    def p(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    worst = 0.0

    def probe(make_out, params, grad=None):
        nonlocal worst
        worst = max(worst, check_gradients(make_out, params, h=1e-5, rel_tol=1e-4, grad=grad))

    # every differentiable op
    a, b = p(4, 5), p(5, 3)
    r43 = rng.standard_normal((4, 3))
    probe(lambda: ad.matmul(a, b), [a, b], r43)
    x, y, v = p(3, 4), p(3, 4), p(5)
    r34, r35 = rng.standard_normal((3, 4)), rng.standard_normal((3, 5))
    probe(lambda: ad.add(x, y), [x, y], r34)
    probe(lambda: ad.linear(x, a, v), [x, a, v], r35)
    table = p(6, 4)
    idx = np.array([0, 2, 2, 5])
    r44 = rng.standard_normal((4, 4))
    probe(lambda: ad.embedding_lookup(table, idx), [table], r44)
    probe(lambda: ad.relu(x), [x], r34)
    probe(lambda: ad.tanh(x), [x], r34)
    gain, shift = p(4), p(4)
    probe(lambda: ad.layer_norm(x, gain, shift), [x, gain, shift], r34)
    smoothed = np.full((3, 4), 0.025)
    smoothed[[0, 1, 2], [1, 3, 0]] += 0.9
    probe(lambda: ad.cross_entropy(x, smoothed), [x])
    # two subgraphs of three nodes, two heads of width 2, flat (rows, d) operands
    s6, t6, u6, b18 = p(6, 4), p(6, 4), p(6, 4), p(18, 2)
    keys = np.array([[True, False, True], [False, True, False]])[:, None, None, :]
    r64 = rng.standard_normal((6, 4))
    probe(lambda: ad.attention(s6, t6, u6, b18, keys, 2, 0.8)[0], [s6, t6, u6, b18], r64)
    mix_scores = [p(3, 1), p(3, 1)]
    probe(lambda: ad.softmax_mix([x, y], mix_scores)[0], [x, y] + mix_scores, r34)

    # the full tiny model: L=2, H=2, d_model=16, k=8 nodes
    cfg = GraphormerConfig(num_classes=3, num_layers=2, num_heads=2, d_model=16,
                           d_ffn=16, max_spd=4, max_degree_bucket=8,
                           ego_hops=2, ego_max_nodes=8, dtype="float64")
    g = gr.from_edge_list(random_edge_list(np.random.default_rng(7), 12, 0.3), 12)
    sub = gr.sample_ego_subgraph(g, [0], hops=2, max_nodes=8, seed=0)
    batch = gm.build_batch(g, sub, cfg)
    assert batch.nodes.shape == (1, 8)
    dims = {"expl": 5, "pred": 3, "text": 5, "ogb": 4}
    model = GraphormerModel(cfg, FusionConfig(d_model=16, source_dims=dims), seed=1)
    bundle = {s: rng.standard_normal((12, k)) for s, k in dims.items()}
    labels = rng.integers(0, 3, size=8)

    def model_loss():
        return tr.smoothed_cross_entropy(model.forward(batch, bundle), labels, 0.1)

    worst = max(worst, check_gradients(model_loss, model.parameters(),
                                       h=1e-5, rel_tol=1e-4))
    elapsed = time.time() - t0
    _report(1, "gradient correctness", worst < 1e-4 and elapsed < 30.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s (< 30s)")


def test_criterion_02_spd_oracle():
    t0 = time.time()
    rng = np.random.default_rng(42)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 41))
        density = float(rng.uniform(0.02, 0.35))
        edges = random_edge_list(rng, n, density)
        g = gr.from_edge_list(edges, n)
        sub = ego_stack(np.arange(n), list(edge_pairs(g)))
        cap = int(rng.integers(1, 8))
        spd, _ = st.bfs_spd(st.local_adjacency(sub), sub.nodes, cap)
        fw = floyd_warshall(edges, n)
        expect = np.where(fw <= cap, fw, cap + 1).astype(np.int64)
        assert np.array_equal(spd.dist[0], expect), f"trial {trial}"
        checked += n * n
    elapsed = time.time() - t0
    _report(2, "spd equals floyd-warshall", elapsed < 5.0,
            f"100 graphs, {checked} pairs, {elapsed:.2f}s (< 5s)")


def test_criterion_03_metric_oracle():
    rng = np.random.default_rng(7)
    c = 40
    preds = rng.integers(0, c, size=1000)
    labels = rng.integers(0, c, size=1000)
    rep = ev.metrics(ev.confusion(preds, labels, c))
    # independent per-class loop over the raw pairs
    acc = float(np.mean(preds == labels))
    ps, rs, fs = [], [], []
    for k in range(c):
        tp = int(np.sum((preds == k) & (labels == k)))
        fp = int(np.sum((preds == k) & (labels != k)))
        fn = int(np.sum((preds != k) & (labels == k)))
        p_ = tp / (tp + fp) if tp + fp else 0.0
        r_ = tp / (tp + fn) if tp + fn else 0.0
        ps.append(p_)
        rs.append(r_)
        fs.append(2 * p_ * r_ / (p_ + r_) if p_ + r_ else 0.0)
    err = max(abs(rep.accuracy - acc), abs(rep.macro_precision - sum(ps) / c),
              abs(rep.macro_recall - sum(rs) / c), abs(rep.macro_f1 - sum(fs) / c))
    perfect = ev.metrics(ev.confusion(labels, labels, c))
    all_ones = (perfect.accuracy == 1.0 and perfect.macro_precision == 1.0
                and perfect.macro_recall == 1.0 and perfect.macro_f1 == 1.0)
    _report(3, "metrics vs loop oracle", err < 1e-12 and all_ones,
            f"max deviation {err:.2e}, perfect case all 1.0: {all_ones}")


def test_criterion_04_formula_fidelity():
    rng = np.random.default_rng(8)
    worst = 0.0
    # plain cross-entropy at eps=0 against the direct double summation
    for _ in range(25):
        n, c = int(rng.integers(1, 10)), int(rng.integers(2, 8))
        logits = rng.standard_normal((n, c)) * 3
        labels = rng.integers(0, c, size=n)
        got = float(tr.smoothed_cross_entropy(Tensor(logits), labels, 0.0).data)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        direct = -np.mean([np.log(p[i, labels[i]]) for i in range(n)])
        worst = max(worst, abs(got - direct))
    # centrality sum: h0 = x + z_in[deg_in] + z_out[deg_out], element by element
    for _ in range(10):
        k, dmod = int(rng.integers(1, 9)), 16
        x = rng.standard_normal((k, dmod))
        z_in = rng.standard_normal((9, dmod))
        z_out = rng.standard_normal((9, dmod))
        ind = rng.integers(0, 15, size=k)
        outd = rng.integers(0, 15, size=k)
        h0 = gm.input_embedding(Tensor(x), ind, outd, Tensor(z_in), Tensor(z_out), 8).data
        for i in range(k):
            expect = x[i] + z_in[min(ind[i], 8)] + z_out[min(outd[i], 8)]
            worst = max(worst, float(np.max(np.abs(h0[i] - expect))))
    # edge-encoding average: (1/N) sum of x_e . w_n
    for _ in range(25):
        n_edges = int(rng.integers(1, 6))
        feats = rng.standard_normal((n_edges, 3))
        w = rng.standard_normal((5 * 3, 4))
        for h in range(4):
            direct = sum(float(feats[pos] @ w[pos * 3:(pos + 1) * 3, h])
                         for pos in range(n_edges)) / n_edges
            got = edge_encoding_cij(feats, w, head=h, d_edge=3)
            worst = max(worst, abs(got - direct))
    _report(4, "formula fidelity", worst < 1e-12, f"max deviation {worst:.2e}")


def test_criterion_05_structural_invariance():
    rng = np.random.default_rng(9)
    dims = {"expl": 5, "pred": 3, "text": 5, "ogb": 4}
    worst_perm = 0.0
    worst_rows = 0.0
    for trial in range(20):
        n = int(rng.integers(8, 20))
        g = gr.from_edge_list(random_edge_list(rng, n, 0.25), n)
        cfg = GraphormerConfig(num_classes=3, num_layers=2, num_heads=2, d_model=16,
                               d_ffn=16, max_spd=4, max_degree_bucket=8,
                               ego_hops=2, ego_max_nodes=12, dtype="float64")
        model = GraphormerModel(cfg, FusionConfig(d_model=16, source_dims=dims), seed=trial)
        bundle = {s: rng.standard_normal((n, k)) for s, k in dims.items()}
        sub = gr.sample_ego_subgraph(g, [int(rng.integers(0, n))], hops=2, max_nodes=12,
                                     seed=trial)
        batch = gm.build_batch(g, sub, cfg)
        cap = {}
        base = model.forward(batch, bundle, capture=cap).data
        for layer_attn in cap["attention"]:
            worst_rows = max(worst_rows, float(np.max(np.abs(layer_attn.sum(axis=-1) - 1.0))))
        perm = rng.permutation(batch.nodes.shape[1])
        pbatch = gm.build_batch(g, relabelled_stack(sub, perm), cfg)
        permuted = model.forward(pbatch, bundle).data
        worst_perm = max(worst_perm, float(np.max(np.abs(permuted - base[perm]))))
    _report(5, "permutation equivariance + attention rows",
            worst_perm < 1e-6 and worst_rows < 1e-9,
            f"max equivariance gap {worst_perm:.2e} (< 1e-6), "
            f"max row-sum gap {worst_rows:.2e} (< 1e-9)")


def test_criterion_06_grad_accum_equivalence():
    import types

    rng = np.random.default_rng(10)
    n = 32
    g = gr.from_edge_list(random_edge_list(rng, n, 0.15), n)
    dims = {"expl": 5, "pred": 3, "text": 5, "ogb": 4}
    bundle = {s: rng.standard_normal((n, k)) for s, k in dims.items()}
    labels = rng.integers(0, 3, size=n)
    data = types.SimpleNamespace(graph=g, bundle=bundle, labels=labels)
    split = tr.TemporalSplit(train_ids=np.arange(16), val_ids=np.arange(16, 24),
                             test_ids=np.arange(24, 32))
    states = []
    for batch_size, accum in ((8, 2), (16, 1)):
        cfg = GraphormerConfig(num_classes=3, num_layers=1, num_heads=2, d_model=8,
                               d_ffn=8, max_spd=3, max_degree_bucket=8,
                               ego_hops=1, ego_max_nodes=6, dtype="float64")
        model = GraphormerModel(cfg, FusionConfig(d_model=8, source_dims=dims), seed=4)
        tcfg = tr.TrainConfig(epochs=1, base_lr=0.01, warmup_steps=0, batch_size=batch_size,
                              grad_accum_steps=accum, early_stop_patience=3, seed=11)
        states.append(tr.train(model, data, split, tcfg).best_state)
    gap = max(float(np.max(np.abs(states[0][k] - states[1][k]))) for k in states[0])
    _report(6, "gradient-accumulation equivalence", gap < 1e-10,
            f"max parameter gap after one step {gap:.2e} (< 1e-10)")


def test_criterion_07_benchmark_trend(bench_accuracies):
    acc = bench_accuracies
    ok = (acc["full"] >= 0.90
          and acc["full"] - acc["ta_p_e"] >= 0.05
          and acc["full"] - acc["ogb_only"] >= 0.05
          and acc["elapsed"] < 300.0)
    _report(7, "benchmark trend reproduction", ok,
            f"full={acc['full']:.3f} (>= 0.90), TA+P+E={acc['ta_p_e']:.3f}, "
            f"ogb-only={acc['ogb_only']:.3f} (both >= 5 pts lower), "
            f"{acc['elapsed']:.0f}s (< 300s)")


def test_criterion_08_ablation_pathology(bench, tmp_path):
    # explanation-only with an EMPTY llm cache: prepare a cache-free variant
    empty_cache = tmp_path / "empty_cache.jsonl"
    empty_cache.write_text("")
    patho_dir = tmp_path / "patho"
    rc = cli_main(["prepare", "--config", str(bench / "config.json"),
                   "--set", f"paths.llm_cache={empty_cache}",
                   "--set", f"paths.out_dir={patho_dir}",
                   "--set", f"paths.dataset={patho_dir / 'dataset.bin'}"])
    assert rc == 0
    acc_e = _train_variant(bench, "graphormer", ("expl",),
                           dataset_path=patho_dir / "dataset.bin")
    chance = 1.0 / 4.0
    # the ablation command emits the four standard rows plus the full model
    abl_dir = tmp_path / "ablate"
    rc = cli_main(["ablate", "--config", str(bench / "config.json"),
                   "--set", "train.epochs=8",
                   "--set", f"paths.out_dir={abl_dir}",
                   "--set", f"paths.dataset={bench / 'dataset.bin'}"])
    assert rc == 0
    rows = json.loads((abl_dir / "ablation.json").read_text())
    names = sorted(r["configuration"] for r in rows)
    expected = sorted(["graphormer+TA", "graphormer+P", "graphormer+E", "TA+P+E", "full"])
    _report(8, "ablation pathology", acc_e <= 2 * chance and names == expected,
            f"empty-cache expl-only accuracy {acc_e:.3f} (<= {2 * chance}); "
            f"ablation rows {names}")


def test_criterion_09_scale_readiness(arxiv_scale_files):
    out, class_names, (n, m, n_train, n_val) = arxiv_scale_files
    t0 = time.time()
    ds = prepare(out / "docs.jsonl", out / "edges.tsv", out / "features.bin",
                 out / "llm_cache.jsonl", class_names, text_dim=64)
    assert ds.num_nodes == n
    assert ds.graph.num_edges == m
    split = tr.make_temporal_split(ds.years, ds.labels,
                                   train_last_year=2017, test_first_year=2019)
    sizes = (len(split.train_ids), len(split.val_ids), len(split.test_ids))
    sizes_ok = sizes == (n_train, n_val, n - n_train - n_val)
    # one real optimizer step on the full-scale graph
    cfg = GraphormerConfig(num_classes=40, num_layers=1, num_heads=2, d_model=32,
                           d_ffn=32, max_spd=3, ego_hops=2, ego_max_nodes=12)
    model = GraphormerModel(cfg, FusionConfig(d_model=32, source_dims=ds.source_dims()),
                            seed=0)
    opt = tr.Adam(model.parameters())
    centers = split.train_ids[:4]
    logits = model.logits_for_centers(ds, centers, seed=0)
    loss = tr.smoothed_cross_entropy(logits, ds.labels[centers], 0.1)
    ad.backward(loss)
    before = model.head_w.data.copy()
    opt.step(0.002)
    stepped = bool(np.any(model.head_w.data != before)) and np.isfinite(float(loss.data))
    elapsed = time.time() - t0
    _report(9, "citation-scale ingestion + one step",
            sizes_ok and stepped,
            f"{n} nodes / {m} edges parsed, split {sizes}, "
            f"loss {float(loss.data):.3f}, {elapsed:.0f}s")


def test_criterion_10_reproducibility(bench, tmp_path):
    runs = []
    for i in range(2):
        d = tmp_path / f"run{i}"
        rc = cli_main(["train", "--config", str(bench / "config.json"),
                       "--set", "train.epochs=3",
                       "--set", f"paths.out_dir={d}",
                       "--set", f"paths.dataset={bench / 'dataset.bin'}"])
        assert rc == 0
        runs.append((Path(d, "history.csv").read_bytes(), Path(d, "checkpoint.bin").read_bytes()))
    same = runs[0][0] == runs[1][0] and runs[0][1] == runs[1][1]
    dtype = load_config(bench / "config.json").model.dtype
    _report(10, "bit-reproducible runs", same and dtype == "float32",
            f"{dtype} quick start: history {len(runs[0][0])} bytes and checkpoint "
            f"{len(runs[0][1])} bytes identical")
