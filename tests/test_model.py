import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer import graph as gr
from tapeformer import model as gm
from tapeformer import structural as st
from tapeformer.autodiff import Tensor
from tapeformer.fusion import FusionConfig
from tapeformer.text import EmbeddingBundle

from helpers import check_gradients, random_edge_list

DIMS = {"expl": 5, "pred": 3, "text": 5, "ogb": 4}


def tiny_config(**kw):
    base = dict(num_classes=3, num_layers=2, num_heads=2, d_model=16, d_ffn=24,
                max_spd=4, max_degree_bucket=8, ego_hops=2, ego_max_nodes=12)
    base.update(kw)
    return gm.GraphormerConfig(**base)


def fusion_config(d_model=16, active=("expl", "pred", "text", "ogb")):
    return FusionConfig(d_model=d_model, source_dims=DIMS, active=active)


def random_case(seed, n=14, density=0.18, cfg=None):
    rng = np.random.default_rng(seed)
    cfg = cfg or tiny_config()
    g = gr.from_edge_list(random_edge_list(rng, n, density), n)
    sub = gr.sample_ego_subgraph(g, int(rng.integers(0, n)), hops=cfg.ego_hops,
                                 max_nodes=cfg.ego_max_nodes, rng_seed=seed)
    batch = gm.build_batch(g, sub, cfg)
    return rng, g, sub, batch, cfg


def random_bundle(rng, n):
    return EmbeddingBundle(
        h_expl=rng.standard_normal((n, DIMS["expl"])),
        h_pred=rng.standard_normal((n, DIMS["pred"])),
        h_text=rng.standard_normal((n, DIMS["text"])),
        h_ogb=rng.standard_normal((n, DIMS["ogb"])),
    )


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.tape_clear()
    yield
    ad.tape_clear()


# --- input embedding ---------------------------------------------------------


def test_input_embedding_zero_tables_is_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 16)))
    zi = Tensor(np.zeros((9, 16)))
    zo = Tensor(np.zeros((9, 16)))
    out = gm.input_embedding(x, np.arange(5), np.arange(5), zi, zo, max_bucket=8)
    assert np.array_equal(out.data, x.data)


def test_input_embedding_degree_sensitivity():
    rng = np.random.default_rng(1)
    x = Tensor(np.tile(rng.standard_normal(16), (2, 1)))
    zi = Tensor(rng.standard_normal((9, 16)))
    zo = Tensor(np.zeros((9, 16)))
    out = gm.input_embedding(x, np.array([1, 2]), np.array([0, 0]), zi, zo, 8)
    assert not np.allclose(out.data[0], out.data[1])


def test_input_embedding_matches_direct_sum():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 16))
    zi = rng.standard_normal((9, 16))
    zo = rng.standard_normal((9, 16))
    ind = rng.integers(0, 20, size=6)
    outd = rng.integers(0, 20, size=6)
    out = gm.input_embedding(Tensor(x), ind, outd, Tensor(zi), Tensor(zo), 8)
    for r in range(6):
        expect = x[r] + zi[min(ind[r], 8)] + zo[min(outd[r], 8)]
        assert np.max(np.abs(out.data[r] - expect)) < 1e-12


# --- edge encoding -----------------------------------------------------------


def test_edge_term_zero_features():
    w = np.random.default_rng(3).standard_normal((4 * 3, 2))
    assert gm.edge_encoding_cij(np.zeros((2, 3)), w, head=0, d_edge=3) == 0.0


def test_edge_term_single_edge_dot_product():
    w = np.zeros((4 * 3, 2))
    w[0:3, 1] = [2.0, 5.0, 7.0]
    feats = np.array([[1.0, 0.0, 0.0]])
    assert gm.edge_encoding_cij(feats, w, head=1, d_edge=3) == pytest.approx(2.0)


def test_edge_term_matches_loop_oracle_and_batched_form():
    rng = np.random.default_rng(4)
    cfg = tiny_config(max_spd=5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        feats = rng.standard_normal((n, 3))
        w = rng.standard_normal((cfg.max_spd * 3, cfg.num_heads))
        for h in range(cfg.num_heads):
            # independent scalar loop
            expect = sum(float(feats[p] @ w[p * 3:(p + 1) * 3, h]) for p in range(n)) / n
            got = gm.edge_encoding_cij(feats, w, head=h, d_edge=3)
            assert got == pytest.approx(expect, abs=1e-12)
            # batched coefficient-matrix route
            row = np.zeros(cfg.max_spd * 3)
            row[: n * 3] = (feats / n).reshape(-1)
            assert float(row @ w[:, h]) == pytest.approx(expect, abs=1e-12)


def test_build_batch_calls_traced_structural_names_once_each(monkeypatch):
    """The traced benchmark run wraps these three names on the model
    module and reads ``per_pair`` off the path features; a batch must
    go through each exactly once."""
    calls = {name: 0 for name in ("local_adjacency", "bfs_spd", "build_path_features")}
    seen = []

    def counting(name):
        orig = getattr(gm, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            out = orig(*args, **kwargs)
            if name == "build_path_features":
                seen.append(out)
            return out

        return wrapped

    for name in calls:
        monkeypatch.setattr(gm, name, counting(name))
    for seed in range(5):
        _, _, _, batch, cfg = random_case(200 + seed)
        assert calls == {name: seed + 1 for name in calls}
        dist = batch.spd.dist
        k = batch.num_nodes
        reachable = {(i, j) for i in range(k) for j in range(k) if i != j and dist[i, j] <= cfg.max_spd}
        per_pair = seen[-1].per_pair
        assert set(per_pair) == reachable
        for (i, j), feats in per_pair.items():
            assert feats.shape == (dist[i, j], cfg.d_edge_feature)


# --- attention bias ----------------------------------------------------------


def test_attention_bias_zero_tables():
    _, _, _, batch, cfg = random_case(5)
    bias = gm.attention_bias(batch, Tensor(np.zeros((cfg.num_spd_buckets, 2))),
                             Tensor(np.zeros((cfg.max_spd * 3, 2))))
    assert np.array_equal(bias.data, np.zeros((batch.num_nodes ** 2, 2)))


def test_attention_bias_two_node_path():
    g = gr.from_edge_list([(0, 1)], 2)
    sub = gr.sample_ego_subgraph(g, 0, hops=1, max_nodes=4, rng_seed=0)
    cfg = tiny_config(max_spd=3)
    batch = gm.build_batch(g, sub, cfg)
    rng = np.random.default_rng(6)
    b = rng.standard_normal((cfg.num_spd_buckets, cfg.num_heads))
    w = rng.standard_normal((cfg.max_spd * 3, cfg.num_heads))
    bias = gm.attention_bias(batch, Tensor(b), Tensor(w)).data
    k = batch.num_nodes
    feats = st.synth_edge_features(g, np.array([0]), np.array([1]))
    for h in range(cfg.num_heads):
        c01 = gm.edge_encoding_cij(feats.reshape(1, 3), w, head=h, d_edge=3)
        assert bias[0 * k + 1, h] == pytest.approx(b[1, h] + c01, abs=1e-12)
        assert bias[0 * k + 0, h] == pytest.approx(b[0, h], abs=1e-12)  # diagonal: d=0, c=0


def _relabel_subgraph(sub, perm):
    """perm maps new local index -> old local index."""
    inv = np.argsort(perm)
    nodes = sub.nodes[perm]
    edges = np.stack([inv[sub.local_edges[:, 0]], inv[sub.local_edges[:, 1]]], axis=1) \
        if len(sub.local_edges) else sub.local_edges
    return gr.EgoSubgraph(center=sub.center, nodes=nodes, local_edges=edges,
                          node_map={int(g): i for i, g in enumerate(nodes)})


def test_attention_bias_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    for seed in range(10):
        _, g, sub, batch, cfg = random_case(100 + seed)
        b = Tensor(rng.standard_normal((cfg.num_spd_buckets, cfg.num_heads)))
        w = Tensor(rng.standard_normal((cfg.max_spd * 3, cfg.num_heads)))
        k = batch.num_nodes
        bias = gm.attention_bias(batch, b, w).data.reshape(k, k, -1)
        perm = rng.permutation(k)
        pbatch = gm.build_batch(g, _relabel_subgraph(sub, perm), cfg)
        pbias = gm.attention_bias(pbatch, b, w).data.reshape(k, k, -1)
        assert np.max(np.abs(pbias - bias[np.ix_(perm, perm)])) < 1e-12


# --- multi-head attention ----------------------------------------------------


def _attn_params(rng, d):
    def t(*shape):
        return Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)

    return {"wq": t(d, d), "bq": t(d), "wk": t(d, d), "bk": t(d), "wv": t(d, d),
            "bv": t(d), "wo": t(d, d), "bo": t(d)}


def test_mha_single_node_weight_one():
    rng = np.random.default_rng(8)
    d = 8
    params = _attn_params(rng, d)
    h = Tensor(rng.standard_normal((1, d)))
    cap = {}
    out = gm.multi_head_attention(h, Tensor(np.zeros((1, 2))), params, num_heads=2, capture=cap)
    assert np.allclose(cap["attention"][0], 1.0)
    v = h.data @ params["wv"].data + params["bv"].data
    expect = v @ params["wo"].data + params["bo"].data
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_mha_large_negative_bias_masks_to_self():
    rng = np.random.default_rng(9)
    d, k, heads = 8, 5, 2
    params = _attn_params(rng, d)
    h = Tensor(rng.standard_normal((k, d)))
    bias = np.full((k, k), -1e9)
    np.fill_diagonal(bias, 0.0)
    bias_flat = Tensor(np.tile(bias.reshape(-1, 1), (1, heads)))
    out = gm.multi_head_attention(h, bias_flat, params, num_heads=heads)
    v = h.data @ params["wv"].data + params["bv"].data
    expect = v @ params["wo"].data + params["bo"].data
    assert np.max(np.abs(out.data - expect)) < 1e-6


def test_mha_gradients():
    rng = np.random.default_rng(10)
    d, k = 8, 4
    params = _attn_params(rng, d)
    h = Tensor(rng.standard_normal((k, d)), requires_grad=True)
    bias = Tensor(rng.standard_normal((k * k, 2)), requires_grad=True)
    r = Tensor(rng.standard_normal((k, d)))

    def loss():
        return ad.tsum(ad.mul(gm.multi_head_attention(h, bias, params, 2), r))

    check_gradients(loss, [h, bias] + list(params.values()))


# --- full forward ------------------------------------------------------------


def test_zero_layers_is_classifier_on_h0():
    rng, g, sub, batch, _ = random_case(11, cfg=tiny_config(num_layers=0))
    cfg = tiny_config(num_layers=0)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=3)
    bundle = random_bundle(rng, g.num_nodes)
    logits = model.forward(batch, bundle)
    rows = {s: bundle.source(s)[batch.nodes] for s in model.fusion.cfg.active}
    x = model.fusion.fuse(rows)
    h0 = gm.input_embedding(x, batch.in_deg, batch.out_deg, model.z_in, model.z_out,
                            cfg.max_degree_bucket)
    expect = h0.data @ model.head_w.data + model.head_b.data
    assert np.max(np.abs(logits.data - expect)) < 1e-12


def test_forward_permutation_equivariance():
    for seed in range(5):
        rng, g, sub, batch, cfg = random_case(200 + seed)
        model = gm.GraphormerModel(cfg, fusion_config(), seed=seed)
        bundle = random_bundle(rng, g.num_nodes)
        base = model.forward(batch, bundle).data
        perm = rng.permutation(batch.num_nodes)
        pbatch = gm.build_batch(g, _relabel_subgraph(sub, perm), cfg)
        permuted = model.forward(pbatch, bundle).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-6
        # the center row is found wherever the center landed
        assert np.max(np.abs(permuted[pbatch.center_local] - base[batch.center_local])) < 1e-6


def test_attention_rows_sum_to_one_every_layer_head():
    rng, g, sub, batch, cfg = random_case(12)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=5)
    bundle = random_bundle(rng, g.num_nodes)
    cap = {}
    model.forward(batch, bundle, capture=cap)
    assert len(cap["attention"]) == cfg.num_layers
    for layer_attn in cap["attention"]:
        assert layer_attn.shape[0] == cfg.num_heads
        sums = layer_attn.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_zeroed_tables_make_model_rewiring_invariant():
    rng = np.random.default_rng(13)
    n = 10
    cfg = tiny_config()
    model = gm.GraphormerModel(cfg, fusion_config(), seed=7)
    for t in (model.z_in, model.z_out, model.spatial_table, model.edge_weight):
        t.data[...] = 0.0
    bundle = random_bundle(rng, n)
    nodes = np.arange(n, dtype=np.int64)

    def batch_for_edges(edges):
        g = gr.from_edge_list(edges, n)
        sub = gr.EgoSubgraph(center=0, nodes=nodes,
                             local_edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                             node_map={i: i for i in range(n)})
        return gm.build_batch(g, sub, cfg)

    ring = [(i, (i + 1) % n) for i in range(n)]
    star = [(0, i) for i in range(1, n)]
    out_ring = model.forward(batch_for_edges(ring), bundle).data
    out_star = model.forward(batch_for_edges(star), bundle).data
    assert np.max(np.abs(out_ring - out_star)) < 1e-9


def test_full_model_gradient_check():
    rng, g, sub, batch, cfg = random_case(14, n=10, cfg=tiny_config(num_layers=1))
    cfg = tiny_config(num_layers=1)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=8)
    bundle = random_bundle(rng, g.num_nodes)
    labels = rng.integers(0, cfg.num_classes, size=batch.num_nodes)
    from tapeformer.training import smoothed_cross_entropy

    def loss():
        return smoothed_cross_entropy(model.forward(batch, bundle), labels, 0.1)

    check_gradients(loss, list(model.parameters().values()), max_entries=12, seed=1)


def test_overfit_tiny_subgraph():
    # a capacity/optimization sanity oracle: memorize 20 labeled nodes
    rng = np.random.default_rng(15)
    n = 20
    edges = random_edge_list(rng, n, 0.15)
    g = gr.from_edge_list(edges, n)
    sub = gr.EgoSubgraph(center=0, nodes=np.arange(n, dtype=np.int64),
                         local_edges=np.asarray([[u, v] for u, v in g.edges()], dtype=np.int64).reshape(-1, 2),
                         node_map={i: i for i in range(n)})
    cfg = tiny_config()
    batch = gm.build_batch(g, sub, cfg)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=9)
    bundle = random_bundle(rng, n)
    labels = rng.integers(0, cfg.num_classes, size=n)
    from tapeformer.training import Adam, smoothed_cross_entropy

    opt = Adam(model.parameters())
    acc = 0.0
    for step in range(200):
        opt.zero_grad()
        logits = model.forward(batch, bundle)
        loss = smoothed_cross_entropy(logits, labels, 0.0)
        ad.backward(loss)
        ad.tape_clear()
        opt.step(0.01)
        acc = float((np.argmax(logits.data, axis=1) == labels).mean())
        if acc == 1.0:
            break
    assert acc == 1.0, f"failed to memorize: accuracy {acc}"


# --- checkpoint plumbing -----------------------------------------------------


def test_state_roundtrip_and_shape_error(tmp_path):
    cfg = tiny_config()
    model = gm.GraphormerModel(cfg, fusion_config(), seed=10)
    params = model.parameters()
    ad.save_parameters(tmp_path / "m.bin", params)
    state = ad.load_parameters(tmp_path / "m.bin")
    clone = gm.GraphormerModel(cfg, fusion_config(), seed=11)
    clone.load_state(state)
    for name, t in clone.parameters().items():
        assert np.array_equal(t.data, params[name].data)
    bad = dict(state)
    bad["head.w"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="head.w"):
        clone.load_state(bad)
    del bad["head.w"]
    with pytest.raises(ValueError, match="missing"):
        clone.load_state(bad)


def test_mlp_model_shapes_and_gradients():
    rng = np.random.default_rng(16)
    n = 12
    cfg = tiny_config()
    model = gm.FusedMlp(cfg, fusion_config(), seed=12)

    class Data:
        bundle = random_bundle(rng, n)
        labels = rng.integers(0, cfg.num_classes, size=n)

    logits = model.logits_for_centers(Data, np.arange(5), seed=0)
    assert logits.shape == (5, cfg.num_classes)
    from tapeformer.training import smoothed_cross_entropy

    def loss():
        return smoothed_cross_entropy(model.logits_for_centers(Data, np.arange(5), seed=0),
                                      Data.labels[:5], 0.1)

    check_gradients(loss, list(model.parameters().values()), max_entries=10, seed=2)
