import dataclasses
import types

import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer import graph as gr
from tapeformer import model as gm
from tapeformer import structural as st
from tapeformer.autodiff import Tensor
from tapeformer.fusion import FusionConfig
from tapeformer.text import EmbeddingBundle

from helpers import (
    bfs_distances,
    check_gradients,
    edge_encoding_cij,
    ego_stack,
    entry_path_coeffs,
    node_map,
    oracle_citation_flags,
    oracle_ego_subgraph,
    oracle_logits_for_centers,
    oracle_structural,
    oracle_subgraph_logits,
    random_edge_list,
    relabelled_stack,
)
from test_graph import overflow_graph

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
    sub = gr.sample_ego_subgraph(g, [int(rng.integers(0, n))], hops=cfg.ego_hops,
                                 max_nodes=cfg.ego_max_nodes, seed=seed)
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
    assert edge_encoding_cij(np.zeros((2, 3)), w, head=0, d_edge=3) == 0.0


def test_edge_term_single_edge_dot_product():
    w = np.zeros((4 * 3, 2))
    w[0:3, 1] = [2.0, 5.0, 7.0]
    feats = np.array([[1.0, 0.0, 0.0]])
    assert edge_encoding_cij(feats, w, head=1, d_edge=3) == pytest.approx(2.0)


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
            got = edge_encoding_cij(feats, w, head=h, d_edge=3)
            assert got == pytest.approx(expect, abs=1e-12)
            # batched coefficient-matrix route
            row = np.zeros(cfg.max_spd * 3)
            row[: n * 3] = (feats / n).reshape(-1)
            assert float(row @ w[:, h]) == pytest.approx(expect, abs=1e-12)


def test_build_batch_calls_traced_structural_names_once_each(monkeypatch):
    """The traced benchmark run wraps these three names on the model
    module and reads ``per_pair`` off the path features; a batch must
    go through each exactly once. A one-row stack's pairs are keyed
    (0, i, j)."""
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
        dist = batch.spd.dist[0]
        k = batch.nodes.shape[1]
        reachable = {(i, j) for i in range(k) for j in range(k) if i != j and dist[i, j] <= cfg.max_spd}
        assert {b for b, _, _ in seen[-1].per_pair} <= {0}
        per_pair = {(i, j): f for (_, i, j), f in seen[-1].per_pair.items()}
        assert set(per_pair) == reachable
        for (i, j), feats in per_pair.items():
            assert feats.shape == (dist[i, j], st.EDGE_FEATURE_DIM)


def test_every_traced_name_exists_where_it_is_patched(monkeypatch):
    """The traced benchmark run patches each ``spans.PATCHES`` name on its
    owner, and its hooks read ``num_nodes`` off the sampler's result, the
    array fields off ``build_batch``'s and the 1-D ``nodes`` of each
    ``batch_for`` result, real nodes only, which it concatenates per
    micro-batch; a cold
    ``logits_for_centers`` must reach all three through the model
    module, and the builds ``train`` and ``predict`` start before their
    loops the first two."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, cls, attr, name in spans.PATCHES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert callable(owner.__dict__.get(attr)), name

    results = {}
    for name in ("sample_ego_subgraph", "build_batch"):
        def wrapped(*args, _orig=getattr(gm, name), _name=name, **kwargs):
            out = _orig(*args, **kwargs)
            results.setdefault(_name, []).append(out)
            return out

        monkeypatch.setattr(gm, name, wrapped)
    looked_up = []

    def batch_for(self, *args, _orig=gm.GraphormerModel.batch_for, **kwargs):
        out = _orig(self, *args, **kwargs)
        looked_up.append(out)
        return out

    monkeypatch.setattr(gm.GraphormerModel, "batch_for", batch_for)
    _, data, model = _mixed_case(38)
    centers = np.arange(24)
    model.logits_for_centers(data, centers, seed=0)
    (subs,), (built,) = results["sample_ego_subgraph"], results["build_batch"]
    assert subs.num_nodes == sum(len(b.nodes) for b in model._batch_cache.values())
    for a in (built.nodes, built.spd.dist, built.spd_buckets, built.path_coeffs,
              built.in_deg, built.out_deg):
        assert isinstance(a, np.ndarray) and a.nbytes > 0
    assert len(looked_up) == len(centers)
    for b in looked_up:
        assert b.nodes.ndim == 1 and (b.nodes >= 0).all()
    joined = np.concatenate([b.nodes for b in looked_up])
    assert joined.tolist() == [v for b in looked_up for v in b.nodes.tolist()]

    # train and predict build their centers up front: through the same names
    from tapeformer import training as tr

    results.clear()
    data.labels = np.arange(24) % model.cfg.num_classes
    split = tr.TemporalSplit(train_ids=np.arange(14), val_ids=np.arange(14, 19),
                             test_ids=np.arange(19, 24))
    trained = gm.GraphormerModel(model.cfg, fusion_config(), seed=1)
    tr.train(trained, data, split, tr.TrainConfig(epochs=1, batch_size=4, seed=0))
    predicted = gm.GraphormerModel(model.cfg, fusion_config(), seed=2)
    tr.predict(predicted, data, split.test_ids, seed=0)
    built = trained._batch_cache | predicted._batch_cache
    assert len(built) == 24
    assert sum(s.num_nodes for s in results["sample_ego_subgraph"]) == sum(
        len(b.nodes) for b in built.values())
    assert sum(len(s.sizes) for s in results["build_batch"]) == len(built)


def _cache_case(max_nodes):
    """A model over ``overflow_graph`` (hop-1 and hop-2 overflow, isolated
    centers, a random part) with budget ``max_nodes``."""
    rng = np.random.default_rng(max_nodes)
    g = overflow_graph()
    data = types.SimpleNamespace(graph=g, bundle=random_bundle(rng, g.num_nodes))
    cfg = tiny_config(ego_max_nodes=max_nodes, max_spd=3)
    return data, gm.GraphormerModel(cfg, fusion_config(), seed=0)


def test_cached_batches_match_oracles_whatever_chunk_built_in(monkeypatch):
    """Every center's cached batch equals the one-center oracles' (the
    BFS sampler and the pairwise encodings), byte for byte but for the
    int8 distances, which match by value, whichever
    chunk of misses it was built in; a center given twice in one call is
    built once. The entry holds no degrees: stacked alone, it reads the
    graph's."""
    stacks = []
    orig = gm.build_batch

    def recording(*args, **kwargs):
        out = orig(*args, **kwargs)
        stacks.append(out)
        return out

    monkeypatch.setattr(gm, "build_batch", recording)
    for max_nodes in (1, 5, 12):
        data, model = _cache_case(max_nodes)
        g, cfg, n = data.graph, model.cfg, data.graph.num_nodes
        want = {}
        for c in range(n):
            sub = oracle_ego_subgraph(g, c, cfg.ego_hops, max_nodes, 4)
            dist, coeffs = oracle_structural(g, sub, cfg.max_spd)
            nodes = sub.nodes[0]
            want[c] = (nodes, dist, coeffs, np.asarray([g.in_degree(int(v)) for v in nodes]),
                       np.asarray([g.out_degree(int(v)) for v in nodes]))
            assert node_map(sub)[c] == 0
        sizes = {len(w[0]) for w in want.values()}
        assert 1 in sizes and (max_nodes == 1 or len(sizes) > 2)
        for chunks in ([list(range(n))], [[c] for c in range(n)],
                       [[0, 10, 0, 27, 10], [5, 3, 5], list(range(n))[::-1]]):
            model._batch_cache.clear()
            stacks.clear()
            for part in chunks:
                model.logits_for_centers(data, part, seed=4)
            # each miss is built once, in the call that first asked for it
            assert sum(len(s.sizes) for s in stacks) == n
            assert len(stacks) == len(chunks)
            for c in range(n):
                b = model._batch_cache[(c, 4)]
                nodes, dist, coeffs, in_deg, out_deg = want[c]
                assert b.nodes.tobytes() == nodes.tobytes(), (max_nodes, c)
                # the cache keeps distances as int8; their values are the oracle's
                assert b.dist.dtype == np.int8 and dist.dtype == np.int64
                assert np.array_equal(b.dist, dist), (max_nodes, c)
                assert entry_path_coeffs(b).shape == coeffs.shape
                assert entry_path_coeffs(b).tobytes() == coeffs.tobytes(), (max_nodes, c)
                alone = gm.stack_batches(g, [b])
                assert alone.in_deg[0].tobytes() == in_deg.astype(np.int64).tobytes()
                assert alone.out_deg[0].tobytes() == out_deg.astype(np.int64).tobytes()
                assert b.nodes[0] == c


def test_cached_batches_own_compact_arrays(monkeypatch):
    """A cached entry must not be a view into its chunk's padded arrays:
    that would keep the whole chunk alive for as long as the cache."""
    stacks = []
    orig = gm.build_batch

    def recording(*args, **kwargs):
        out = orig(*args, **kwargs)
        stacks.append(out)
        return out

    monkeypatch.setattr(gm, "build_batch", recording)
    data, model = _cache_case(5)
    model.logits_for_centers(data, np.arange(data.graph.num_nodes), seed=0)
    (stack,) = stacks
    padded = (stack.nodes, stack.spd.dist, stack.path_coeffs, stack.edge_table, stack.path_index,
              stack.in_deg, stack.out_deg)
    assert stack.nodes.shape[1] == 5
    for b in model._batch_cache.values():
        for f in dataclasses.fields(b):
            a = getattr(b, f.name)
            assert not any(np.shares_memory(a, p) for p in padded)
            assert a.base is None or a.base.nbytes == a.nbytes


def test_path_index_widens_with_the_edge_table():
    """A k=200 ego subgraph of a 200-node complete graph has 39,800
    directed local edges, more than int16 holds: each entry's path index
    (row t on a path of length N as t * max_spd + N - 1) takes the
    narrowest unsigned dtype that holds it, and the path coefficients
    decoded from the entry equal the stack's byte for byte."""
    n = 200
    g = gr.from_edge_list([(u, v) for u in range(n) for v in range(u + 1, n)], n)
    sub = gr.sample_ego_subgraph(g, [0, 7], hops=1, max_nodes=n, seed=0)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    for cap, dtype in ((1, np.uint16), (2, np.uint32)):
        built = gm.build_batch(g, sub, tiny_config(ego_max_nodes=n, ego_hops=1, max_spd=cap))
        entries = built.split()
        for b, entry in enumerate(entries):
            rows = len(entry.edge_table)
            assert rows == n * (n - 1) + 1 and rows - 1 > np.iinfo(np.int16).max
            assert entry.path_index.dtype == dtype
            assert int(entry.path_index.max()) == (rows - 1) * cap and not entry.edge_table[0].any()
            coeffs = entry_path_coeffs(entry)
            assert coeffs.tobytes() == built.path_coeffs[b].reshape(n * n, -1).tobytes()
            # every pair is one hop apart: position 0 holds the step's own features
            steps = coeffs.reshape(n, n, cap, 3)
            src, dst = entry.nodes[i], entry.nodes[j]
            assert np.array_equal(steps[i, j, 0],
                                  st.synth_edge_features(g, src, dst, oracle_citation_flags(g, src, dst)))
            assert not steps[:, :, 1:].any() and not steps[np.arange(n), np.arange(n)].any()
        assert gm.stack_batches(g, entries).path_coeffs.tobytes() == built.path_coeffs.tobytes()


def test_cached_entry_is_a_fifth_of_the_padded_layout():
    """At k=32 a cached entry holds at most a fifth of the bytes of the
    layout that stored ``path_coeffs`` (k*k*max_spd*d_edge floats) with
    int64 distances, and none of its arrays is that large."""
    rng = np.random.default_rng(41)
    g = gr.from_edge_list(random_edge_list(rng, 120, 0.08), 120)
    cfg = tiny_config(ego_max_nodes=32, max_spd=5)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=0)
    model.build_centers(types.SimpleNamespace(graph=g), range(24), 0)
    full = [b for b in model._batch_cache.values() if len(b.nodes) == 32]
    assert len(full) > 12
    k, coeffs = 32, 32 * 32 * cfg.max_spd * st.EDGE_FEATURE_DIM
    padded_layout = 8 * (k + k * k + coeffs + 2 * k)  # nodes, dist, path_coeffs, degrees
    for b in full:
        arrays = [getattr(b, f.name) for f in dataclasses.fields(b)]
        assert sum(a.nbytes for a in arrays) * 5 <= padded_layout
        assert all(a.size < coeffs for a in arrays)
        assert entry_path_coeffs(b).shape == (k * k, cfg.max_spd * st.EDGE_FEATURE_DIM)


def test_bad_center_raises_through_the_model():
    data, model = _cache_case(5)
    for centers, bad in (([30], 30), ([0, 31, 2], 31), ([-1], -1), ([0, 2, -7, 40], -7)):
        with pytest.raises(gr.GraphConstructionError, match=f"center {bad} outside"):
            model.logits_for_centers(data, centers, seed=0)
    assert not model._batch_cache


def _desk_graph():
    """The citation graph of ``gen-synthetic --nodes 400 --classes 4 --seed 0``."""
    from tapeformer import synthetic as syn

    data = syn.generate(syn.SyntheticParams(num_nodes=400, num_classes=4, seed=0))
    return gr.from_edge_list(data.edges, 400)


def _entry_bytes(entry):
    """(field, dtype, bytes) of every array of a cached entry."""
    return [(f.name, getattr(entry, f.name).dtype.str, getattr(entry, f.name).tobytes())
            for f in dataclasses.fields(entry)]


def _record_pass_sizes(monkeypatch):
    """The number of centers of every later ``build_batch`` pass, in order."""
    passes = []
    orig = gm.build_batch

    def recording(*args, **kwargs):
        out = orig(*args, **kwargs)
        passes.append(len(out.sizes))
        return out

    monkeypatch.setattr(gm, "build_batch", recording)
    return passes


def test_build_passes_stay_under_the_pair_cap(monkeypatch):
    """One ``build_centers`` call over all 400 desk centers builds them in
    passes of at most ``BUILD_PASS_PAIRS`` padded pairs (centers x
    ego_max_nodes**2), and every entry is byte for byte the one built per
    micro-batch of 8."""
    passes = _record_pass_sizes(monkeypatch)
    g = _desk_graph()
    cfg = tiny_config(ego_max_nodes=16, max_spd=5)
    whole = gm.GraphormerModel(cfg, fusion_config(), seed=0)
    whole.build_centers(types.SimpleNamespace(graph=g), range(400), 0)
    per_pass = gm.BUILD_PASS_PAIRS // 16 ** 2
    assert 1 < per_pass < 400
    assert passes == [per_pass] * (400 // per_pass) + [400 % per_pass] * (400 % per_pass > 0)
    assert all(n * 16 ** 2 <= gm.BUILD_PASS_PAIRS for n in passes)
    micro = gm.GraphormerModel(cfg, fusion_config(), seed=0)
    for lo in range(0, 400, 8):
        micro.build_centers(types.SimpleNamespace(graph=g), range(lo, lo + 8), 0)
    assert set(whole._batch_cache) == set(micro._batch_cache) == {(c, 0) for c in range(400)}
    for key, entry in whole._batch_cache.items():
        assert _entry_bytes(entry) == _entry_bytes(micro._batch_cache[key]), key


def test_passes_of_1_3_and_16_centers_build_the_same_entries(monkeypatch):
    """Every desk center's cached entry is byte for byte the same whether
    its pass held 1, 3 or 16 centers: sampling keys depend on the seed,
    the center and the node only."""
    passes = _record_pass_sizes(monkeypatch)
    g = _desk_graph()
    cfg = tiny_config(ego_max_nodes=16, max_spd=5)
    built = []
    for per_pass in (1, 3, 16):
        monkeypatch.setattr(gm, "BUILD_PASS_PAIRS", per_pass * 16 ** 2)
        passes.clear()
        model = gm.GraphormerModel(cfg, fusion_config(), seed=0)
        model.build_centers(types.SimpleNamespace(graph=g), range(400), 7)
        assert set(passes) == {per_pass} | ({400 % per_pass} - {0})
        built.append(model._batch_cache)
    for key, entry in built[0].items():
        assert _entry_bytes(entry) == _entry_bytes(built[1][key]) == _entry_bytes(built[2][key]), key


def _with_reciprocal_citations(g):
    """``g`` plus the reverse of every fifth citation."""
    edges = list(g.edges())
    return gr.from_edge_list(edges + [(v, u) for u, v in edges[::5]], g.num_nodes)


def test_edge_orientation_from_the_stack_matches_the_graph_lookup(monkeypatch):
    """For the same ``EgoStack``s, ``build_batch`` reading each step's
    direction off the stack's local edges is byte for byte the build that
    looks every step up in the full graph (the rule before), on all 400
    desk centers at k=16 and k=32, with and without reciprocal citations.
    Each subgraph keeps the size of the ball it is cut from, capped at k."""
    orig = st.synth_edge_features

    def looked_up(g, src, dst, forward):
        return orig(g, src, dst, oracle_citation_flags(g, src, dst))

    desk = _desk_graph()
    for g in (desk, _with_reciprocal_citations(desk)):
        adj_sets = [set(g.out_neighbors(v).tolist()) | set(g.in_neighbors(v).tolist())
                    for v in range(400)]
        ball = [sum(d <= 2 for d in bfs_distances(adj_sets, c).values()) for c in range(400)]
        reciprocal = 0
        for k in (16, 32):
            cfg = tiny_config(ego_max_nodes=k, max_spd=5)
            for lo in range(0, 400, 16):
                sub = gr.sample_ego_subgraph(g, range(lo, lo + 16), hops=2, max_nodes=k, seed=0)
                assert sub.sizes.tolist() == [min(k, b) for b in ball[lo:lo + 16]]
                b, u, v = sub.local_edges.T
                pairs = set(zip(b.tolist(), u.tolist(), v.tolist()))
                reciprocal += sum((s, j, i) in pairs for s, i, j in pairs)
                want = gm.build_batch(g, sub, cfg)
                with monkeypatch.context() as m:
                    m.setattr(st, "synth_edge_features", looked_up)
                    old = gm.build_batch(g, sub, cfg)
                for name in ("nodes", "edge_table", "edge_offsets", "path_index", "in_deg",
                             "out_deg"):
                    assert getattr(want, name).tobytes() == getattr(old, name).tobytes(), name
                assert want.spd.dist.tobytes() == old.spd.dist.tobytes()
                assert want.path_coeffs.tobytes() == old.path_coeffs.tobytes()
        assert (reciprocal > 0) == (g is not desk)


def test_oversized_micro_batch_builds_in_capped_passes(monkeypatch):
    """A ``logits_for_centers`` miss larger than a pass is built in several
    passes, with the same logits; a cap below one subgraph's pairs still
    builds one center per pass."""
    passes = _record_pass_sizes(monkeypatch)
    _, data, model = _mixed_case(39)
    k = model.cfg.ego_max_nodes
    want = model.logits_for_centers(data, np.arange(24), seed=0).data
    assert passes == [24]
    for cap, sizes in ((5 * k * k, [5] * 4 + [4]), (k * k - 1, [1] * 24)):
        monkeypatch.setattr(gm, "BUILD_PASS_PAIRS", cap)
        model._batch_cache.clear()
        passes.clear()
        got = model.logits_for_centers(data, np.arange(24), seed=0).data
        assert passes == sizes
        assert got.tobytes() == want.tobytes()


def test_build_centers_and_empty_center_lists():
    """``build_centers`` caches what a forward would build, and does
    nothing for an empty list or on the baseline; an empty forward is a
    ``ValueError`` that says so."""
    _, data, model = _mixed_case(40)
    model.build_centers(data, [], seed=0)
    assert not model._batch_cache
    model.build_centers(data, np.array([3, 5, 3]), seed=0)
    assert list(model._batch_cache) == [(3, 0), (5, 0)]
    assert all(type(c) is int for c, _ in model._batch_cache)
    with pytest.raises(ValueError, match="empty center list"):
        model.logits_for_centers(data, [], seed=0)
    with pytest.raises(gr.GraphConstructionError, match="center 24 outside"):
        model.build_centers(data, [24], seed=0)
    mlp = gm.FusedMlp(tiny_config(), fusion_config(), seed=0)
    assert mlp.build_centers(data, [1, 2], seed=0) is None


# --- attention bias ----------------------------------------------------------


def test_attention_bias_zero_tables():
    _, _, _, batch, cfg = random_case(5)
    bias = gm.attention_bias(batch, Tensor(np.zeros((cfg.num_spd_buckets, 2))),
                             Tensor(np.zeros((cfg.max_spd * 3, 2))))
    assert np.array_equal(bias.data, np.zeros((batch.nodes.shape[1] ** 2, 2)))


def test_attention_bias_two_node_path():
    g = gr.from_edge_list([(0, 1)], 2)
    sub = gr.sample_ego_subgraph(g, [0], hops=1, max_nodes=4, seed=0)
    cfg = tiny_config(max_spd=3)
    batch = gm.build_batch(g, sub, cfg)
    rng = np.random.default_rng(6)
    b = rng.standard_normal((cfg.num_spd_buckets, cfg.num_heads))
    w = rng.standard_normal((cfg.max_spd * 3, cfg.num_heads))
    bias = gm.attention_bias(batch, Tensor(b), Tensor(w)).data
    k = batch.nodes.shape[1]
    feats = st.synth_edge_features(g, np.array([0]), np.array([1]), np.array([True]))
    for h in range(cfg.num_heads):
        c01 = edge_encoding_cij(feats.reshape(1, 3), w, head=h, d_edge=3)
        assert bias[0 * k + 1, h] == pytest.approx(b[1, h] + c01, abs=1e-12)
        assert bias[0 * k + 0, h] == pytest.approx(b[0, h], abs=1e-12)  # diagonal: d=0, c=0


def test_attention_bias_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    for seed in range(10):
        _, g, sub, batch, cfg = random_case(100 + seed)
        b = Tensor(rng.standard_normal((cfg.num_spd_buckets, cfg.num_heads)))
        w = Tensor(rng.standard_normal((cfg.max_spd * 3, cfg.num_heads)))
        k = batch.nodes.shape[1]
        bias = gm.attention_bias(batch, b, w).data.reshape(k, k, -1)
        perm = rng.permutation(k)
        pbatch = gm.build_batch(g, relabelled_stack(sub, perm), cfg)
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
    out = gm.multi_head_attention(h, Tensor(np.zeros((1, 2))), np.ones((1, 1, 1, 1), bool),
                                  params, num_heads=2, capture=cap)
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
    bias_heads = Tensor(np.repeat(bias.reshape(-1, 1), heads, axis=1))  # (k*k, heads)
    out = gm.multi_head_attention(h, bias_heads, np.ones((1, 1, 1, k), bool), params,
                                  num_heads=heads)
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
        return ad.tsum(ad.mul(gm.multi_head_attention(h, bias, np.ones((1, 1, 1, k), bool),
                                                      params, 2), r))

    check_gradients(loss, [h, bias] + list(params.values()))


# --- full forward ------------------------------------------------------------


def test_zero_layers_is_classifier_on_h0():
    rng, g, sub, batch, _ = random_case(11, cfg=tiny_config(num_layers=0))
    cfg = tiny_config(num_layers=0)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=3)
    bundle = random_bundle(rng, g.num_nodes)
    logits = model.forward(batch, bundle)
    rows = {s: bundle.source(s)[batch.nodes[0]] for s in model.fusion.cfg.active}
    x = model.fusion.fuse(rows)
    h0 = gm.input_embedding(x, batch.in_deg[0], batch.out_deg[0], model.z_in, model.z_out,
                            cfg.max_degree_bucket)
    expect = h0.data @ model.head_w.data + model.head_b.data
    assert np.max(np.abs(logits.data - expect)) < 1e-12


def test_forward_permutation_equivariance():
    for seed in range(5):
        rng, g, sub, batch, cfg = random_case(200 + seed)
        model = gm.GraphormerModel(cfg, fusion_config(), seed=seed)
        bundle = random_bundle(rng, g.num_nodes)
        base = model.forward(batch, bundle).data
        perm = rng.permutation(batch.nodes.shape[1])
        pbatch = gm.build_batch(g, relabelled_stack(sub, perm), cfg)
        permuted = model.forward(pbatch, bundle).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-6
        # the center row is found wherever the center landed
        moved = np.flatnonzero(perm == 0)[0]
        assert np.max(np.abs(permuted[moved] - base[0])) < 1e-6


def test_attention_rows_sum_to_one_every_layer_head():
    rng, g, sub, batch, cfg = random_case(12)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=5)
    bundle = random_bundle(rng, g.num_nodes)
    cap = {}
    model.forward(batch, bundle, capture=cap)
    assert len(cap["attention"]) == cfg.num_layers
    k = batch.nodes.shape[1]
    for layer_attn in cap["attention"]:
        assert layer_attn.shape == (1, cfg.num_heads, k, k)
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
        return gm.build_batch(g, ego_stack(nodes, edges), cfg)

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
    labels = rng.integers(0, cfg.num_classes, size=batch.nodes.shape[1])
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
    sub = ego_stack(np.arange(n), list(g.edges()))
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


# --- padded micro-batches ----------------------------------------------------


def _mixed_case(seed, **cfg_kw):
    """A graph whose first 20 nodes form a sparse citation graph and whose
    last 4 are isolated, so that micro-batches mix ego sizes from 1 to
    ``ego_max_nodes`` and neighbouring centers share nodes."""
    rng = np.random.default_rng(seed)
    edges = random_edge_list(rng, 20, 0.12)
    g = gr.from_edge_list(edges, 24)
    data = types.SimpleNamespace(graph=g, bundle=random_bundle(rng, 24))
    cfg = tiny_config(**cfg_kw)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=seed)
    for t in (model.spatial_table, model.edge_weight):  # zero at init: make the bias count
        t.data[...] = rng.standard_normal(t.shape)
    return rng, data, model


def test_logits_for_centers_match_one_subgraph_oracle():
    for seed, layers, heads in ((30, 2, 2), (31, 1, 4), (32, 3, 1), (33, 0, 2)):
        rng, data, model = _mixed_case(seed, num_layers=layers, num_heads=heads)
        for centers in (rng.permutation(24)[:8], np.arange(24), np.array([23]), np.array([3])):
            got = model.logits_for_centers(data, centers, seed=5).data
            want = oracle_logits_for_centers(model, data, centers, 5)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12, (seed, centers)
        batches = [model.batch_for(c, 5) for c in range(24)]
        sizes = {len(b.nodes) for b in batches}
        assert 1 in sizes and len(sizes) > 2  # isolated centers and padding
        nodes = [set(b.nodes.tolist()) for b in batches]
        assert any(nodes[i] & nodes[j] for i in range(24) for j in range(i))  # shared nodes
        for b in batches[::5]:
            assert np.max(np.abs(model.forward(gm.stack_batches(data.graph, [b]), data.bundle).data
                                 - oracle_subgraph_logits(model, data.graph, b, data.bundle))) < 1e-12


def test_stack_batches_pads_and_masks():
    """Stacked entries keep their rows; padding reads -1, degree 0 and zero
    coefficients, and the real rows' degrees are the graph's."""
    _, data, model = _mixed_case(34)
    g = data.graph
    model.build_centers(data, (22, 0, 5), 0)
    batches = [model.batch_for(c, 0) for c in (22, 0, 5)]
    stack = gm.stack_batches(g, batches)
    k = max(len(b.nodes) for b in batches)
    assert stack.nodes.shape == (3, k) and stack.sizes.tolist() == [len(b.nodes) for b in batches]
    assert stack.nodes[:, 0].tolist() == [22, 0, 5]  # the center rows
    for i, b in enumerate(batches):
        n = len(b.nodes)
        assert np.array_equal(stack.nodes[i, :n], b.nodes) and (stack.nodes[i, n:] == -1).all()
        assert stack.in_deg[i, :n].tolist() == [g.in_degree(int(v)) for v in b.nodes]
        assert stack.out_deg[i, :n].tolist() == [g.out_degree(int(v)) for v in b.nodes]
        assert not stack.in_deg[i, n:].any() and not stack.out_deg[i, n:].any()
        assert np.array_equal(stack.spd_buckets[i, :n, :n], b.dist)
        coeffs = stack.path_coeffs[i]
        assert np.array_equal(coeffs[:n, :n].reshape(n * n, -1), entry_path_coeffs(b))
        assert not coeffs[n:].any() and not coeffs[:, n:].any()
    # padded keys are masked: every real row's logits are its own subgraph's
    logits = model.forward(stack, data.bundle).data.reshape(3, k, -1)
    for i, b in enumerate(batches):
        alone = model.forward(gm.stack_batches(g, [b]), data.bundle).data
        assert np.max(np.abs(logits[i, :len(b.nodes)] - alone)) < 1e-12


def test_split_and_stack_batches_round_trip():
    """``stack_batches`` inverts ``split`` byte for byte on every real row
    of a built stack of mixed sizes; its padding reads -1 in ``nodes``
    and 0 elsewhere, and ``build_batch`` pads the degrees with 0 too."""
    g = overflow_graph()
    cfg = tiny_config(max_spd=3)
    centers = [0, 10, 27, 17, 22, 19, 11, 5, 28]
    for max_nodes in (5, 12):
        sub = gr.sample_ego_subgraph(g, centers, hops=2, max_nodes=max_nodes,
                                     seed=0)
        built = gm.build_batch(g, sub, cfg)
        back = gm.stack_batches(g, built.split())
        assert len(set(built.sizes.tolist())) > 2  # sizes 1, mid and full
        k = built.nodes.shape[1]
        real = np.arange(k) < built.sizes[:, None]
        pairs = real[:, :, None] & real[:, None, :]
        assert back.spd.cap == built.spd.cap
        assert back.nodes[:, 0].tolist() == centers == built.nodes[:, 0].tolist()
        for name, mask in (("sizes", None), ("nodes", real),
                           ("in_deg", real), ("out_deg", real), ("spd_buckets", pairs),
                           ("path_coeffs", pairs)):
            got, want = getattr(back, name), getattr(built, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            if mask is not None:
                got, want = got[mask], want[mask]
                assert (getattr(back, name)[~mask] == (-1 if name == "nodes" else 0)).all(), name
            assert got.tobytes() == want.tobytes(), (max_nodes, name)
        assert not built.in_deg[~real].any() and not built.out_deg[~real].any()


def test_logits_for_centers_gradient_check(monkeypatch):
    rng, data, model = _mixed_case(35, num_layers=2)
    centers = np.array([2, 21, 7, 23])
    labels = rng.integers(0, 3, size=len(centers))
    from tapeformer.training import smoothed_cross_entropy

    def loss():
        return smoothed_cross_entropy(model.logits_for_centers(data, centers, seed=0), labels, 0.1)

    # a central difference of step h is meaningless across a ReLU kink: the
    # case must keep every FFN pre-activation at least 10 h from zero
    inputs = []
    monkeypatch.setattr(ad, "relu", lambda x, _relu=ad.relu: inputs.append(x.data) or _relu(x))
    loss()
    monkeypatch.undo()
    assert min(np.abs(x).min() for x in inputs) > 10 * 1e-5
    check_gradients(loss, list(model.parameters().values()), h=1e-5, max_entries=8, seed=3)


def test_tape_ops_per_step_independent_of_batch_and_heads():
    """A training step's forward and loss record one tape length for any
    B and H: 54 ops at 2 layers (the desk config) and 78 at 4 (the
    default config)."""
    from tapeformer.training import smoothed_cross_entropy

    for layers, want in ((2, 54), (gm.GraphormerParams.num_layers, 78)):
        ops = set()
        for heads in (1, 2, 4):
            rng, data, model = _mixed_case(36, num_layers=layers, num_heads=heads)
            for size in (1, 4, 8):
                centers = rng.permutation(24)[:size]
                ad.tape_clear()
                logits = model.logits_for_centers(data, centers, seed=0, train=True)
                smoothed_cross_entropy(logits, rng.integers(0, 3, size=size), 0.1)
                ops.add(ad.tape_size())
        assert ops == {want}, layers


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


# --- module surface ----------------------------------------------------------


def test_every_exported_name_resolves():
    """A stale ``__all__`` entry breaks ``from tapeformer.<module> import *``."""
    import importlib
    import pkgutil

    import tapeformer

    checked = 0
    for info in pkgutil.iter_modules(tapeformer.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"tapeformer.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"tapeformer.{info.name}.{name}"
            checked += 1
    assert checked > 0
