import dataclasses
import hashlib
import types
import weakref

import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer import graph as gr
from tapeformer import model as gm
from tapeformer import structural as st
from tapeformer.autodiff import Tensor
from tapeformer.fusion import FusionConfig

from helpers import (
    bfs_distances,
    check_gradients,
    edge_encoding_cij,
    edge_pairs,
    ego_stack,
    entry_distances,
    entry_edge_table,
    entry_path_coeffs,
    floyd_warshall,
    in_neighbors,
    node_map,
    oracle_citation_flags,
    oracle_ego_subgraph,
    oracle_logits_for_centers,
    oracle_structural,
    oracle_subgraph_logits,
    out_neighbors,
    random_edge_list,
    relabelled_stack,
    within_width,
)
from test_graph import overflow_graph

DIMS = {"expl": 5, "pred": 3, "text": 5, "ogb": 4}


def tiny_config(**kw):
    """float64 unless ``dtype`` says otherwise: the tests below hold the model
    to finite differences and float64-tight bounds."""
    base = dict(num_classes=3, num_layers=2, num_heads=2, d_model=16, d_ffn=24,
                max_spd=4, max_degree_bucket=8, ego_hops=2, ego_max_nodes=12, dtype="float64")
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
    return {s: rng.standard_normal((n, DIMS[s])) for s in DIMS}


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
    assert subs.num_nodes == sum(len(b.nodes) for b in model.store.entries.values())
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
    built = trained.store.entries | predicted.store.entries
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


def _assert_stacked_distances(g, entries, want):
    """``stack_batches`` of ``entries`` reads block b's distances off its
    path index as ``want[b]`` (int64, w + 1 past the path width w) and 0
    on padding, in the narrowest signed dtype that holds w + 1."""
    stack = gm.stack_batches(g, entries)
    width = entries[0].path_index.shape[-1]
    dist = stack.spd.dist
    assert dist.dtype == np.min_scalar_type(-width - 2) and dist.dtype.kind == "i"
    assert stack.spd_buckets is dist
    for b, d in enumerate(want):
        n = len(d)
        assert np.array_equal(dist[b, :n, :n], d), b
        assert not dist[b, n:].any() and not dist[b, :, n:].any(), b
    return stack


def test_cached_batches_match_oracles_whatever_chunk_built_in(monkeypatch):
    """Every center's cached batch equals the one-center oracles' (the
    BFS sampler and the pairwise encodings), byte for byte, whichever
    chunk of misses it was built in; a center given twice in one call is
    built once. The entry holds no degrees, distances or edge features:
    stacked in each chunk, it reads the oracle's distances (padding 0),
    and stacked alone, the graph's degrees."""
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
            coeffs = within_width(coeffs, cfg.path_width)
            nodes = sub.nodes[0]
            want[c] = (nodes, dist, coeffs, g.in_degree[nodes], g.out_degree[nodes])
            assert node_map(sub)[c] == 0
        sizes = {len(w[0]) for w in want.values()}
        assert 1 in sizes and (max_nodes == 1 or len(sizes) > 2)
        for chunks in ([list(range(n))], [[c] for c in range(n)],
                       [[0, 10, 0, 27, 10], [5, 3, 5], list(range(n))[::-1]]):
            model.store.entries.clear()
            stacks.clear()
            for part in chunks:
                model.logits_for_centers(data, part, seed=4)
            # each miss is built once, in the call that first asked for it
            assert sum(len(s.sizes) for s in stacks) == n
            assert len(stacks) == len(chunks)
            for part in chunks:
                _assert_stacked_distances(g, [model.store.entries[(c, 4)] for c in part],
                                          [want[c][1] for c in part])
            for c in range(n):
                b = model.store.entries[(c, 4)]
                nodes, dist, coeffs, in_deg, out_deg = want[c]
                assert b.nodes.dtype == np.min_scalar_type(int(nodes.max())), (max_nodes, c)
                assert np.array_equal(b.nodes, nodes), (max_nodes, c)
                assert [f.name for f in dataclasses.fields(b)] == ["nodes", "edges", "path_index"]
                assert b.edges.dtype == np.uint8 and b.edges.shape[1] == 3
                assert entry_path_coeffs(g, b).shape == coeffs.shape
                assert entry_path_coeffs(g, b).tobytes() == coeffs.tobytes(), (max_nodes, c)
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
    padded = (stack.nodes, stack.spd.dist, stack.path_coeffs, stack.edge_table, stack.edges,
              stack.path_index, stack.in_deg, stack.out_deg)
    assert stack.nodes.shape[1] == 5
    for b in model.store.entries.values():
        for f in dataclasses.fields(b):
            a = getattr(b, f.name)
            assert not any(np.shares_memory(a, p) for p in padded)
            assert a.base is None or a.base.nbytes == a.nbytes
            assert a.flags.c_contiguous, f.name  # stacking copies it row by row


def test_path_index_widens_with_the_edge_table():
    """A k=200 ego subgraph of a 200-node complete graph has 39,800
    directed local edges, more than int16 holds: each entry's path index
    (row t on a path of length N as t * w + N - 1 for the path width w,
    here ``max_spd``) takes the narrowest unsigned dtype that holds it,
    and the path coefficients decoded from the entry equal the stack's
    byte for byte. Its edges' local ids stay uint8, which holds k - 1."""
    n = 200
    g = gr.from_edge_list([(u, v) for u in range(n) for v in range(u + 1, n)], n)
    sub = gr.sample_ego_subgraph(g, [0, 7], hops=1, max_nodes=n, seed=0)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    for cap, dtype in ((1, np.uint16), (2, np.uint32)):
        built = gm.build_batch(g, sub, tiny_config(ego_max_nodes=n, ego_hops=1, max_spd=cap))
        entries = built.split()
        for b, entry in enumerate(entries):
            rows = len(entry.edges) + 1
            assert rows == n * (n - 1) + 1 and rows - 1 > np.iinfo(np.int16).max
            assert entry.path_index.dtype == dtype and entry.edges.dtype == np.uint8
            assert int(entry.path_index.max()) == (rows - 1) * cap
            coeffs = entry_path_coeffs(g, entry)
            assert coeffs.tobytes() == built.path_coeffs[b].reshape(n * n, -1).tobytes()
            # every pair is one hop apart: position 0 holds the step's own features
            steps = coeffs.reshape(n, n, cap, 3)
            src, dst = entry.nodes[i], entry.nodes[j]
            assert np.array_equal(steps[i, j, 0],
                                  st.synth_edge_features(g, src, dst, oracle_citation_flags(g, src, dst)))
            assert not steps[:, :, 1:].any() and not steps[np.arange(n), np.arange(n)].any()
        stacked = gm.stack_batches(g, entries)
        assert stacked.path_index.dtype == dtype
        assert stacked.edge_table.tobytes() == built.edge_table.tobytes()
        assert stacked.path_coeffs.tobytes() == built.path_coeffs.tobytes()


def test_stored_distances_widen_past_max_spd_126():
    """On a 129-node path the center's ego subgraph has pairs 128 hops
    apart, so at ``max_spd=127`` they hold the sentinel 128, which int8
    cannot: the forward over the stored entry is finite, and the stack of
    the entry derives the built stack's distances as int16, whatever other
    entry pads it."""
    n = 129
    g = gr.from_edge_list([(u, u + 1) for u in range(n - 1)], n)
    cfg = tiny_config(num_layers=1, max_spd=127, ego_hops=64, ego_max_nodes=n)
    data = types.SimpleNamespace(graph=g, bundle=random_bundle(np.random.default_rng(0), n))
    model = gm.GraphormerModel(cfg, fusion_config(), seed=0)
    with ad.no_grad():
        assert np.isfinite(model.logits_for_centers(data, [64], seed=0).data).all()
    built = gm.build_batch(g, gr.sample_ego_subgraph(g, [64, 0], hops=64, max_nodes=n, seed=0),
                           cfg)
    assert built.spd.dist.max() == 128 and built.sizes.tolist() == [n, 65]
    model.build_centers(data, [0], seed=0)
    entries = [model.store.entries[(c, 0)] for c in (64, 0)]
    want = [built.spd.dist[b, :m, :m] for b, m in enumerate(built.sizes.tolist())]
    stacked = _assert_stacked_distances(g, entries, want)
    assert stacked.spd.dist.dtype == np.int16
    assert _assert_stacked_distances(g, entries[::-1], want[::-1]).spd.dist.max() == 128


def test_distances_past_the_path_width_read_its_sentinel():
    """A whole-graph stack can hold pairs further apart than any ego
    subgraph's. ``build_batch`` stops its distances at the path width w,
    whatever ``max_spd`` is: a pair more than w hops apart, or in another
    component, reads w + 1 and has no path. Below that the distances are
    Floyd-Warshall's and the paths the pairwise oracle's."""
    rng = np.random.default_rng(46)
    past = 0
    for trial in range(16):
        n = int(rng.integers(8, 30))
        g = gr.from_edge_list(random_edge_list(rng, n, float(rng.uniform(0.03, 0.15))), n)
        edges = list(edge_pairs(g))
        sub, fw = ego_stack(np.arange(n), edges), floyd_warshall(edges, n)
        # w from ego_hops, from ego_max_nodes, and from max_spd
        for hops, max_nodes, max_spd in ((1, 12, 6), (2, 12, 9), (3, 3, 5), (2, 12, 3)):
            cfg = tiny_config(ego_hops=hops, ego_max_nodes=max_nodes, max_spd=max_spd)
            w, where = cfg.path_width, (trial, hops, max_nodes, max_spd)
            built = gm.build_batch(g, sub, cfg)
            want = np.where(fw <= w, fw, w + 1).astype(np.int64)
            assert built.spd.dist[0].tobytes() == want.tobytes(), where
            _, coeffs = oracle_structural(g, sub, w)
            assert built.path_coeffs.tobytes() == coeffs.tobytes(), where
            past += bool((np.isfinite(fw) & (fw > w)).any())
            # stacked with smaller ego entries, in any order, the whole-graph
            # entry's derived distances are still the BFS's, sentinel included
            ego = gm.build_batch(g, gr.sample_ego_subgraph(g, [0, n - 1], hops, max_nodes, trial),
                                 cfg)
            parts = list(zip(built.split() + ego.split(), [built.spd.dist[0]] + [
                ego.spd.dist[b, :m, :m] for b, m in enumerate(ego.sizes.tolist())]))
            for chunk in (parts, parts[::-1], parts[1:]):
                _assert_stacked_distances(g, *map(list, zip(*chunk)))
    assert past > 40


def test_a_max_spd_that_keeps_the_width_keeps_the_store(monkeypatch):
    """The store keys its entries on ``ego_hops``, ``ego_max_nodes`` and the
    path width w. Built at ``max_spd=5`` and again at 15, both w = 4, it
    builds each center once, and its entries equal a fresh build's at 15
    byte for byte; at ``max_spd=3``, w = 3, it builds every center again."""
    built = []
    orig = gm.build_batch

    def recording(g, stack, cfg):
        built.extend(stack.nodes[:, 0].tolist())
        return orig(g, stack, cfg)

    rng = np.random.default_rng(47)
    n = 60
    g = gr.from_edge_list(random_edge_list(rng, n, 0.06), n)
    configs = {m: tiny_config(max_spd=m, ego_max_nodes=16) for m in (5, 15, 3)}
    assert [cfg.path_width for cfg in configs.values()] == [4, 4, 3]
    fresh = gm.SubgraphStore()
    fresh.build(g, configs[15], range(n), seed=2)
    monkeypatch.setattr(gm, "build_batch", recording)
    store = gm.SubgraphStore()
    store.build(g, configs[5], range(n), seed=2)
    store.build(g, configs[15], range(n), seed=2)
    assert sorted(built) == list(range(n))
    assert store.entries.keys() == fresh.entries.keys()
    for key, entry in store.entries.items():
        for f in dataclasses.fields(entry):
            got, want = getattr(entry, f.name), getattr(fresh.entries[key], f.name)
            assert got.dtype == want.dtype and got.shape == want.shape, (key, f.name)
            assert got.tobytes() == want.tobytes(), (key, f.name)
    store.build(g, configs[3], range(n), seed=2)
    assert sorted(built) == sorted(2 * list(range(n)))


def test_stored_distances_stay_within_twice_ego_hops():
    """A sampled subgraph keeps a node only if a kept node one hop nearer
    reached it, and keeps every edge among its nodes, so no pair of a
    stored entry is unreachable or more than 2 * ``ego_hops`` apart, at
    every ``ego_hops`` the path width depends on. The stored distances
    equal Floyd-Warshall's on the induced subgraph; ``max_spd`` lies above
    the bound, so no cap hides a distance."""
    rng = np.random.default_rng(43)
    for trial in range(12):
        n = int(rng.integers(2, 40))
        g = gr.from_edge_list(random_edge_list(rng, n, float(rng.uniform(0.02, 0.3))), n)
        edges = list(edge_pairs(g))
        for hops in (1, 2, 3):
            cfg = tiny_config(ego_hops=hops, ego_max_nodes=int(rng.integers(1, 20)),
                              max_spd=2 * hops + 2)
            store = gm.SubgraphStore()
            store.build(g, cfg, range(n), seed=trial)
            assert len(store.entries) == n
            for entry in store.entries.values():
                local = {v: i for i, v in enumerate(entry.nodes.tolist())}
                fw = floyd_warshall([(local[u], local[v]) for u, v in edges
                                     if u in local and v in local], len(local))
                assert np.isfinite(fw).all() and fw.max() <= 2 * hops, (trial, hops)
                _assert_stacked_distances(g, [entry], [fw])


def test_path_width_is_what_a_subgraph_can_hold():
    """Every entry's path index is w = max(1, min(max_spd, 2 * ego_hops,
    ego_max_nodes - 1)) steps wide and decodes to the pairwise oracle's
    paths, whatever the three settings: no path of a sampled subgraph is
    longer than 2 * ego_hops, nor than k - 1 on k nodes. So the width,
    not ``max_spd``, sets an entry's size: one built at max_spd=2000 has
    the bytes of one built at 15."""
    rng = np.random.default_rng(44)
    n = 30
    g = gr.from_edge_list(random_edge_list(rng, n, 0.08), n)
    centers = range(0, n, 3)
    for hops in (1, 2, 3):
        for max_nodes in (1, 2, 4, 16):
            nbytes = {}
            for max_spd in (1, 3, 5, 15, 126, 127, 2000):
                where = (hops, max_nodes, max_spd)
                w = max(1, min(max_spd, 2 * hops, max_nodes - 1))
                cfg = tiny_config(ego_hops=hops, ego_max_nodes=max_nodes, max_spd=max_spd)
                store = gm.SubgraphStore()
                store.build(g, cfg, centers, seed=0)
                for c in centers:
                    entry = store.entries[(c, 0)]
                    k = len(entry.nodes)
                    assert entry.path_index.shape == (k, k, w), where
                    # no distance reaches the oracle's cap, so its sentinel is the width's
                    cap = min(max_spd, max_nodes)
                    dist, coeffs = oracle_structural(
                        g, oracle_ego_subgraph(g, c, hops, max_nodes, 0), cap)
                    dist = np.where(dist > cap, w + 1, dist)
                    _assert_stacked_distances(g, [entry], [dist])
                    coeffs = within_width(coeffs, w)
                    assert entry_path_coeffs(g, entry).tobytes() == coeffs.tobytes(), where
                nbytes[max_spd] = sum(getattr(e, f.name).nbytes for e in store.entries.values()
                                      for f in dataclasses.fields(e))
            assert nbytes[2000] == nbytes[15], (hops, max_nodes)


def test_cached_entry_is_a_fifth_of_the_padded_layout():
    """At k=32 a cached entry holds at most a fifth of the bytes of the
    layout that stored ``path_coeffs`` (k*k*max_spd*d_edge floats) with
    int64 distances, and none of its arrays is that large."""
    rng = np.random.default_rng(41)
    g = gr.from_edge_list(random_edge_list(rng, 120, 0.08), 120)
    cfg = tiny_config(ego_max_nodes=32, max_spd=5)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=0)
    model.build_centers(types.SimpleNamespace(graph=g), range(24), 0)
    full = [b for b in model.store.entries.values() if len(b.nodes) == 32]
    assert len(full) > 12
    k, coeffs = 32, 32 * 32 * cfg.max_spd * st.EDGE_FEATURE_DIM
    padded_layout = 8 * (k + k * k + coeffs + 2 * k)  # nodes, dist, path_coeffs, degrees
    for b in full:
        arrays = [getattr(b, f.name) for f in dataclasses.fields(b)]
        assert sum(a.nbytes for a in arrays) * 5 <= padded_layout
        assert all(a.size < coeffs for a in arrays)
        assert entry_path_coeffs(g, b).shape == (k * k, cfg.path_width * st.EDGE_FEATURE_DIM)


def test_desk_entries_hold_only_what_the_graph_cannot_give_back():
    """An entry keeps its nodes (global ids in the narrowest uint that
    holds its largest), its local edge list (two uint8 local ids and the
    citation flag, 3 bytes an edge) and its path index: no distances and
    no float edge table. Over all 400 centers of the seed-0 desk corpus
    that is at most 1,200 bytes per center at k=16 and 8,430 at k=32."""
    g = _desk_graph()
    for k, most in ((16, 1_200), (32, 8_430)):
        store = gm.SubgraphStore()
        store.build(g, tiny_config(ego_max_nodes=k, max_spd=5), range(400), seed=0)
        total = 0
        for entry in store.entries.values():
            assert [f.name for f in dataclasses.fields(entry)] == ["nodes", "edges", "path_index"]
            assert entry.nodes.dtype == np.min_scalar_type(int(entry.nodes.max())) == np.uint16
            assert entry.edges.dtype == np.uint8 and entry.edges.nbytes == 3 * len(entry.edges)
            total += sum(getattr(entry, f.name).nbytes for f in dataclasses.fields(entry))
        assert total <= most * 400, (k, total / 400)


def test_bad_center_raises_through_the_model():
    data, model = _cache_case(5)
    for centers, bad in (([30], 30), ([0, 31, 2], 31), ([-1], -1), ([0, 2, -7, 40], -7)):
        with pytest.raises(gr.GraphConstructionError, match=f"center {bad} outside"):
            model.logits_for_centers(data, centers, seed=0)
    assert not model.store.entries


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
    assert set(whole.store.entries) == set(micro.store.entries) == {(c, 0) for c in range(400)}
    for key, entry in whole.store.entries.items():
        assert _entry_bytes(entry) == _entry_bytes(micro.store.entries[key]), key


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
        built.append(model.store.entries)
    for key, entry in built[0].items():
        assert _entry_bytes(entry) == _entry_bytes(built[1][key]) == _entry_bytes(built[2][key]), key


# sha256 of every stored entry of the integer-drawn graph below, per
# (ego_max_nodes, seed); no float enters an entry, so it holds on any machine
ENTRY_DIGESTS = {
    (16, 0): "98d758b944b70daf21a4e8a252677d1aa5580510276bd7a73de29133eaca1e98",
    (16, 7): "155a3b3535ecc745fa196a5f88c04912a7ab8a43ac74d78934df590636c221ff",
    (32, 0): "8ee529f84879f55b369b9687f28b2fa169faa85dc8532ed22f56d70867ea682f",
    (32, 7): "8809d6066b6f9a3bd2487acb2b7e9a0d10824d7b19c2084dc0dd44bdeaf814f9",
}


def _entry_digest(entries) -> str:
    """sha256 over each entry's fields in order: dtype, shape and little-endian bytes."""
    h = hashlib.sha256()
    for entry in entries:
        for f in dataclasses.fields(entry):
            a = getattr(entry, f.name)
            a = a.astype(a.dtype.newbyteorder("<"))
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("max_nodes", [16, 32])
def test_stored_entries_match_their_recorded_digest(monkeypatch, max_nodes):
    """All 400 centers' entries of a 400-node graph drawn with integer
    draws only hash to the recorded digests, at seeds 0 and 7 and in
    passes of 1, 7 and 64 centers."""
    rng = np.random.default_rng(2024)
    g = gr.from_edge_list(rng.integers(0, 400, size=(1800, 2)), 400)
    cfg = tiny_config(ego_max_nodes=max_nodes, max_spd=5)
    for seed in (0, 7):
        for per_pass in (1, 7, 64):
            monkeypatch.setattr(gm, "BUILD_PASS_PAIRS", per_pass * max_nodes ** 2)
            store = gm.SubgraphStore()
            store.build(g, cfg, range(400), seed)
            got = _entry_digest(store.entries[(c, seed)] for c in range(400))
            assert got == ENTRY_DIGESTS[(max_nodes, seed)], (seed, per_pass)


def _with_reciprocal_citations(g):
    """``g`` plus the reverse of every fifth citation."""
    edges = list(edge_pairs(g))
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
        adj_sets = [set(out_neighbors(g, v).tolist()) | set(in_neighbors(g, v).tolist())
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
                    old.edge_table  # built on first read: while the lookup is patched in
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
        model.store.entries.clear()
        passes.clear()
        got = model.logits_for_centers(data, np.arange(24), seed=0).data
        assert passes == sizes
        assert got.tobytes() == want.tobytes()


def test_a_model_reused_on_another_graph_builds_that_graph_s_subgraphs():
    """A subgraph store holds one graph's entries under one ego config:
    after forwards on one graph, a forward on another is, byte for byte,
    the forward of a model that never saw the first, and going back
    rebuilds the first's. Two models that share a store but not their
    ``ego_max_nodes`` or ``max_spd`` each get a fresh model's logits
    under their own config, also after the other has built."""
    _, first, model = _mixed_case(41)
    _, second, fresh = _mixed_case(41)  # the same parameters and bundle
    second.graph = _mixed_case(42)[1].graph
    centers = np.arange(24)
    before = model.logits_for_centers(first, centers, seed=0).data.copy()
    got = model.logits_for_centers(second, centers, seed=0).data
    assert got.tobytes() == fresh.logits_for_centers(second, centers, seed=0).data.tobytes()
    for c in centers:
        assert model.batch_for(c, 0).nodes.tolist() == fresh.batch_for(c, 0).nodes.tolist()
    assert model.logits_for_centers(first, centers, seed=0).data.tobytes() == before.tobytes()

    for other in ({"ego_max_nodes": 5}, {"max_spd": 2}):
        _, data, a = _mixed_case(43)
        fresh_a, fresh_b = _mixed_case(43)[2], _mixed_case(43, **other)[2]
        b = gm.GraphormerModel(fresh_b.cfg, fusion_config(), seed=0, store=a.store)
        b.load_state({name: t.data for name, t in fresh_b.parameters().items()})
        wants = [(a, fresh_a.logits_for_centers(data, centers, seed=0).data),
                 (b, fresh_b.logits_for_centers(data, centers, seed=0).data)]
        for m, want in wants * 2:  # each builds after the other has
            got = m.logits_for_centers(data, centers, seed=0).data
            assert got.tobytes() == want.tobytes(), other


def test_build_centers_and_empty_center_lists():
    """``build_centers`` caches what a forward would build, and does
    nothing for an empty list or on the baseline; an empty forward is a
    ``ValueError`` that says so."""
    _, data, model = _mixed_case(40)
    model.build_centers(data, [], seed=0)
    assert not model.store.entries
    model.build_centers(data, np.array([3, 5, 3]), seed=0)
    assert list(model.store.entries) == [(3, 0), (5, 0)]
    assert all(type(c) is int for c, _ in model.store.entries)
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
    r = rng.standard_normal((k, d))

    def out():
        return gm.multi_head_attention(h, bias, np.ones((1, 1, 1, k), bool), params, 2)

    check_gradients(out, [h, bias] + list(params.values()), grad=r)


# --- full forward ------------------------------------------------------------


def test_zero_layers_is_classifier_on_h0():
    rng, g, sub, batch, _ = random_case(11, cfg=tiny_config(num_layers=0))
    cfg = tiny_config(num_layers=0)
    model = gm.GraphormerModel(cfg, fusion_config(), seed=3)
    bundle = random_bundle(rng, g.num_nodes)
    logits = model.forward(batch, bundle)
    rows = {s: bundle[s][batch.nodes[0]] for s in model.fusion.cfg.active}
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

    check_gradients(loss, model.parameters(), max_entries=12, seed=1)


def test_gradient_check_refuses_a_float32_model():
    """A float32 central difference at h=1e-5 is rounding noise: the check
    refuses before differencing, naming the parameter and the fix."""
    model = gm.GraphormerModel(tiny_config(dtype="float32"), fusion_config(), seed=8)
    with pytest.raises(AssertionError, match=r"parameter 'fusion.proj.expl' is float32: finite "
                                             r"differences need float64, so build the model "
                                             r'with dtype="float64"'):
        check_gradients(lambda: pytest.fail("differenced a float32 model"), model.parameters())


def test_overfit_tiny_subgraph():
    # a capacity/optimization sanity oracle: memorize 20 labeled nodes
    rng = np.random.default_rng(15)
    n = 20
    edges = random_edge_list(rng, n, 0.15)
    g = gr.from_edge_list(edges, n)
    sub = ego_stack(np.arange(n), list(edge_pairs(g)))
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
            alone = gm.stack_batches(data.graph, [b])
            assert np.max(np.abs(model.forward(alone, data.bundle).data
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
        assert stack.in_deg[i, :n].tolist() == g.in_degree[b.nodes].tolist()
        assert stack.out_deg[i, :n].tolist() == g.out_degree[b.nodes].tolist()
        assert not stack.in_deg[i, n:].any() and not stack.out_deg[i, n:].any()
        assert np.array_equal(stack.spd_buckets[i, :n, :n], entry_distances(b))
        assert not stack.spd_buckets[i, n:].any() and not stack.spd_buckets[i, :, n:].any()
        lo, hi = stack.edge_offsets[i:i + 2]
        assert stack.edge_table[lo:hi].tobytes() == entry_edge_table(g, b).tobytes()
        coeffs = stack.path_coeffs[i]
        assert np.array_equal(coeffs[:n, :n].reshape(n * n, -1), entry_path_coeffs(g, b))
        assert not coeffs[n:].any() and not coeffs[:, n:].any()
    # padded keys are masked: every real row's logits are its own subgraph's
    logits = model.forward(stack, data.bundle).data.reshape(3, k, -1)
    for i, b in enumerate(batches):
        alone = model.forward(gm.stack_batches(g, [b]), data.bundle).data
        assert np.max(np.abs(logits[i, :len(b.nodes)] - alone)) < 1e-12


def test_split_and_stack_batches_round_trip():
    """``stack_batches`` inverts ``split`` on every real row of a built
    stack of mixed sizes, byte for byte where the dtypes agree and by value
    for the distances and path index, which keep the entries' narrow
    dtypes; its padding reads -1 in ``nodes`` and 0 elsewhere, and
    ``build_batch`` pads the degrees with 0 too."""
    g = overflow_graph()
    cfg = tiny_config(max_spd=3)
    centers = [0, 10, 27, 17, 22, 19, 11, 5, 28]
    for max_nodes in (5, 12):
        sub = gr.sample_ego_subgraph(g, centers, hops=2, max_nodes=max_nodes,
                                     seed=0)
        built = gm.build_batch(g, sub, cfg)
        entries = built.split()
        back = gm.stack_batches(g, entries)
        assert len(set(built.sizes.tolist())) > 2  # sizes 1, mid and full
        k = built.nodes.shape[1]
        real = np.arange(k) < built.sizes[:, None]
        pairs = real[:, :, None] & real[:, None, :]
        assert back.nodes[:, 0].tolist() == centers == built.nodes[:, 0].tolist()
        narrow = {"spd_buckets": np.int8,
                  "path_index": np.result_type(*(e.path_index.dtype for e in entries))}
        assert narrow["path_index"] == np.uint8 and built.path_index.dtype == np.int64
        for name, mask in (("sizes", None), ("nodes", real),
                           ("in_deg", real), ("out_deg", real), ("spd_buckets", pairs),
                           ("path_index", pairs), ("path_coeffs", pairs)):
            got, want = getattr(back, name), getattr(built, name)
            assert got.dtype == narrow.get(name, want.dtype) and got.shape == want.shape, name
            if name in narrow:
                got, want = got.astype(want.dtype), want.copy()
            if mask is not None:
                got, want = got[mask], want[mask]
                assert (getattr(back, name)[~mask] == (-1 if name == "nodes" else 0)).all(), name
            assert got.tobytes() == want.tobytes(), (max_nodes, name)
        assert not built.in_deg[~real].any() and not built.out_deg[~real].any()


def test_stacking_a_full_width_pass_gives_back_the_built_stack():
    """When every subgraph of a build pass has the pass's width,
    ``stack_batches`` of its split entries is ``build_batch``'s stack
    field by field: byte for byte, the edge table rebuilt from the
    entries' edge lists and ``edge_offsets`` included, and by value for
    the distances, derived from the path index, and the path index and
    edge lists, which keep the entries' narrow dtypes: both hold one
    encoding."""
    g = _desk_graph()
    for k in (16, 32):
        cfg = tiny_config(ego_max_nodes=k, max_spd=5)
        sizes = gr.sample_ego_subgraph(g, range(400), hops=2, max_nodes=k, seed=0).sizes
        centers = np.flatnonzero(sizes == k)[:16]
        assert len(centers) == 16
        built = gm.build_batch(g, gr.sample_ego_subgraph(g, centers, hops=2, max_nodes=k, seed=0),
                               cfg)
        entries = built.split()
        back = gm.stack_batches(g, entries)
        narrow = {"spd": np.int8, "edges": np.uint8,
                  "path_index": np.result_type(*(e.path_index.dtype for e in entries))}
        assert narrow["path_index"] == np.uint16
        assert back.graph is built.graph is g
        names = [f.name for f in dataclasses.fields(built) if f.name != "graph"]
        for name in names + ["edge_table", "in_deg", "out_deg"]:  # and what is read off g
            got, want = getattr(back, name), getattr(built, name)
            if name == "spd":
                got, want = got.dist, want.dist
            assert got.dtype == narrow.get(name, want.dtype), (k, name)
            assert got.shape == want.shape, (k, name)
            if name in narrow:
                assert want.dtype == np.int64, (k, name)
                got = got.astype(np.int64)
            assert got.tobytes() == want.tobytes(), (k, name)


def test_a_no_grad_forward_frees_what_no_later_op_reads(monkeypatch):
    """In a no-grad forward each array is freed before the op after its
    last reader runs: the fused rows before ``attention_bias``, a layer's
    attention input (its first layer norm) before ``attention``, its q, k,
    v and attention weights before the output projection ``wo``, the
    attention output before the second layer norm and the FFN output before
    the next layer or the head. A recording forward keeps what backward
    reads and cannot rebuild, q, k, v and the weights; the rest it frees as
    early, the attention input included, which backward rebuilds."""
    _, data, model = _mixed_case(36, num_layers=2)
    role = {id(t): name for layer in model.layers for name, t in layer.items()}
    role[id(model.head_w)] = "head"
    pending, seen = {}, []  # name -> weakref not checked yet; (name, alive) once checked

    def check(*names):
        seen.extend((n, pending.pop(n)() is not None) for n in names if n in pending)

    def layer_norm(x, gain, bias, _orig=ad.layer_norm):
        check("a" if role[id(gain)] == "ln2_g" else "z")
        out = _orig(x, gain, bias)
        if role[id(gain)] == "ln1_g":
            pending["normed"] = weakref.ref(out.data)
        return out

    def linear(x, w, b, _orig=ad.linear):
        name = role.get(id(w))
        check(*{"wo": ("q", "k", "v", "weights"), "head": ("z",)}.get(name, ()))
        out = _orig(x, w, b)
        if name in ("wq", "wk", "wv", "wo", "w2"):
            pending[{"wo": "a", "w2": "z"}.get(name, name[1:])] = weakref.ref(out.data)
        return out

    def attention(*args, _orig=ad.attention):
        check("normed")
        out, weights = _orig(*args)
        pending["weights"] = weakref.ref(weights)
        return out, weights

    def fused_rows(self, *args, _orig=gm.GraphormerModel._fused_rows):
        out = _orig(self, *args)
        pending["fused"] = weakref.ref(out.data)
        return out

    def attention_bias(*args, _orig=gm.attention_bias):
        check("fused")
        return _orig(*args)

    for name, fn in (("layer_norm", layer_norm), ("linear", linear), ("attention", attention)):
        monkeypatch.setattr(ad, name, fn)
    monkeypatch.setattr(gm.GraphormerModel, "_fused_rows", fused_rows)
    monkeypatch.setattr(gm, "attention_bias", attention_bias)
    centers = np.arange(6)
    with ad.no_grad():
        model.logits_for_centers(data, centers, seed=0)
        model.forward(gm.stack_batches(data.graph, [model.batch_for(c, 0) for c in centers]),
                      data.bundle)
    assert len(seen) == 2 * (1 + 2 * 7) and not pending  # per forward: fused, 7 per layer
    assert {n for n, _ in seen} == {"fused", "normed", "q", "k", "v", "weights", "a", "z"}
    assert not any(alive for _, alive in seen)
    seen.clear()
    try:
        model.logits_for_centers(data, centers, seed=0)
    finally:
        ad.tape_clear()
    assert {n for n, alive in seen if alive} == {"q", "k", "v", "weights"}
    assert {n for n, alive in seen if not alive} == {"fused", "normed", "a", "z"}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_recording_forward_keeps_no_layer_norm_output_or_source_rows(monkeypatch, dtype):
    """After a recording forward of either model no layer norm's output
    array and no fusion source's row matrix is alive: backward rebuilds
    them, and the parameters' gradients have the bytes of a forward that
    kept them, also when the caller overwrites its centers before backward."""
    _, data, graphormer = _mixed_case(37, num_layers=2, dtype=dtype)
    mlp = gm.FusedMlp(tiny_config(dtype=dtype), fusion_config(), seed=37)
    centers = np.array([2, 21, 7, 23, 4])

    def grads(model, spy):
        arrays = []
        proj = {id(t) for t in model.fusion.proj.values()}

        def matmul(a, b, _orig=ad.matmul):
            if id(b) in proj:  # a is a source's rows
                spy(arrays, a)
            return _orig(a, b)

        with monkeypatch.context() as m:
            m.setattr(ad, "layer_norm", lambda *args, _orig=ad.layer_norm: spy(
                arrays, _orig(*args)))
            m.setattr(ad, "matmul", matmul)
            ids = centers.copy()
            out = model.logits_for_centers(data, ids, seed=0)
            ids[:] = 0  # the caller may reuse its array before backward
        alive = [a() is not None for a in arrays]
        params = model.parameters().values()
        for t in params:
            t.grad = None
        ad.backward(out, np.ones(out.shape))
        return alive, [t.grad.tobytes() for t in params]

    def watch(arrays, t):
        arrays.append(weakref.ref(t.data))
        return t

    def keep(arrays, t):
        t.rebuild = None  # the forward keeps the array, as if it had no rebuild
        return watch(arrays, t)

    for model, layer_norms in ((graphormer, 4), (mlp, 0)):
        kept, want = grads(model, keep)
        alive, got = grads(model, watch)
        assert kept == [True] * (layer_norms + 4)
        assert alive == [False] * (layer_norms + 4)
        assert got == want


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
    check_gradients(loss, model.parameters(), h=1e-5, max_entries=8, seed=3)


def test_tape_ops_per_step_independent_of_batch_and_heads():
    """A training step's forward and loss record one tape length for any
    B and H: 55 ops at 2 layers (the desk config) and 79 at 4 (the
    default config)."""
    from tapeformer.training import smoothed_cross_entropy

    for layers, want in ((2, 55), (gm.GraphormerParams.num_layers, 79)):
        ops = set()
        for heads in (1, 2, 4):
            rng, data, model = _mixed_case(36, num_layers=layers, num_heads=heads)
            for size in (1, 4, 8):
                centers = rng.permutation(24)[:size]
                ad.tape_clear()
                logits = model.logits_for_centers(data, centers, seed=0)
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


def _labelled_case(seed):
    rng = np.random.default_rng(seed)
    g = gr.from_edge_list(random_edge_list(rng, 20, 0.12), 24)
    return rng, types.SimpleNamespace(graph=g, bundle=random_bundle(rng, 24),
                                      labels=rng.integers(0, 3, size=24))


@pytest.mark.parametrize("kind", ["graphormer", "mlp"])
def test_float32_model_is_the_float64_model_rounded(kind):
    """The same draws, each parameter rounded to float32 once; the float32
    logits agree with the float64 ones to 1e-4 relative."""
    rng, data = _labelled_case(40)
    models = [gm.build_model(tiny_config(dtype=dtype), kind, tuple(DIMS), DIMS, seed=40)
              for dtype in ("float64", "float32")]
    p64, p32 = (m.parameters() for m in models)
    for name, t in p64.items():
        assert t.data.dtype == np.float64, name
        assert p32[name].data.tobytes() == t.data.astype(np.float32).tobytes(), name
    if kind == "graphormer":  # zero at init: make the bias count
        for name in ("spatial.bias", "edge.weight"):
            values = rng.standard_normal(p64[name].shape)
            p64[name].data[...] = values
            p32[name].data[...] = values
    want, got = (m.logits_for_centers(data, np.arange(24), seed=0).data for m in models)
    assert (want.dtype, got.dtype) == (np.float64, np.float32)
    assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))


def test_float32_state_roundtrips_bit_exact_through_a_checkpoint(tmp_path):
    """Checkpoints are float64 on disk: widening and narrowing back are exact."""
    cfg = tiny_config(dtype="float32")
    params = gm.GraphormerModel(cfg, fusion_config(), seed=10).parameters()
    rng = np.random.default_rng(0)
    for t in params.values():  # off the rounded float64 draws
        t.data += rng.standard_normal(t.shape).astype(np.float32)
    ad.save_parameters(tmp_path / "m.bin", params)
    state = ad.load_parameters(tmp_path / "m.bin")
    assert {a.dtype for a in state.values()} == {np.dtype(np.float64)}
    clone = gm.GraphormerModel(cfg, fusion_config(), seed=11)
    clone.load_state(state)
    for name, t in clone.parameters().items():
        assert t.data.dtype == np.float32 and t.data.tobytes() == params[name].data.tobytes()


def test_float64_trained_checkpoint_loads_into_a_float32_model(tmp_path):
    from tapeformer import training as tr

    _, data = _labelled_case(41)
    split = tr.TemporalSplit(train_ids=np.arange(16), val_ids=np.arange(16, 20),
                             test_ids=np.arange(20, 24))
    trained = gm.GraphormerModel(tiny_config(dtype="float64"), fusion_config(), seed=41)
    tr.train(trained, data, split, tr.TrainConfig(epochs=2, base_lr=0.01, batch_size=8))
    ad.save_parameters(tmp_path / "m.bin", trained.parameters())
    model = gm.GraphormerModel(tiny_config(dtype="float32"), fusion_config(), seed=0)
    model.load_state(ad.load_parameters(tmp_path / "m.bin"))
    for name, t in trained.parameters().items():
        assert model.parameters()[name].data.tobytes() == t.data.astype(np.float32).tobytes()
    want, got = (m.logits_for_centers(data, split.test_ids, seed=0).data for m in (trained, model))
    assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))


def test_float32_model_refuses_a_value_beyond_its_range():
    """1e300 is a finite float64, so the checkpoint format holds it, but it
    would narrow to inf: the float32 model refuses it, naming the parameter."""
    f64 = tiny_config(dtype="float64")
    state = {name: t.data.copy() for name, t in
             gm.GraphormerModel(f64, fusion_config(), seed=0).parameters().items()}
    state["head.w"][0, 0] = 1e300
    gm.GraphormerModel(f64, fusion_config(), seed=1).load_state(state)
    model = gm.GraphormerModel(tiny_config(dtype="float32"), fusion_config(), seed=1)
    with pytest.raises(ValueError, match=r"'head.w' has values beyond the model's float32 range"):
        model.load_state(state)


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

    check_gradients(loss, model.parameters(), max_entries=10, seed=2)


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
