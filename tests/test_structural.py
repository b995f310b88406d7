import numpy as np
import pytest

from tapeformer import graph as gr
from tapeformer import model as gm
from tapeformer import structural as st

from helpers import (
    brute_force_clustering,
    edge_pairs,
    ego_stack,
    floyd_warshall,
    node_map,
    oracle_citation_flags,
    oracle_path_predecessors,
    oracle_structural,
    random_edge_list,
    relabelled_stack,
    shortest_path_edges,
    undirected_adj_sets,
)


def _sub_from_edges(edges, n, center=0):
    g = gr.from_edge_list(edges, n)
    return g, gr.sample_ego_subgraph(g, [center], hops=n, max_nodes=n, seed=0)


def _relabelled(g, rng):
    """A one-row stack over every node of g, in a scrambled local order."""
    n = g.num_nodes
    order = rng.permutation(n).astype(np.int64)
    local_of = {int(gid): li for li, gid in enumerate(order)}
    local = [[local_of[u], local_of[v]] for u, v in edge_pairs(g)]
    return ego_stack(order, local)


def _bfs(sub, cap):
    """(adjacency, distances, predecessors) of ``sub``, BFS run to ``cap`` hops."""
    adj = st.local_adjacency(sub)
    return (adj, *st.bfs_spd(adj, sub.nodes, cap))


def _spd(sub, cap):
    return _bfs(sub, cap)[1]


def _path(pred, i, j):
    """The chosen path i -> j as local (u, v) steps, read off one
    subgraph's (k, k) predecessor matrix; [] for i == j, None when there
    is no path."""
    if i == j:
        return []
    if pred[i, j] < 0:
        return None
    steps = []
    cur = j
    while cur != i:
        steps.append((int(pred[i, cur]), cur))
        cur = int(pred[i, cur])
    steps.reverse()
    return steps


def test_singleton_spd():
    g = gr.from_edge_list([], 1)
    sub = gr.sample_ego_subgraph(g, [0], hops=1, max_nodes=1, seed=0)
    spd = _spd(sub, 3)
    assert spd.dist.shape == (1, 1, 1)
    assert spd.dist[0, 0, 0] == 0


def test_line_spd():
    _, sub = _sub_from_edges([(0, 1), (1, 2)], 3)
    spd = _spd(sub, 5)
    i, j = node_map(sub)[0], node_map(sub)[2]
    assert spd.dist[0, i, j] == 2
    assert spd.dist[0, j, i] == 2


def test_spd_matches_floyd_warshall_on_100_random_graphs():
    rng = np.random.default_rng(100)
    for trial in range(100):
        n = int(rng.integers(2, 41))
        density = float(rng.uniform(0.02, 0.3))
        edges = random_edge_list(rng, n, density)
        g = gr.from_edge_list(edges, n)
        sub = _relabelled(g, rng)
        cap = int(rng.integers(1, 7))
        spd = _spd(sub, cap)
        fw = floyd_warshall(edges, n)
        for i in range(n):
            for j in range(n):
                truth = fw[int(sub.nodes[0, i]), int(sub.nodes[0, j])]
                expect = int(truth) if truth <= cap else cap + 1
                assert spd.dist[0, i, j] == expect, f"trial {trial} pair ({i},{j})"


def test_spd_symmetric_zero_diag_triangle_inequality():
    rng = np.random.default_rng(5)
    edges = random_edge_list(rng, 20, 0.15)
    _, sub = _sub_from_edges(edges, 20)
    spd = _spd(sub, 6)
    d = spd.dist[0]
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    k = sub.num_nodes
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if d[a, b] <= 6 and d[b, c] <= 6 and d[a, c] <= 6:
                    assert d[a, c] <= d[a, b] + d[b, c]


def test_spd_permutation_consistent():
    rng = np.random.default_rng(6)
    edges = random_edge_list(rng, 15, 0.2)
    g = gr.from_edge_list(edges, 15)
    sub = gr.sample_ego_subgraph(g, [0], hops=3, max_nodes=15, seed=0)
    spd = _spd(sub, 4)
    perm = rng.permutation(sub.num_nodes)
    pspd = _spd(relabelled_stack(sub, perm), 4)
    assert np.array_equal(pspd.dist[0], spd.dist[0][np.ix_(perm, perm)])


def test_increasing_cap_preserves_small_entries():
    rng = np.random.default_rng(7)
    edges = random_edge_list(rng, 25, 0.08)
    _, sub = _sub_from_edges(edges, 25)
    lo = _spd(sub, 2)
    hi = _spd(sub, 6)
    mask = lo.dist <= 2
    assert np.array_equal(lo.dist[mask], hi.dist[mask])


# --- shortest path reconstruction -------------------------------------------


def test_path_empty_for_same_node_none_for_unreachable():
    sub_all = ego_stack([0, 1, 2], [[0, 1]])
    pred = _bfs(sub_all, 4)[2][0]
    assert _path(pred, 1, 1) == []
    assert _path(pred, 0, 2) is None


def test_path_on_line():
    _, sub = _sub_from_edges([(0, 1), (1, 2)], 3)
    i, j, m = node_map(sub)[0], node_map(sub)[2], node_map(sub)[1]
    assert _path(_bfs(sub, 5)[2][0], i, j) == [(i, m), (m, j)]


def test_paths_valid_on_random_graphs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 25))
        edges = random_edge_list(rng, n, 0.15)
        g = gr.from_edge_list(edges, n)
        sub = gr.sample_ego_subgraph(g, [int(rng.integers(0, n))], hops=4, max_nodes=n, seed=1)
        _, spd, pred = _bfs(sub, 5)
        pred, dist, nodes = pred[0], spd.dist[0], sub.nodes[0]
        und = {(min(int(nodes[a]), int(nodes[b])), max(int(nodes[a]), int(nodes[b])))
               for _, a, b in sub.local_edges}
        k = sub.num_nodes
        for i in range(k):
            for j in range(k):
                if i == j or dist[i, j] > 5:
                    continue
                steps = _path(pred, i, j)
                assert len(steps) == dist[i, j]
                assert steps[0][0] == i and steps[-1][1] == j
                for a, b in steps:
                    ga, gb = int(nodes[a]), int(nodes[b])
                    assert (min(ga, gb), max(ga, gb)) in und


def _tiny_config(cap):
    """A config whose path width is ``cap`` on any stack of at most 32
    nodes: at ego_hops = cap, 2 * ego_hops does not narrow it."""
    return gm.GraphormerConfig(num_classes=2, num_layers=1, num_heads=1, d_model=4, d_ffn=4,
                               max_spd=cap, ego_hops=cap)


def _assert_matches_oracle(g, sub, cap, where):
    built = gm.build_batch(g, sub, _tiny_config(cap))
    dist, coeffs = oracle_structural(g, sub, cap)
    k = sub.num_nodes
    assert built.spd.dist.tobytes() == dist.tobytes(), where
    assert built.spd_buckets.tobytes() == dist.reshape(-1).tobytes(), where
    assert built.path_coeffs.shape == (1, k, k, coeffs.shape[1]), where
    assert built.path_coeffs.tobytes() == coeffs.tobytes(), where
    pred = _bfs(sub, cap)[2][0]
    adj_sets = undirected_adj_sets(sub.local_edges[:, 1:].tolist(), sub.num_nodes)
    for i in range(sub.num_nodes):
        for j in range(sub.num_nodes):
            assert _path(pred, i, j) == shortest_path_edges(sub, adj_sets, dist, cap, i, j), where


def _assert_rows_match_one_row_builds(g, centers, hops, budget, cap, where):
    """Row b of a B-row build is center b's one-row build, padded: the
    distances (0 on the padding's diagonal, cap + 1 off it), the path
    index (0 past the subgraph) and the table block, byte for byte.
    Returns whether any row was padded."""
    cfg = _tiny_config(cap)
    built = gm.build_batch(g, gr.sample_ego_subgraph(g, centers, hops, budget, seed=0), cfg)
    k = built.nodes.shape[1]
    for b, c in enumerate(centers):
        one = gm.build_batch(g, gr.sample_ego_subgraph(g, [c], hops, budget, seed=0), cfg)
        n = one.nodes.shape[1]
        dist = np.full((k, k), cap + 1, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        dist[:n, :n] = one.spd.dist[0]
        index = np.zeros((k, k, cap), dtype=np.int64)
        index[:n, :n] = one.path_index[0]
        lo, hi = built.edge_offsets[b], built.edge_offsets[b + 1]
        assert built.spd.dist[b].tobytes() == dist.tobytes(), where
        assert built.path_index[b].tobytes() == index.tobytes(), where
        assert built.edge_table[lo:hi].tobytes() == one.edge_table.tobytes(), where
    return bool((built.nodes < 0).any())


def test_encodings_byte_identical_to_pairwise_oracle():
    """The one-row build matches the pairwise oracle; each row b of a
    multi-center stack, padded or not, matches its center's one-row
    build, whose pair ids and table rows sit in block 0, not block b."""
    rng = np.random.default_rng(11)
    stack_rng = np.random.default_rng(13)
    padded = 0
    for trial in range(120):
        n = int(rng.integers(2, 33))
        edges = random_edge_list(rng, n, float(rng.uniform(0.02, 0.3)))
        g = gr.from_edge_list(edges, n)
        cap = int(rng.integers(1, 7))
        _assert_matches_oracle(g, _relabelled(g, rng), cap, f"trial {trial}")
        centers = stack_rng.choice(n, size=min(n, 6), replace=False)
        hops, budget = int(stack_rng.integers(1, 4)), int(stack_rng.integers(1, n + 1))
        padded += _assert_rows_match_one_row_builds(g, centers, hops, budget, cap,
                                                    f"trial {trial}, stack")
    assert padded > 20
    special = {
        "k=1": ([], 1),
        "no edges": ([], 6),
        "disconnected parts": ([(0, 1), (1, 2), (3, 4), (5, 4), (6, 6)], 8),
        "reciprocal citations": ([(0, 1), (1, 0), (1, 2), (2, 1), (3, 2), (0, 3), (3, 0)], 5),
    }
    for name, (edges, n) in special.items():
        g = gr.from_edge_list(edges, n)
        for cap in range(1, 7):
            _assert_matches_oracle(g, _relabelled(g, rng), cap, f"{name}, cap {cap}")
            _assert_matches_oracle(g, gr.sample_ego_subgraph(g, [0], hops=3, max_nodes=n, seed=cap),
                                   cap, f"{name}, ego, cap {cap}")


def _assert_predecessors_match_dense_oracle(sub, cap, where):
    _, spd, got = _bfs(sub, cap)
    want = oracle_path_predecessors(sub, spd, cap)
    assert got.dtype == want.dtype and got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), where


def test_path_predecessors_byte_identical_to_dense_oracle():
    """The edge-list predecessor walk picks what the dense rule picks: on
    random graphs in scrambled local orders, on stacks of several ego
    subgraphs padded with -1 rows, and on special graphs at caps 1-6."""
    rng = np.random.default_rng(17)
    padded = 0
    for trial in range(80):
        n = int(rng.integers(1, 30))
        g = gr.from_edge_list(random_edge_list(rng, n, float(rng.uniform(0.02, 0.4))), n)
        cap = int(rng.integers(1, 7))
        _assert_predecessors_match_dense_oracle(_relabelled(g, rng), cap, f"trial {trial}")
        centers = rng.choice(n, size=min(n, 6), replace=False)
        sub = gr.sample_ego_subgraph(g, centers, hops=int(rng.integers(1, 4)),
                                     max_nodes=int(rng.integers(1, n + 1)),
                                     seed=0)
        padded += int((sub.nodes < 0).any())
        _assert_predecessors_match_dense_oracle(sub, cap, f"trial {trial}, stack")
    assert padded > 20
    special = {
        "k=1": ([], 1),
        "no edges": ([], 6),
        "isolated nodes": ([(0, 1), (1, 2), (4, 2)], 7),
        # 0 and 1 are two hops apart along three paths: a three-way tie
        "distance ties": ([(0, 2), (3, 0), (0, 4), (1, 2), (1, 3), (4, 1), (4, 5)], 6),
        "reciprocal citations": ([(0, 1), (1, 0), (1, 2), (2, 1), (3, 2), (0, 3), (3, 0)], 5),
    }
    for name, (edges, n) in special.items():
        g = gr.from_edge_list(edges, n)
        stacked = gr.sample_ego_subgraph(g, list(range(n)), hops=3, max_nodes=n, seed=0)
        for cap in range(1, 7):
            _assert_predecessors_match_dense_oracle(_relabelled(g, rng), cap, f"{name}, cap {cap}")
            _assert_predecessors_match_dense_oracle(stacked, cap, f"{name}, stack, cap {cap}")


def test_predecessors_past_one_rank_group():
    """The BFS names a pair's predecessor by the top bit of a float64 sum
    over one group of 52 ranks by global id, so 53 and 120 nodes take two
    and three groups. On random dense graphs at 52, 53 and 120 nodes, in
    scrambled local orders, as stacks of ego subgraphs padded with -1 rows
    and under a random relabelling, the predecessors are the dense
    oracle's and the distances Floyd-Warshall's."""
    rng = np.random.default_rng(52)
    for n in (52, 53, 120):
        for density in (0.03, 0.1, 0.4):
            where = (n, density)
            edges = random_edge_list(rng, n, density)
            g = gr.from_edge_list(edges, n)
            cap = 8
            sub = _relabelled(g, rng)
            _assert_predecessors_match_dense_oracle(sub, cap, where)
            fw = floyd_warshall(edges, n)[np.ix_(sub.nodes[0], sub.nodes[0])]
            assert np.array_equal(_spd(sub, cap).dist[0], np.where(fw <= cap, fw, cap + 1)), where
            perm = rng.permutation(n)
            _, _, pred = _bfs(sub, cap)
            _, _, ppred = _bfs(relabelled_stack(sub, perm), cap)
            # local node perm[a] of sub is node a of the relabelled stack
            back = np.where(pred[0] < 0, -1, np.argsort(perm)[pred[0]])
            assert np.array_equal(ppred[0], back[np.ix_(perm, perm)]), where
            stacked = gr.sample_ego_subgraph(g, rng.choice(n, size=4, replace=False), hops=2,
                                             max_nodes=n, seed=0)
            _assert_predecessors_match_dense_oracle(stacked, cap, (*where, "stack"))


# --- clustering coefficient --------------------------------------------------


def test_triangle_clustering_is_one():
    g = gr.from_edge_list([(0, 1), (1, 2), (2, 0)], 3)
    assert st.clustering_coefficients(g, range(3)).tolist() == [1.0, 1.0, 1.0]


def test_star_center_clustering_zero():
    g = gr.from_edge_list([(0, i) for i in range(1, 6)], 6)
    assert st.clustering_coefficients(g, [0, 1]).tolist() == [0.0, 0.0]  # node 1: degree 1
    assert st.clustering_coefficients(g, []).shape == (0,)
    with pytest.raises(gr.GraphConstructionError, match="integers, got dtype bool"):
        st.clustering_coefficients(g, [True, False])


def test_clustering_matches_brute_force():
    """Byte for byte the pairwise loop's value, for every node of random
    graphs with self-loops, duplicates and reciprocal citations, asked
    for in one call in any order."""
    rng = np.random.default_rng(9)
    for n in (25, 25, 40):
        edges = random_edge_list(rng, n, 0.15)
        g = gr.from_edge_list(edges, n)
        adj = undirected_adj_sets(edges, n)
        nodes = rng.permutation(n)
        got = st.clustering_coefficients(g, nodes)
        assert got.tolist() == [brute_force_clustering(adj, int(v)) for v in nodes]


def test_clustering_of_a_hub():
    """A wheel's hub has 3,000 neighbours linked in a ring: 3,000 links of
    3,000 * 2,999 / 2 pairs, found without a pass over the pairs. A rim
    node sees the hub and two rim nodes, two links; a reciprocal citation
    is one link."""
    n = 3000
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    g = gr.from_edge_list(ring + [(0, i) for i in range(1, n + 1)] + [(2, 1)], n + 1)
    hub, rim = 2.0 * n / (n * (n - 1)), 2.0 * 2 / (3 * 2)
    assert st.clustering_coefficients(g, [0, 1, 2, 0]).tolist() == [hub, rim, rim, hub]


# --- path features -----------------------------------------------------------


def test_synth_edge_feature_direction_and_degrees():
    g = gr.from_edge_list([(0, 1), (0, 2), (3, 1)], 4)
    src, dst = np.array([0, 1]), np.array([1, 0])
    fwd, back = st.synth_edge_features(g, src, dst, oracle_citation_flags(g, src, dst))
    assert fwd[0] == 1.0
    assert fwd[1] == pytest.approx(np.log1p(2))  # out-degree of 0
    assert fwd[2] == pytest.approx(np.log1p(2))  # in-degree of 1
    assert back[0] == -1.0
    assert back[1] == pytest.approx(np.log1p(2))
    with pytest.raises(ValueError, match="between 1 and 2"):
        oracle_citation_flags(g, np.array([0, 1]), np.array([1, 2]))


def test_build_path_features_lengths_match_spd():
    rng = np.random.default_rng(10)
    edges = random_edge_list(rng, 18, 0.15)
    g = gr.from_edge_list(edges, 18)
    sub = gr.sample_ego_subgraph(g, [0], hops=3, max_nodes=18, seed=0)
    adj, spd, pred = _bfs(sub, 4)
    pf = st.build_path_features(g, sub, spd, pred, adj, 4)
    assert pf.table.shape[1] == st.EDGE_FEATURE_DIM
    k = sub.num_nodes
    for i in range(k):
        for j in range(k):
            if i == j:
                assert (0, i, j) not in pf.per_pair
            elif spd.dist[0, i, j] <= 4:
                assert pf.per_pair[(0, i, j)].shape == (spd.dist[0, i, j], 3)
            else:
                assert (0, i, j) not in pf.per_pair


def test_path_index_points_into_each_subgraphs_block():
    """Block b of the table is a zero row and then subgraph b's directed
    local edges. A step of a path of length N is stored as t * cap + N - 1
    for its row t: ``index // cap`` stays inside the block and names an
    edge row on the path, ``index % cap + 1`` is the path's length at
    every step, the index is 0 past each path's end, and ``steps`` is the
    block gathered by ``index // cap``."""
    rng = np.random.default_rng(12)
    g = gr.from_edge_list(random_edge_list(rng, 30, 0.12), 30)
    sub = gr.sample_ego_subgraph(g, [0, 4, 9, 17], hops=2, max_nodes=10, seed=0)
    cap = 3
    adj, spd, pred = _bfs(sub, cap)
    pf = st.build_path_features(g, sub, spd, pred, adj, cap)
    assert pf.offsets[0] == 0 and pf.offsets[-1] == len(pf.table)
    assert pf.index.shape[-1] == cap and (pf.lengths == cap).any()
    past_end = np.arange(cap) >= pf.lengths[..., None]
    for b in range(4):
        block = pf.table[pf.offsets[b]:pf.offsets[b + 1]]
        assert len(block) == 1 + int(st.local_adjacency(sub)[b].sum())
        assert not block[0].any()
        row, n_less_one = np.divmod(pf.index[b], cap)
        assert (pf.index[b] >= 0).all() and (row < len(block)).all()
        on_path = ~past_end[b]
        assert (row[on_path] > 0).all()
        lengths = np.broadcast_to(pf.lengths[b][..., None], on_path.shape)
        assert np.array_equal(n_less_one[on_path] + 1, lengths[on_path])
        assert not pf.index[b][past_end[b]].any()
        assert np.array_equal(pf.steps[b], block[row])
    for (b, i, j), feats in pf.per_pair.items():
        assert np.shares_memory(feats, pf.steps) and len(feats) == pf.lengths[b, i, j]
