import numpy as np
import pytest

from tapeformer import graph as gr

from helpers import bfs_distances, random_edge_list, undirected_adj_sets


def test_line_graph_degrees():
    g = gr.from_edge_list([(0, 1), (1, 2)], 3)
    assert g.out_degree(0) == 1
    assert g.in_degree(2) == 1
    assert g.in_degree(0) == 0
    assert g.num_edges == 2


def test_self_loop_and_duplicate_dropped():
    g = gr.from_edge_list([(0, 0), (0, 1), (0, 1)], 2)
    assert g.num_edges == 1
    assert g.self_loops_dropped == 1
    assert g.duplicates_dropped == 1


def test_endpoint_out_of_range_names_edge():
    with pytest.raises(gr.GraphConstructionError, match=r"\(1, 5\)"):
        gr.from_edge_list([(0, 1), (1, 5)], 3)


def test_star_out_degree():
    edges = [(0, i) for i in range(1, 6)]
    g = gr.from_edge_list(edges, 6)
    assert g.out_degree(0) == 5
    assert all(g.in_degree(i) == 1 for i in range(1, 6))


def test_degrees_match_dense_matrix_oracle():
    rng = np.random.default_rng(42)
    n = 30
    edges = random_edge_list(rng, n, density=0.15)
    g = gr.from_edge_list(edges, n)
    dense = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        if u != v:
            dense[u, v] = 1  # dedup: 0/1 adjacency
    assert np.array_equal(g.out_degrees(), dense.sum(axis=1))
    assert np.array_equal(g.in_degrees(), dense.sum(axis=0))


def test_roundtrip_reproduces_dedup_edge_set():
    rng = np.random.default_rng(7)
    n = 25
    edges = random_edge_list(rng, n, density=0.2) + [(3, 3), (4, 4)]
    expected = sorted({(u, v) for u, v in edges if u != v})
    g = gr.from_edge_list(edges, n)
    assert sorted(g.edges()) == expected
    assert g.num_edges == len(expected)


def test_degree_sums_equal_edge_count():
    rng = np.random.default_rng(8)
    for seed in range(5):
        n = int(rng.integers(5, 40))
        g = gr.from_edge_list(random_edge_list(rng, n, 0.1), n)
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges


def test_has_edges_matches_dense_matrix_oracle():
    rng = np.random.default_rng(10)
    for trial in range(10):
        n = int(rng.integers(1, 30))
        edges = random_edge_list(rng, n, float(rng.uniform(0.0, 0.4)))
        g = gr.from_edge_list(edges, n)
        dense = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            dense[u, v] = u != v
        src, dst = (a.reshape(-1) for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
        assert np.array_equal(g.has_edges(src, dst), dense.reshape(-1)), f"trial {trial}"
    assert g.has_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).shape == (0,)
    assert not gr.from_edge_list([], 3).has_edges(np.array([0, 1]), np.array([1, 0])).any()


def test_out_in_adjacency_consistency():
    rng = np.random.default_rng(9)
    n = 20
    g = gr.from_edge_list(random_edge_list(rng, n, 0.2), n)
    out_set = set(g.edges())
    in_set = {(int(s), v) for v in range(n) for s in g.in_neighbors(v)}
    assert out_set == in_set


def test_edge_list_file_parsing(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("# a comment\n0\t1\n\n1\t2\n")
    g = gr.load_edge_list(p, 3)
    assert g.num_edges == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t1\n1 2\n")
    with pytest.raises(gr.GraphConstructionError, match="bad.tsv:2"):
        gr.load_edge_list(bad, 3)


# --- ego subgraph sampling ---------------------------------------------------


def test_isolated_center_singleton():
    g = gr.from_edge_list([(0, 1)], 3)
    sub = gr.sample_ego_subgraph(g, 2, hops=2, max_nodes=10, rng_seed=0)
    assert list(sub.nodes) == [2]
    assert sub.local_edges.shape == (0, 2)


def test_hop_bound_on_line():
    g = gr.from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
    sub = gr.sample_ego_subgraph(g, 0, hops=2, max_nodes=10, rng_seed=0)
    assert sorted(sub.nodes.tolist()) == [0, 1, 2]


def test_center_first_and_local_indices_dense():
    g = gr.from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)], 5)
    sub = gr.sample_ego_subgraph(g, 1, hops=2, max_nodes=10, rng_seed=0)
    assert sub.nodes[0] == 1
    assert sorted(sub.node_map.values()) == list(range(sub.num_nodes))
    for li, lj in sub.local_edges:
        assert 0 <= li < sub.num_nodes and 0 <= lj < sub.num_nodes


def test_all_nodes_within_hop_budget_bfs_oracle():
    rng = np.random.default_rng(11)
    for seed in range(10):
        n = 40
        edges = random_edge_list(rng, n, 0.08)
        g = gr.from_edge_list(edges, n)
        adj = undirected_adj_sets(edges, n)
        center = int(rng.integers(0, n))
        hops = 2
        sub = gr.sample_ego_subgraph(g, center, hops=hops, max_nodes=1000, rng_seed=seed)
        dist = bfs_distances(adj, center)
        for gid in sub.nodes:
            assert dist[int(gid)] <= hops
        # with no node budget, the subgraph is exactly the <=hops ball
        expected = sorted(v for v, d in dist.items() if d <= hops)
        assert sorted(sub.nodes.tolist()) == expected


def test_induced_edges_complete_and_valid():
    rng = np.random.default_rng(12)
    n = 30
    edges = random_edge_list(rng, n, 0.12)
    g = gr.from_edge_list(edges, n)
    sub = gr.sample_ego_subgraph(g, 5, hops=2, max_nodes=15, rng_seed=3)
    chosen = set(sub.nodes.tolist())
    expected = {(u, v) for u, v in g.edges() if u in chosen and v in chosen}
    got = {(int(sub.nodes[i]), int(sub.nodes[j])) for i, j in sub.local_edges}
    assert got == expected


def test_sampling_reproducible_and_budget_respected():
    rng = np.random.default_rng(13)
    n = 60
    edges = random_edge_list(rng, n, 0.3)
    g = gr.from_edge_list(edges, n)
    a = gr.sample_ego_subgraph(g, 0, hops=2, max_nodes=12, rng_seed=99)
    b = gr.sample_ego_subgraph(g, 0, hops=2, max_nodes=12, rng_seed=99)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.local_edges, b.local_edges)
    assert a.num_nodes <= 12
    c = gr.sample_ego_subgraph(g, 0, hops=2, max_nodes=12, rng_seed=100)
    assert c.num_nodes <= 12  # different seed still valid (may differ in content)
