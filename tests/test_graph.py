import numpy as np
import pytest

from tapeformer import graph as gr

from helpers import (
    bfs_distances,
    node_map,
    oracle_ego_subgraph,
    random_edge_list,
    splitmix64,
    stack_row,
    undirected_adj_sets,
)


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


# content -> must the one-pass read take it (True), refuse it (False) or either (None)
EDGE_FILES = {
    "plain": (b"0\t1\n1\t2\n", True),
    "header comment": (b"# src\tdst\n0\t1\n", True),
    "no final newline": (b"0\t1\n1\t2", True),
    "blank lines": (b"\n0\t1\n\n\n1\t2\n", True),
    "crlf line ends": (b"0\t1\r\n1\t2\r\n", True),
    "loops and duplicates": (b"0\t1\n0\t1\n2\t2\n", True),
    "empty": (b"", None),
    "comment only": (b"# nothing\n", None),
    "one column, even rows": (b"0\n1\n", False),  # np.loadtxt reads shape (2, 1)
    "inline comment": (b"0\t1 # c\n", False),  # np.loadtxt strips the comment
    "inline comment after a comment line": (b"# a\n0\t1#c\n", False),
    "three columns": (b"0\t1\t2\n", None),
    "trailing tab": (b"0\t1\t\n", None),
    "leading tab": (b"\t0\t1\n", None),
    "spaces instead of a tab": (b"0 1\n", None),
    "float": (b"0\t1.0\n", None),
    "plus sign": (b"+1\t2\n", None),
    "padded fields": (b" 0 \t 1 \n", None),
    "whitespace-only line": (b"0\t1\n \t \n1\t2\n", None),
    "indented comment": (b"  # c\n0\t1\n", None),
    "bare cr line end": (b"0\t1\r1\t2\n", None),
    "underscore digits": (b"1_0\t2\n", None),
    "non-ASCII digit": ("\u0661\t2\n".encode(), None),
    "nul byte": (b"1\x00\t2\n", None),
    "out-of-range id": (b"0\t1\n1\t9\n", None),
    "negative id": (b"0\t1\n1\t-1\n", None),
    "id beyond int64": (b"0\t1\n0\t99999999999999999999\n", False),
    "id beyond int64, negative": (b"0\t1\n0\t-99999999999999999999\n", False),
    "not UTF-8": (b"0\t1\n\xff\t2\n", None),
}


def _edge_list_outcome(path):
    try:
        g = gr.load_edge_list(path, 5)
    except gr.GraphConstructionError as e:
        return repr(e)
    return [a.tobytes() for a in (g.out_offsets, g.out_targets, g.in_offsets, g.in_targets)] + [
        g.num_edges, g.self_loops_dropped, g.duplicates_dropped]


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_list_fast_read_matches_line_loop(tmp_path, monkeypatch, name):
    content, fast_takes_it = EDGE_FILES[name]
    p = tmp_path / "edges.tsv"
    p.write_bytes(content)
    if fast_takes_it is not None:
        assert (gr._read_edges_fast(p) is not None) == fast_takes_it
    got = _edge_list_outcome(p)
    with monkeypatch.context() as m:
        m.setattr(gr, "_read_edges_fast", lambda path: None)
        assert got == _edge_list_outcome(p)


def test_edge_list_not_utf8_names_the_line(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_bytes(b"0\t1\n1\t2\n2\t\xff\n")
    with pytest.raises(gr.GraphConstructionError, match=r"edges.tsv:3: not UTF-8: byte 0xff"):
        gr.load_edge_list(p, 3)


def test_edge_list_rejects_what_loadtxt_would_accept(tmp_path):
    p = tmp_path / "edges.tsv"
    p.write_text("0\n1\n")
    with pytest.raises(gr.GraphConstructionError, match="edges.tsv:1: expected `src<TAB>dst`"):
        gr.load_edge_list(p, 3)
    p.write_text("0\t1\n1\t2 # c\n")
    with pytest.raises(gr.GraphConstructionError, match="edges.tsv:2: non-integer endpoint"):
        gr.load_edge_list(p, 3)


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(0)
    for size in (0, 1, 2, 3, 50, 2000):
        keys = rng.integers(-5, 40, size=size)
        got = gr._sorted_unique(keys)
        assert got.dtype == keys.dtype and np.array_equal(got, np.unique(keys))


# --- ego subgraph sampling ---------------------------------------------------


def test_isolated_center_singleton():
    g = gr.from_edge_list([(0, 1)], 3)
    sub = gr.sample_ego_subgraph(g, [2], hops=2, max_nodes=10, seed=0)
    assert sub.nodes.tolist() == [[2]]
    assert sub.local_edges.shape == (0, 3)


def test_hop_bound_on_line():
    g = gr.from_edge_list([(0, 1), (1, 2), (2, 3)], 4)
    sub = gr.sample_ego_subgraph(g, [0], hops=2, max_nodes=10, seed=0)
    assert sorted(sub.nodes[0].tolist()) == [0, 1, 2]


def test_center_first_and_local_indices_dense():
    g = gr.from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)], 5)
    sub = gr.sample_ego_subgraph(g, [1], hops=2, max_nodes=10, seed=0)
    assert sub.nodes[0, 0] == 1
    assert sorted(node_map(sub).values()) == list(range(sub.num_nodes))
    for _, li, lj in sub.local_edges:
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
        sub = gr.sample_ego_subgraph(g, [center], hops=hops, max_nodes=1000, seed=seed)
        dist = bfs_distances(adj, center)
        for gid in sub.nodes[0]:
            assert dist[int(gid)] <= hops
        # with no node budget, the subgraph is exactly the <=hops ball
        expected = sorted(v for v, d in dist.items() if d <= hops)
        assert sorted(sub.nodes[0].tolist()) == expected


def test_induced_edges_complete_and_valid():
    rng = np.random.default_rng(12)
    n = 30
    edges = random_edge_list(rng, n, 0.12)
    g = gr.from_edge_list(edges, n)
    sub = gr.sample_ego_subgraph(g, [5], hops=2, max_nodes=15, seed=3)
    chosen = set(sub.nodes[0].tolist())
    expected = {(u, v) for u, v in g.edges() if u in chosen and v in chosen}
    got = {(int(sub.nodes[b, i]), int(sub.nodes[b, j])) for b, i, j in sub.local_edges}
    assert got == expected


def test_sampling_reproducible_and_budget_respected():
    rng = np.random.default_rng(13)
    n = 60
    edges = random_edge_list(rng, n, 0.3)
    g = gr.from_edge_list(edges, n)
    a = gr.sample_ego_subgraph(g, [0], hops=2, max_nodes=12, seed=99)
    b = gr.sample_ego_subgraph(g, [0], hops=2, max_nodes=12, seed=99)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.local_edges, b.local_edges)
    assert a.num_nodes <= 12
    c = gr.sample_ego_subgraph(g, [0], hops=2, max_nodes=12, seed=100)
    assert c.num_nodes <= 12  # different seed still valid (may differ in content)


def overflow_graph():
    """30 nodes: a hub 0 cited by 1..6; a chain 10 -> 11 with 11 citing
    12..16; a random part over 17..26; 27..29 isolated. With a budget of
    5 the hub overflows on hop 1 (six neighbours, room 4) and center 10
    on hop 2 (five second-hop nodes, room 3)."""
    rng = np.random.default_rng(5)
    edges = [(i, 0) for i in range(1, 7)] + [(10, 11)] + [(11, j) for j in range(12, 17)]
    edges += [(17 + u, 17 + v) for u, v in random_edge_list(rng, 10, 0.2)]
    return gr.from_edge_list(edges, 30)


def assert_same_subgraph(got, want, where=""):
    """Two one-row stacks are equal field by field, byte for byte."""
    assert got.sizes.tolist() == want.sizes.tolist(), where
    assert got.nodes.dtype == np.int64 and got.nodes.tobytes() == want.nodes.tobytes(), where
    assert got.local_edges.dtype == np.int64, where
    assert got.local_edges.shape == want.local_edges.shape, where
    assert got.local_edges.tobytes() == want.local_edges.tobytes(), where
    assert node_map(got) == node_map(want), where


def test_batched_sampling_matches_bfs_oracle_in_any_chunk():
    rng = np.random.default_rng(21)
    graphs = [overflow_graph()]
    for _ in range(3):
        n = 40  # nodes 30..39 isolated
        graphs.append(gr.from_edge_list(random_edge_list(rng, 30, float(rng.uniform(0.03, 0.2))), n))
    for gi, g in enumerate(graphs):
        n = g.num_nodes
        for hops, max_nodes in ((1, 1), (2, 5), (2, 9), (3, 12), (2, 1000)):
            centers = rng.permutation(n)
            seed = int(rng.integers(-2**63, 2**63))
            want = [oracle_ego_subgraph(g, int(c), hops, max_nodes, seed) for c in centers]
            for chunk in (1, 7, n):
                for lo in range(0, n, chunk):
                    stack = gr.sample_ego_subgraph(g, centers[lo:lo + chunk], hops, max_nodes, seed)
                    assert isinstance(stack, gr.EgoStack)
                    assert stack.num_nodes == sum(w.num_nodes for w in want[lo:lo + chunk])
                    assert (stack.nodes[:, 0] == centers[lo:lo + chunk]).all()
                    for b in range(len(stack.sizes)):
                        where = (gi, hops, max_nodes, chunk, int(centers[lo + b]))
                        if chunk == 1:  # a one-row stack is the oracle's as it stands
                            assert_same_subgraph(stack, want[lo + b], where)
                        assert_same_subgraph(stack_row(stack, b), want[lo + b], where)
                        assert (stack.nodes[b, stack.sizes[b]:] == -1).all()


def test_batched_sampling_overflow_on_both_hops_and_repeats():
    g = overflow_graph()
    hub = oracle_ego_subgraph(g, 0, 2, 5, 1)
    chain = oracle_ego_subgraph(g, 10, 2, 5, 1)
    assert set(hub.nodes[0, 1:].tolist()) < set(range(1, 7))  # hop 1 subsampled
    assert chain.nodes[0, 1] == 11 and set(chain.nodes[0, 2:].tolist()) < set(range(12, 17))
    stack = gr.sample_ego_subgraph(g, [0, 10, 27, 0, 10], hops=2, max_nodes=5, seed=1)
    assert stack.sizes.tolist() == [5, 5, 1, 5, 5]
    for b, want in enumerate([hub, chain, oracle_ego_subgraph(g, 27, 2, 5, 1), hub, chain]):
        assert_same_subgraph(stack_row(stack, b), want, b)


def test_sampling_key_is_splitmix64():
    """The oracle's key function is SplitMix64: its first outputs from
    state 0 are the published ones, and the sampler's array form agrees
    with it on edge words."""
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
    words = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    got = gr._splitmix64(np.array(words, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.tolist() == [splitmix64(w) for w in words]


def test_overflowing_hop_is_a_uniform_subset():
    """A star with 40 leaves and room for 10 of them: over 2,000 seeds
    every leaf is kept at a rate within 4.5 sigma of 10/40."""
    leaves, room, trials = 40, 10, 2000
    g = gr.from_edge_list([(0, v) for v in range(1, leaves + 1)], leaves + 1)
    hits = np.zeros(leaves + 1, dtype=np.int64)
    for seed in range(trials):
        stack = gr.sample_ego_subgraph(g, [0], hops=1, max_nodes=room + 1, seed=seed)
        assert stack.sizes.tolist() == [room + 1]
        hits[stack.nodes[0]] += 1
    p = room / leaves
    sigma = np.sqrt(p * (1 - p) / trials)
    assert hits[0] == trials
    assert np.abs(hits[1:] / trials - p).max() < 4.5 * sigma


def test_bad_center_or_budget_raises():
    g = gr.from_edge_list([(0, 1)], 3)
    for centers in ([-1], [3], [0, 3], [2, -1]):
        with pytest.raises(gr.GraphConstructionError, match="outside"):
            gr.sample_ego_subgraph(g, centers, hops=1, max_nodes=2, seed=0)
    for hops, max_nodes in ((0, 2), (1, 0), (-1, -1)):
        for centers in ([0], [0, 1]):
            with pytest.raises(gr.GraphConstructionError, match=">= 1"):
                gr.sample_ego_subgraph(g, centers, hops=hops, max_nodes=max_nodes, seed=0)


def test_log1p_degree_table_is_math_log1p():
    import math

    g = gr.from_edge_list([(0, j) for j in range(1, 14)] + [(j, 1) for j in range(2, 5)], 14)
    table = g.log1p_degree
    assert len(table) == 14  # degrees 0..13
    assert [float(x) for x in table] == [math.log1p(d) for d in range(14)]
    assert g.log1p_degree is table  # built once per graph
