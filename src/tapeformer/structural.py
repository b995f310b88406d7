"""Graph-derived quantities consumed by the model.

Shortest-path distances, one concrete shortest path per ordered node
pair (with its per-edge feature sequence), and local clustering
coefficients. Distances and paths are computed on the undirected view:
in citation graphs most directed pairs are mutually unreachable, which
would starve the distance-based attention bias.

Every function takes an ``EgoStack`` of B padded subgraphs and works on
(B, k, k) arrays in one pass: an all-source BFS as at most ``cap``
frontier products, a predecessor matrix, and a path index into a table
of edge features, filled one distance level at a time. Each result
leads with the subgraph axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import DirectedGraph, EgoStack, sample_ego_subgraph

__all__ = [
    "SpdMatrix",
    "PathFeatures",
    "EDGE_FEATURE_DIM",
    "bfs_spd",
    "path_predecessors",
    "clustering_coefficients",
    "local_adjacency",
    "synth_edge_features",
    "build_path_features",
]

# synthesized per-edge features: [orientation flag, log1p(src out-degree),
# log1p(dst in-degree)] -- datasets without edge attributes still feed the
# path term something informative
EDGE_FEATURE_DIM = 3


@dataclass
class SpdMatrix:
    """Pairwise hop counts, capped; entries beyond the cap (or in other
    components) hold the UNREACHABLE sentinel ``cap + 1``."""

    dist: np.ndarray  # (B, k, k) int64
    cap: int


@dataclass
class PathFeatures:
    """Edge features along one shortest path per ordered pair.

    Rows ``offsets[b]:offsets[b + 1]`` of ``table`` are subgraph b's block:
    a zero row, then its directed local edges' features. ``index[b, i, j, p]``
    is the row in that block of the p-th step of the path i -> j, or 0.
    """

    index: np.ndarray  # (B, k, k, cap) int64
    table: np.ndarray  # (m + B, EDGE_FEATURE_DIM) for m directed local edges in all
    offsets: np.ndarray  # (B + 1,)
    lengths: np.ndarray  # (B, k, k) hop counts; 0 on the diagonal and for unreachable pairs

    @cached_property
    def steps(self) -> np.ndarray:
        """(B, k, k, cap, EDGE_FEATURE_DIM) feature vectors of each path's
        steps, zeros past its end."""
        return self.table[self.index + self.offsets[:-1, None, None, None]]

    @cached_property
    def per_pair(self) -> dict[tuple[int, int, int], np.ndarray]:
        """(b, i, j) -> (length, EDGE_FEATURE_DIM) feature sequence, for
        every reachable pair i != j; the arrays are views into ``steps``."""
        return {tuple(map(int, at)): self.steps[at][: self.lengths[at]]
                for at in zip(*np.nonzero(self.lengths))}


def local_adjacency(sub: EgoStack) -> np.ndarray:
    """(B, k, k) boolean undirected adjacency in local indices, no self-loops."""
    adj = np.zeros(sub.nodes.shape + sub.nodes.shape[-1:], dtype=bool)
    b, u, v = sub.local_edges.T
    adj[b, u, v] = True
    adj[b, v, u] = True
    diag = np.arange(adj.shape[-1])
    adj[:, diag, diag] = False
    return adj


def bfs_spd(sub: EgoStack, cap: int, adj: np.ndarray | None = None) -> SpdMatrix:
    """All-source BFS on the undirected view, truncated at ``cap`` hops.

    Row s of ``frontier`` holds the nodes first reached from s at the
    current hop; one product with the adjacency advances every source
    of every subgraph by a hop at once.
    """
    if cap < 1:
        raise ValueError("spd cap must be >= 1")
    if adj is None:
        adj = local_adjacency(sub)
    eye = np.eye(adj.shape[-1], dtype=bool)
    dist = np.full(adj.shape, cap + 1, dtype=np.int64)
    dist[:, eye] = 0
    seen = np.broadcast_to(eye, adj.shape).copy()
    frontier = seen.astype(np.float64)
    step = adj.astype(np.float64)
    for d in range(1, cap + 1):
        reached = ((frontier @ step) > 0) & ~seen
        if not reached.any():
            break
        dist[reached] = d
        seen |= reached
        frontier = reached.astype(np.float64)
    return SpdMatrix(dist=dist, cap=cap)


def path_predecessors(sub: EgoStack, spd: SpdMatrix, adj: np.ndarray | None = None) -> np.ndarray:
    """(B, k, k) last-step predecessor of j on the chosen shortest path i -> j.

    Among the neighbors u of j with ``dist[i, u] == dist[i, j] - 1`` the
    one with the smallest *global* node id wins, so the chosen paths
    (and hence the model's edge-encoding term) are invariant under
    relabeling of local indices. -1 on the diagonal and for unreachable
    pairs. Following ``pred[i, .]`` back from j walks the whole path.

    Each directed local edge (j, u) is tested against every source at
    once: the edges are listed by subgraph, node and the neighbor's
    global id, and per node and source the first neighbor one hop closer
    wins, so the work is k per local edge rather than k**3 per subgraph.
    Returns a (B, k, k) view of an array laid out by (subgraph, node,
    source).
    """
    if adj is None:
        adj = local_adjacency(sub)
    count, k = adj.shape[:2]
    order = np.argsort(sub.nodes, axis=-1)  # local indices by ascending global id
    # edge (s * k + j, r): local node j of subgraph s and its neighbor order[s, r]
    sj, r = np.nonzero(np.take_along_axis(adj, order[:, None, :], axis=-1).reshape(count * k, k))
    out = np.full((count * k, k), -1, dtype=np.int64)  # [s * k + j, i]
    if len(r):
        s = sj // k
        # row j of dist[s] holds j's distances to every source i: distances
        # are symmetric on the undirected view. want[s * k + j, i] is the
        # distance from i j's predecessor has, so none can match it on the
        # diagonal (-1) or past the cap (-2)
        dist = spd.dist.astype(np.min_scalar_type(-spd.cap - 2))
        want = np.where(dist <= spd.cap, dist - 1, -2).reshape(count * k, k)
        # each candidate scores k - r, so the one with the smallest global id
        # scores highest within its node's run of edges
        score = (k - r).astype(np.min_scalar_type(k))
        cand = dist[s, order[s, r]] == want[sj]  # (edges, sources)
        runs = np.flatnonzero(np.append(True, sj[1:] != sj[:-1]))
        best = np.maximum.reduceat(cand * score[:, None], runs, axis=0)
        # best 0 (no candidate) reads the -1 appended to each subgraph's order
        padded = np.concatenate([order, np.full((count, 1), -1)], axis=1).reshape(-1)
        rows = sj[runs]
        out[rows] = padded[(rows // k * (k + 1))[:, None] + k - best]
    return out.reshape(count, k, k).transpose(0, 2, 1)


def clustering_coefficients(g: DirectedGraph, nodes) -> np.ndarray:
    """Local clustering of each of ``nodes`` on the undirected simple
    view; degree < 2 gives 0.

    One 1-hop ego pass whose budget is the whole graph keeps every
    neighbour; the distinct undirected induced edges between a
    subgraph's non-center nodes are its center's neighbour links.
    """
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    if len(nodes) == 0:
        return np.zeros(0)
    sub = sample_ego_subgraph(g, nodes, hops=1, max_nodes=g.num_nodes, seed=0)
    b, u, v = sub.local_edges.T
    k = sub.nodes.shape[1]
    among = (u > 0) & (v > 0)
    keys = (b * k + np.minimum(u, v)) * k + np.maximum(u, v)
    links = np.bincount(np.unique(keys[among]) // (k * k), minlength=len(nodes))
    deg = sub.sizes - 1
    pairs = deg * (deg - 1)
    return np.divide(2.0 * links, pairs, out=np.zeros(len(nodes)), where=pairs > 0)


def synth_edge_features(g: DirectedGraph, src: np.ndarray, dst: np.ndarray,
                        forward: np.ndarray) -> np.ndarray:
    """(m, 3) features for the undirected steps src[n] -> dst[n], where
    ``forward[n]`` says the citation src[n] -> dst[n] exists (else
    dst[n] -> src[n] does). The flag is +1 along the citation, -1
    against it; degree terms describe the directed edge's own endpoints.
    Reciprocal citations count as forward.
    """
    a = np.where(forward, src, dst)
    b = np.where(forward, dst, src)
    out = np.empty((len(a), EDGE_FEATURE_DIM), dtype=np.float64)
    out[:, 0] = np.where(forward, 1.0, -1.0)
    out[:, 1] = g.log1p_degree[g.out_offsets[a + 1] - g.out_offsets[a]]
    out[:, 2] = g.log1p_degree[g.in_offsets[b + 1] - g.in_offsets[b]]
    return out


def build_path_features(
    g: DirectedGraph,
    sub: EgoStack,
    spd: SpdMatrix,
    adj: np.ndarray | None = None,
) -> PathFeatures:
    """Per-edge feature sequences along one shortest path per ordered pair.

    ``synth_edge_features`` is called once, over both orientations of
    every local undirected edge of every subgraph, with each step's
    direction read off ``sub.local_edges``: an induced subgraph holds
    every citation between its nodes. Paths are then filled one
    distance level at a time: the path i -> j is the path
    i -> pred[i, j] plus the step pred[i, j] -> j.
    """
    if adj is None:
        adj = local_adjacency(sub)
    cited = np.zeros(adj.shape, dtype=bool)
    cited[tuple(sub.local_edges.T)] = True
    s, a, b = np.nonzero(adj)
    feats = synth_edge_features(g, sub.nodes[s, a], sub.nodes[s, b], cited[s, a, b])
    # edges come grouped by subgraph; a zero row leads each subgraph's block
    offsets = np.append(0, np.cumsum(np.bincount(s, minlength=len(adj)) + 1))
    table = np.insert(feats, offsets[:-1] - np.arange(len(adj)), 0.0, axis=0)
    edge = np.zeros(adj.shape, dtype=np.int64)
    edge[s, a, b] = np.arange(len(s)) + s + 1 - offsets[s]  # row within the block
    pred = path_predecessors(sub, spd, adj)
    index = np.zeros(adj.shape + (spd.cap,), dtype=np.int64)
    for d in range(1, spd.cap + 1):
        s, i, j = np.nonzero(spd.dist == d)
        if len(j) == 0:
            break
        p = pred[s, i, j]
        index[s, i, j, :d - 1] = index[s, i, p, :d - 1]
        index[s, i, j, d - 1] = edge[s, p, j]
    lengths = np.where(spd.dist <= spd.cap, spd.dist, 0)
    return PathFeatures(index=index, table=table, offsets=offsets, lengths=lengths)
