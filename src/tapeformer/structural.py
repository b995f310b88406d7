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

from .graph import DirectedGraph, EgoStack

__all__ = [
    "SpdMatrix",
    "PathFeatures",
    "EDGE_FEATURE_DIM",
    "bfs_spd",
    "path_predecessors",
    "clustering_coefficient",
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
    """
    if adj is None:
        adj = local_adjacency(sub)
    dist = spd.dist
    order = np.argsort(sub.nodes, axis=-1)  # local indices by ascending global id
    by_id = np.take_along_axis(dist, order[..., None, :], axis=-1)  # [i, r] = dist[i, order[r]]
    nbr = np.take_along_axis(adj, order[..., :, None], axis=-2).swapaxes(-1, -2)  # [j, r]
    # cand[i, j, r]: local node order[r] is a neighbor of j one hop closer to i
    cand = (by_id[..., :, None, :] == dist[..., :, :, None] - 1) & nbr[..., None, :, :]
    pred = np.take_along_axis(order[..., None, :], cand.argmax(axis=-1), axis=-1)
    pred[(dist == 0) | (dist > spd.cap)] = -1
    return pred


def clustering_coefficient(g: DirectedGraph, v: int) -> float:
    """Local clustering on the undirected simple view; degree < 2 gives 0."""
    nbrs = g.undirected_neighbors(v)
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for a in range(k):
        for b in range(a + 1, k):
            if g.has_undirected_edge(int(nbrs[a]), int(nbrs[b])):
                links += 1
    return 2.0 * links / (k * (k - 1))


def synth_edge_features(g: DirectedGraph, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(m, 3) features for the undirected steps src[n] -> dst[n].

    The flag is +1 when the step follows the citation direction, -1
    when it runs against it; degree terms describe the directed edge's
    own endpoints. Reciprocal citations count as forward.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    fwd = g.has_edges(src, dst)
    back = ~fwd
    missing = np.flatnonzero(back)[~g.has_edges(dst[back], src[back])]
    if len(missing):
        n = missing[0]
        raise ValueError(f"no edge between {src[n]} and {dst[n]} in either direction")
    a = np.where(fwd, src, dst)
    b = np.where(fwd, dst, src)
    out = np.empty((len(src), EDGE_FEATURE_DIM), dtype=np.float64)
    out[:, 0] = np.where(fwd, 1.0, -1.0)
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
    every local undirected edge of every subgraph. Paths are then
    filled one distance level at a time: the path i -> j is the path
    i -> pred[i, j] plus the step pred[i, j] -> j.
    """
    if adj is None:
        adj = local_adjacency(sub)
    s, a, b = np.nonzero(adj)
    feats = synth_edge_features(g, sub.nodes[s, a], sub.nodes[s, b])
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
