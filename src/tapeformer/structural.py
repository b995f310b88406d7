"""Graph-derived quantities consumed by the model.

Shortest-path distances, one concrete shortest path per ordered node
pair (with its per-edge feature sequence), and local clustering
coefficients. Distances and paths are computed on the undirected view:
in citation graphs most directed pairs are mutually unreachable, which
would starve the distance-based attention bias.

The encoders work on B padded subgraphs at once, as (B, k, k) arrays
read off the one undirected adjacency ``local_adjacency`` gives for an
``EgoStack``: an all-source BFS as at most ``width`` frontier products,
whose sums also name each pair's predecessor, and a ``width``-step path
index into a table of edge features in the form the subgraph store keeps,
filled per distance level and step position over flat pair ids by 1-D
gathers and scatters, numpy's fast path. Each result leads with B.
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
    "clustering_coefficients",
    "local_adjacency",
    "synth_edge_features",
    "edge_table",
    "build_path_features",
]

# synthesized per-edge features: [orientation flag, log1p(src out-degree),
# log1p(dst in-degree)] -- datasets without edge attributes still feed the
# path term something informative
EDGE_FEATURE_DIM = 3


@dataclass
class SpdMatrix:
    """Pairwise hop counts up to the path width w; pairs further apart
    (or in other components) hold the sentinel w + 1."""

    dist: np.ndarray  # (B, k, k), int64 from bfs_spd


@dataclass
class PathFeatures:
    """Edge features along one shortest path per ordered pair.

    Rows ``offsets[b]:offsets[b + 1]`` of ``table`` are subgraph b's block:
    a zero row, then its directed local edges' features, whose local ids and
    citation flags ``edges`` lists in the same order. ``index[b, i, j, p]``
    is t * width + N - 1 where step p of the N-step path i -> j is row t, or 0.
    ``table`` and ``lengths`` are built on first read.
    """

    index: np.ndarray  # (B, k, k, width) int64
    offsets: np.ndarray  # (B + 1,)
    edges: np.ndarray  # (m, 3) int64: local src, local dst, 1 along a citation (else 0)
    graph: DirectedGraph  # whose degrees the features read
    nodes: np.ndarray  # (B, k) the subgraphs' global ids

    @cached_property
    def table(self) -> np.ndarray:
        """(m + B, EDGE_FEATURE_DIM) for m directed local edges in all."""
        return edge_table(self.graph, self.nodes, self.edges, self.offsets)

    @cached_property
    def lengths(self) -> np.ndarray:
        """(B, k, k) hop counts; 0 on the diagonal and for unreachable pairs."""
        first = self.index[..., 0]
        return np.where(first > 0, first % self.index.shape[-1] + 1, 0)

    @cached_property
    def steps(self) -> np.ndarray:
        """(B, k, k, width, EDGE_FEATURE_DIM) feature vectors of each path's
        steps, zeros past its end."""
        return self.table[self.index // self.index.shape[-1] + self.offsets[:-1, None, None, None]]

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


def bfs_spd(adj: np.ndarray, nodes: np.ndarray, width: int) -> tuple[SpdMatrix, np.ndarray]:
    """All-source BFS on the (B, k, k) undirected adjacency ``adj`` of
    subgraphs with global ids ``nodes``, truncated at ``width`` hops;
    pairs not reached hold the sentinel ``width + 1``. Also returns
    the (B, k, k) predecessor of j on the chosen shortest path i -> j: the
    neighbour of j one hop closer to i with the smallest *global* id, so
    the paths do not depend on the order of local indices; -1 on the
    diagonal and for pairs not reached.

    Row s of ``frontier`` holds the nodes first reached from s at the
    current hop; one product with the adjacency advances every source of
    every subgraph by a hop. A pair's distance is the number of hops at
    which it is still unseen, so no masked write sets it. Row u of the
    operand is scaled by 2**(51 - r % 52) for u's rank r by global id, one
    operand per 52 ranks: a sum of distinct powers of two below 2**52 is
    exact in float64, and its top bit names the smallest rank in it.
    """
    if width < 1:
        raise ValueError(f"need width >= 1, got {width}")
    count, k = nodes.shape
    order = np.argsort(nodes, axis=-1)  # local indices by ascending global id
    rank = np.argsort(order, axis=-1)
    scale, group = np.ldexp(1.0, 51 - rank % 52), rank // 52
    frontier = adj.astype(np.float64)
    operands = [frontier * np.where(group == g, scale, 0.0)[..., None] for g in range(-(-k // 52))]
    # hop 1 reaches each node's neighbours, its operand entries their sums
    off = ~np.eye(k, dtype=bool)
    unseen = adj ^ off  # adj has no diagonal
    dist = np.empty(adj.shape, dtype=np.min_scalar_type(width + 1))
    dist[...] = off
    sums = [op.copy() for op in operands]  # per group, its sum on the hop reaching a pair
    d = 1  # the last hop run
    for d in range(2, width + 1):
        dist += unseen.view(np.uint8)
        hits = [frontier @ op for op in operands]
        reached = hits[0] > 0
        for hit in hits[1:]:
            reached |= hit > 0
        reached &= unseen
        if not reached.any():
            break
        unseen ^= reached
        frontier = reached.astype(np.float64)
        for hit, total in zip(hits, sums):
            hit *= frontier
            total += hit
    # hops d..width, at which the rest stays unseen
    dist += np.multiply(unseen, width + 1 - d, dtype=dist.dtype)
    # group g's sum 2**(e - 1) + ... leads with rank 52 * (g + 1) - e; e is 0
    # for an empty sum, and every sum is empty off the reached pairs
    none = 52 * len(sums)  # the code of no predecessor
    row = (none + 1) * np.arange(count)[:, None, None]  # subgraph s's row of ``lookup``
    best = row + none - np.frexp(sums[-1])[1]
    for g in range(len(sums) - 2, -1, -1):
        best = np.where(sums[g] > 0, row + 52 * (g + 1) - np.frexp(sums[g])[1], best)
    # ranks past k, and the code of no predecessor, read -1
    lookup = np.concatenate([order, np.full((count, none + 1 - k), -1)], axis=1)
    return SpdMatrix(dist=dist.astype(np.int64)), np.take(lookup, best)


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
    out[:, 1] = g.log1p_degree[g.out_degree[a]]
    out[:, 2] = g.log1p_degree[g.in_degree[b]]
    return out


def edge_table(g: DirectedGraph, nodes: np.ndarray, edges: np.ndarray,
               offsets: np.ndarray) -> np.ndarray:
    """(offsets[-1], EDGE_FEATURE_DIM) features of B subgraphs' ``edges``: block b,
    rows offsets[b]:offsets[b + 1], is a zero row, then subgraph b's edges in order."""
    block = np.repeat(np.arange(len(nodes)), offsets[1:] - offsets[:-1] - 1)
    table = np.zeros((offsets[-1], EDGE_FEATURE_DIM))
    table[np.arange(len(edges)) + block + 1] = synth_edge_features(
        g, nodes[block, edges[:, 0]], nodes[block, edges[:, 1]], edges[:, 2] > 0)
    return table


def build_path_features(g: DirectedGraph, sub: EgoStack, spd: SpdMatrix, pred: np.ndarray,
                        adj: np.ndarray, width: int) -> PathFeatures:
    """Per-edge feature sequences along the shortest paths ``pred`` picks,
    one per ordered pair, for pairs at most ``width`` apart.

    Every local undirected edge of every subgraph is listed in both
    orientations, with each step's direction read off ``sub.local_edges``:
    an induced subgraph holds every citation between its nodes. Each is a
    one-step path. Longer paths are then filled one distance level at a
    time: the path i -> j is the path i -> pred[i, j], each step's N one
    larger, plus the step pred[i, j] -> j. Within a level, step position
    t of every pair f is one flat copy from its predecessor pair fp,
    ``index[f * width + t] = index[fp * width + t] + 1``.
    """
    count, k = sub.nodes.shape
    f = np.flatnonzero(adj)  # pair (s, a, b) is f = (s * k + a) * k + b
    q = f // k  # s * k + a, so that b = f - q * k without an int64 %
    s = q // k
    cited = np.zeros(adj.size, dtype=bool)
    cited[(sub.local_edges[:, 0] * k + sub.local_edges[:, 1]) * k + sub.local_edges[:, 2]] = True
    # edges come grouped by subgraph and a zero row leads each subgraph's
    # block, so edge n of subgraph s is row n + s + 1 - offsets[s] of its block
    offsets = np.append(0, np.cumsum(np.bincount(s, minlength=count) + 1))
    edge = np.zeros(adj.size, dtype=np.int64)  # t * width for the step of row t
    index = np.zeros(adj.size * width, dtype=np.int64)
    edge[f] = index[f * width] = (np.arange(1, len(f) + 1) + s - offsets[s]) * width  # level 1
    # per pair (s, i, j): the first slot of (s, i, p) and edge[s, p, j], p = pred[s, i, j]
    via = (pred + np.arange(0, adj.size, k).reshape(adj.shape[:2] + (1,))).reshape(-1) * width
    last = edge[(pred + np.arange(0, count * k, k)[:, None, None]) * k + np.arange(k)].reshape(-1)
    del edge  # no later reader: freed here, it is not part of the level loop's peak
    for d in range(2, width + 1):
        level = np.flatnonzero(spd.dist == d)
        if len(level) == 0:
            break
        at, fp = level * width, via[level]
        for t in range(d - 1):
            index[at + t] = index[fp + t] + 1
        index[at + d - 1] = last[level] + d - 1
    return PathFeatures(index=index.reshape(adj.shape + (width,)), offsets=offsets,
                        edges=np.stack([q - s * k, f - q * k, cited[f]], axis=1),
                        graph=g, nodes=sub.nodes)
