"""Directed-graph storage and traversal for citation networks.

The graph is immutable CSR in both directions (out- and in-adjacency),
built once from an edge list. Self-loops are dropped and parallel edges
merged at construction; targets are sorted per source so everything
downstream is deterministic. Ego-subgraph sampling gives the model its
attention contexts: full-graph attention is quadratic in node count and
infeasible past a few thousand nodes, so each classified node gets a
bounded neighborhood instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DirectedGraph",
    "EgoSubgraph",
    "GraphConstructionError",
    "from_edge_list",
    "load_edge_list",
    "sample_ego_subgraph",
]


class GraphConstructionError(ValueError):
    """Bad input while building a graph (endpoint out of range, parse error)."""


@dataclass
class DirectedGraph:
    """CSR adjacency in both directions; immutable after construction."""

    num_nodes: int
    out_offsets: np.ndarray  # int64, len num_nodes+1
    out_targets: np.ndarray  # int64, sorted ascending within each source
    in_offsets: np.ndarray
    in_targets: np.ndarray
    num_edges: int
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    def out_degree(self, v: int) -> int:
        return int(self.out_offsets[v + 1] - self.out_offsets[v])

    def in_degree(self, v: int) -> int:
        return int(self.in_offsets[v + 1] - self.in_offsets[v])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_offsets)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_offsets)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_targets[self.out_offsets[v]:self.out_offsets[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_targets[self.in_offsets[v]:self.in_offsets[v + 1]]

    def undirected_neighbors(self, v: int) -> np.ndarray:
        """Sorted unique neighbors ignoring edge direction."""
        return np.union1d(self.out_neighbors(v), self.in_neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        """Directed edge u -> v present?"""
        t = self.out_neighbors(u)
        i = np.searchsorted(t, v)
        return i < len(t) and t[i] == v

    def has_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Directed edge src[n] -> dst[n] present, for paired id arrays;
        only the out-edges of the distinct sources are searched."""
        src, n = np.asarray(src, dtype=np.int64), np.int64(self.num_nodes)
        u = np.unique(src)
        lo = self.out_offsets[u]
        cnt = self.out_offsets[u + 1] - lo
        # those out-edges as ascending src * n + dst keys
        at = np.repeat(lo - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
        keys = np.repeat(u, cnt) * n + self.out_targets[at]
        want = src * n + dst
        if len(keys) == 0:
            return np.zeros(len(want), dtype=bool)
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return keys[pos] == want

    def has_undirected_edge(self, u: int, v: int) -> bool:
        return self.has_edge(u, v) or self.has_edge(v, u)

    def edges(self):
        """Yield (src, dst) in (src, dst) sorted order."""
        for u in range(self.num_nodes):
            for v in self.out_neighbors(u):
                yield u, int(v)


@dataclass
class EgoSubgraph:
    """Induced neighborhood around a center node.

    ``nodes`` holds global ids with the center at position 0;
    ``local_edges`` are the induced directed edges in local indices.
    """

    center: int
    nodes: np.ndarray  # global ids, int64
    local_edges: np.ndarray  # shape (m, 2), int64 local indices
    node_map: dict[int, int] = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def from_edge_list(edges, num_nodes: int) -> DirectedGraph:
    """Build both CSR directions from (src, dst) pairs.

    Self-loops are dropped and duplicate edges merged, each with a
    counter. Endpoints outside [0, num_nodes) raise, naming the edge.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphConstructionError(f"edge list must be (m, 2), got shape {arr.shape}")
    if arr.size:
        bad = np.where((arr < 0) | (arr >= num_nodes))
        if bad[0].size:
            i = int(bad[0][0])
            raise GraphConstructionError(
                f"edge {i} = ({arr[i, 0]}, {arr[i, 1]}) has endpoint outside [0, {num_nodes})"
            )
    loops = arr[:, 0] == arr[:, 1]
    n_loops = int(loops.sum())
    arr = arr[~loops]
    # encode (src, dst) into one key; num_nodes is well below the overflow bound
    keys = arr[:, 0] * np.int64(num_nodes) + arr[:, 1]
    uniq = np.unique(keys)
    n_dup = len(keys) - len(uniq)
    src = uniq // num_nodes
    dst = uniq % num_nodes
    out_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=out_offsets[1:])
    order = np.lexsort((src, dst))  # group by dst, then by src: in-adjacency
    in_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=num_nodes), out=in_offsets[1:])
    return DirectedGraph(
        num_nodes=num_nodes,
        out_offsets=out_offsets,
        out_targets=dst,
        in_offsets=in_offsets,
        in_targets=src[order],
        num_edges=len(uniq),
        self_loops_dropped=n_loops,
        duplicates_dropped=n_dup,
    )


def load_edge_list(path, num_nodes: int) -> DirectedGraph:
    """Parse a `src<TAB>dst` text file (0-based ids, `#` comments)."""
    srcs: list[int] = []
    dsts: list[int] = []
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphConstructionError(f"{path}:{ln}: expected `src<TAB>dst`, got {line!r}")
            try:
                srcs.append(int(parts[0]))
                dsts.append(int(parts[1]))
            except ValueError:
                raise GraphConstructionError(f"{path}:{ln}: non-integer endpoint in {line!r}") from None
    arr = np.empty((len(srcs), 2), dtype=np.int64)
    arr[:, 0] = srcs
    arr[:, 1] = dsts
    try:
        return from_edge_list(arr, num_nodes)
    except GraphConstructionError as e:
        raise GraphConstructionError(f"{path}: {e}") from None


def sample_ego_subgraph(
    g: DirectedGraph, center: int, hops: int, max_nodes: int, rng_seed: int
) -> EgoSubgraph:
    """Undirected BFS from the center, bounded by hops and node budget.

    Each hop's new frontier is taken whole if it fits; an overflowing
    frontier is subsampled uniformly without replacement (seeded), so
    identical seeds give identical subgraphs. Node order is center
    first, then each hop's nodes in ascending global id.
    """
    if not (0 <= center < g.num_nodes):
        raise GraphConstructionError(f"center {center} outside [0, {g.num_nodes})")
    if hops < 1 or max_nodes < 1:
        raise GraphConstructionError("hops and max_nodes must be >= 1")
    rng = np.random.default_rng(rng_seed)
    selected = [center]
    in_set = {center}
    frontier = [center]
    for _ in range(hops):
        room = max_nodes - len(selected)
        if room <= 0:
            break
        nxt_set: set[int] = set()
        for u in frontier:
            for w in g.undirected_neighbors(u):
                w = int(w)
                if w not in in_set:
                    nxt_set.add(w)
        if not nxt_set:
            break
        nxt = sorted(nxt_set)
        if len(nxt) > room:
            pick = rng.choice(len(nxt), size=room, replace=False)
            nxt = sorted(np.asarray(nxt)[np.sort(pick)].tolist())
        selected.extend(nxt)
        in_set.update(nxt)
        frontier = nxt
    nodes = np.asarray(selected, dtype=np.int64)
    node_map = {int(gid): li for li, gid in enumerate(selected)}
    edges = []
    for li, gid in enumerate(selected):
        for t in g.out_neighbors(int(gid)):
            lj = node_map.get(int(t))
            if lj is not None:
                edges.append((li, lj))
    local_edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return EgoSubgraph(center=center, nodes=nodes, local_edges=local_edges, node_map=node_map)
