"""Directed-graph storage and traversal for citation networks.

The graph is immutable CSR in both directions (out- and in-adjacency),
given by its out-CSR, from which the in-CSR is derived. Self-loops are
dropped and parallel edges merged when an edge list is read; targets
are sorted per source so everything downstream is deterministic.
Ego-subgraph sampling gives the model its attention contexts:
full-graph attention is quadratic in node count and infeasible past a
few thousand nodes, so each classified node gets a bounded
neighborhood instead.
"""
from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .binfile import utf8_lines

__all__ = [
    "DirectedGraph",
    "EgoStack",
    "GraphConstructionError",
    "check_centers",
    "from_edge_list",
    "from_out_csr",
    "load_edge_list",
    "sample_ego_subgraph",
]


class GraphConstructionError(ValueError):
    """Bad input while building a graph (endpoint out of range, parse error)."""


@dataclass
class DirectedGraph:
    """CSR adjacency in both directions, immutable after construction;
    the in-CSR is derived from the given out-CSR, so the two agree."""

    out_offsets: np.ndarray  # int64, len num_nodes+1
    out_targets: np.ndarray  # int64, sorted ascending and distinct within each source
    self_loops_dropped: int
    duplicates_dropped: int
    in_offsets: np.ndarray = field(init=False)
    in_targets: np.ndarray = field(init=False)
    out_degree: np.ndarray = field(init=False)  # int64, len num_nodes
    in_degree: np.ndarray = field(init=False)  # int64, len num_nodes

    def __post_init__(self):
        n = np.int64(self.num_nodes)
        self.out_degree = np.diff(self.out_offsets)
        self.in_degree = np.bincount(self.out_targets, minlength=n)
        keys = self.out_targets * n  # dst * n + src, sorted: the sources grouped by target
        keys += np.repeat(np.arange(n), self.out_degree)
        keys.sort()
        keys -= keys // n * n  # keys % n: numpy divides by a scalar several times faster
        self.in_targets = keys
        self.in_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.in_degree, out=self.in_offsets[1:])

    @property
    def num_nodes(self) -> int:
        return len(self.out_offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.out_targets)

    @cached_property
    def log1p_degree(self) -> np.ndarray:
        """``math.log1p(d)`` for every degree d from 0 to the largest in-
        or out-degree, built on first use. ``math.log1p``, not
        ``np.log1p``: the two disagree in the last ulp on some integers
        (2 among them), and the synthesized edge features are pinned to
        ``math.log1p``."""
        top = int(max(self.out_degree.max(initial=0), self.in_degree.max(initial=0)))
        return np.array(list(map(math.log1p, range(top + 1))), dtype=np.float64)


def _csr_rows(offsets: np.ndarray, targets: np.ndarray, rows: np.ndarray):
    """The CSR rows ``rows`` concatenated in order: (index into ``rows``
    of each entry's row, the entry)."""
    hi = offsets[rows + 1]
    cnt = hi - offsets[rows]
    owner = np.repeat(np.arange(len(rows)), cnt)
    # entry e (counted over all rows) of row r is at lo[r] + e - (entries before r)
    return owner, targets[np.arange(len(owner)) + (hi - np.cumsum(cnt))[owner]]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int array by a sort and a neighbour mask: numpy's
    ``unique`` hashes integers, which is several times slower here."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _lexsort(key: np.ndarray, seg: np.ndarray, count: int) -> np.ndarray:
    """``np.lexsort((key, seg))`` for ``seg`` in [0, count) as two cheaper sorts:
    distinct keys have one order, so a stable sort of them is needed only
    when one repeats."""
    order = np.argsort(key)
    if (np.diff(key[order]) == 0).any():
        order = np.argsort(key, kind="stable")
    return order[np.argsort(seg[order].astype(np.min_scalar_type(count - 1)), kind="stable")]


def _find(sorted_keys: np.ndarray, keys: np.ndarray):
    """(position, found) of each of ``keys`` in the ascending ``sorted_keys``;
    the position is meaningless where not found."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


@dataclass
class EgoStack:
    """Induced neighborhoods around B center nodes, padded to the size
    ``k`` of the largest.

    Row b of ``nodes`` holds subgraph b's global ids, padded with -1 past
    ``sizes[b]``; the rows of ``local_edges`` are the induced directed
    edges as (b, local src, local dst), grouped by b. Each subgraph's
    center is its local node 0, so the centers are ``nodes[:, 0]``.
    """

    nodes: np.ndarray  # (B, k) global ids, -1 on padding
    sizes: np.ndarray  # (B,) real nodes per subgraph
    local_edges: np.ndarray  # (m, 3) int64

    @property
    def num_nodes(self) -> int:
        """Real nodes over all subgraphs."""
        return int(self.sizes.sum())


def from_edge_list(edges, num_nodes: int) -> DirectedGraph:
    """Build the graph from (src, dst) pairs.

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
    uniq = _sorted_unique(keys)
    out_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(uniq // num_nodes, minlength=num_nodes), out=out_offsets[1:])
    return DirectedGraph(out_offsets, uniq % num_nodes, self_loops_dropped=n_loops,
                         duplicates_dropped=len(keys) - len(uniq))


def from_out_csr(out_offsets: np.ndarray, out_targets: np.ndarray, self_loops_dropped: int,
                 duplicates_dropped: int) -> DirectedGraph:
    """Build the graph from a stored out-CSR, after checking what deriving
    the in-CSR relies on: offsets rising from 0 to the edge count, and
    in-range targets, sorted and distinct within each row. The error
    names the first check that fails."""
    n, m = len(out_offsets) - 1, len(out_targets)
    if out_offsets[0] != 0 or out_offsets[-1] != m or np.any(np.diff(out_offsets) < 0):
        raise GraphConstructionError(f"out_offsets must rise monotonically from 0 to {m}")
    if m and (out_targets.min() < 0 or out_targets.max() >= n):
        raise GraphConstructionError(f"out_targets has a node id outside [0, {n})")
    # targets rise strictly within each row: only where a row starts may they fall or repeat
    bad = np.diff(out_targets) <= 0
    starts = out_offsets[1:-1]
    bad[starts[(starts > 0) & (starts < m)] - 1] = False
    if bad.any():
        raise GraphConstructionError("out_targets are not sorted within a row")
    return DirectedGraph(out_offsets, out_targets, self_loops_dropped, duplicates_dropped)


def load_edge_list(path, num_nodes: int) -> DirectedGraph:
    """Parse a `src<TAB>dst` text file (0-based ids, whole-line `#` comments)."""
    arr = _read_edges_fast(path)
    if arr is None:
        arr = _read_edge_lines(path)
    try:
        return from_edge_list(arr, num_nodes)
    except GraphConstructionError as e:
        raise GraphConstructionError(f"{path}: {e}") from None


def _read_edges_fast(path) -> np.ndarray | None:
    """The (m, 2) edges of a file in the plain format, read in one pass,
    or None when this read cannot vouch for the file.

    ``np.loadtxt`` rejects everything the line loop rejects except
    lines with one column or more than two, read as (m, c), and an
    inline comment, which it strips; both are refused here. It also
    rejects some lines the loop accepts (padding tabs, whitespace-only
    lines, ``1_0``). On None the loop reads the file and either accepts
    it or names its bad line.
    """
    try:  # a ValueError here, undecodable bytes included, leaves the verdict to the loop
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        if _has_inline_comment(text):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file "contained no data"
            arr = np.loadtxt(io.StringIO(text), dtype=np.int64, delimiter="\t", comments="#",
                             ndmin=2)
    except ValueError:
        return None
    return arr if arr.shape[1] == 2 else None


def _has_inline_comment(text: str) -> bool:
    """Does a `#` follow anything but whitespace on its line?"""
    at = text.find("#")
    while at >= 0:
        if text[text.rfind("\n", 0, at) + 1:at].strip():
            return True
        end = text.find("\n", at)
        at = -1 if end < 0 else text.find("#", end)
    return False


_INT64 = range(-2**63, 2**63)


def _read_edge_lines(path) -> np.ndarray:
    """The (m, 2) edges of the file, line by line; raises naming the
    first bad line."""
    srcs: list[int] = []
    dsts: list[int] = []
    for ln, line in utf8_lines(path, GraphConstructionError):
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
        if srcs[-1] not in _INT64 or dsts[-1] not in _INT64:
            raise GraphConstructionError(f"{path}:{ln}: endpoint beyond int64 in {line!r}")
    arr = np.empty((len(srcs), 2), dtype=np.int64)
    arr[:, 0] = srcs
    arr[:, 1] = dsts
    return arr


def check_centers(g: DirectedGraph, centers) -> None:
    """Raise naming the first center outside [0, num_nodes)."""
    centers = np.asarray(centers, dtype=np.int64).reshape(-1)
    bad = (centers < 0) | (centers >= g.num_nodes)
    if bad.any():
        raise GraphConstructionError(f"center {centers[bad][0]} outside [0, {g.num_nodes})")


# SplitMix64's increment and multipliers (Steele et al., OOPSLA 2014)
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on each word of a uint64 array, a
    bijection; array arithmetic wraps mod 2**64 without a warning."""
    x = x + _GAMMA
    x ^= x >> 30
    x *= _MIX1
    x ^= x >> 27
    x *= _MIX2
    x ^= x >> 31
    return x


def sample_ego_subgraph(g: DirectedGraph, centers, hops: int, max_nodes: int,
                        seed: int) -> EgoStack:
    """Undirected BFS from each of ``centers``, bounded by hops and node
    budget, sampled under one ``seed``.

    Each hop's new frontier is taken whole if it fits; an overflowing
    one keeps the ``room`` nodes v with the smallest keys
    ``s(s(s(seed) ^ center) ^ v)``, s being SplitMix64's output function
    and ``seed`` taken mod 2**64: a uniform random subset that does not
    depend on the pass. Node order is center first (local node 0 of
    every row), then each hop's nodes in ascending global id.

    Every center is sampled in the same pass: frontiers of all centers
    expand together over the CSR arrays as ``b * n + node`` keys, and
    one sort by (center, key) ranks every overflowing frontier at once.
    """
    centers = np.asarray(centers, dtype=np.int64)
    check_centers(g, centers)
    if hops < 1 or max_nodes < 1:
        raise GraphConstructionError("hops and max_nodes must be >= 1")
    count, n = len(centers), np.int64(g.num_nodes)
    salt = _splitmix64(_splitmix64(np.full(count, int(seed) % 2**64, dtype=np.uint64))
                       ^ centers.astype(np.uint64))
    segs = [np.arange(count)]  # (subgraph, node) of every pick, hop by hop
    picks = [centers]
    seen = segs[0] * n + centers  # ascending
    size = np.ones(count, dtype=np.int64)
    f_seg, f_node = segs[0], centers
    for hop in range(hops):
        room = max_nodes - size
        live = room[f_seg] > 0
        f_seg, f_node = f_seg[live], f_node[live]
        if len(f_seg) == 0:
            break
        keys = _sorted_unique(np.concatenate([
            f_seg[owner] * n + w
            for owner, w in (_csr_rows(g.out_offsets, g.out_targets, f_node),
                             _csr_rows(g.in_offsets, g.in_targets, f_node))
        ]))
        keys = keys[~_find(seen, keys)[1]]
        f_seg = keys // n
        f_node = keys - f_seg * n
        found = np.bincount(f_seg, minlength=count)
        if (found > room).any():  # keep each such center's ``room`` smallest sampling keys
            order = _lexsort(_splitmix64(salt[f_seg] ^ f_node.astype(np.uint64)), f_seg, count)
            take = np.empty(len(keys), dtype=bool)  # order stays within centers
            take[order] = np.arange(len(keys)) - (np.cumsum(found) - found)[f_seg] < room[f_seg]
            keys, f_seg, f_node = keys[take], f_seg[take], f_node[take]
        segs.append(f_seg)
        picks.append(f_node)
        if hop + 1 < hops:  # the last hop's merge has no reader; the two runs are disjoint
            seen = np.sort(np.concatenate([seen, keys]))
        size += np.minimum(found, room)
    seg = np.concatenate(segs)
    order = np.argsort(seg, kind="stable")  # subgraph-major, then hop, then id
    seg, gid = seg[order], np.concatenate(picks)[order]
    start = np.cumsum(size) - size
    local = np.arange(len(seg)) - start[seg]
    nodes = np.full((count, int(size.max(initial=0))), -1, dtype=np.int64)
    nodes[seg, local] = gid
    # induced edges: every picked node's out-edges whose target was picked too
    owner, targets = _csr_rows(g.out_offsets, g.out_targets, gid)
    picked = seg * n + gid
    by_key = np.argsort(picked)
    pos, hit = _find(picked[by_key], seg[owner] * n + targets)
    owner, pos = owner[hit], pos[hit]
    local_edges = np.column_stack([seg[owner], local[owner], local[by_key[pos]]])
    return EgoStack(nodes=nodes, sizes=size, local_edges=local_edges)
