"""Graph transformer with structural attention biases, plus a
structure-free baseline.

Per ego-subgraph the attention logits get two additive structural
terms: a per-head learnable scalar indexed by the pair's shortest-path
distance bucket, and the average over the pair's shortest path of dot
products between edge features and per-position learnable weights. The
input embedding adds learnable in-/out-degree tables to the fused
features. The classifier head reads the center node's final row.

Everything here runs on the local autodiff engine; the edge term is a
single matmul against a per-batch constant coefficient matrix so that
gradients reach the edge weight tables without bespoke ops. Subgraphs
are sampled, encoded and run as padded stacks: every layer works on
(B*k, d) activations and all heads of all subgraphs attend at once, in
fused engine ops: ``layer_norm``, ``linear`` and one ``attention``.
A forward is one call in training and in prediction: nothing in it is
random, and whether it records on the tape is ``autodiff.no_grad``'s call.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fusion import FusionConfig, FusionLayer, xavier_init
from .graph import DirectedGraph, EgoStack, check_centers, sample_ego_subgraph
from .structural import (EDGE_FEATURE_DIM, SpdMatrix, bfs_spd, build_path_features,
                         edge_table, local_adjacency)

__all__ = [
    "GraphormerParams",
    "GraphormerConfig",
    "SubgraphBatch",
    "SubgraphStack",
    "build_batch",
    "stack_batches",
    "SubgraphStore",
    "GraphormerModel",
    "FusedMlp",
    "build_model",
    "check_kind",
    "input_embedding",
    "attention_bias",
    "multi_head_attention",
    "BUILD_PASS_PAIRS",
]


@dataclass
class GraphormerParams:
    """The model hyperparameters a run config sets, with their defaults."""

    num_layers: int = 4
    num_heads: int = 4
    d_model: int = 128
    d_ffn: int = 256
    max_spd: int = 5
    max_degree_bucket: int = 64
    ego_hops: int = 2
    ego_max_nodes: int = 32
    dtype: str = "float32"  # of every parameter and every array on the tape

    def __post_init__(self):
        for name, low in (("num_layers", 0), ("num_heads", 1), ("d_model", 1), ("d_ffn", 1),
                          ("max_spd", 1), ("max_degree_bucket", 0), ("ego_hops", 1),
                          ("ego_max_nodes", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be 'float64' or 'float32', got {self.dtype!r}")

    def for_classes(self, num_classes: int) -> GraphormerConfig:
        """These hyperparameters as the model config for ``num_classes`` classes."""
        return GraphormerConfig(num_classes=num_classes, **{
            f.name: getattr(self, f.name) for f in fields(GraphormerParams)})


# ``np.min_scalar_type(v)`` for every v >= 0 of bit length b, at index b
_UINTS = [np.min_scalar_type((1 << bits) - 1) for bits in range(65)]

# the most padded pairs (centers x ego_max_nodes**2) of one pass, a build pass
# or a predict chunk: 64 centers at ego_max_nodes=16, 16 at 32, 1 from 91
BUILD_PASS_PAIRS = 16_384


@dataclass(kw_only=True)
class GraphormerConfig(GraphormerParams):
    num_classes: int  # from the dataset

    def __post_init__(self):
        super().__post_init__()
        if self.num_classes < 2:
            raise ValueError("need at least two classes")

    @property
    def num_spd_buckets(self) -> int:
        # distances 0..max_spd plus the unreachable bucket
        return self.max_spd + 2

    @property
    def path_width(self) -> int:
        """The one bound w of distances and paths: no pair of an ego subgraph
        is more than 2 * ego_hops or ego_max_nodes - 1 apart, and no step past
        max_spd has a weight. Pairs further apart than w read w + 1."""
        return max(1, min(self.max_spd, 2 * self.ego_hops, self.ego_max_nodes - 1))

    @property
    def pass_centers(self) -> int:
        return max(1, BUILD_PASS_PAIRS // self.ego_max_nodes ** 2)


def _path_coeffs(table: np.ndarray, offsets: np.ndarray, index: np.ndarray,
                 dtype) -> np.ndarray:
    """(B, k, k, 3w) of ``dtype`` for a (B, k, k, w) ``index``: position p of pair
    (b, i, j) holds row ``offsets[b] + t`` of ``table`` over N where ``index[b, i, j, p]``
    is t * w + N - 1, so times ``edge_weight[:3w]`` it is each pair's averaged edge term."""
    width = index.shape[-1]
    # one copy of each row per path length N, divided by N: a true division,
    # not a product with 1/N, so the coefficients are the quotient bit for bit
    scaled = (table[:, None, :] / np.arange(1, width + 1, dtype=np.float64)[:, None]).astype(
        dtype, copy=False)
    rows = index + width * offsets[:-1, None, None, None]  # into each subgraph's block
    return np.take(scaled.reshape(-1, table.shape[1]), rows, axis=0).reshape(*index.shape[:-1], -1)


@dataclass
class SubgraphBatch:
    """One subgraph's row of a ``SubgraphStack``, without padding: the
    compact form a ``SubgraphStore`` holds per center, only what the graph
    cannot give back. ``stack_batches`` reads the degrees and edge features
    off the graph and the distances off ``path_index``, whose last axis is
    the path width w."""

    nodes: np.ndarray  # global ids (k,), the center first, narrowest uint
    # (m, 3) directed local edges in edge-table row order: local src, local dst and
    # 1 along a citation (else 0), in the narrowest uint that holds k - 1
    edges: np.ndarray
    path_index: np.ndarray  # (k, k, w) t * w + N - 1 (0: no step), narrowest uint


@dataclass
class SubgraphStack:
    """The encodings of B padded ego subgraphs: everything the forward
    pass consumes, padded to the width ``k`` of the largest subgraph,
    pair arrays as (B, k, k, ...). Row ``b * k + i`` of a (B*k, ...)
    reshape is node i of subgraph b, and pair ``(b * k + i) * k + j`` of
    a (B*k*k, ...) one is its pair (i, j); node 0 of each subgraph is its
    center. ``path_index[b]`` is entry b's, into block b of
    ``edge_table``, whose rows after its leading zero row are block b's
    ``edges``. The edge table, ``path_coeffs`` and the degrees are read
    off ``graph`` on first read. The path width w, which also bounds the
    distances, is ``path_index.shape[-1]``. ``build_batch``'s distances
    and path index are int64; ``stack_batches`` keeps the entries' uint
    path index and writes the narrowest signed distances that hold w + 1."""

    graph: DirectedGraph  # what the edge table and the degrees are read off
    sizes: np.ndarray  # (B,)
    nodes: np.ndarray  # (B, k), -1 on padding
    spd: SpdMatrix  # dist (B, k, k)
    edge_offsets: np.ndarray  # (B + 1,): block b is rows edge_offsets[b]:edge_offsets[b + 1]
    # (rows - B, 3) local src, local dst, citation flag: block b's are rows
    # edge_offsets[b] - b:edge_offsets[b + 1] - b - 1, one per table row past its zero row
    edges: np.ndarray
    path_index: np.ndarray  # (B, k, k, w) t * w + N - 1 (0: no step)

    @property
    def spd_buckets(self) -> np.ndarray:
        return self.spd.dist

    @cached_property
    def edge_table(self) -> np.ndarray:
        """(rows, EDGE_FEATURE_DIM) float64, a block per subgraph."""
        return edge_table(self.graph, self.nodes, self.edges, self.edge_offsets)

    @cached_property
    def in_deg(self) -> np.ndarray:
        """(B, k) full-graph in-degrees, 0 on padding."""
        return np.where(self.nodes >= 0, self.graph.in_degree[self.nodes], 0)

    @cached_property
    def out_deg(self) -> np.ndarray:
        """(B, k) full-graph out-degrees, 0 on padding."""
        return np.where(self.nodes >= 0, self.graph.out_degree[self.nodes], 0)

    @cached_property
    def path_coeffs(self) -> np.ndarray:
        """(B, k, k, w * EDGE_FEATURE_DIM) averaged path features, float64."""
        return _path_coeffs(self.edge_table, self.edge_offsets, self.path_index, np.float64)

    def split(self) -> list[SubgraphBatch]:
        """One ``SubgraphBatch`` per subgraph: its nodes, edges and path
        index, each a compact copy in the narrowest uint that holds it (a
        view would keep the whole padded stack alive). The distances and
        the edge table are not kept: ``stack_batches`` derives them."""
        width, out = self.path_index.shape[-1], []
        offsets = self.edge_offsets.tolist()
        for b, (n, top) in enumerate(zip(self.sizes.tolist(), self.nodes.max(axis=1).tolist())):
            lo, hi = offsets[b], offsets[b + 1]
            out.append(SubgraphBatch(
                nodes=self.nodes[b, :n].astype(_UINTS[top.bit_length()]),
                edges=self.edges[lo - b:hi - b - 1].astype(_UINTS[(n - 1).bit_length()]),
                path_index=self.path_index[b, :n, :n].astype(
                    _UINTS[((hi - lo) * width - 1).bit_length()]),
            ))
        return out


def build_batch(g: DirectedGraph, stack: EgoStack, cfg: GraphormerConfig) -> SubgraphStack:
    """Run the structural encodings for every subgraph of ``stack`` in one
    pass; ``split`` gives each subgraph's ``SubgraphBatch``."""
    adj = local_adjacency(stack)
    spd, pred = bfs_spd(adj, stack.nodes, cfg.path_width)
    paths = build_path_features(g, stack, spd, pred, adj, cfg.path_width)
    return SubgraphStack(graph=g, sizes=stack.sizes, nodes=stack.nodes, spd=spd,
                         edge_offsets=paths.offsets, edges=paths.edges, path_index=paths.index)


def stack_batches(g: DirectedGraph, batches: Sequence[SubgraphBatch]) -> SubgraphStack:
    """Pad ``batches`` to the largest subgraph and stack them, the inverse
    of ``SubgraphStack.split``, with what the entries do not keep read off
    ``g`` and their path indices: padding reads -1 in ``nodes`` and 0 in
    the other arrays (``path_index`` 0 is no step).

    A real pair's distance is N where its path's first step reads
    t * w + N - 1, 0 on the diagonal and w + 1 where no path joins it. The
    edge table is laid out as ``build_batch`` lays it out: a zero row, then
    each entry's edges in order, per block."""
    sizes = np.array([len(b.nodes) for b in batches])
    count, k, width = len(batches), int(sizes.max()), batches[0].path_index.shape[-1]
    counts = np.array([len(b.edges) for b in batches])
    offsets = np.append(0, np.cumsum(counts + 1))
    nodes = np.full((count, k), -1, dtype=np.int64)
    index = np.zeros((count, k, k, width),
                     dtype=np.result_type(*(b.path_index.dtype for b in batches)))
    for i, (b, n) in enumerate(zip(batches, sizes.tolist())):
        nodes[i, :n] = b.nodes
        index[i, :n, :n] = b.path_index
    first = index[..., 0]
    dist = (first % width).astype(np.min_scalar_type(-width - 2))
    dist += 1
    dist[first == 0] = width + 1
    real = np.arange(k) < sizes[:, None]
    dist[~(real[:, :, None] & real[:, None, :])] = 0
    dist[:, np.arange(k), np.arange(k)] = 0
    return SubgraphStack(graph=g, sizes=sizes, nodes=nodes, spd=SpdMatrix(dist=dist),
                         edge_offsets=offsets, edges=np.concatenate([b.edges for b in batches]),
                         path_index=index)


class SubgraphStore:
    """Built entries ``(center, seed) -> SubgraphBatch`` of one graph under
    one ego config (``ego_hops``, ``ego_max_nodes``, ``path_width``), shared
    by the models given the store. A build for another graph (by identity)
    or ego config empties it first, so it never serves other inputs' entries."""

    def __init__(self):
        self.entries: dict[tuple[int, int], SubgraphBatch] = {}
        self.graph = self.ego = None  # what the entries were built from

    def build(self, g: DirectedGraph, cfg: GraphormerConfig, centers, seed: int) -> None:
        """Sample, encode and store each center of ``centers`` not stored yet,
        in passes of ``cfg.pass_centers`` centers. An entry depends only on
        its center and ``seed``, not on its pass."""
        ego = (cfg.ego_hops, cfg.ego_max_nodes, cfg.path_width)
        if g is not self.graph or ego != self.ego:  # other inputs' entries: start empty
            self.entries, self.graph, self.ego = {}, g, ego
        missing = [c for c in dict.fromkeys(map(int, centers)) if (c, seed) not in self.entries]
        if not missing:
            return
        check_centers(g, missing)  # every center, before a pass stores any
        for lo in range(0, len(missing), cfg.pass_centers):
            part = missing[lo:lo + cfg.pass_centers]
            subs = sample_ego_subgraph(g, part, cfg.ego_hops, cfg.ego_max_nodes, seed)
            for c, batch in zip(part, build_batch(g, subs, cfg).split()):
                self.entries[(c, seed)] = batch


# ---------------------------------------------------------------------------
# model pieces, exposed for direct testing
# ---------------------------------------------------------------------------


def input_embedding(
    x: Tensor,
    in_deg: np.ndarray,
    out_deg: np.ndarray,
    z_in: Tensor,
    z_out: Tensor,
    max_bucket: int,
) -> Tensor:
    """h0 = fused features + indegree embedding + outdegree embedding."""
    zi = ad.embedding_lookup(z_in, np.minimum(in_deg, max_bucket))
    zo = ad.embedding_lookup(z_out, np.minimum(out_deg, max_bucket))
    return ad.add(ad.add(x, zi), zo)


def attention_bias(stack: SubgraphStack, spatial_table: Tensor, edge_weight: Tensor) -> Tensor:
    """(B*k*k, heads) additive attention-logit bias of a ``SubgraphStack``,
    one row per flat pair.

    Column h, row (b*k + i)*k + j is the head's distance-bucket scalar
    plus its edge term; the diagonal hits the distance-0 bucket with a
    zero edge term, unreachable pairs hit the dedicated last bucket. Paths
    have at most w steps, so only the first 3w rows of ``edge_weight`` are read.
    """
    coeffs = _path_coeffs(stack.edge_table, stack.edge_offsets, stack.path_index,
                          edge_weight.data.dtype)
    sp = ad.embedding_lookup(spatial_table, stack.spd_buckets.reshape(-1))
    read = ad.embedding_lookup(edge_weight, np.arange(coeffs.shape[-1]))
    ce = ad.matmul(Tensor(coeffs.reshape(-1, coeffs.shape[-1])), read)
    return ad.add(sp, ce)


def multi_head_attention(
    h_in: Tensor,
    bias: Tensor,
    key_mask: np.ndarray,
    params: dict[str, Tensor],
    num_heads: int,
    queries: np.ndarray | None = None,
    capture: dict | None = None,
) -> Tensor:
    """Biased scaled dot-product attention over B padded subgraphs.

    ``h_in`` is (B*k, d), subgraph-major. ``queries`` picks the flat
    rows that ask (one per subgraph); None means every row (q = k).
    ``bias`` is (B*q*k, H) in ``attention_bias``'s layout, row
    ``(b*q + i)*k + j`` for query i and key j of subgraph b; ``key_mask``
    broadcasts to (B, H, q, k), False on padded keys. One ``attention``
    op runs every head of every subgraph. Returns the (B*q, d) outputs
    of the query rows.
    """
    q_in = h_in if queries is None else ad.embedding_lookup(h_in, queries)
    q, k, v = (ad.linear(x, params["w" + name], params["b" + name])
               for x, name in ((q_in, "q"), (h_in, "k"), (h_in, "v")))
    scale = 1.0 / np.sqrt(h_in.shape[1] // num_heads)
    del q_in, h_in  # no later op reads them: a no-grad forward frees them here
    out, attn = ad.attention(q, k, v, bias, key_mask, num_heads, scale)
    if capture is not None:
        capture.setdefault("attention", []).append(attn.copy())
    del q, k, v, attn
    return ad.linear(out, params["wo"], params["bo"])


def _load_state(params: dict[str, Tensor], state: dict[str, np.ndarray]) -> None:
    """Copy ``state`` into ``params`` in their dtypes, refusing a value beyond one."""
    missing = sorted(set(params) - set(state))
    extra = sorted(set(state) - set(params))
    if missing or extra:
        raise ValueError(f"checkpoint mismatch; missing={missing}, unexpected={extra}")
    for name, tensor in params.items():
        if state[name].shape != tensor.data.shape:
            raise ValueError(
                f"checkpoint parameter {name!r} has shape {state[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
        with np.errstate(over="ignore"):
            value = state[name].astype(tensor.data.dtype)
        if not np.isfinite(value).all():
            raise ValueError(f"checkpoint parameter {name!r} has values beyond the "
                             f"model's {value.dtype} range")
        tensor.data = value


def _cast(params: dict[str, Tensor], dtype: str) -> None:
    """Round each parameter, drawn in float64, to the model's ``dtype`` once."""
    for tensor in params.values():
        tensor.data = tensor.data.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# full models
# ---------------------------------------------------------------------------


class GraphormerModel:
    """Pre-norm transformer blocks over ego subgraphs with structural biases."""

    def __init__(self, cfg: GraphormerConfig, fusion_cfg: FusionConfig, seed: int,
                 store: SubgraphStore | None = None):
        if fusion_cfg.d_model != cfg.d_model:
            raise ValueError("fusion and model widths disagree")
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.fusion = FusionLayer(fusion_cfg, rng)
        d, f = cfg.d_model, cfg.d_ffn
        self.z_in = Tensor(rng.normal(0.0, 0.02, size=(cfg.max_degree_bucket + 1, d)), requires_grad=True)
        self.z_out = Tensor(rng.normal(0.0, 0.02, size=(cfg.max_degree_bucket + 1, d)), requires_grad=True)
        self.spatial_table = Tensor(np.zeros((cfg.num_spd_buckets, cfg.num_heads)), requires_grad=True)
        self.edge_weight = Tensor(
            np.zeros((cfg.max_spd * EDGE_FEATURE_DIM, cfg.num_heads)), requires_grad=True
        )
        self.layers: list[dict[str, Tensor]] = []
        for _ in range(cfg.num_layers):
            self.layers.append({
                "ln1_g": Tensor(np.ones(d), requires_grad=True),
                "ln1_b": Tensor(np.zeros(d), requires_grad=True),
                "wq": Tensor(xavier_init(rng, d, d), requires_grad=True),
                "bq": Tensor(np.zeros(d), requires_grad=True),
                "wk": Tensor(xavier_init(rng, d, d), requires_grad=True),
                "bk": Tensor(np.zeros(d), requires_grad=True),
                "wv": Tensor(xavier_init(rng, d, d), requires_grad=True),
                "bv": Tensor(np.zeros(d), requires_grad=True),
                "wo": Tensor(xavier_init(rng, d, d), requires_grad=True),
                "bo": Tensor(np.zeros(d), requires_grad=True),
                "ln2_g": Tensor(np.ones(d), requires_grad=True),
                "ln2_b": Tensor(np.zeros(d), requires_grad=True),
                "w1": Tensor(xavier_init(rng, d, f), requires_grad=True),
                "b1": Tensor(np.zeros(f), requires_grad=True),
                "w2": Tensor(xavier_init(rng, f, d), requires_grad=True),
                "b2": Tensor(np.zeros(d), requires_grad=True),
            })
        self.head_w = Tensor(xavier_init(rng, d, cfg.num_classes), requires_grad=True)
        self.head_b = Tensor(np.zeros(cfg.num_classes), requires_grad=True)
        _cast(self.parameters(), cfg.dtype)
        self.store = SubgraphStore() if store is None else store

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        out = self.fusion.parameters()
        out["centrality.z_in"] = self.z_in
        out["centrality.z_out"] = self.z_out
        out["spatial.bias"] = self.spatial_table
        out["edge.weight"] = self.edge_weight
        for i, layer in enumerate(self.layers):
            for name, t in layer.items():
                out[f"layer{i}.{name}"] = t
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        _load_state(self.parameters(), state)

    # -- forward ------------------------------------------------------------

    def forward_fused(self, stack: SubgraphStack, x: Tensor, capture: dict | None = None,
                      all_rows: bool = False) -> Tensor:
        """Logits of each subgraph's center row (B, C) from the fused
        (B*k, d) node features, or of every row (B*k, C) with ``all_rows``.

        The last layer works on the center rows only: their query, FFN
        and head; keys and values still cover all nodes. Every layer
        reads the flat (B*k*k, H) ``attention_bias``, the last one its
        (B*k, H) center rows.

        A no-grad forward holds each array only until its last reader has
        run, ``x`` included: a caller keeps no name bound to it.
        """
        cfg = self.cfg
        count, k = stack.nodes.shape
        key_mask = (np.arange(k) < stack.sizes[:, None])[:, None, None, :]
        center_rows = np.arange(count) * k  # each subgraph's node 0
        h = input_embedding(x, stack.in_deg.reshape(-1), stack.out_deg.reshape(-1),
                            self.z_in, self.z_out, cfg.max_degree_bucket)
        del x
        bias = attention_bias(stack, self.spatial_table, self.edge_weight)
        last = len(self.layers) - 1
        if self.layers and not all_rows:
            # the last layer's center rows, pairs (c, 0..k-1) from flat pair c * k. Looked up
            # before the loop, so backward adds their gradient after summing the other layers'
            # bias gradients rather than into that sum: the float order fixes the trained bits.
            rows = (center_rows[:, None] * k + np.arange(k)).reshape(-1)
            center_bias = ad.embedding_lookup(bias, rows)
        for i, layer in enumerate(self.layers):
            queries = None if all_rows or i < last else center_rows
            a = multi_head_attention(
                ad.layer_norm(h, layer["ln1_g"], layer["ln1_b"]),
                bias if queries is None else center_bias, key_mask, layer, cfg.num_heads,
                queries=queries, capture=capture,
            )
            if queries is not None:
                h = ad.embedding_lookup(h, queries)
            h = ad.add(h, a)
            del a
            z = ad.layer_norm(h, layer["ln2_g"], layer["ln2_b"])
            z = ad.linear(ad.relu(ad.linear(z, layer["w1"], layer["b1"])), layer["w2"], layer["b2"])
            h = ad.add(h, z)
            del z
        if not self.layers and not all_rows:
            h = ad.embedding_lookup(h, center_rows)
        return ad.linear(h, self.head_w, self.head_b)

    def _fused_rows(self, stack: SubgraphStack, bundle) -> Tensor:
        """(B*k, d) fused features: the sorted union of the stack's real
        nodes is fused once, then gathered into rows (padding gathers
        union row 0)."""
        real = stack.nodes >= 0
        union, inverse = np.unique(stack.nodes[real], return_inverse=True)
        rows = np.zeros(stack.nodes.shape, dtype=np.int64)
        rows[real] = inverse
        fused = self.fusion.fuse(self.fusion.source_rows(bundle, union))
        return ad.embedding_lookup(fused, rows.reshape(-1))

    def forward(self, stack: SubgraphStack, bundle, capture: dict | None = None) -> Tensor:
        """(B*k, C) logits of every row of ``stack``, padding rows included;
        ``capture["attention"]`` gets one (B, H, k, k) array per layer."""
        return self.forward_fused(stack, self._fused_rows(stack, bundle), capture=capture,
                                  all_rows=True)

    # -- batching -----------------------------------------------------------

    def batch_for(self, center: int, seed: int) -> SubgraphBatch:
        """The store's entry of ``center`` under ``seed``, which
        ``build_centers`` made."""
        return self.store.entries[(center, seed)]

    def build_centers(self, data, centers, seed: int) -> None:
        """Build the store's missing entries of ``centers`` under this model's
        config, so that later forwards over them only look them up."""
        self.store.build(data.graph, self.cfg, centers, seed)

    def logits_for_centers(self, data, centers, seed: int) -> Tensor:
        """(B, C) center-node logits from one padded forward over the
        centers' stored subgraphs; the ones not stored yet are built first."""
        centers = [int(c) for c in centers]
        if not centers:
            raise ValueError("logits_for_centers got an empty center list")
        self.build_centers(data, centers, seed)
        stack = stack_batches(data.graph, [self.batch_for(c, seed) for c in centers])
        return self.forward_fused(stack, self._fused_rows(stack, data.bundle))


class FusedMlp:
    """Structure-free baseline: fused node features through a two-layer MLP.

    No neighborhood, no degree tables, no attention; this is the
    "sources only" configuration of the ablation table.
    """

    def __init__(self, cfg: GraphormerConfig, fusion_cfg: FusionConfig, seed: int):
        if fusion_cfg.d_model != cfg.d_model:
            raise ValueError("fusion and model widths disagree")
        self.cfg = cfg  # predict chunks by its pass_centers, as for the graph transformer
        rng = np.random.default_rng(seed)
        self.fusion = FusionLayer(fusion_cfg, rng)
        d, f = cfg.d_model, cfg.d_ffn
        self.w1 = Tensor(xavier_init(rng, d, f), requires_grad=True)
        self.b1 = Tensor(np.zeros(f), requires_grad=True)
        self.w2 = Tensor(xavier_init(rng, f, cfg.num_classes), requires_grad=True)
        self.b2 = Tensor(np.zeros(cfg.num_classes), requires_grad=True)
        _cast(self.parameters(), cfg.dtype)

    def parameters(self) -> dict[str, Tensor]:
        out = self.fusion.parameters()
        out.update({"mlp.w1": self.w1, "mlp.b1": self.b1, "mlp.w2": self.w2, "mlp.b2": self.b2})
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        _load_state(self.parameters(), state)

    def build_centers(self, data, centers, seed: int) -> None:
        """Nothing to build: the baseline reads no subgraphs."""

    def logits_for_centers(self, data, centers, seed: int) -> Tensor:
        rows = self.fusion.source_rows(data.bundle, np.array(centers, dtype=np.int64))
        h = ad.relu(ad.linear(self.fusion.fuse(rows), self.w1, self.b1))
        return ad.linear(h, self.w2, self.b2)


_KINDS = ("graphormer", "mlp")


def check_kind(kind: str) -> None:
    """``kind`` names a model ``build_model`` builds."""
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}; use {' or '.join(_KINDS)}")


def build_model(cfg: GraphormerConfig, kind: str, sources, source_dims: dict[str, int],
                seed: int, store: SubgraphStore | None = None):
    """The graph transformer (``kind="graphormer"``) over ``store``, or the
    structure-free baseline (``"mlp"``), over the fusion of ``sources``."""
    check_kind(kind)
    fusion_cfg = FusionConfig(d_model=cfg.d_model, source_dims=source_dims, active=sources)
    if kind == "mlp":
        return FusedMlp(cfg, fusion_cfg, seed=seed)
    return GraphormerModel(cfg, fusion_cfg, seed=seed, store=store)
