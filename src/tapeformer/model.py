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
from .structural import EDGE_FEATURE_DIM, SpdMatrix, bfs_spd, build_path_features, local_adjacency

__all__ = [
    "GraphormerParams",
    "GraphormerConfig",
    "SubgraphBatch",
    "SubgraphStack",
    "build_batch",
    "stack_batches",
    "GraphormerModel",
    "FusedMlp",
    "build_model",
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
    dropout: float = 0.0
    ln_eps: float = 1e-12

    def __post_init__(self):
        for name, low in (("num_layers", 0), ("num_heads", 1), ("d_model", 1), ("d_ffn", 1),
                          ("max_spd", 1), ("max_degree_bucket", 0), ("ego_hops", 1),
                          ("ego_max_nodes", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")
        if not self.ln_eps > 0.0:
            raise ValueError(f"ln_eps must be > 0, got {self.ln_eps}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    def for_classes(self, num_classes: int) -> GraphormerConfig:
        """These hyperparameters as the model config for ``num_classes`` classes."""
        return GraphormerConfig(num_classes=num_classes, **{
            f.name: getattr(self, f.name) for f in fields(GraphormerParams)})


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


def _path_coeffs(table: np.ndarray, index: np.ndarray, cap: int) -> np.ndarray:
    """(..., k, k, cap * EDGE_FEATURE_DIM): position p holds row t of ``table``
    divided by N where ``index[..., p]`` is t * cap + N - 1, so that
    ``path_coeffs @ edge_weight`` is the averaged edge term of each pair."""
    # one copy of each row per path length N, divided by N: a true division,
    # not a product with 1/N, so the coefficients are the quotient bit for bit
    scaled = table[:, None, :] / np.arange(1, cap + 1, dtype=np.float64)[:, None]
    out = np.take(scaled.reshape(-1, table.shape[1]), index, axis=0)
    return out.reshape(*index.shape[:-1], -1)


@dataclass
class SubgraphBatch:
    """One subgraph's row of a ``SubgraphStack``, without padding: the
    compact form the batch cache holds per center. Degrees are read off
    the graph and the distance cap is ``path_index.shape[-1]``."""

    nodes: np.ndarray  # global ids (k,), the center first
    dist: np.ndarray  # (k, k) int8 capped distances (wider past max_spd 126)
    edge_table: np.ndarray  # (m + 1, EDGE_FEATURE_DIM): a zero row, then the directed local edges
    path_index: np.ndarray  # (k, k, max_spd) t * max_spd + N - 1 (0: no step), narrowest uint


@dataclass
class SubgraphStack:
    """The encodings of B padded ego subgraphs: everything the forward
    pass consumes, padded to the width ``k`` of the largest subgraph,
    pair arrays as (B, k, k, ...). Row ``b * k + i`` of a (B*k, ...)
    reshape is node i of subgraph b, and pair ``(b * k + i) * k + j`` of
    a (B*k*k, ...) one is its pair (i, j); node 0 of each subgraph is its
    center. ``path_index`` is each entry's, offset to its block of
    ``edge_table``; ``path_coeffs`` is built on first read."""

    sizes: np.ndarray  # (B,)
    nodes: np.ndarray  # (B, k), -1 on padding
    spd: SpdMatrix  # dist (B, k, k) int64
    edge_table: np.ndarray  # (rows, EDGE_FEATURE_DIM), a block per subgraph
    edge_offsets: np.ndarray  # (B + 1,)
    path_index: np.ndarray  # (B, k, k, max_spd) int64
    in_deg: np.ndarray  # (B, k), 0 on padding
    out_deg: np.ndarray  # (B, k), 0 on padding

    @property
    def spd_buckets(self) -> np.ndarray:
        return self.spd.dist

    @cached_property
    def path_coeffs(self) -> np.ndarray:
        """(B, k, k, max_spd * EDGE_FEATURE_DIM) averaged path features."""
        return _path_coeffs(self.edge_table, self.path_index, self.spd.cap)

    def split(self) -> list[SubgraphBatch]:
        """One ``SubgraphBatch`` per subgraph. Each owns compact copies of
        its rows: a view would keep the whole padded stack alive."""
        cap, out = self.spd.cap, []
        for b, n in enumerate(self.sizes.tolist()):
            lo, hi = self.edge_offsets[b], self.edge_offsets[b + 1]
            out.append(SubgraphBatch(
                nodes=self.nodes[b, :n].copy(),
                dist=self.spd.dist[b, :n, :n].astype(np.min_scalar_type(-cap - 1)),
                edge_table=self.edge_table[lo:hi].copy(),
                path_index=(self.path_index[b, :n, :n] - lo * cap).astype(
                    np.min_scalar_type((hi - lo) * cap - 1)),
            ))
        return out


def _degrees(g: DirectedGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(in, out) full-graph degrees of ``nodes``, 0 where a node is -1."""
    real = nodes >= 0
    return (np.where(real, g.in_offsets[nodes + 1] - g.in_offsets[nodes], 0),
            np.where(real, g.out_offsets[nodes + 1] - g.out_offsets[nodes], 0))


def build_batch(g: DirectedGraph, stack: EgoStack, cfg: GraphormerConfig) -> SubgraphStack:
    """Run the structural encodings for every subgraph of ``stack`` in one
    pass; ``split`` gives each subgraph's ``SubgraphBatch``."""
    adj = local_adjacency(stack)
    spd = bfs_spd(stack, cap=cfg.max_spd, adj=adj)
    paths = build_path_features(g, stack, spd, adj=adj)
    cap = spd.cap
    # row t of block b on a path of length N becomes (offset_b + t) * cap + N - 1,
    # no step (t = 0) the block's zero row, offset_b * cap; in place, so that the
    # pass holds one (B, k, k, cap) array beside the path features' own
    index = paths.index + paths.offsets[:-1, None, None, None]
    index *= cap
    np.add(index, np.clip(spd.dist, 1, cap)[..., None] - 1, out=index, where=paths.index > 0)
    in_deg, out_deg = _degrees(g, stack.nodes)
    return SubgraphStack(
        sizes=stack.sizes,
        nodes=stack.nodes,
        spd=spd,
        edge_table=paths.table,
        edge_offsets=paths.offsets,
        path_index=index,
        in_deg=in_deg,
        out_deg=out_deg,
    )


def stack_batches(g: DirectedGraph, batches: Sequence[SubgraphBatch]) -> SubgraphStack:
    """Pad ``batches`` to the largest subgraph and stack them, the inverse
    of ``SubgraphStack.split``, with the degrees read off ``g``: padding
    reads -1 in ``nodes`` and 0 in the other arrays (``path_index`` then
    reads its block's zero row); the forward rebuilds ``path_coeffs``."""
    sizes = np.array([len(b.nodes) for b in batches])
    count, k, cap = len(batches), int(sizes.max()), batches[0].path_index.shape[-1]
    offsets = np.append(0, np.cumsum([len(b.edge_table) for b in batches]))
    nodes = np.full((count, k), -1, dtype=np.int64)
    dist = np.zeros((count, k, k), dtype=np.int64)
    index = np.zeros((count, k, k, cap), dtype=np.int64)
    for i, (b, n) in enumerate(zip(batches, sizes.tolist())):
        nodes[i, :n] = b.nodes
        dist[i, :n, :n] = b.dist
        index[i, :n, :n] = b.path_index
    index += cap * offsets[:-1, None, None, None]  # into each entry's block
    in_deg, out_deg = _degrees(g, nodes)
    return SubgraphStack(
        sizes=sizes, nodes=nodes, spd=SpdMatrix(dist=dist, cap=cap),
        edge_table=np.concatenate([b.edge_table for b in batches]), edge_offsets=offsets,
        path_index=index, in_deg=in_deg, out_deg=out_deg,
    )


# the most padded pairs (centers x ego_max_nodes**2) one build pass encodes:
# 64 centers at ego_max_nodes=16, 16 at 32; a pass holds at least one center
BUILD_PASS_PAIRS = 16_384


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
    zero edge term, unreachable pairs hit the dedicated last bucket.
    """
    coeffs = stack.path_coeffs
    sp = ad.embedding_lookup(spatial_table, stack.spd_buckets.reshape(-1))
    ce = ad.matmul(Tensor(coeffs.reshape(-1, coeffs.shape[-1])), edge_weight)
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
    out, attn = ad.attention(q, k, v, bias, key_mask, num_heads, scale)
    if capture is not None:
        capture.setdefault("attention", []).append(attn.copy())
    return ad.linear(out, params["wo"], params["bo"])


def _load_state(params: dict[str, Tensor], state: dict[str, np.ndarray]) -> None:
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
        tensor.data = state[name].astype(np.float64).copy()


# ---------------------------------------------------------------------------
# full models
# ---------------------------------------------------------------------------


class GraphormerModel:
    """Pre-norm transformer blocks over ego subgraphs with structural biases."""

    def __init__(self, cfg: GraphormerConfig, fusion_cfg: FusionConfig, seed: int = 0):
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
        self._batch_cache: dict[tuple[int, int], SubgraphBatch] = {}

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

    def forward_fused(
        self,
        stack: SubgraphStack,
        x: Tensor,
        train: bool = False,
        rng: np.random.Generator | None = None,
        capture: dict | None = None,
        all_rows: bool = False,
    ) -> Tensor:
        """Logits of each subgraph's center row (B, C) from the fused
        (B*k, d) node features, or of every row (B*k, C) with ``all_rows``.

        The last layer works on the center rows only: their query, FFN
        and head; keys and values still cover all nodes. Every layer
        reads the flat (B*k*k, H) ``attention_bias``, the last one its
        (B*k, H) center rows.
        """
        cfg = self.cfg
        count, k = stack.nodes.shape
        key_mask = (np.arange(k) < stack.sizes[:, None])[:, None, None, :]
        center_rows = np.arange(count) * k  # each subgraph's node 0
        h = input_embedding(x, stack.in_deg.reshape(-1), stack.out_deg.reshape(-1),
                            self.z_in, self.z_out, cfg.max_degree_bucket)
        bias = attention_bias(stack, self.spatial_table, self.edge_weight)
        drop = cfg.dropout if train else 0.0
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
                ad.layer_norm(h, layer["ln1_g"], layer["ln1_b"], cfg.ln_eps),
                bias if queries is None else center_bias, key_mask, layer, cfg.num_heads,
                queries=queries, capture=capture,
            )
            if queries is not None:
                h = ad.embedding_lookup(h, queries)
            if drop > 0.0:
                a = ad.dropout(a, drop, rng)
            h = ad.add(h, a)
            z = ad.layer_norm(h, layer["ln2_g"], layer["ln2_b"], cfg.ln_eps)
            z = ad.linear(ad.relu(ad.linear(z, layer["w1"], layer["b1"])), layer["w2"], layer["b2"])
            if drop > 0.0:
                z = ad.dropout(z, drop, rng)
            h = ad.add(h, z)
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
        fused = self.fusion.fuse({s: bundle.source(s)[union] for s in self.fusion.cfg.active})
        return ad.embedding_lookup(fused, rows.reshape(-1))

    def forward(self, stack: SubgraphStack, bundle, train: bool = False,
                rng: np.random.Generator | None = None, capture: dict | None = None) -> Tensor:
        """(B*k, C) logits of every row of ``stack``, padding rows included;
        ``capture["attention"]`` gets one (B, H, k, k) array per layer."""
        x = self._fused_rows(stack, bundle)
        return self.forward_fused(stack, x, train=train, rng=rng, capture=capture, all_rows=True)

    # -- batching -----------------------------------------------------------

    def batch_for(self, center: int, seed: int) -> SubgraphBatch:
        """The cached entry of ``center`` under ``seed``, which
        ``build_centers`` made."""
        return self._batch_cache[(center, seed)]

    def build_centers(self, data, centers, seed: int) -> None:
        """Sample, encode and cache every center of ``centers`` not cached
        yet, in batched passes of at most ``BUILD_PASS_PAIRS`` padded
        pairs, so that later forwards over them only look their entries
        up. A subgraph's sample depends only on its center and ``seed``,
        so the pass it is built in does not change its entry."""
        g = data.graph
        missing = [c for c in dict.fromkeys(map(int, centers)) if (c, seed) not in self._batch_cache]
        if not missing:
            return
        check_centers(g, missing)  # every center, before a pass caches any
        per_pass = max(1, BUILD_PASS_PAIRS // self.cfg.ego_max_nodes ** 2)
        for lo in range(0, len(missing), per_pass):
            part = missing[lo:lo + per_pass]
            subs = sample_ego_subgraph(g, part, self.cfg.ego_hops, self.cfg.ego_max_nodes, seed)
            for c, batch in zip(part, build_batch(g, subs, self.cfg).split()):
                self._batch_cache[(c, seed)] = batch

    def logits_for_centers(
        self,
        data,
        centers,
        seed: int,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """(B, C) center-node logits from one padded forward over the
        centers' cached subgraphs; the ones not cached yet are built first."""
        centers = [int(c) for c in centers]
        if not centers:
            raise ValueError("logits_for_centers got an empty center list")
        self.build_centers(data, centers, seed)
        stack = stack_batches(data.graph, [self.batch_for(c, seed) for c in centers])
        return self.forward_fused(stack, self._fused_rows(stack, data.bundle), train=train, rng=rng)


class FusedMlp:
    """Structure-free baseline: fused node features through a two-layer MLP.

    No neighborhood, no degree tables, no attention; this is the
    "sources only" configuration of the ablation table.
    """

    def __init__(self, cfg: GraphormerConfig, fusion_cfg: FusionConfig, seed: int = 0):
        if fusion_cfg.d_model != cfg.d_model:
            raise ValueError("fusion and model widths disagree")
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.fusion = FusionLayer(fusion_cfg, rng)
        d, f = cfg.d_model, cfg.d_ffn
        self.w1 = Tensor(xavier_init(rng, d, f), requires_grad=True)
        self.b1 = Tensor(np.zeros(f), requires_grad=True)
        self.w2 = Tensor(xavier_init(rng, f, cfg.num_classes), requires_grad=True)
        self.b2 = Tensor(np.zeros(cfg.num_classes), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        out = self.fusion.parameters()
        out.update({"mlp.w1": self.w1, "mlp.b1": self.b1, "mlp.w2": self.w2, "mlp.b2": self.b2})
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        _load_state(self.parameters(), state)

    def build_centers(self, data, centers, seed: int) -> None:
        """Nothing to build: the baseline reads no subgraphs."""

    def logits_for_centers(self, data, centers, seed: int = 0, train: bool = False,
                           rng: np.random.Generator | None = None) -> Tensor:
        idx = np.asarray(centers, dtype=np.int64)
        rows = {s: data.bundle.source(s)[idx] for s in self.fusion.cfg.active}
        x = self.fusion.fuse(rows)
        h = ad.relu(ad.linear(x, self.w1, self.b1))
        if train and self.cfg.dropout > 0.0:
            h = ad.dropout(h, self.cfg.dropout, rng)
        return ad.linear(h, self.w2, self.b2)


def build_model(cfg: GraphormerConfig, kind: str, sources, source_dims: dict[str, int],
                seed: int):
    """The graph transformer (``kind="graphormer"``) or the structure-free
    baseline (``"mlp"``) over the fusion of ``sources``."""
    classes = {"graphormer": GraphormerModel, "mlp": FusedMlp}
    if kind not in classes:
        raise ValueError(f"unknown model kind {kind!r}; use graphormer or mlp")
    fusion_cfg = FusionConfig(d_model=cfg.d_model, source_dims=source_dims, active=sources)
    return classes[kind](cfg, fusion_cfg, seed=seed)
