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
gradients reach the edge weight tables without bespoke ops. A
micro-batch of subgraphs runs as one padded stack: every layer works on
(B*k, d) activations and all heads of all subgraphs attend at once, in
fused engine ops: ``layer_norm``, ``linear`` and one ``attention``.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fusion import FusionConfig, FusionLayer, xavier_init
from .graph import DirectedGraph, EgoStack, EgoSubgraph, check_centers, sample_ego_subgraph
from .structural import SpdMatrix, bfs_spd, build_path_features, local_adjacency

__all__ = [
    "GraphormerParams",
    "GraphormerConfig",
    "SubgraphBatch",
    "SubgraphStack",
    "MicroBatch",
    "build_batch",
    "stack_batches",
    "GraphormerModel",
    "FusedMlp",
    "build_model",
    "input_embedding",
    "attention_bias",
    "multi_head_attention",
    "subgraph_seed",
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
    d_edge_feature: int = 3
    ego_hops: int = 2
    ego_max_nodes: int = 32
    dropout: float = 0.0
    ln_eps: float = 1e-12

    def __post_init__(self):
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")
        if self.max_spd < 1:
            raise ValueError("max_spd must be >= 1")
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


@dataclass
class SubgraphBatch:
    """An ego subgraph with everything the forward pass consumes."""

    nodes: np.ndarray  # global ids (k,)
    center_local: int
    spd: SpdMatrix
    path_coeffs: np.ndarray  # (k*k, max_spd * d_edge) averaged path features
    in_deg: np.ndarray  # (k,) full-graph in-degrees
    out_deg: np.ndarray  # (k,) full-graph out-degrees

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def spd_buckets(self) -> np.ndarray:
        """(k*k,) flattened bucket indices: a view of ``spd.dist``."""
        return self.spd.dist.reshape(-1)


@dataclass
class SubgraphStack:
    """The encodings of an ``EgoStack``, built in one pass: the fields of
    ``SubgraphBatch`` with a leading subgraph axis, padded to the width
    ``k`` of the largest subgraph, pair arrays as (B, k, k, ...)."""

    sizes: np.ndarray  # (B,)
    nodes: np.ndarray  # (B, k), -1 on padding
    center_local: np.ndarray  # (B,)
    spd: SpdMatrix  # dist (B, k, k)
    path_coeffs: np.ndarray  # (B, k, k, max_spd * d_edge)
    in_deg: np.ndarray  # (B, k)
    out_deg: np.ndarray  # (B, k)

    @property
    def spd_buckets(self) -> np.ndarray:
        return self.spd.dist

    def split(self) -> list[SubgraphBatch]:
        """One ``SubgraphBatch`` per subgraph. Each owns compact copies of
        its rows: a view would keep the whole padded stack alive."""
        out = []
        for b, n in enumerate(self.sizes.tolist()):
            out.append(SubgraphBatch(
                nodes=self.nodes[b, :n].copy(),
                center_local=int(self.center_local[b]),
                spd=SpdMatrix(dist=self.spd.dist[b, :n, :n].copy(), cap=self.spd.cap),
                path_coeffs=self.path_coeffs[b, :n, :n].copy().reshape(n * n, -1),
                in_deg=self.in_deg[b, :n].copy(),
                out_deg=self.out_deg[b, :n].copy(),
            ))
        return out


def build_batch(
    g: DirectedGraph,
    sub: EgoSubgraph | EgoStack,
    cfg: GraphormerConfig,
    edge_feature_fn=None,
) -> SubgraphBatch | SubgraphStack:
    """Run the structural encodings for one subgraph, or for every
    subgraph of an ``EgoStack`` in one pass (a ``SubgraphStack``, whose
    ``split`` gives each its ``SubgraphBatch``). One subgraph is built
    as a stack of one.

    ``path_coeffs`` row (i*k + j) holds the path's per-position edge
    features divided by its length N, laid out position-major, so that
    ``path_coeffs @ edge_weight`` is exactly the average-dot-product
    edge term for every pair at once.
    """
    stack = sub if isinstance(sub, EgoStack) else EgoStack.of(sub)
    adj = local_adjacency(stack)
    spd = bfs_spd(stack, cap=cfg.max_spd, adj=adj)
    paths = build_path_features(g, stack, spd, edge_feature_fn=edge_feature_fn, adj=adj)
    if paths.dim != cfg.d_edge_feature:
        raise ValueError(
            f"edge features have dim {paths.dim}, config says {cfg.d_edge_feature}"
        )
    # a true division, not a product with 1/N: the coefficients are pinned
    # to the quotient bit for bit
    n = np.maximum(paths.lengths, 1).astype(np.float64)
    nodes = stack.nodes  # padding (-1) reads some node's degree; split drops it
    built = SubgraphStack(
        sizes=stack.sizes,
        nodes=nodes,
        center_local=stack.center_local,
        spd=spd,
        path_coeffs=(paths.steps / n[..., None, None]).reshape(*n.shape, -1),
        in_deg=g.in_offsets[nodes + 1] - g.in_offsets[nodes],
        out_deg=g.out_offsets[nodes + 1] - g.out_offsets[nodes],
    )
    return built if stack is sub else built.split()[0]


@dataclass
class MicroBatch:
    """Subgraphs padded to a common width ``k`` and stacked.

    Row ``b * k + i`` of each flat array is node ``i`` of subgraph
    ``b``; rows past a subgraph's size are padding, which ``key_mask``
    hides from attention. Pair arrays are flat the same way: row
    ``(b * k + i) * k + j`` holds the pair (i, j) of subgraph ``b``.
    """

    union: np.ndarray  # (U,) sorted global ids of every node in the micro-batch
    rows: np.ndarray  # (B*k,) each row's index into ``union`` (0 on padding)
    key_mask: np.ndarray  # (B, 1, 1, k) True on real nodes
    spd_buckets: np.ndarray  # (B*k*k,) 0 on padding
    path_coeffs: np.ndarray  # (B*k*k, max_spd * d_edge) zero on padding
    in_deg: np.ndarray  # (B*k,)
    out_deg: np.ndarray  # (B*k,)
    center_rows: np.ndarray  # (B,) flat row of each subgraph's center

    @property
    def width(self) -> int:
        return self.key_mask.shape[-1]


def stack_batches(batches: Sequence[SubgraphBatch]) -> MicroBatch:
    """Pad ``batches`` to the largest subgraph and stack them."""
    sizes = np.array([b.num_nodes for b in batches])
    count, k = len(batches), int(sizes.max())
    real = np.arange(k) < sizes[:, None]  # (B, k)
    union, inverse = np.unique(np.concatenate([b.nodes for b in batches]), return_inverse=True)

    def padded(values):  # one value per real node, subgraph-major -> (B*k,)
        out = np.zeros((count, k), dtype=np.int64)
        out[real] = values
        return out.reshape(-1)

    spd = np.zeros((count, k, k), dtype=np.int64)
    coeffs = np.zeros((count, k, k, batches[0].path_coeffs.shape[1]))
    for i, b in enumerate(batches):
        n = b.num_nodes
        spd[i, :n, :n] = b.spd_buckets.reshape(n, n)
        coeffs[i, :n, :n] = b.path_coeffs.reshape(n, n, -1)
    return MicroBatch(
        union=union,
        rows=padded(inverse),
        key_mask=real[:, None, None, :],
        spd_buckets=spd.reshape(-1),
        path_coeffs=coeffs.reshape(count * k * k, -1),
        in_deg=padded(np.concatenate([b.in_deg for b in batches])),
        out_deg=padded(np.concatenate([b.out_deg for b in batches])),
        center_rows=np.arange(count) * k + np.array([b.center_local for b in batches]),
    )


def subgraph_seed(base_seed: int, center: int) -> int:
    """Stable per-center sampling seed, independent of batch composition."""
    return int(np.random.SeedSequence([base_seed, center]).generate_state(1)[0])


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


def attention_bias(batch, spatial_table: Tensor, edge_weight: Tensor) -> Tensor:
    """(pairs, heads) additive attention-logit bias of a ``SubgraphBatch``
    or a ``MicroBatch``, one row per flat pair.

    Column h, row i*k+j is the head's distance-bucket scalar plus its
    edge term; the diagonal hits the distance-0 bucket with a zero edge
    term, unreachable pairs hit the dedicated last bucket.
    """
    sp = ad.embedding_lookup(spatial_table, batch.spd_buckets)
    ce = ad.matmul(Tensor(batch.path_coeffs), edge_weight)
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
    ``bias`` is (B, H, q, k) and ``key_mask`` broadcasts to it, False on
    padded keys. Heads are split by reshape and axis permutation, so
    every head of every subgraph runs in one ``attention`` op.
    Returns the (B*q, d) outputs of the query rows.
    """
    count, d_model = bias.shape[0], h_in.shape[1]
    k, dh = h_in.shape[0] // count, d_model // num_heads
    q_in = h_in if queries is None else ad.embedding_lookup(h_in, queries)
    nq = q_in.shape[0] // count

    def split(x: Tensor, name: str, rows: int, axes) -> Tensor:
        y = ad.linear(x, params["w" + name], params["b" + name])
        return ad.permute(ad.reshape(y, (count, rows, num_heads, dh)), axes)

    q = split(q_in, "q", nq, (0, 2, 1, 3))  # (B, H, q, dh)
    kt = split(h_in, "k", k, (0, 2, 3, 1))  # (B, H, dh, k)
    v = split(h_in, "v", k, (0, 2, 1, 3))  # (B, H, k, dh)
    out, attn = ad.attention(q, kt, v, bias, key_mask, 1.0 / np.sqrt(dh))
    if capture is not None:
        capture.setdefault("attention", []).append(attn.copy())
    out = ad.reshape(ad.permute(out, (0, 2, 1, 3)), (count * nq, d_model))
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
            np.zeros((cfg.max_spd * cfg.d_edge_feature, cfg.num_heads)), requires_grad=True
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
        batch: MicroBatch,
        x: Tensor,
        train: bool = False,
        rng: np.random.Generator | None = None,
        capture: dict | None = None,
        all_rows: bool = False,
    ) -> Tensor:
        """Logits of each subgraph's center row (B, C) from the fused
        (B*k, d) node features, or of every row (B*k, C) with ``all_rows``.

        The last layer works on the center rows only: their query, FFN
        and head; keys and values still cover all nodes.
        """
        cfg = self.cfg
        count, k = len(batch.center_rows), batch.width
        h = input_embedding(x, batch.in_deg, batch.out_deg, self.z_in, self.z_out,
                            cfg.max_degree_bucket)
        bias_flat = attention_bias(batch, self.spatial_table, self.edge_weight)

        def heads_first(flat: Tensor, rows: int) -> Tensor:  # (B*rows*k, H) -> (B, H, rows, k)
            return ad.permute(ad.reshape(flat, (count, rows, k, cfg.num_heads)), (0, 3, 1, 2))

        bias = heads_first(bias_flat, k)
        drop = cfg.dropout if train else 0.0
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            queries = None if all_rows or i < last else batch.center_rows
            if queries is not None:
                # a center's bias row: pairs (c, 0..k-1) start at flat pair c * k
                rows = (queries[:, None] * k + np.arange(k)).reshape(-1)
                bias = heads_first(ad.embedding_lookup(bias_flat, rows), 1)
            a = multi_head_attention(
                ad.layer_norm(h, layer["ln1_g"], layer["ln1_b"], cfg.ln_eps),
                bias, batch.key_mask, layer, cfg.num_heads, queries=queries, capture=capture,
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
            h = ad.embedding_lookup(h, batch.center_rows)
        return ad.linear(h, self.head_w, self.head_b)

    def _fused_rows(self, batch: MicroBatch, bundle) -> Tensor:
        """(B*k, d) fused features: the union of the micro-batch's nodes
        is fused once, then gathered into rows."""
        union = {s: bundle.source(s)[batch.union] for s in self.fusion.cfg.active}
        return ad.embedding_lookup(self.fusion.fuse(union), batch.rows)

    def forward(self, batch: SubgraphBatch, bundle, train: bool = False,
                rng: np.random.Generator | None = None, capture: dict | None = None) -> Tensor:
        """(k, C) logits of every node of one subgraph."""
        stacked = stack_batches([batch])
        x = self._fused_rows(stacked, bundle)
        return self.forward_fused(stacked, x, train=train, rng=rng, capture=capture, all_rows=True)

    # -- batching -----------------------------------------------------------

    def batch_for(self, g: DirectedGraph, center: int, seed: int) -> SubgraphBatch:
        key = (center, seed)
        if key not in self._batch_cache:
            self._build_missing(g, [center], seed)
        return self._batch_cache[key]

    def _build_missing(self, g: DirectedGraph, centers: list[int], seed: int) -> None:
        """Sample and build every center of ``centers`` not yet cached,
        all in one batched pass, and cache each one's batch."""
        missing = [c for c in dict.fromkeys(centers) if (c, seed) not in self._batch_cache]
        if not missing:
            return
        check_centers(g, missing)  # before a negative center reaches subgraph_seed
        subs = sample_ego_subgraph(
            g, missing, hops=self.cfg.ego_hops, max_nodes=self.cfg.ego_max_nodes,
            rng_seed=[subgraph_seed(seed, c) for c in missing],
        )
        for c, batch in zip(missing, build_batch(g, subs, self.cfg).split()):
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
        centers' cached subgraphs; the ones not cached yet are built
        together first."""
        centers = [int(c) for c in centers]
        self._build_missing(data.graph, centers, seed)
        batch = stack_batches([self.batch_for(data.graph, c, seed) for c in centers])
        return self.forward_fused(batch, self._fused_rows(batch, data.bundle), train=train, rng=rng)


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
