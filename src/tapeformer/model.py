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
gradients reach the edge weight tables without bespoke ops.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fusion import FusionConfig, FusionLayer, xavier_init
from .graph import DirectedGraph, EgoSubgraph, sample_ego_subgraph
from .structural import SpdMatrix, bfs_spd, build_path_features, local_adjacency

__all__ = [
    "GraphormerConfig",
    "SubgraphBatch",
    "build_batch",
    "GraphormerModel",
    "FusedMlp",
    "input_embedding",
    "edge_encoding_cij",
    "attention_bias",
    "multi_head_attention",
    "subgraph_seed",
]


@dataclass
class GraphormerConfig:
    num_classes: int
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
            raise ValueError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        if self.max_spd < 1:
            raise ValueError("max_spd must be >= 1")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.num_heads

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
    spd_buckets: np.ndarray  # (k*k,) flattened bucket indices
    path_coeffs: np.ndarray  # (k*k, max_spd * d_edge) averaged path features
    in_deg: np.ndarray  # (k,) full-graph in-degrees
    out_deg: np.ndarray  # (k,) full-graph out-degrees

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def build_batch(
    g: DirectedGraph,
    sub: EgoSubgraph,
    cfg: GraphormerConfig,
    edge_feature_fn=None,
) -> SubgraphBatch:
    """Run the structural encodings for one subgraph.

    ``path_coeffs`` row (i*k + j) holds the path's per-position edge
    features divided by its length N, laid out position-major, so that
    ``path_coeffs @ edge_weight`` is exactly the average-dot-product
    edge term for every pair at once.
    """
    adj = local_adjacency(sub)
    spd = bfs_spd(sub, cap=cfg.max_spd, adj=adj)
    paths = build_path_features(g, sub, spd, edge_feature_fn=edge_feature_fn, adj=adj)
    if paths.dim != cfg.d_edge_feature:
        raise ValueError(
            f"edge features have dim {paths.dim}, config says {cfg.d_edge_feature}"
        )
    k = sub.num_nodes
    # a true division, not a product with 1/N: the coefficients are pinned
    # to the quotient bit for bit
    n = np.maximum(paths.lengths, 1).astype(np.float64)
    coeffs = (paths.steps / n[:, :, None, None]).reshape(k * k, -1)
    return SubgraphBatch(
        nodes=sub.nodes.copy(),
        center_local=sub.node_map[sub.center],
        spd=spd,
        spd_buckets=spd.dist.reshape(-1).copy(),
        path_coeffs=coeffs,
        in_deg=g.in_degrees()[sub.nodes],
        out_deg=g.out_degrees()[sub.nodes],
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


def edge_encoding_cij(path_feats: np.ndarray, edge_weight: np.ndarray, head: int,
                      d_edge: int) -> float:
    """Reference form of the per-pair edge term for one head.

    Average over path positions of x_e . w_n: ``edge_weight`` has shape
    (max_spd * d_edge, heads) with position-major rows. The identical
    quantity is produced in batch by ``path_coeffs @ edge_weight``.
    """
    n = path_feats.shape[0]
    if n == 0:
        return 0.0
    total = 0.0
    for pos in range(n):
        w_n = edge_weight[pos * d_edge : (pos + 1) * d_edge, head]
        total += float(path_feats[pos] @ w_n)
    return total / n


def attention_bias(batch: SubgraphBatch, spatial_table: Tensor, edge_weight: Tensor) -> Tensor:
    """(k*k, heads) additive attention-logit bias.

    Column h, row i*k+j is the head's distance-bucket scalar plus its
    edge term; the diagonal hits the distance-0 bucket with a zero edge
    term, unreachable pairs hit the dedicated last bucket.
    """
    sp = ad.embedding_lookup(spatial_table, batch.spd_buckets)
    ce = ad.matmul(Tensor(batch.path_coeffs), edge_weight)
    return ad.add(sp, ce)


def multi_head_attention(
    h_in: Tensor,
    bias_flat: Tensor,
    params: dict[str, Tensor],
    num_heads: int,
    capture: dict | None = None,
) -> Tensor:
    """Biased scaled dot-product attention over all subgraph nodes."""
    k = h_in.shape[0]
    d_model = h_in.shape[1]
    dh = d_model // num_heads
    scale = 1.0 / np.sqrt(dh)
    q = ad.bias_add(ad.matmul(h_in, params["wq"]), params["bq"])
    kk = ad.bias_add(ad.matmul(h_in, params["wk"]), params["bk"])
    v = ad.bias_add(ad.matmul(h_in, params["wv"]), params["bv"])
    heads = []
    attn_rows = []
    for h in range(num_heads):
        qh = ad.slice_cols(q, h * dh, (h + 1) * dh)
        kh = ad.slice_cols(kk, h * dh, (h + 1) * dh)
        vh = ad.slice_cols(v, h * dh, (h + 1) * dh)
        scores = ad.mul_scalar(ad.matmul(qh, ad.transpose(kh)), scale)
        bias_h = ad.reshape(ad.slice_cols(bias_flat, h, h + 1), (k, k))
        attn = ad.softmax(ad.add(scores, bias_h))
        if capture is not None:
            attn_rows.append(attn.data.copy())
        heads.append(ad.matmul(attn, vh))
    if capture is not None:
        capture.setdefault("attention", []).append(np.stack(attn_rows))
    out = heads[0] if num_heads == 1 else ad.concat(heads, axis=1)
    return ad.bias_add(ad.matmul(out, params["wo"]), params["bo"])


def _ln_affine(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    return ad.bias_add(ad.col_scale(ad.layer_norm(x, eps), gain), bias)


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

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.zero_grad()

    # -- forward ------------------------------------------------------------

    def forward_fused(
        self,
        batch: SubgraphBatch,
        x: Tensor,
        train: bool = False,
        rng: np.random.Generator | None = None,
        capture: dict | None = None,
    ) -> Tensor:
        cfg = self.cfg
        h = input_embedding(x, batch.in_deg, batch.out_deg, self.z_in, self.z_out,
                            cfg.max_degree_bucket)
        bias_flat = attention_bias(batch, self.spatial_table, self.edge_weight)
        drop = cfg.dropout if train else 0.0
        for layer in self.layers:
            a = multi_head_attention(
                _ln_affine(h, layer["ln1_g"], layer["ln1_b"], cfg.ln_eps),
                bias_flat, layer, cfg.num_heads, capture=capture,
            )
            if drop > 0.0:
                a = ad.dropout(a, drop, rng)
            h = ad.add(h, a)
            z = _ln_affine(h, layer["ln2_g"], layer["ln2_b"], cfg.ln_eps)
            z = ad.bias_add(ad.matmul(ad.relu(ad.bias_add(ad.matmul(z, layer["w1"]),
                                                          layer["b1"])), layer["w2"]), layer["b2"])
            if drop > 0.0:
                z = ad.dropout(z, drop, rng)
            h = ad.add(h, z)
        return ad.bias_add(ad.matmul(h, self.head_w), self.head_b)

    def forward(self, batch: SubgraphBatch, bundle, train: bool = False,
                rng: np.random.Generator | None = None, capture: dict | None = None) -> Tensor:
        rows = {s: bundle.source(s)[batch.nodes] for s in self.fusion.cfg.active}
        x = self.fusion.fuse(rows)
        return self.forward_fused(batch, x, train=train, rng=rng, capture=capture)

    # -- batching -----------------------------------------------------------

    def batch_for(self, g: DirectedGraph, center: int, seed: int) -> SubgraphBatch:
        key = (center, seed)
        batch = self._batch_cache.get(key)
        if batch is None:
            sub = sample_ego_subgraph(
                g, center, hops=self.cfg.ego_hops, max_nodes=self.cfg.ego_max_nodes,
                rng_seed=subgraph_seed(seed, center),
            )
            batch = build_batch(g, sub, self.cfg)
            self._batch_cache[key] = batch
        return batch

    def logits_for_centers(
        self,
        data,
        centers,
        seed: int,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """(B, C) center-node logits; one subgraph forward per center."""
        rows = []
        for c in centers:
            batch = self.batch_for(data.graph, int(c), seed)
            logits = self.forward(batch, data.bundle, train=train, rng=rng)
            rows.append(ad.embedding_lookup(logits, np.asarray([batch.center_local])))
        return rows[0] if len(rows) == 1 else ad.concat(rows, axis=0)


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

    def zero_grad(self) -> None:
        for t in self.parameters().values():
            t.zero_grad()

    def logits_for_centers(self, data, centers, seed: int = 0, train: bool = False,
                           rng: np.random.Generator | None = None) -> Tensor:
        idx = np.asarray(centers, dtype=np.int64)
        rows = {s: data.bundle.source(s)[idx] for s in self.fusion.cfg.active}
        x = self.fusion.fuse(rows)
        h = ad.relu(ad.bias_add(ad.matmul(x, self.w1), self.b1))
        if train and self.cfg.dropout > 0.0:
            h = ad.dropout(h, self.cfg.dropout, rng)
        return ad.bias_add(ad.matmul(h, self.w2), self.b2)
