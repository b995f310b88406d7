"""Shared test utilities: finite-difference gradient checks and small
independent graph oracles. Everything here is deliberately naive -- the
point is independence from the library code under test."""
from __future__ import annotations

import math
import re
import struct
import zlib

import numpy as np

from tapeformer import autodiff as ad


def _relu_inputs(f):
    """``f()`` and a copy of the input of every ``autodiff.relu`` call it made."""
    seen, relu = [], ad.relu

    def recording(x):
        seen.append(x.data.copy())
        return relu(x)

    ad.relu = recording
    try:
        return f(), seen
    finally:
        ad.relu = relu


def central_difference(f, flat: np.ndarray, i: int, h: float):
    """(derivative, kink) of scalar ``f`` in flat entry i by a central
    difference of step h. ``kink`` is None unless some ReLU input lies
    on different sides of zero at +h and at -h; then it is the smallest
    |pre-activation| among those inputs, and the difference straddles
    the kink."""
    orig = flat[i]
    flat[i] = orig + h
    fp, up = _relu_inputs(f)
    flat[i] = orig - h
    fm, down = _relu_inputs(f)
    flat[i] = orig
    kink = None
    for a, b in zip(up, down):
        flip = (a > 0) != (b > 0)
        if flip.any():
            near = float(min(np.abs(a[flip]).min(), np.abs(b[flip]).min()))
            kink = near if kink is None else min(kink, near)
    return (fp - fm) / (2.0 * h), kink


def check_gradients(make_loss, params, h: float = 1e-5, rel_tol: float = 1e-4,
                    max_entries: int | None = None, seed: int = 0) -> float:
    """Compare analytic gradients with central differences.

    ``make_loss`` builds the graph from scratch and returns the scalar
    loss Tensor. Each tensor in ``params`` gets its analytic gradient
    checked entry-by-entry (all entries, or a seeded sample of
    ``max_entries``). Returns the worst relative error seen. The error
    measure is |analytic - numeric| / max(1, |analytic|).

    A difference whose +h and -h evaluations put some ReLU input on
    different sides of zero straddles the kink and measures nothing;
    that entry is taken again at h/100, and fails the check if it still
    straddles.
    """
    rng = np.random.default_rng(seed)
    ad.tape_clear()
    for p in params:
        p.zero_grad()
    loss = make_loss()
    ad.backward(loss)
    worst = 0.0
    for n, p in enumerate(params):
        assert p.grad is not None, "parameter did not receive a gradient"
        size = p.data.size
        if max_entries is not None and size > max_entries:
            entries = sorted(rng.choice(size, size=max_entries, replace=False).tolist())
        else:
            entries = range(size)

        def f():
            ad.tape_clear()
            with ad.no_grad():
                return float(make_loss().data)

        flat, ana = p.data.reshape(-1), p.grad.reshape(-1)
        for i in entries:
            dv, kink = central_difference(f, flat, i, h)
            if kink is not None:
                dv, kink = central_difference(f, flat, i, h / 100)
                assert kink is None, (f"entry {i} of parameter {n} straddles a ReLU kink at "
                                      f"h/100: smallest |pre-activation| {kink:.3g}")
            err = abs(ana[i] - dv) / max(1.0, abs(ana[i]))
            worst = max(worst, err)
            assert err < rel_tol, f"grad mismatch at entry {i}: analytic={ana[i]}, numeric={dv}"
    ad.tape_clear()
    return worst


# ---------------------------------------------------------------------------
# text hashing oracle
# ---------------------------------------------------------------------------


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def oracle_tokenize(text: str) -> list[str]:
    """The tokens ``tapeformer.text.tokenize`` must produce: the maximal
    runs of ASCII letters and digits in the lowered text."""
    return _TOKEN_RE.findall(text.lower())


def oracle_encode_text(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """One text's hashed unigram vector, one crc32 per token occurrence."""
    salt = zlib.crc32(struct.pack("<q", seed))
    vec = np.zeros(dim, dtype=np.float64)
    for tok in oracle_tokenize(text):
        h = zlib.crc32(tok.encode("utf-8"), salt)
        sign = 1.0 if h & 0x80000000 else -1.0
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


# ---------------------------------------------------------------------------
# independent graph oracles
# ---------------------------------------------------------------------------


def random_edge_list(rng: np.random.Generator, n: int, density: float):
    """Directed edge list (possibly with duplicates/self-loops)."""
    m = int(density * n * (n - 1))
    edges = []
    for _ in range(m):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        edges.append((u, v))
    return edges


def undirected_adj_sets(edges, n):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def floyd_warshall(edges, n) -> np.ndarray:
    """All-pairs shortest hop counts on the undirected simple view."""
    INF = np.inf
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        if u != v:
            d[u, v] = 1.0
            d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def bfs_distances(adj_sets, source) -> dict[int, int]:
    """Plain dict/queue BFS (hop counts from source)."""
    from collections import deque

    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for w in sorted(adj_sets[u]):
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def brute_force_clustering(adj_sets, v) -> float:
    nbrs = sorted(adj_sets[v])
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for i in range(k):
        for j in range(i + 1, k):
            if nbrs[j] in adj_sets[nbrs[i]]:
                links += 1
    return 2.0 * links / (k * (k - 1))


def ego_stack(nodes, local_edges):
    """One subgraph as a one-row ``EgoStack``: global ids ``nodes``, the
    center first, and its induced edges as (m, 2) local pairs."""
    from tapeformer.graph import EgoStack

    nodes = np.asarray(nodes, dtype=np.int64)
    edges = np.asarray(local_edges, dtype=np.int64).reshape(-1, 2)
    return EgoStack(nodes=nodes[None], sizes=np.array([len(nodes)], dtype=np.int64),
                    local_edges=np.column_stack([np.zeros(len(edges), dtype=np.int64), edges]))


def stack_row(stack, b: int):
    """Row b of an ``EgoStack`` as a one-row stack, without padding."""
    edges = stack.local_edges[stack.local_edges[:, 0] == b, 1:]
    return ego_stack(stack.nodes[b, :stack.sizes[b]], edges)


def node_map(stack, b: int = 0) -> dict[int, int]:
    """{global id: local index} of row b's real nodes."""
    return {gid: li for li, gid in enumerate(stack.nodes[b, :stack.sizes[b]].tolist())}


def relabelled_stack(sub, perm):
    """A one-row stack with its local indices permuted: new local index i
    is old local index ``perm[i]``, so the center moves to the i where
    ``perm[i] == 0``."""
    inv = np.argsort(perm)
    edges = sub.local_edges[:, 1:]
    return ego_stack(sub.nodes[0][perm], inv[edges])


_MASK64 = 2**64 - 1


def splitmix64(x: int) -> int:
    """SplitMix64's output function on a Python int, masked to 64 bits."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sampling_key(seed: int, center: int, node: int) -> int:
    """The 64-bit key of ``node`` in ``center``'s frontier under ``seed``."""
    return splitmix64(splitmix64(splitmix64(seed & _MASK64) ^ center) ^ node)


def oracle_ego_subgraph(g, center: int, hops: int, max_nodes: int, seed: int):
    """Ego subgraph by a plain set/list BFS, one center at a time, as a
    one-row ``EgoStack``.

    Each hop's new frontier is taken whole if it fits, otherwise the
    ``room`` nodes with the smallest ``(sampling_key, id)`` are kept.
    Nodes: center first, then each hop's picks ascending; induced edges
    in (local src, then global dst) order.
    """
    selected = [center]
    in_set = {center}
    frontier = [center]
    for _ in range(hops):
        room = max_nodes - len(selected)
        if room <= 0:
            break
        nxt_set: set[int] = set()
        for u in frontier:
            for w in list(g.out_neighbors(u)) + list(g.in_neighbors(u)):
                w = int(w)
                if w not in in_set:
                    nxt_set.add(w)
        if not nxt_set:
            break
        nxt = sorted(nxt_set, key=lambda w: (sampling_key(seed, center, w), w))[:room]
        nxt.sort()
        selected.extend(nxt)
        in_set.update(nxt)
        frontier = nxt
    local_of = {int(gid): li for li, gid in enumerate(selected)}
    edges = []
    for li, gid in enumerate(selected):
        for t in g.out_neighbors(int(gid)):
            lj = local_of.get(int(t))
            if lj is not None:
                edges.append((li, lj))
    return ego_stack(selected, edges)


def oracle_citation_flags(g, src, dst) -> np.ndarray:
    """Does each step src[n] -> dst[n] follow a citation of ``g``? Looked
    up in the full graph, not in any subgraph: a binary search of the
    sorted ``src * n + dst`` keys of every directed edge. A step with
    no edge in either direction raises."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    n = g.num_nodes
    keys = np.repeat(np.arange(n), np.diff(g.out_offsets)) * n + g.out_targets

    def cited(u, v):
        if len(keys) == 0:
            return np.zeros(len(u), dtype=bool)
        pos = np.minimum(np.searchsorted(keys, u * n + v), len(keys) - 1)
        return keys[pos] == u * n + v

    fwd = cited(src, dst)
    missing = np.flatnonzero(~fwd & ~cited(dst, src))
    if len(missing):
        raise ValueError(f"no edge between {src[missing[0]]} and {dst[missing[0]]} in either direction")
    return fwd


def has_edge(g, u: int, v: int) -> bool:
    """Does ``u`` cite ``v``? A scan of u's out-neighbours."""
    return v in g.out_neighbors(u).tolist()


def oracle_edge_features(g, gu: int, gv: int) -> np.ndarray:
    """Synthesized features of one undirected step gu -> gv, one edge at
    a time: [+1 forward / -1 backward, log1p(src out-degree), log1p(dst
    in-degree)]; reciprocal citations count as forward."""
    if has_edge(g, gu, gv):
        flag, src, dst = 1.0, gu, gv
    elif has_edge(g, gv, gu):
        flag, src, dst = -1.0, gv, gu
    else:
        raise ValueError(f"no edge between {gu} and {gv} in either direction")
    return np.asarray(
        [flag, math.log1p(g.out_degree(src)), math.log1p(g.in_degree(dst))], dtype=np.float64
    )


def shortest_path_edges(sub, adj_sets, dist, cap, i, j):
    """One shortest path i -> j of a one-row stack as local (u, v) steps,
    walked back from j.

    [] when i == j, None when unreachable within ``cap``. At every step
    the predecessor with the smallest global node id wins.
    """
    if i == j:
        return []
    if dist[i, j] > cap:
        return None
    drow = dist[i]
    steps = []
    cur = j
    while cur != i:
        want = drow[cur] - 1
        cands = [u for u in adj_sets[cur] if drow[u] == want]
        pred = min(cands, key=lambda u: int(sub.nodes[0, u]))
        steps.append((pred, cur))
        cur = pred
    steps.reverse()
    return steps


def oracle_path_predecessors(sub, spd, adj=None) -> np.ndarray:
    """(B, k, k) predecessors by the dense rule: for every source i and
    node j, every local node is tested as a neighbor of j one hop closer
    to i, in ascending global id, and the first one wins. -1 on the
    diagonal and for unreachable pairs."""
    from tapeformer.structural import local_adjacency

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


def oracle_structural(g, sub, cap: int, d_edge: int = 3):
    """(capped dist, path_coeffs) for a one-row stack, pair by pair.

    Distances come from Floyd-Warshall on the local edges (sentinel
    cap + 1 beyond the cap); each reachable pair's path features are
    built step by step and divided by the path length, laid out the way
    ``entry_path_coeffs`` lays them out: (k*k, cap*d_edge).
    """
    k, nodes, edges = sub.num_nodes, sub.nodes[0], sub.local_edges[:, 1:].tolist()
    fw = floyd_warshall(edges, k)
    dist = np.where(fw <= cap, fw, cap + 1).astype(np.int64)
    adj_sets = undirected_adj_sets(edges, k)
    coeffs = np.zeros((k * k, cap * d_edge), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            steps = shortest_path_edges(sub, adj_sets, dist, cap, i, j)
            if not steps:
                continue
            feats = np.empty((len(steps), d_edge), dtype=np.float64)
            for n, (lu, lv) in enumerate(steps):
                feats[n] = oracle_edge_features(g, int(nodes[lu]), int(nodes[lv]))
            coeffs[i * k + j, : len(steps) * d_edge] = (feats / len(steps)).reshape(-1)
    return dist, coeffs


# ---------------------------------------------------------------------------
# model oracles
# ---------------------------------------------------------------------------


def edge_encoding_cij(path_feats: np.ndarray, edge_weight: np.ndarray, head: int,
                      d_edge: int) -> float:
    """The edge term of one pair for one head, as a scalar loop.

    Average over path positions of x_e . w_n: ``edge_weight`` has shape
    (max_spd * d_edge, heads) with position-major rows. The model
    produces the same quantity for every pair at once as
    ``path_coeffs @ edge_weight``.
    """
    n = path_feats.shape[0]
    if n == 0:
        return 0.0
    total = 0.0
    for pos in range(n):
        w_n = edge_weight[pos * d_edge : (pos + 1) * d_edge, head]
        total += float(path_feats[pos] @ w_n)
    return total / n


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ln_affine(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps)) * gain + bias


def entry_path_coeffs(entry) -> np.ndarray:
    """(k*k, cap*d_edge) averaged path features of one cached
    ``SubgraphBatch``, decoded from its path index: position p of pair
    (i, j) holds row t of the entry's edge table divided by N, where the
    index reads t * cap + N - 1 (0, the zero row, for no step)."""
    k, cap = len(entry.nodes), entry.path_index.shape[-1]
    row, n_less_one = np.divmod(entry.path_index.astype(np.int64), cap)
    return (entry.edge_table[row] / (n_less_one + 1)[..., None]).reshape(k * k, -1)


def oracle_subgraph_logits(model, g, batch, bundle) -> np.ndarray:
    """(k, C) logits of every node of one cached subgraph of ``g``, in
    plain numpy.

    One subgraph at a time, no padding, and one head at a time on
    column slices of the query, key and value projections: the forward
    pass as it ran before micro-batches were stacked. Degrees are read
    node by node off ``g``.
    """
    cfg, fusion = model.cfg, model.fusion
    proj = [bundle.source(s)[batch.nodes] @ fusion.proj[s].data for s in fusion.cfg.active]
    scores = np.concatenate([np.tanh(u @ fusion.score_m.data) @ fusion.score_w.data
                             for u in proj], axis=1)
    alpha = _softmax_rows(scores)
    x = proj[0] * alpha[:, :1]
    for i in range(1, len(proj)):
        x = x + proj[i] * alpha[:, i:i + 1]
    mb = cfg.max_degree_bucket
    in_deg = np.array([g.in_degree(int(v)) for v in batch.nodes])
    out_deg = np.array([g.out_degree(int(v)) for v in batch.nodes])
    h = x + model.z_in.data[np.minimum(in_deg, mb)] + model.z_out.data[np.minimum(out_deg, mb)]
    k, heads = len(batch.nodes), cfg.num_heads
    bias = (model.spatial_table.data[batch.dist.reshape(-1)]
            + entry_path_coeffs(batch) @ model.edge_weight.data)
    dh = cfg.d_model // heads
    for layer in model.layers:
        p = {name: t.data for name, t in layer.items()}
        z = _ln_affine(h, p["ln1_g"], p["ln1_b"], cfg.ln_eps)
        q, kk, v = (z @ p["w" + n] + p["b" + n] for n in "qkv")
        outs = []
        for hd in range(heads):
            cols = slice(hd * dh, (hd + 1) * dh)
            s = (q[:, cols] @ kk[:, cols].T) * (1.0 / np.sqrt(dh)) + bias[:, hd].reshape(k, k)
            outs.append(_softmax_rows(s) @ v[:, cols])
        h = h + (np.concatenate(outs, axis=1) @ p["wo"] + p["bo"])
        z = _ln_affine(h, p["ln2_g"], p["ln2_b"], cfg.ln_eps)
        h = h + (np.maximum(z @ p["w1"] + p["b1"], 0.0) @ p["w2"] + p["b2"])
    return h @ model.head_w.data + model.head_b.data


def oracle_logits_for_centers(model, data, centers, seed: int) -> np.ndarray:
    """(B, C) center logits, one full subgraph forward per center; the
    center is node 0 of its subgraph."""
    rows = []
    for c in centers:
        batch = model.batch_for(int(c), seed)
        assert batch.nodes[0] == c
        rows.append(oracle_subgraph_logits(model, data.graph, batch, data.bundle)[0])
    return np.stack(rows)


# ---------------------------------------------------------------------------
# fused-op oracles: each fused engine op as the chain of primitive steps it
# replaced, in plain numpy, forward and every input gradient for an upstream
# gradient ``g``, in the same order of operations
# ---------------------------------------------------------------------------


def _softmax_backward(p, g):
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def oracle_linear(x, w, b, g):
    """matmul, then bias_add: (out, (dx, dw, db))."""
    out = (x @ w) + b[None, :]
    return out, (g @ w.T, x.T @ g, g.sum(axis=0))


def oracle_layer_norm(x, gain, bias, eps, g):
    """layer_norm, col_scale by ``gain``, bias_add: (out, (dx, dgain, dbias))."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = (xhat * gain[None, :]) + bias[None, :]
    gx = g * gain[None, :]
    gm = gx.mean(axis=-1, keepdims=True)
    gxx = (gx * xhat).mean(axis=-1, keepdims=True)
    return out, ((gx - gm - xhat * gxx) * inv, (g * xhat).sum(axis=0), g.sum(axis=0))


def oracle_attention(q, kt, v, bias, mask, scale, g):
    """bmm, mul_scalar, add of the bias, masked softmax, bmm:
    (out, weights, (dq, dkt, dv, dbias))."""
    scores = ((q @ kt) * scale) + bias
    z = np.where(mask, scores, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    dp = g @ v.swapaxes(-1, -2)
    ds = _softmax_backward(p, dp)
    dqk = ds * scale
    return p @ v, p, (dqk @ kt.swapaxes(-1, -2), q.swapaxes(-1, -2) @ dqk,
                      p.swapaxes(-1, -2) @ g, ds)


def oracle_softmax_mix(values, scores, g):
    """concat of the scores, softmax, then per source a column slice,
    row_scale and add: (out, alpha, (dvalues..., dscores...))."""
    x = np.concatenate(scores, axis=1)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    alpha = e / e.sum(axis=-1, keepdims=True)
    out = values[0] * alpha[:, 0][:, None]
    for i in range(1, len(values)):
        out = out + values[i] * alpha[:, i][:, None]
    da = np.zeros_like(alpha)
    for i, u in enumerate(values):
        da[:, i] = (g * u).sum(axis=1)
    ds = _softmax_backward(alpha, da)
    grads = [g * alpha[:, i][:, None] for i in range(len(values))]
    return out, alpha, tuple(grads + [ds[:, i:i + 1] for i in range(len(scores))])


def oracle_cross_entropy(logits, targets, g):
    """log_softmax, mul by the targets, sum over each row, mean over the
    rows, times -1: (loss, dlogits)."""
    n = logits.shape[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = (targets * logp).sum(axis=1).mean(axis=0) * -1.0
    drow = np.full(n, g * -1.0) / n
    dlogp = drow[:, None] * targets
    return loss, dlogp - np.exp(logp) * dlogp.sum(axis=-1, keepdims=True)
