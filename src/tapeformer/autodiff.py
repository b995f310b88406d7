"""Dense-tensor engine with reverse-mode automatic differentiation.

A small define-by-run engine backed by numpy. Every differentiable op
records a backward closure on a thread-local tape; ``backward(loss)``
replays the tape in reverse execution order and accumulates gradients
into leaf tensors. Shapes are explicit: the only broadcasting is a
vector over rows (the bias of ``linear``, the gain and bias of
``layer_norm``) and the key mask of ``attention``. Every op takes 2-D
or shape-agnostic operands; ``attention`` splits its flat projections
into heads with views of its own.

The model's hot chains are fused ops, one tape record each, with the
arithmetic of the primitive chains they replace: ``linear``,
``layer_norm`` with its affine, ``attention`` (its backward forms the
score gradient once), ``softmax_mix`` over per-source rows and the
training loss ``cross_entropy``.

The tape persists until ``tape_clear()`` (or a new graph is built), so
calling ``backward`` twice accumulates gradients additively -- that is
what gradient accumulation over micro-batches relies on.
"""
from __future__ import annotations

import struct
import threading
from typing import Callable, Sequence

import numpy as np

from .binfile import Reader, payload

DEFAULT_DTYPE = np.float64

__all__ = [
    "Tensor",
    "ShapeError",
    "backward",
    "tape_clear",
    "tape_size",
    "no_grad",
    "finite_checks",
    "matmul",
    "linear",
    "add",
    "mul",
    "mul_scalar",
    "embedding_lookup",
    "relu",
    "tanh",
    "layer_norm",
    "attention",
    "softmax_mix",
    "cross_entropy",
    "tsum",
    "dropout",
    "save_parameters",
    "load_parameters",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


class Tensor:
    """A dense array plus optional gradient buffer.

    Leaf tensors (constructed directly) with ``requires_grad=True`` are
    the trainable parameters; ``backward`` accumulates into their
    ``.grad``. Tensors produced by ops are interior nodes and never
    retain gradients.
    """

    __slots__ = ("data", "requires_grad", "grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Record:
    """One executed op: its output and per-input backward closures."""

    __slots__ = ("out", "inputs")

    def __init__(self, out: Tensor, inputs: list[tuple[Tensor, Callable]]):
        self.out = out
        self.inputs = inputs


class _State(threading.local):
    def __init__(self):
        self.records: list[_Record] = []
        self.recording = True
        self.check_finite = True


_state = _State()


def tape_clear() -> None:
    """Free the current thread's tape. Parameter grads are untouched."""
    _state.records = []


def tape_size() -> int:
    return len(_state.records)


class no_grad:
    """Context manager that disables tape recording."""

    def __enter__(self):
        self._prev = _state.recording
        _state.recording = False
        return self

    def __exit__(self, *exc):
        _state.recording = self._prev
        return False


class finite_checks:
    """Context manager that turns the NaN/Inf assertion run after every
    op on or off for its block."""

    def __init__(self, enabled: bool):
        self.enabled = enabled

    def __enter__(self):
        self._prev, _state.check_finite = _state.check_finite, self.enabled
        return self

    def __exit__(self, *exc):
        _state.check_finite = self._prev
        return False


def _make(op_name: str, data: np.ndarray, inputs: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(t.requires_grad for t, _ in inputs)
    out.is_leaf = False
    if _state.check_finite and not np.isfinite(data).all():
        raise FloatingPointError(f"{op_name} produced non-finite values")
    if _state.recording and out.requires_grad:
        _state.records.append(_Record(out, [(t, fn) for t, fn in inputs if t.requires_grad]))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    ``loss`` must hold a single element. Repeated calls on the same
    graph add up (the tape is only freed by ``tape_clear``).
    """
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    if loss.is_leaf:
        if loss.requires_grad:
            loss.grad = seed if loss.grad is None else loss.grad + seed
        return
    grads: dict[int, np.ndarray] = {id(loss): seed}
    # id -> (leaf, total, whether the total may share memory with another array)
    leaves: dict[int, tuple[Tensor, np.ndarray, bool]] = {}
    for rec in reversed(_state.records):
        g = grads.pop(id(rec.out), None)
        if g is None:
            continue
        for t, fn in rec.inputs:
            contrib = fn(g)
            if t.is_leaf:
                prev = leaves.get(id(t))
                if prev is None:
                    # an identity or view closure hands back g or a view of
                    # it, which other inputs of the op may receive too
                    shared = contrib is g or (
                        contrib.base is not None and np.may_share_memory(contrib, g))
                    leaves[id(t)] = (t, contrib, shared)
                else:
                    leaves[id(t)] = (t, prev[1] + contrib, False)
            else:
                prev = grads.get(id(t))
                grads[id(t)] = contrib if prev is None else prev + contrib
    # flush per-pass totals; a total that may alias is copied so no two
    # grads share memory
    for t, total, shared in leaves.values():
        if t.grad is None:
            t.grad = total.copy() if shared else total
        else:
            t.grad = t.grad + total


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _joint(inputs: Sequence[Tensor], grads_of: Callable) -> list[tuple[Tensor, Callable]]:
    """(input, closure) pairs for an op whose input gradients share work:
    the first closure a backward pass calls runs ``grads_of(g)``, which
    returns every input's gradient in order; the last one needed drops them."""
    last = max((i for i, t in enumerate(inputs) if t.requires_grad), default=-1)
    held: list = []  # [g, gradients] of the pass in progress

    def take(i, g):
        if not held or held[0] is not g:
            held[:] = [g, grads_of(g)]
        out = held[1][i]
        if i == last:
            held.clear()
        return out

    return [(t, lambda g, i=i: take(i, g)) for i, t in enumerate(inputs)]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``z``, in place (max-shifted)."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return _make(
        "matmul",
        a.data @ b.data,
        [(a, lambda g, bd=b.data: g @ bd.T), (b, lambda g, ad=a.data: ad.T @ g)],
    )


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w`` plus the vector ``b`` on every row."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape} + {b.shape}")
    y = x.data @ w.data
    y += b.data
    return _make(
        "linear",
        y,
        [(x, lambda g, wd=w.data: g @ wd.T), (w, lambda g, xd=x.data: xd.T @ g),
         (b, lambda g: g.sum(axis=0))],
    )


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return _make("add", a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product. No model code calls it; see ``tsum``."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    return _make(
        "mul",
        a.data * b.data,
        [(a, lambda g, bd=b.data: g * bd), (b, lambda g, ad=a.data: g * ad)],
    )


def mul_scalar(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make("mul_scalar", x.data * s, [(x, lambda g: g * s)])


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows ``table[indices]``; backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"embedding_lookup: table {table.shape}, indices {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: index out of range for table {table.shape}")

    rows, cols = table.shape

    def bw(g):
        # a bincount over flat (row, col) slots adds in the same order as
        # np.add.at, several times faster
        flat = (idx[:, None] * cols + np.arange(cols)).reshape(-1)
        return np.bincount(flat, weights=g.reshape(-1), minlength=rows * cols).reshape(rows, cols)

    return _make("embedding_lookup", table.data[idx], [(table, bw)])


def relu(x: Tensor) -> Tensor:
    return _make("relu", np.maximum(x.data, 0.0), [(x, lambda g, xd=x.data: g * (xd > 0))])


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _make("tanh", out, [(x, lambda g, o=out: g * (1.0 - o * o))])


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize each row of ``x`` to zero mean and unit variance, then
    scale column j by ``gain[j]`` and add ``bias[j]``."""
    if x.data.ndim != 2 or gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ShapeError(f"layer_norm: {x.shape} with gain {gain.shape}, bias {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    inv = 1.0 / np.sqrt((xhat ** 2).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bw(g, gd=gain.data):
        gx = g * gd
        gm = gx.mean(axis=-1, keepdims=True)
        gxx = (gx * xhat).mean(axis=-1, keepdims=True)
        return (gx - gm - xhat * gxx) * inv

    return _make(
        "layer_norm",
        out,
        [(x, bw), (gain, lambda g: (g * xhat).sum(axis=0)), (bias, lambda g: g.sum(axis=0))],
    )


def attention(q: Tensor, k: Tensor, v: Tensor, bias: Tensor, key_mask: np.ndarray,
              num_heads: int, scale: float) -> tuple[Tensor, np.ndarray]:
    """Softmax over keys of ``(q @ k.T) * scale + bias``, times ``v``, per
    head of each of B stacked blocks.

    ``q`` is (B*n, d), ``k`` and ``v`` are (B*k, d), head h in columns
    ``h*dh:(h+1)*dh``; ``bias`` is (B*n*k, H), row ``(b*n + i)*k + j``
    for pair (i, j) of block b. Heads are split by views. Keys where the
    boolean ``key_mask`` (broadcast to (B, H, n, k)) is False get weight
    and gradient exactly 0; every row needs an unmasked key. Returns the
    (B*n, d) output, heads side by side, and the (B, H, n, k) weights
    (an array, off the tape).
    """
    ok = q.data.ndim == k.data.ndim == bias.data.ndim == 2 and 0 < num_heads == bias.shape[1]
    count = q.shape[0] * k.shape[0] // bias.shape[0] if ok and bias.size else 0  # B
    if (not count or q.shape[0] * k.shape[0] != count * bias.shape[0] or q.shape[0] % count
            or k.shape[0] % count or q.shape[1] % num_heads or k.shape != v.shape
            or k.shape[1] != q.shape[1]):
        raise ShapeError(f"attention: incompatible shapes q {q.shape}, k {k.shape}, "
                         f"v {v.shape}, bias {bias.shape} for {num_heads} heads")
    n, nk, dh = q.shape[0] // count, k.shape[0] // count, q.shape[1] // num_heads
    scores_shape = (count, num_heads, n, nk)
    mask = np.asarray(key_mask, dtype=bool)
    try:
        ok = np.broadcast_shapes(mask.shape, scores_shape) == scores_shape
    except ValueError:
        ok = False
    if not ok:
        raise ShapeError(f"attention: key mask {mask.shape} does not broadcast to {scores_shape}")
    if not mask.any(axis=-1).all():
        raise ShapeError("attention: a row has no unmasked key")
    scale = float(scale)
    qd = q.data.reshape(count, n, num_heads, dh).transpose(0, 2, 1, 3)
    ktd = k.data.reshape(count, nk, num_heads, dh).transpose(0, 2, 3, 1)
    vd = v.data.reshape(count, nk, num_heads, dh).transpose(0, 2, 1, 3)
    p = qd @ ktd
    p *= scale
    p += bias.data.reshape(count, n, nk, num_heads).transpose(0, 3, 1, 2)
    np.copyto(p, -np.inf, where=~mask)
    _softmax_rows(p)

    def grads(g):
        g = g.reshape(count, n, num_heads, dh).transpose(0, 2, 1, 3)
        ds = g @ vd.swapaxes(-1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        dqk = ds * scale
        return ((dqk @ ktd.swapaxes(-1, -2)).transpose(0, 2, 1, 3).reshape(q.shape),
                (qd.swapaxes(-1, -2) @ dqk).transpose(0, 3, 1, 2).reshape(k.shape),
                (p.swapaxes(-1, -2) @ g).transpose(0, 2, 1, 3).reshape(k.shape),
                ds.transpose(0, 2, 3, 1).reshape(bias.shape))

    out = (p @ vd).transpose(0, 2, 1, 3).reshape(q.shape)
    return _make("attention", out, _joint((q, k, v, bias), grads)), p


def softmax_mix(values: Sequence[Tensor], scores: Sequence[Tensor]) -> tuple[Tensor, np.ndarray]:
    """Row i is ``sum_s alpha[i, s] * values[s][i]`` over the (n, d)
    ``values`` in order, ``alpha[i]`` the softmax of the (n, 1)
    ``scores``' row i. Returns it and ``alpha`` (an (n, S) array, off
    the tape)."""
    if (not values or len(scores) != len(values)
            or any(u.data.ndim != 2 or u.shape != values[0].shape for u in values)
            or any(s.shape != (values[0].shape[0], 1) for s in scores)):
        raise ShapeError(f"softmax_mix: values {[u.shape for u in values]}, "
                         f"scores {[s.shape for s in scores]}")
    alpha = _softmax_rows(np.concatenate([s.data for s in scores], axis=1))
    out = values[0].data * alpha[:, :1]
    for i in range(1, len(values)):
        out += values[i].data * alpha[:, i:i + 1]

    def grads(g):
        da = np.empty_like(alpha)
        for i, u in enumerate(values):
            da[:, i] = (g * u.data).sum(axis=1)
        da -= (da * alpha).sum(axis=-1, keepdims=True)
        da *= alpha
        return ([g * alpha[:, i:i + 1] for i in range(len(values))]
                + [da[:, i:i + 1] for i in range(len(scores))])

    return _make("softmax_mix", out, _joint([*values, *scores], grads)), alpha


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of ``-sum(targets * log_softmax(logits))``, both (n, c),
    the targets constant, in the order of the chain it replaced: max-shifted
    log-softmax, product with the targets, row sums, their mean, times -1."""
    if logits.data.ndim != 2 or targets.shape != logits.shape:
        raise ShapeError(f"cross_entropy: logits {logits.shape}, targets {targets.shape}")
    n, c = logits.shape
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def bw(g):
        g = np.repeat(np.expand_dims(g * -1.0, 0), n, axis=0) / n
        g = np.repeat(np.expand_dims(g, 1), c, axis=1) * targets
        return g - np.exp(logp) * g.sum(axis=-1, keepdims=True)

    return _make("cross_entropy", (targets * logp).sum(axis=1).mean(axis=0) * -1.0,
                 [(logits, bw)])


def tsum(x: Tensor) -> Tensor:
    """Sum over all elements. No model code calls it: tests reduce an
    op's output to a scalar with ``tsum(mul(y, r))`` to check gradients."""
    return _make("sum", np.asarray(x.data.sum()),
                 [(x, lambda g: np.full_like(x.data, float(g)))])


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with an explicit generator (no-op at rate 0)."""
    if rate <= 0.0:
        return x
    if not 0.0 < rate < 1.0:
        raise ShapeError(f"dropout: rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _make("dropout", x.data * mask, [(x, lambda g: g * mask)])


# ---------------------------------------------------------------------------
# checkpoint format: named float64 parameters, bit-exact round-trip
# ---------------------------------------------------------------------------

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")


def save_parameters(path, params: dict[str, Tensor | np.ndarray]) -> None:
    """Write a named-parameter container.

    Layout (little-endian): u64 parameter count, then per parameter:
    u32 name length, utf-8 name, u32 rank, u64 dims, raw float64 payload
    in C order. Names are written sorted so output bytes are canonical.
    """
    with open(path, "wb") as f:
        f.write(_U64.pack(len(params)))
        for name in sorted(params):
            arr = params[name]
            data = arr.data if isinstance(arr, Tensor) else arr
            # not ascontiguousarray, which would turn a 0-d array into shape (1,)
            data = np.asarray(data, dtype=np.float64, order="C")
            raw = name.encode("utf-8")
            f.write(_U32.pack(len(raw)))
            f.write(raw)
            f.write(_U32.pack(data.ndim))
            for d in data.shape:
                f.write(_U64.pack(d))
            f.write(payload(data))


def load_parameters(path) -> dict[str, np.ndarray]:
    """Read a container written by ``save_parameters``.

    A truncated file (or a size field beyond the bytes left), bytes
    after the last parameter, a name that is not UTF-8, a repeated name
    or a non-finite value is a ``ValueError`` naming the cause.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        r = Reader(f, ValueError(f"truncated checkpoint file: {path}"))
        (count,) = _U64.unpack(r.take(8))
        for _ in range(count):
            (nlen,) = _U32.unpack(r.take(4))
            name = r.utf8(nlen, ValueError(f"checkpoint parameter name is not UTF-8: {path}"))
            (rank,) = _U32.unpack(r.take(4))
            shape = tuple(_U64.unpack(r.take(8))[0] for _ in range(rank))
            arr = r.array(shape, "<f8")
            if name in out:
                raise ValueError(f"duplicate parameter name in checkpoint: {name}")
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint parameter {name!r} has non-finite values: {path}")
            out[name] = arr
        if r.left:
            last = f"after parameter {name!r} " if count else ""
            raise ValueError(f"trailing bytes {last}at the end of checkpoint file: {path}")
    return out
