"""Dense-tensor engine with reverse-mode automatic differentiation.

A small define-by-run engine backed by numpy. Every differentiable op
records a backward closure on a thread-local tape; ``backward(out,
grad)`` replays the tape in reverse execution order from the cotangent
``grad`` of ``out`` (1 for a scalar loss) and accumulates gradients
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

A tape record holds only what backward reads: its output's key (unique
in the process) and, per input that needs a gradient, the leaf Tensor or
the non-leaf's key with a closure that holds only the arrays it reads, so
an op output no closure reads is freed in the forward once its caller
drops it. ``backward`` consumes the tape, dropping each record once it
has run, so an activation only that record holds dies partway through
the pass; gradient accumulation records one tape per micro-batch.
"""
from __future__ import annotations

import itertools
import struct
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .binfile import Reader, payload

DEFAULT_DTYPE = np.float64
LN_EPS = 1e-12
_next_key = itertools.count().__next__  # op outputs' tape keys

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
    "embedding_lookup",
    "relu",
    "tanh",
    "layer_norm",
    "attention",
    "softmax_mix",
    "cross_entropy",
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
    retain gradients; the tape names them by ``key``. Floating ``data`` keeps
    its dtype unless ``dtype`` is given; other input becomes ``DEFAULT_DTYPE``.
    """

    __slots__ = ("data", "requires_grad", "grad", "is_leaf", "key")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        data = np.asarray(data, dtype=dtype)
        self.data = data if data.dtype.kind == "f" else data.astype(DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _State(threading.local):
    def __init__(self):
        # one (output key, [(leaf input or input key, backward closure)]) per op
        self.records: list[tuple[int, list[tuple[Tensor | int, Callable]]]] = []
        self.recording = True
        self.check_finite = True


_state = _State()


def tape_clear() -> None:
    """Free the current thread's tape. Parameter grads are untouched."""
    _state.records = []


def tape_size() -> int:
    return len(_state.records)


@contextmanager
def _switch(flag: str, value: bool):
    """Set the ``_state`` flag ``flag`` to ``value`` for a ``with`` block
    and restore it afterwards, also when the block raises."""
    prev = getattr(_state, flag)
    setattr(_state, flag, value)
    try:
        yield
    finally:
        setattr(_state, flag, prev)


def no_grad():
    """Context manager that disables tape recording."""
    return _switch("recording", False)


def finite_checks(enabled: bool):
    """Context manager that turns the NaN/Inf assertion run after every
    op on or off for its block."""
    return _switch("check_finite", enabled)


def _make(op_name: str, data: np.ndarray, inputs: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(t.requires_grad for t, _ in inputs)
    out.is_leaf = False
    out.key = _next_key()
    if _state.check_finite and not np.isfinite(data).all():
        raise FloatingPointError(f"{op_name} produced non-finite values")
    if _state.recording and out.requires_grad:
        _state.records.append((out.key, [(t if t.is_leaf else t.key, fn)
                                         for t, fn in inputs if t.requires_grad]))
    return out


def backward(out: Tensor, grad=None) -> None:
    """Accumulate the vector-Jacobian product of ``grad`` with d(out)/d(leaf)
    into every reachable leaf's ``.grad``.

    ``grad``, the cotangent of ``out``, has ``out``'s shape and is cast to
    its dtype; ``None`` means 1, and ``out`` must then hold a single
    element. It takes the whole tape and leaves it empty, also when it
    raises, unless the ``ShapeError`` for ``grad`` rejects the call first.
    """
    if grad is None:
        if out.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {out.shape}")
        grad = 1.0
    elif np.shape(grad) != out.shape:
        raise ShapeError(f"backward: grad of shape {np.shape(grad)} for an output of "
                         f"shape {out.shape}")
    seed = np.full_like(out.data, grad)
    records, _state.records = _state.records, []
    if out.is_leaf:
        if out.requires_grad:
            out.grad = seed if out.grad is None else out.grad + seed
        return
    grads: dict[int, np.ndarray] = {out.key: seed}
    # id -> (leaf, total, whether the total may share memory with another array)
    leaves: dict[int, tuple[Tensor, np.ndarray, bool]] = {}
    while records:  # in reverse execution order; a run record is dropped
        key, inputs = records.pop()
        g = grads.pop(key, None)
        if g is None:
            continue
        for t, fn in inputs:
            contrib = fn(g)
            if isinstance(t, Tensor):  # a leaf
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
                prev = grads.get(t)
                grads[t] = contrib if prev is None else prev + contrib
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
    """Softmax over the last axis of ``z``, in place (max-shifted). Over many
    short rows the max runs down the columns, as numpy's max reduction
    pays tens of ns per row; a max is exact in any order, so no bit moves."""
    n = z.shape[-1]
    if 0 < 8 * n * n <= z.size:
        top = z[..., 0].copy()
        for c in range(1, n):
            np.maximum(top, z[..., c], out=top)
        z -= top[..., None]
    else:
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


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows ``table[indices]``; backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)
    if table.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"embedding_lookup: table {table.shape}, indices {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: index out of range for table {table.shape}")

    (rows, cols), dtype = table.shape, table.data.dtype

    def bw(g):
        # a bincount over flat (row, col) slots adds in the same order as
        # np.add.at, several times faster
        flat = (idx[:, None] * cols + np.arange(cols)).reshape(-1)
        return np.bincount(flat, weights=g.reshape(-1), minlength=rows * cols).reshape(
            rows, cols).astype(dtype, copy=False)

    return _make("embedding_lookup", table.data[idx], [(table, bw)])


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)  # > 0 exactly where x.data is
    return _make("relu", out, [(x, lambda g: g * (out > 0))])


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _make("tanh", out, [(x, lambda g, o=out: g * (1.0 - o * o))])


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of ``x`` to zero mean and unit variance (``LN_EPS``
    added to the variance), then scale column j by ``gain[j]`` and add
    ``bias[j]``."""
    if x.data.ndim != 2 or gain.shape != (x.shape[1],) or bias.shape != (x.shape[1],):
        raise ShapeError(f"layer_norm: {x.shape} with gain {gain.shape}, bias {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    inv = 1.0 / np.sqrt((xhat ** 2).mean(axis=-1, keepdims=True) + LN_EPS)
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
        return ((dqk @ ktd.swapaxes(-1, -2)).transpose(0, 2, 1, 3).reshape(count * n, -1),
                (qd.swapaxes(-1, -2) @ dqk).transpose(0, 3, 1, 2).reshape(count * nk, -1),
                (p.swapaxes(-1, -2) @ g).transpose(0, 2, 1, 3).reshape(count * nk, -1),
                ds.transpose(0, 2, 3, 1).reshape(-1, num_heads))

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

    def grads(g, vals=tuple(u.data for u in values)):
        da = np.empty_like(alpha)
        for i, u in enumerate(vals):
            da[:, i] = (g * u).sum(axis=1)
        da -= (da * alpha).sum(axis=-1, keepdims=True)
        da *= alpha
        return ([g * alpha[:, i:i + 1] for i in range(len(vals))]
                + [da[:, i:i + 1] for i in range(len(vals))])

    return _make("softmax_mix", out, _joint([*values, *scores], grads)), alpha


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over rows of ``-sum(targets * log_softmax(logits))``, both (n, c),
    the targets constant, in the order of the chain it replaced: max-shifted
    log-softmax, product with the targets, row sums, their mean, times -1."""
    if logits.data.ndim != 2 or targets.shape != logits.shape:
        raise ShapeError(f"cross_entropy: logits {logits.shape}, targets {targets.shape}")
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def bw(g):
        # the chain's negation and mean hand every entry (g * -1.0) / n
        g = targets * (g * -1.0 / n)
        return g - np.exp(logp) * g.sum(axis=-1, keepdims=True)

    return _make("cross_entropy", (targets * logp).sum(axis=1).mean(axis=0) * -1.0,
                 [(logits, bw)])


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
