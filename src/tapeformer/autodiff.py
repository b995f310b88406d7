"""Dense-tensor engine with reverse-mode automatic differentiation.

A small define-by-run engine backed by numpy. Every differentiable op
records a backward closure on a thread-local tape; ``backward(loss)``
replays the tape in reverse execution order and accumulates gradients
into leaf tensors. Shapes are explicit: the only broadcasting is
``bias_add`` (vector over rows), ``row_scale`` and ``col_scale``,
plus the mask of ``masked_softmax``. ``bmm`` and ``permute`` work on
stacks of matrices; everything else is 2-D or shape-agnostic.

The tape persists until ``tape_clear()`` (or a new graph is built), so
calling ``backward`` twice accumulates gradients additively -- that is
what gradient accumulation over micro-batches relies on.
"""
from __future__ import annotations

import struct
import threading
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

__all__ = [
    "Tensor",
    "ShapeError",
    "backward",
    "tape_clear",
    "tape_size",
    "no_grad",
    "set_finite_checks",
    "matmul",
    "bmm",
    "add",
    "bias_add",
    "mul",
    "mul_scalar",
    "row_scale",
    "col_scale",
    "concat",
    "slice_cols",
    "embedding_lookup",
    "relu",
    "tanh",
    "layer_norm",
    "softmax",
    "masked_softmax",
    "log_softmax",
    "mean",
    "tsum",
    "transpose",
    "permute",
    "reshape",
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


def set_finite_checks(enabled: bool) -> bool:
    """Toggle the NaN/Inf assertion run after every op; returns the
    previous setting so a caller can restore it."""
    prev = _state.check_finite
    _state.check_finite = enabled
    return prev


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
    leaves: dict[int, tuple[Tensor, np.ndarray]] = {}
    for rec in reversed(_state.records):
        g = grads.pop(id(rec.out), None)
        if g is None:
            continue
        for t, fn in rec.inputs:
            contrib = fn(g)
            if t.is_leaf:
                prev = leaves.get(id(t))
                leaves[id(t)] = (t, contrib if prev is None else prev[1] + contrib)
            else:
                prev = grads.get(id(t))
                grads[id(t)] = contrib if prev is None else prev + contrib
    # flush per-pass totals so a repeated backward adds the exact same array
    for t, total in leaves.values():
        t.grad = total.copy() if t.grad is None else t.grad + total


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return _make(
        "matmul",
        a.data @ b.data,
        [(a, lambda g, bd=b.data: g @ bd.T), (b, lambda g, ad=a.data: ad.T @ g)],
    )


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul over equal leading axes: (..., m, n) @ (..., n, p)."""
    if (a.data.ndim < 3 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"bmm: incompatible shapes {a.shape} x {b.shape}")
    return _make(
        "bmm",
        a.data @ b.data,
        [(a, lambda g, bd=b.data: g @ bd.swapaxes(-1, -2)),
         (b, lambda g, ad_=a.data: ad_.swapaxes(-1, -2) @ g)],
    )


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return _make("add", a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"bias_add: {x.shape} + {b.shape}")
    return _make(
        "bias_add",
        x.data + b.data[None, :],
        [(x, lambda g: g), (b, lambda g: g.sum(axis=0))],
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
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


def row_scale(x: Tensor, v: Tensor) -> Tensor:
    """Multiply row i of ``x`` by ``v[i]``."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[0] != v.shape[0]:
        raise ShapeError(f"row_scale: {x.shape} * {v.shape}")
    return _make(
        "row_scale",
        x.data * v.data[:, None],
        [
            (x, lambda g, vd=v.data: g * vd[:, None]),
            (v, lambda g, xd=x.data: (g * xd).sum(axis=1)),
        ],
    )


def col_scale(x: Tensor, v: Tensor) -> Tensor:
    """Multiply column j of ``x`` by ``v[j]``."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeError(f"col_scale: {x.shape} * {v.shape}")
    return _make(
        "col_scale",
        x.data * v.data[None, :],
        [
            (x, lambda g, vd=v.data: g * vd[None, :]),
            (v, lambda g, xd=x.data: (g * xd).sum(axis=0)),
        ],
    )


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty input list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)
    inputs = []
    for i, t in enumerate(tensors):
        lo, hi = int(bounds[i]), int(bounds[i + 1])

        def bw(g, lo=lo, hi=hi):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        inputs.append((t, bw))
    return _make("concat", data, inputs)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] of {x.shape}")

    def bw(g):
        out = np.zeros_like(x.data)
        out[:, start:stop] = g
        return out

    return _make("slice_cols", x.data[:, start:stop].copy(), [(x, bw)])


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


def layer_norm(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bw(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return (g - gm - xhat * gx) * inv

    return _make("layer_norm", xhat, [(x, bw)])


def softmax(x: Tensor) -> Tensor:
    """Row softmax over the last axis (max-shifted for stability)."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return p * (g - (g * p).sum(axis=-1, keepdims=True))

    return _make("softmax", p, [(x, bw)])


def masked_softmax(x: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over the last axis of the entries where ``mask`` is True.

    ``mask`` is a boolean array that broadcasts to ``x``; masked entries
    get weight exactly 0 (and gradient exactly 0), whatever ``x`` holds
    there. Every row needs at least one unmasked entry.
    """
    mask = np.asarray(mask, dtype=bool)
    try:
        ok = np.broadcast_shapes(mask.shape, x.shape) == x.shape
    except ValueError:
        ok = False
    if not ok:
        raise ShapeError(f"masked_softmax: mask {mask.shape} does not broadcast to {x.shape}")
    if not mask.any(axis=-1).all():
        raise ShapeError("masked_softmax: a row has no unmasked entry")
    z = np.where(mask, x.data, -np.inf)
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return p * (g - (g * p).sum(axis=-1, keepdims=True))

    return _make("masked_softmax", p, [(x, bw)])


def log_softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    p = np.exp(out)

    def bw(g):
        return g - p * g.sum(axis=-1, keepdims=True)

    return _make("log_softmax", out, [(x, bw)])


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        n = x.data.size

        def bw(g):
            return np.full_like(x.data, float(g) / n)

        return _make("mean", np.asarray(x.data.mean()), [(x, bw)])
    n = x.shape[axis]

    def bw_ax(g):
        return np.repeat(np.expand_dims(g, axis), n, axis=axis) / n

    return _make("mean", x.data.mean(axis=axis), [(x, bw_ax)])


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis=None) or one axis."""
    if axis is None:

        def bw(g):
            return np.full_like(x.data, float(g))

        return _make("sum", np.asarray(x.data.sum()), [(x, bw)])

    def bw_ax(g):
        return np.repeat(np.expand_dims(g, axis), x.shape[axis], axis=axis)

    return _make("sum", x.data.sum(axis=axis), [(x, bw_ax)])


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {x.shape}")
    return _make("transpose", x.data.T.copy(), [(x, lambda g: g.T)])


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    """Reorder the axes: output axis i is input axis ``axes[i]``."""
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: {axes} is not a permutation of the axes of {x.shape}")
    inverse = tuple(int(a) for a in np.argsort(axes))
    return _make("permute", x.data.transpose(axes), [(x, lambda g: g.transpose(inverse))])


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)
    return _make("reshape", data, [(x, lambda g: g.reshape(x.data.shape))])


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
            data = np.ascontiguousarray(arr.data if isinstance(arr, Tensor) else arr, dtype=np.float64)
            raw = name.encode("utf-8")
            f.write(_U32.pack(len(raw)))
            f.write(raw)
            f.write(_U32.pack(data.ndim))
            for d in data.shape:
                f.write(_U64.pack(d))
            f.write(data.tobytes())


def load_parameters(path) -> dict[str, np.ndarray]:
    """Read a container written by ``save_parameters``.

    A truncated file, bytes after the last parameter, a repeated name or
    a non-finite value is a ``ValueError`` naming the cause.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:

        def take(n: int) -> bytes:
            buf = f.read(n)
            if len(buf) != n:
                raise ValueError(f"truncated checkpoint file: {path}")
            return buf

        (count,) = _U64.unpack(take(8))
        for _ in range(count):
            (nlen,) = _U32.unpack(take(4))
            name = take(nlen).decode("utf-8")
            (rank,) = _U32.unpack(take(4))
            shape = tuple(_U64.unpack(take(8))[0] for _ in range(rank))
            n = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(take(n * 8), dtype="<f8").reshape(shape).copy()
            if name in out:
                raise ValueError(f"duplicate parameter name in checkpoint: {name}")
            if not np.isfinite(arr).all():
                raise ValueError(f"checkpoint parameter {name!r} has non-finite values: {path}")
            out[name] = arr
        if f.read(1):
            last = f"after parameter {name!r} " if count else ""
            raise ValueError(f"trailing bytes {last}at the end of checkpoint file: {path}")
    return out
