import re
import weakref

import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer.autodiff import Tensor

from helpers import (
    check_gradients,
    oracle_attention,
    oracle_cross_entropy,
    oracle_layer_norm,
    oracle_linear,
    oracle_softmax_mix,
)


def _p(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _softmax_weights(x):
    """The weights ``softmax_mix`` gives the columns of ``x`` as scores."""
    values = [Tensor(np.ones((x.shape[0], 2)))] * x.shape[1]
    return ad.softmax_mix(values, [Tensor(x[:, j:j + 1]) for j in range(x.shape[1])])[1]


def test_tensor_keeps_a_floating_array_s_dtype():
    """A float32 constant stays float32 on its way onto the tape; input
    that is not floating becomes float64, and ``dtype`` casts."""
    assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
    assert Tensor([1, 2]).data.dtype == np.float64
    assert Tensor([0.5]).data.dtype == np.float64
    assert Tensor(np.arange(3)).data.dtype == np.float64
    assert Tensor(np.ones(3), dtype=np.float32).data.dtype == np.float32


def test_softmax_uniform_row():
    p = _softmax_weights(np.zeros((1, 4)))
    assert np.allclose(p, 0.25)
    assert abs(p.sum() - 1.0) < 1e-9


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 11)) * 5
    p = _softmax_weights(x)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)
    p_shift = _softmax_weights(x + 12.345)
    assert np.max(np.abs(p - p_shift)) < 1e-12


def test_softmax_rows_keeps_the_bytes_of_the_max_shifted_chain():
    """On both sides of the row-max selection (6 rows, then 64, of 4) the
    in-place softmax gives the bytes of ``z - z.max(axis=-1)`` then exp
    and the row sum, for rows holding -inf, NaN and signed zeros."""
    rng = np.random.default_rng(4)
    special = [[-np.inf, 1.0, -np.inf, 0.5], [np.nan, 0.0, 1.0, -1.0],
               [-0.0, 0.0, -0.0, -np.inf], [0.0, -0.0, 0.0, -0.0], [2.0, -np.inf, np.nan, -0.0],
               [-np.inf] * 4]
    for rows in (len(special), 64):
        z = rng.standard_normal((rows, 4))
        z[:len(special)] = special
        with np.errstate(invalid="ignore"):  # the all -inf row is NaN throughout
            want = np.exp(z - z.max(axis=-1, keepdims=True))
            want /= want.sum(axis=-1, keepdims=True)
            got = ad._softmax_rows(z.copy())
        assert got.tobytes() == want.tobytes()


def test_matmul_identity():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 6))
    out = ad.matmul(Tensor(np.eye(4)), Tensor(b))
    assert np.array_equal(out.data, np.eye(4) @ b)
    assert np.allclose(out.data, b)


def test_layer_norm_moments():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((9, 16)) * 3 + 1.5
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    x = Tensor(np.eye(2))
    ad.backward(ad.matmul(x, w), np.ones((2, 3)))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_twice_doubles():
    """A second forward and backward add exactly the first pass's gradient."""
    rng = np.random.default_rng(3)
    w = _p(rng, 3, 3)
    ad.backward(ad.relu(ad.matmul(w, w)), np.ones((3, 3)))
    once = w.grad.copy()
    ad.backward(ad.relu(ad.matmul(w, w)), np.ones((3, 3)))
    assert np.array_equal(w.grad, 2.0 * once)


def test_backward_consumes_the_tape():
    """``backward`` leaves an empty tape: after a pass, when ``out`` is a
    leaf, when records ``out`` does not reach are on it, and when a closure
    raises. A ``ShapeError`` for ``grad`` runs no record and leaves the tape
    as it was, so the call can be made again with a valid ``grad``."""
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    ad.add(w, w)  # unreachable from out
    out = ad.matmul(w, w)
    with pytest.raises(ad.ShapeError):
        ad.backward(out)
    with pytest.raises(ad.ShapeError):
        ad.backward(out, np.ones(2))
    assert ad.tape_size() == 2 and w.grad is None
    ad.backward(out, np.ones((2, 2)))
    assert ad.tape_size() == 0 and np.array_equal(w.grad, np.full((2, 2), 4.0))
    ad.matmul(w, w)
    ad.backward(w, np.ones((2, 2)))
    assert ad.tape_size() == 0 and np.array_equal(w.grad, np.full((2, 2), 5.0))

    def boom(g):
        raise ZeroDivisionError("closure")

    ad.matmul(w, w)
    with pytest.raises(ZeroDivisionError):
        ad.backward(ad._make("boom", w.data.copy(), (w,), lambda: (boom,)), np.ones((2, 2)))
    assert ad.tape_size() == 0


def test_backward_frees_each_record_once_run():
    """An activation only the last op's closure reads is freed before the
    closure of the op that made it runs."""
    rng = np.random.default_rng(4)
    x, w = _p(rng, 3, 4), _p(rng, 4, 2)
    dead = []
    t = ad._make("spy", x.data + 1.0, (x,),
                 lambda: (lambda g: dead.append(ref() is None) or g,))
    ref = weakref.ref(t.data)
    out = ad.matmul(t, w)
    del t
    assert ref() is not None
    ad.backward(out, np.ones((3, 2)))
    assert dead == [True]
    assert np.array_equal(x.grad, np.ones((3, 2)) @ w.data.T)


def _view_reshape(x, shape):
    """A reshape op whose backward hands back a view of the upstream gradient."""
    return ad._make("reshape", x.data.reshape(shape), (x,),
                    lambda: (lambda g: g.reshape(x.shape),))


def test_backward_grads_never_alias_and_accumulate_exactly():
    """``add`` hands the same upstream array to both inputs, and a view
    closure a view of it; their grads must still be separate arrays that
    own their memory, and a second pass adds exactly."""
    rng = np.random.default_rng(8)
    w1 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w3 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    r = rng.standard_normal((3, 4))

    def forward():
        return ad.add(ad.add(w1, w2), _view_reshape(w3, (3, 4)))

    ad.backward(forward(), r)
    assert w3.grad.base is None
    first = {id(t): t.grad.copy() for t in (w1, w2, w3)}
    w1.grad += 100.0
    assert np.array_equal(w2.grad, first[id(w2)])
    w2.grad[0, 0] = -7.0
    assert np.array_equal(w3.grad, first[id(w3)])
    ad.backward(forward(), r)
    assert np.array_equal(w1.grad, (first[id(w1)] + 100.0) + first[id(w1)])
    assert np.array_equal(w3.grad, first[id(w3)] + first[id(w3)])
    assert np.array_equal(w3.grad, 2.0 * r.reshape(4, 3))


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.matmul(w, w))


@pytest.mark.parametrize("grad", [np.ones((3, 2)), np.ones((2, 3, 1)), 1.0])
def test_backward_rejects_a_grad_of_another_shape(grad):
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    out = ad.matmul(Tensor(np.ones((2, 2))), w)
    msg = f"grad of shape {np.shape(grad)} for an output of shape (2, 3)"
    with pytest.raises(ad.ShapeError, match=re.escape(msg)):
        ad.backward(out, grad)
    assert w.grad is None


def test_backward_on_a_leaf():
    """A leaf's own cotangent goes into its grad, cast to its dtype, and
    a second call adds to it; a leaf without ``requires_grad`` gets none."""
    w = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float32)
    r = np.arange(6.0).reshape(2, 3) / 3.0
    ad.backward(w, r)
    assert w.grad.dtype == np.float32 and np.array_equal(w.grad, r.astype(np.float32))
    ad.backward(w, r)
    assert np.array_equal(w.grad, 2 * r.astype(np.float32))
    s = Tensor(np.array([4.0]), requires_grad=True)
    ad.backward(s)
    ad.backward(s)
    assert np.array_equal(s.grad, [2.0])
    c = Tensor(np.array(4.0))
    ad.backward(c)
    ad.backward(c, 3.0)
    assert c.grad is None
    with pytest.raises(ad.ShapeError, match="scalar loss"):
        ad.backward(w)


def test_shape_mismatch_names_op():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError, match="linear"):
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3)))
    with pytest.raises(ad.ShapeError, match="layer_norm"):
        ad.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.ones(2)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_finite_check_trips():
    big = Tensor(np.array([[1e308, 1e308]]))
    with pytest.raises(FloatingPointError, match="add"):
        ad.add(big, big)


def test_no_grad_skips_recording():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        ad.matmul(w, w)
    assert ad.tape_size() == 0


def test_tape_frees_op_outputs_no_closure_reads():
    """In linear -> add -> layer_norm -> linear no backward closure reads
    the add's output (layer_norm keeps its own normalised rows), so its
    array dies with the caller's Tensor, before backward runs. The
    gradients are those of the same chain with the Tensor kept, and a
    second forward and backward add the same again."""
    rng = np.random.default_rng(21)
    x, r = rng.standard_normal((5, 4)), rng.standard_normal((5, 3))
    params = [_p(rng, 4, 6), _p(rng, 6), _p(rng, 5, 6), _p(rng, 6), _p(rng, 6), _p(rng, 6, 3),
              _p(rng, 3)]
    w1, b1, c, gain, bias, w2, b2 = params

    def run(keep):
        def forward():
            s = ad.add(ad.linear(Tensor(x), w1, b1), c)
            kept.extend([s] if keep else [])
            return weakref.ref(s.data), ad.linear(ad.layer_norm(s, gain, bias), w2, b2)

        kept = []
        array, out = forward()
        freed = array() is None
        for t in params:
            t.grad = None
        ad.backward(out, r)
        once = [t.grad.copy() for t in params]
        ad.backward(forward()[1], r)
        return freed, kept, once, [t.grad for t in params]

    freed, _, once, twice = run(keep=False)
    assert freed
    assert _all_equal(twice, [g + g for g in once])
    freed, kept, want, _ = run(keep=True)
    assert not freed and kept
    assert _all_equal(once, want)


def test_op_output_keys_never_repeat():
    """The tape names op outputs by key, not by ``id``: an id comes back
    once its Tensor is dropped, a key does not."""
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    keys = [ad.add(a, a).key for _ in range(50)]
    assert len(set(keys)) == len(keys)


def test_a_tensor_made_under_no_grad_is_a_gradient_sink():
    """An op output made off the tape and then used in a recorded op takes
    its gradient and passes none on to the leaves behind it."""
    rng = np.random.default_rng(22)
    w, v = _p(rng, 3, 3), _p(rng, 3, 3)
    with ad.no_grad():
        h = ad.matmul(w, w)
    assert h.requires_grad and not h.is_leaf
    r = rng.standard_normal((3, 3))
    ad.backward(ad.matmul(h, v), r)
    assert w.grad is None and np.array_equal(v.grad, h.data.T @ r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_and_matmul_give_the_same_gradients_from_a_rebuilt_input(dtype):
    """A recorded ``linear`` or ``matmul`` whose left input has a ``rebuild``
    keeps the callable, not the array, and gives the gradients of the same
    op on the kept array byte for byte."""
    rng = np.random.default_rng(27)
    x = rng.standard_normal((5, 4)).astype(dtype)
    w, b = (Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
            for shape in ((4, 3), (3,)))
    r = rng.standard_normal((5, 3)).astype(dtype)
    for op, params in ((lambda t: ad.linear(t, w, b), [w, b]), (lambda t: ad.matmul(t, w), [w])):
        for needs_grad in (False, True):
            kept = Tensor(x.copy(), requires_grad=needs_grad)
            want = _grads_through(op(kept), r, [kept, *params])
            rebuilt = Tensor(x.copy(), requires_grad=needs_grad)
            rebuilt.rebuild = x.copy
            array = weakref.ref(rebuilt.data)
            out = op(rebuilt)
            del rebuilt.data
            assert array() is None
            got = _grads_through(out, r, [rebuilt, *params])
            assert [g is None for g in got] == [g is None for g in want]
            assert [g.tobytes() for g in got if g is not None] == \
                [g.tobytes() for g in want if g is not None]


def test_a_layer_norm_output_is_rebuilt_once_for_all_its_consumers(monkeypatch):
    """A recorded layer norm's output dies with its caller's Tensor: its
    three consumers keep its rebuild, which backward runs once, for the
    first of them, and the layer norm's own record drops. Off the tape the
    output has no rebuild. The gradients are those of the same chain on
    kept arrays, byte for byte."""
    rng = np.random.default_rng(28)
    x, gain, bias = _p(rng, 6, 4), _p(rng, 4), _p(rng, 4)
    weights = [(_p(rng, 4, 3), _p(rng, 3)) for _ in range(3)]
    params = [x, gain, bias, *(t for pair in weights for t in pair)]
    r = rng.standard_normal((6, 3))
    made, affine = [], ad._affine

    def spy(*args):
        out = affine(*args)
        made.append(weakref.ref(out))
        return out

    def forward():
        y = ad.layer_norm(x, gain, bias)
        outs = [ad.linear(y, w, b) for w, b in weights]
        return y, ad.add(ad.add(outs[0], outs[1]), outs[2])

    monkeypatch.setattr(ad, "_kept", lambda t: lambda data=t.data: data)  # keep the arrays
    want = _grads_through(forward()[1], r, params)
    monkeypatch.undo()
    with ad.no_grad():
        assert forward()[0].rebuild is None
    monkeypatch.setattr(ad, "_affine", spy)
    for _ in range(2):
        made.clear()
        y, out = forward()
        output = weakref.ref(y.data)
        del y.data
        assert output() is None and len(made) == 1
        got = _grads_through(out, r, params)
        assert len(made) == 2 and made[1]() is None  # rebuilt once, dropped by backward
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


def _recording_ops():
    """The engine ops: the ``__all__`` functions of ``autodiff`` whose
    source calls ``_make(``."""
    import inspect

    return {name for name in ad.__all__ if inspect.isfunction(getattr(ad, name))
            and "_make(" in inspect.getsource(getattr(ad, name))}


def _op_cases(dtype):
    """One call per engine op on fresh leaves of ``dtype`` that need a
    gradient: op name -> (a call returning the op's output Tensor, the
    op's Tensor inputs, the first one an input the output reads)."""
    rng = np.random.default_rng(31)

    def p(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)

    def case(op, *inputs, **kw):
        return lambda: op(*inputs, **kw), list(inputs)

    att = [Tensor(t.data, requires_grad=True, dtype=dtype) for t in _attention_case(31)[1]]
    mask = _attention_case(31)[2]
    values, scores = [p(5, 4) for _ in range(3)], [p(5, 1) for _ in range(3)]
    targets = np.eye(4, dtype=dtype)[[0, 3, 1]]
    return {
        "matmul": case(ad.matmul, p(3, 4), p(4, 2)),
        "linear": case(ad.linear, p(3, 4), p(4, 2), p(2)),
        "add": case(ad.add, p(3, 4), p(3, 4)),
        "embedding_lookup": case(ad.embedding_lookup, p(5, 3), indices=np.array([0, 4, 2, 2])),
        "relu": case(ad.relu, p(3, 4)),
        "tanh": case(ad.tanh, p(3, 4)),
        "layer_norm": case(ad.layer_norm, p(3, 4), p(4), p(4)),
        "attention": (lambda: ad.attention(*att, mask, 2, 0.7)[0], att),
        "softmax_mix": (lambda: ad.softmax_mix(values, scores)[0], values + scores),
        "cross_entropy": case(ad.cross_entropy, p(3, 4), targets=targets),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_an_op_off_the_tape_gives_the_recorded_output(dtype):
    """Every engine op called under ``no_grad`` gives the bytes and dtype
    of the same call on the tape and records nothing. Its output is a
    non-leaf with a fresh key that needs a gradient exactly when an input
    does, and a gradient sink in a recorded op. With finite checks on, a
    non-finite output made off the tape raises naming the op."""
    cases = _op_cases(dtype)
    assert set(cases) == _recording_ops()
    for name, (call, inputs) in cases.items():
        on = call()
        assert ad.tape_size() == 1, name
        ad.tape_clear()
        with ad.no_grad():
            off = call()
        assert ad.tape_size() == 0, name
        assert (off.data.dtype, off.data.shape, off.data.tobytes()) == (
            on.data.dtype, on.data.shape, on.data.tobytes()), name
        assert off.requires_grad and not off.is_leaf and off.key > on.key, name
        sink = Tensor(np.ones(off.data.shape), requires_grad=True)
        ad.backward(ad.add(off, sink), np.ones(off.data.shape))
        assert all(t.grad is None for t in inputs), name
        assert np.array_equal(sink.grad, np.ones(off.data.shape)), name
        for t in inputs:
            t.requires_grad = False
        with ad.no_grad():
            assert not call().requires_grad, name
    for name, (call, inputs) in _op_cases(dtype).items():
        inputs[0].data.flat[0] = np.nan
        with ad.no_grad(), ad.finite_checks(True):
            with pytest.raises(FloatingPointError, match=f"^{name} produced non-finite values"):
                call()
        assert ad.tape_size() == 0, name


def test_an_op_off_the_tape_builds_no_backward_closure(monkeypatch):
    """Under ``no_grad`` no op calls the closure builder it hands ``_make``,
    nor ``_joint``; on the tape each op calls its builder once."""
    built, make, joint = [], ad._make, ad._joint

    def spy(op_name, data, inputs, closures):
        def builder():
            built.append(op_name)
            return closures()

        return make(op_name, data, inputs, builder)

    def no_joint(*args):
        raise AssertionError("_joint called off the tape")

    monkeypatch.setattr(ad, "_make", spy)
    monkeypatch.setattr(ad, "_joint", no_joint)
    cases = _op_cases(np.float64)
    with ad.no_grad():
        for call, _ in cases.values():
            call()
    assert built == [] and ad.tape_size() == 0
    monkeypatch.setattr(ad, "_joint", joint)
    for call, _ in cases.values():
        call()
    assert built == list(cases) and ad.tape_size() == len(cases)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.uint16, np.int64])
def test_embedding_lookup_equals_fancy_indexing(dtype):
    """The gather gives the bytes of ``table[indices]`` for narrow and wide
    indices, an empty index and a one-row table, and rejects an index
    outside the table. A narrow index's gradient has the bytes of the
    int64 index's, also where a row times the table width overflows it."""
    rng = np.random.default_rng(12)
    for rows in (1, 7, 300):
        table = Tensor(rng.standard_normal((rows, 3)), requires_grad=True, dtype=np.float32)
        top = min(rows, int(np.iinfo(dtype).max) + 1)
        for idx in (np.zeros(0, dtype), np.zeros(1, dtype), rng.integers(0, top, 50).astype(dtype)):
            got, want = ad.embedding_lookup(table, idx).data, table.data[idx]
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
            r = rng.standard_normal(got.shape).astype(np.float32)
            grads = [_grads_through(ad.embedding_lookup(table, i), r, [table])[0]
                     for i in (idx, idx.astype(np.int64))]
            assert grads[0].tobytes() == grads[1].tobytes()
        if rows <= np.iinfo(dtype).max:
            with pytest.raises(ad.ShapeError, match="out of range"):
                ad.embedding_lookup(table, np.array([0, rows], dtype))
        if np.iinfo(dtype).min < 0:
            with pytest.raises(ad.ShapeError, match="out of range"):
                ad.embedding_lookup(table, np.array([-1], dtype))


def test_a_raising_block_restores_the_flag_it_switched():
    """``no_grad`` and ``finite_checks`` put back what they found when
    their block raises, also when nested and when found off."""
    for switch, flag in ((ad.no_grad, "recording"),
                         (lambda: ad.finite_checks(False), "check_finite")):
        for found in (True, False):
            setattr(ad._state, flag, found)
            try:
                with pytest.raises(KeyError):
                    with switch():
                        assert getattr(ad._state, flag) is False
                        with ad.finite_checks(True):
                            raise KeyError("inside")
                assert ad._state.recording is (found if flag == "recording" else True)
                assert ad._state.check_finite is (found if flag == "check_finite" else True)
            finally:
                ad._state.recording = ad._state.check_finite = True


# --- finite-difference checks for every op ---------------------------------


def test_grad_matmul():
    rng = np.random.default_rng(10)
    a, b = _p(rng, 4, 5), _p(rng, 5, 3)
    r = rng.standard_normal((4, 3))
    check_gradients(lambda: ad.matmul(a, b), [a, b], grad=r)


def test_grad_add_linear():
    rng = np.random.default_rng(11)
    a, b = _p(rng, 3, 4), _p(rng, 3, 4)
    w, v = _p(rng, 4, 2), _p(rng, 2)
    r = rng.standard_normal((3, 2))
    check_gradients(lambda: ad.linear(ad.add(a, b), w, v), [a, b, w, v], grad=r)


def _grads_through(out, r, inputs):
    """Backward from the upstream gradient ``r``; returns each input's gradient."""
    for t in inputs:
        t.grad = None
    ad.backward(out, r)
    ad.tape_clear()
    return [t.grad for t in inputs]


def _all_equal(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def test_grad_linear():
    rng = np.random.default_rng(13)
    x, w, b = _p(rng, 5, 4), _p(rng, 4, 3), _p(rng, 3)
    r = rng.standard_normal((5, 3))
    check_gradients(lambda: ad.linear(x, w, b), [x, w, b], grad=r)
    out = ad.linear(x, w, b)
    want, grads = oracle_linear(x.data, w.data, b.data, r)
    assert np.array_equal(out.data, want)
    assert _all_equal(_grads_through(out, r, [x, w, b]), grads)


def test_grad_embedding_lookup():
    rng = np.random.default_rng(14)
    table = _p(rng, 6, 4)
    idx = np.array([0, 3, 3, 5, 1])
    r = rng.standard_normal((5, 4))
    check_gradients(lambda: ad.embedding_lookup(table, idx), [table], grad=r)


def test_grad_relu_tanh():
    rng = np.random.default_rng(15)
    x = _p(rng, 5, 5)
    r = rng.standard_normal((5, 5))
    check_gradients(lambda: ad.tanh(ad.relu(x)), [x], grad=r)


def test_gradient_check_retakes_a_step_across_a_relu_kink():
    """A pre-activation 3e-6 from zero lies within h = 1e-5 of the kink:
    the +h / -h difference straddles it and reads (z + h) / 2h = 0.65
    for a true slope of 1, so the check takes that entry again at h/100,
    where it no longer straddles."""
    w = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
    b = Tensor(np.array([[3e-6, 0.5]]), requires_grad=True)
    assert check_gradients(lambda: ad.relu(ad.add(w, b)), [w, b], h=1e-5,
                           grad=np.ones((1, 2))) < 1e-6


def test_gradient_check_names_an_entry_that_straddles_at_h_over_100():
    """Within h/100 of the kink the retaken difference straddles too, and
    the check fails naming the entry and the smaller |pre-activation| of
    the two evaluations: -4e-9 + 1e-7."""
    b = Tensor(np.array([0.5, -4e-9]), requires_grad=True)
    with pytest.raises(AssertionError, match=r"entry 1 of parameter 0 straddles a ReLU kink "
                                             r"at h/100: smallest \|pre-activation\| 9.6e-08"):
        check_gradients(lambda: ad.relu(b), [b], h=1e-5, grad=np.ones(2))


def test_grad_layer_norm():
    rng = np.random.default_rng(16)
    x, gain, bias = _p(rng, 4, 8), _p(rng, 8), _p(rng, 8)
    r = rng.standard_normal((4, 8))
    check_gradients(lambda: ad.layer_norm(x, gain, bias), [x, gain, bias], grad=r)
    out = ad.layer_norm(x, gain, bias)
    want, grads = oracle_layer_norm(x.data, gain.data, bias.data, ad.LN_EPS, r)
    assert np.array_equal(out.data, want)
    assert _all_equal(_grads_through(out, r, [x, gain, bias]), grads)


def test_grad_softmax_inside_softmax_mix():
    """The softmax inside softmax_mix, through its weighted sum of one-hot rows."""
    rng = np.random.default_rng(17)
    r = rng.standard_normal((4, 6))
    scores = [_p(rng, 4, 1) for _ in range(6)]
    onehots = [Tensor(np.eye(6)[[j] * 4]) for j in range(6)]
    check_gradients(lambda: ad.softmax_mix(onehots, scores)[0], scores, grad=r)


def test_cross_entropy_bit_exact_against_primitive_chain():
    """Value and logits gradient for upstream gradients 1 and 1/3, the
    scale ``train`` puts on a loss at grad_accum_steps 1 and 3."""
    rng = np.random.default_rng(18)
    # at 11 rows, -(1/3) / n and (1/3) * (-1 / n) differ in the last bit
    for n, c in ((1, 2), (3, 4), (8, 4), (5, 7), (11, 3)):
        labels = rng.integers(0, c, size=n)
        for eps in (0.0, 0.1):
            targets = np.full((n, c), eps / c)
            targets[np.arange(n), labels] += 1.0 - eps
            for g in (1.0, 1.0 / 3.0):
                x = Tensor(rng.standard_normal((n, c)) * 3.0, requires_grad=True)
                loss = ad.cross_entropy(x, targets)
                ad.backward(loss, g)
                ad.tape_clear()
                want, dx = oracle_cross_entropy(x.data, targets, g)
                assert np.array_equal(loss.data, want) and np.array_equal(x.grad, dx)
    with pytest.raises(ad.ShapeError, match="cross_entropy"):
        ad.cross_entropy(x, targets[:, :-1])
    with pytest.raises(ad.ShapeError, match="cross_entropy"):
        ad.cross_entropy(Tensor(np.zeros(c)), targets[0])


def _attention_case(seed, heads=2, queries=4, keys=5, dh=3, count=3):
    """Flat q, k, v, bias leaves for ``count`` subgraphs of ``heads``
    heads, and a key mask: all keys, two padded keys, a single unmasked
    key, and the last key padded in each further subgraph."""
    rng = np.random.default_rng(seed)
    d = heads * dh
    q, k, v = _p(rng, count * queries, d), _p(rng, count * keys, d), _p(rng, count * keys, d)
    bias = _p(rng, count * queries * keys, heads)
    mask = np.ones((count, 1, 1, keys), dtype=bool)
    mask[1, ..., [1, 3]] = False
    mask[2] = False
    mask[2, ..., 2] = True
    mask[3:, ..., -1] = False
    return rng, [q, k, v, bias], mask


def _by_head(x, count, heads):
    """(count*rows, heads*dh) -> (count, heads, rows, dh)."""
    return x.reshape(count, -1, heads, x.shape[1] // heads).transpose(0, 2, 1, 3)


def _bias_by_head(bias, count, keys):
    """(count*rows*keys, heads) -> (count, heads, rows, keys)."""
    return bias.reshape(count, -1, keys, bias.shape[1]).transpose(0, 3, 1, 2)


HEADS = (1, 2, 4)


def test_grad_attention():
    for heads in HEADS:
        rng, inputs, mask = _attention_case(24, heads=heads)
        r = rng.standard_normal((12, 3 * heads))
        check_gradients(lambda: ad.attention(*inputs, mask, heads, 0.7)[0], inputs, grad=r)
        q, k, v, bias = inputs
        for bad in (bias.data[:-5], bias.data.reshape(-1, 2 * heads), bias.data.reshape(-1)):
            with pytest.raises(ad.ShapeError, match="attention"):
                ad.attention(q, k, v, Tensor(bad), mask, heads, 1.0)


def test_grad_bmm():
    """The attention op's two batched products, q @ k.T and weights @ v,
    per head, with every key unmasked."""
    for heads in HEADS:
        rng, (q, k, v, bias), _ = _attention_case(23, heads=heads)
        full = np.ones((3, 1, 1, 5), dtype=bool)
        r = rng.standard_normal((12, 3 * heads))
        check_gradients(lambda: ad.attention(q, k, v, bias, full, heads, 0.7)[0], [q, k, v],
                        grad=r)
        with pytest.raises(ad.ShapeError, match="attention"):
            ad.attention(q, _p(rng, 15, 3 * heads + 1), v, bias, full, heads, 1.0)
        with pytest.raises(ad.ShapeError, match="attention"):
            ad.attention(q, k, _p(rng, 12, 3 * heads), bias, full, heads, 1.0)
        with pytest.raises(ad.ShapeError, match="attention"):
            ad.attention(_p(rng, 13, 3 * heads), k, v, bias, full, heads, 1.0)
    # d = 6 does not split into 4 heads, though the bias has 4 columns
    rng, (q, k, v, _), _ = _attention_case(23, heads=2)
    with pytest.raises(ad.ShapeError, match="attention"):
        ad.attention(q, k, v, _p(rng, 60, 4), full, 4, 1.0)


def test_grad_masked_softmax():
    """The attention op's masked softmax over keys: padded keys and a
    one-key row."""
    for heads in HEADS:
        rng, inputs, mask = _attention_case(25, heads=heads)
        r = rng.standard_normal((12, 3 * heads))
        check_gradients(lambda: ad.attention(*inputs, mask, heads, 0.7)[0], inputs[3:],
                        grad=r)
        # masked keys get exactly zero weight, and the bias exactly zero gradient there
        inputs[3].grad = None
        out, weights = ad.attention(*inputs, mask, heads, 0.7)
        assert weights.shape == (3, heads, 4, 5)
        ad.backward(out, r)
        hidden = np.broadcast_to(~mask, weights.shape)
        assert np.all(weights[hidden] == 0.0)
        assert np.all(_bias_by_head(inputs[3].grad, 3, 5)[hidden] == 0.0)
        assert np.all(weights[2, ..., 2] == 1.0)  # the one-key rows
        # the kept keys' weights are the plain softmax of their scores alone
        q, k, v, bias = inputs
        keep = mask[1, 0, 0]
        scores = (_by_head(q.data, 3, heads)[1] @ _by_head(k.data, 3, heads)[1].swapaxes(-1, -2)
                  * 0.7 + _bias_by_head(bias.data, 3, 5)[1])[..., keep]
        plain = np.exp(scores) / np.exp(scores).sum(axis=-1, keepdims=True)
        assert np.max(np.abs(weights[1][..., keep] - plain)) < 1e-15
        with pytest.raises(ad.ShapeError, match="no unmasked key"):
            ad.attention(q, k, v, bias, np.zeros((1, 1, 1, 5), dtype=bool), heads, 1.0)
        with pytest.raises(ad.ShapeError, match="broadcast"):
            ad.attention(q, k, v, bias, np.ones((2, 1, 1, 5), dtype=bool), heads, 1.0)
        with pytest.raises(ad.ShapeError, match="broadcast"):
            ad.attention(q, k, v, bias, np.ones((1, 3, 1, 1, 5), dtype=bool), heads, 1.0)
        assert np.array_equal(ad.attention(q, k, v, bias, np.ones(5, dtype=bool), heads, 0.7)[1],
                              ad.attention(q, k, v, bias, np.ones((3, heads, 4, 5), dtype=bool),
                                           heads, 0.7)[1])


def test_attention_bit_exact_against_primitive_chain():
    """Each head's column block matches the oracle's chain on that head
    alone, bit for bit, whether the softmax takes its row max along the
    rows or, over 16 subgraphs of 8 queries x 8 keys, down the columns."""
    dh, scale = 3, 1.0 / np.sqrt(3)
    column_max = set()
    for count, n, nk in ((3, 4, 5), (16, 8, 8)):
        for heads in HEADS:
            column_max.add(count * heads * n * nk >= 8 * nk * nk)
            for seed in (0, 1):
                rng, inputs, mask = _attention_case(seed, heads, n, nk, dh, count)
                r = rng.standard_normal((count * n, heads * dh))
                out, weights = ad.attention(*inputs, mask, heads, scale)
                got = _grads_through(out, r, inputs)
                q, k, v, bias = (t.data for t in inputs)
                for h in range(heads):
                    cols = slice(h * dh, (h + 1) * dh)
                    want, want_weights, (dq, dkt, dv, dbias) = oracle_attention(
                        q[:, cols].reshape(count, n, dh),
                        k[:, cols].reshape(count, nk, dh).swapaxes(-1, -2),
                        v[:, cols].reshape(count, nk, dh), bias[:, h].reshape(count, n, nk),
                        mask[:, 0], scale, r[:, cols].reshape(count, n, dh))
                    assert np.array_equal(out.data[:, cols], want.reshape(count * n, dh))
                    assert np.array_equal(weights[:, h], want_weights)
                    assert np.array_equal(got[0][:, cols], dq.reshape(count * n, dh))
                    assert np.array_equal(got[1][:, cols],
                                          dkt.swapaxes(-1, -2).reshape(count * nk, dh))
                    assert np.array_equal(got[2][:, cols], dv.reshape(count * nk, dh))
                    assert np.array_equal(got[3][:, h], dbias.reshape(-1))
    assert column_max == {False, True}


def test_masked_keys_ignore_non_finite_scores_and_full_stacks_keep_the_chain_bits():
    """Scores of NaN, inf or -inf at masked keys still give those keys
    weight and gradient exactly 0 and move no other bit. A stack with no
    masked key gives the bytes of the unmasked chain, whether the softmax
    takes its row max along the rows or down the columns."""
    dh, scale = 3, 0.7
    for count, n, nk in ((3, 4, 5), (16, 8, 8)):
        for heads in HEADS:
            rng, inputs, mask = _attention_case(29, heads, n, nk, dh, count)
            r = rng.standard_normal((count * n, heads * dh))
            hidden = np.broadcast_to(~mask, (count, heads, n, nk))
            out, weights = ad.attention(*inputs, mask, heads, scale)
            want = [out.data, weights, *_grads_through(out, r, inputs)]
            bias = _bias_by_head(inputs[3].data, count, nk)  # a view: writes reach the input
            bias[hidden] = rng.choice([np.nan, np.inf, -np.inf], int(hidden.sum()))
            out, weights = ad.attention(*inputs, mask, heads, scale)
            got = [out.data, weights, *_grads_through(out, r, inputs)]
            assert np.all(weights[hidden] == 0.0)
            assert np.all(_bias_by_head(got[-1], count, nk)[hidden] == 0.0)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

            inputs[3].data = rng.standard_normal(inputs[3].shape)
            full = np.ones((count, 1, 1, nk), dtype=bool)
            out, weights = ad.attention(*inputs, full, heads, scale)
            got = [out.data, weights, *_grads_through(out, r, inputs)]
            q, k, v, bias = (t.data for t in inputs)
            for h in range(heads):
                cols = slice(h * dh, (h + 1) * dh)
                chain, chain_weights, grads = oracle_attention(
                    q[:, cols].reshape(count, n, dh),
                    k[:, cols].reshape(count, nk, dh).swapaxes(-1, -2),
                    v[:, cols].reshape(count, nk, dh), bias[:, h].reshape(count, n, nk),
                    full[:, 0], scale, r[:, cols].reshape(count, n, dh))
                dq, dkt, dv, dbias = grads
                assert got[0][:, cols].tobytes() == chain.reshape(count * n, dh).tobytes()
                assert got[1][:, h].tobytes() == chain_weights.tobytes()
                assert got[2][:, cols].tobytes() == dq.reshape(count * n, dh).tobytes()
                assert got[3][:, cols].tobytes() == \
                    dkt.swapaxes(-1, -2).reshape(count * nk, dh).tobytes()
                assert got[4][:, cols].tobytes() == dv.reshape(count * nk, dh).tobytes()
                assert got[5][:, h].tobytes() == dbias.reshape(-1).tobytes()


def _mix_case(seed, sources, n=5, d=4):
    rng = np.random.default_rng(seed)
    return rng, [_p(rng, n, d) for _ in range(sources)], [_p(rng, n, 1) for _ in range(sources)]


def test_grad_softmax_mix():
    for sources in (1, 3):
        rng, values, scores = _mix_case(27, sources)
        r = rng.standard_normal((5, 4))
        check_gradients(lambda: ad.softmax_mix(values, scores)[0], values + scores, grad=r)
    with pytest.raises(ad.ShapeError, match="softmax_mix"):
        ad.softmax_mix(values, scores[:2])
    with pytest.raises(ad.ShapeError, match="softmax_mix"):
        ad.softmax_mix(values, [Tensor(s.data.reshape(1, 5)) for s in scores])


def test_softmax_mix_bit_exact_against_primitive_chain():
    """Five rows take the softmax's row max along the rows; 64 rows of 3
    scores take it down the columns."""
    for sources, n in ((1, 5), (2, 5), (4, 5), (3, 64)):
        rng, values, scores = _mix_case(sources, sources, n=n)
        r = rng.standard_normal((n, 4))
        out, alpha = ad.softmax_mix(values, scores)
        want, want_alpha, grads = oracle_softmax_mix([t.data for t in values],
                                                     [t.data for t in scores], r)
        assert np.array_equal(out.data, want) and np.array_equal(alpha, want_alpha)
        assert _all_equal(_grads_through(out, r, values + scores), grads)


def test_every_op_has_a_criterion_1_probe():
    """Each public op that records on the tape is gradient-checked by a
    criterion-1 probe, and every op a probe names still exists."""
    from pathlib import Path

    ops = _recording_ops()
    text = (Path(__file__).parent / "test_acceptance.py").read_text()
    crit1 = text[text.index("def test_criterion_01"):]
    crit1 = crit1[:crit1.index("\ndef ")]
    probed = set(re.findall(r"\bad\.(\w+)\(", "\n".join(
        line for line in crit1.splitlines() if line.lstrip().startswith("probe("))))
    assert {"matmul", "linear", "layer_norm", "attention", "softmax_mix"} <= ops
    assert ops - probed == set(), "ops without a criterion-1 probe"
    assert probed - ops == set(), "probes naming no op"


def test_grad_three_layer_mlp():
    rng = np.random.default_rng(21)
    w1, b1 = _p(rng, 6, 8), _p(rng, 8)
    w2, b2 = _p(rng, 8, 8), _p(rng, 8)
    w3, b3 = _p(rng, 8, 3), _p(rng, 3)
    x = Tensor(rng.standard_normal((5, 6)))
    r = rng.standard_normal((5, 3))

    def out():
        h = ad.relu(ad.linear(x, w1, b1))
        h = ad.tanh(ad.linear(h, w2, b2))
        return ad.linear(h, w3, b3)

    check_gradients(out, [w1, b1, w2, b2, w3, b3], grad=r)


def test_gradient_accumulation_across_graphs():
    rng = np.random.default_rng(22)
    w = _p(rng, 3, 3)
    x1 = Tensor(rng.standard_normal((2, 3)))
    x2 = Tensor(rng.standard_normal((2, 3)))
    ones = np.ones((2, 3))
    ad.backward(ad.matmul(x1, w), ones)
    ad.tape_clear()
    g1 = w.grad.copy()
    ad.backward(ad.matmul(x2, w), ones)
    ad.tape_clear()
    combined = w.grad.copy()
    w.grad = None
    ad.backward(ad.matmul(x2, w), ones)
    assert np.allclose(combined, g1 + w.grad)


# --- checkpoint container ---------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(23)
    params = {
        "layer0.attn.wq": rng.standard_normal((8, 8)),
        "head.b": rng.standard_normal(3),
        "tables.spatial": rng.standard_normal((7, 2)),
    }
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, params)
    loaded = ad.load_parameters(path)
    assert set(loaded) == set(params)
    for name, arr in loaded.items():
        assert arr.dtype == np.float64
        assert arr.tobytes() == params[name].tobytes()
    ad.save_parameters(tmp_path / "ck2.bin", params)
    assert (tmp_path / "ck.bin").read_bytes() == (tmp_path / "ck2.bin").read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, {"w": np.ones((4, 4))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(ValueError, match="truncated"):
        ad.load_parameters(path)


@pytest.mark.parametrize("at,value", [
    (0, 2**64 - 1),  # parameter count: the file ends before the second
    (8, 2**32 - 1),  # name length
    (13, 2**32 - 1),  # rank
    (17, 2**64 - 1), (17, 2**61), (17, 2**32),  # first dimension
])
def test_checkpoint_size_field_beyond_file_is_truncated(tmp_path, at, value):
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, {"w": np.ones((4, 4))})
    raw = bytearray(path.read_bytes())
    width = 4 if at in (8, 13) else 8
    raw[at:at + width] = value.to_bytes(width, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="truncated checkpoint file"):
        ad.load_parameters(path)


def test_checkpoint_name_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, {"w": np.ones((4, 4))})
    raw = bytearray(path.read_bytes())
    raw[12] = 0xFF  # the first byte of the first parameter's name
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"checkpoint parameter name is not UTF-8: .*ck.bin"):
        ad.load_parameters(path)


def test_checkpoint_roundtrip_of_empty_and_scalar_arrays(tmp_path):
    params = {"e": np.zeros((3, 0)), "s": np.array(2.5), "v": np.zeros(0)}
    ad.save_parameters(tmp_path / "ck.bin", params)
    loaded = ad.load_parameters(tmp_path / "ck.bin")
    assert {k: v.shape for k, v in loaded.items()} == {"e": (3, 0), "s": (), "v": (0,)}
    assert loaded["s"] == 2.5


def test_checkpoint_trailing_bytes_detected(tmp_path):
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, {"w": np.ones((4, 4))})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes after parameter 'w'"):
        ad.load_parameters(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value_detected(tmp_path, bad):
    path = tmp_path / "ck.bin"
    w = np.ones((4, 4))
    w[2, 1] = bad
    ad.save_parameters(path, {"a": np.zeros(3), "w": w})
    with pytest.raises(ValueError, match="'w' has non-finite values"):
        ad.load_parameters(path)
