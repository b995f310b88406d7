import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer.autodiff import Tensor

from helpers import check_gradients


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.tape_clear()
    yield
    ad.tape_clear()


def _p(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_softmax_uniform_row():
    out = ad.softmax(Tensor(np.zeros((1, 4))))
    assert np.allclose(out.data, 0.25)
    assert abs(out.data.sum() - 1.0) < 1e-9


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 11)) * 5
    p = ad.softmax(Tensor(x)).data
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)
    p_shift = ad.softmax(Tensor(x + 12.345)).data
    assert np.max(np.abs(p - p_shift)) < 1e-12


def test_matmul_identity():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 6))
    out = ad.matmul(Tensor(np.eye(4)), Tensor(b))
    assert np.array_equal(out.data, np.eye(4) @ b)
    assert np.allclose(out.data, b)


def test_layer_norm_moments():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((9, 16)) * 3 + 1.5
    out = ad.layer_norm(Tensor(x), eps=1e-12).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    loss = ad.tsum(w)
    ad.backward(loss)
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_twice_doubles():
    rng = np.random.default_rng(3)
    w = _p(rng, 3, 3)
    loss = ad.mean(ad.relu(ad.matmul(w, w)))
    ad.backward(loss)
    once = w.grad.copy()
    ad.backward(loss)
    assert np.array_equal(w.grad, 2.0 * once)


def test_backward_grads_never_alias_and_accumulate_exactly():
    """``add`` hands the same upstream array to both inputs; their grads
    must still be separate arrays, and a second pass adds exactly."""
    rng = np.random.default_rng(8)
    w1 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w3 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    loss = ad.tsum(ad.mul(ad.add(w1, w2), ad.reshape(w3, (3, 4))))
    ad.backward(loss)
    first = {id(t): t.grad.copy() for t in (w1, w2, w3)}
    w1.grad += 100.0
    assert np.array_equal(w2.grad, first[id(w2)])
    w2.grad[0, 0] = -7.0
    assert np.array_equal(w3.grad, first[id(w3)])
    ad.backward(loss)
    assert np.array_equal(w1.grad, (first[id(w1)] + 100.0) + first[id(w1)])
    assert np.array_equal(w3.grad, first[id(w3)] + first[id(w3)])
    assert np.array_equal(w3.grad, 2.0 * (w1.data + w2.data).reshape(4, 3))
    ad.tape_clear()


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.matmul(w, w))


def test_shape_mismatch_names_op():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError, match="bias_add"):
        ad.bias_add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_finite_check_trips():
    big = Tensor(np.array([[1e308, 1e308]]))
    with pytest.raises(FloatingPointError):
        ad.mul_scalar(big, 10.0)


def test_no_grad_skips_recording():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        ad.matmul(w, w)
    assert ad.tape_size() == 0


# --- finite-difference checks for every op ---------------------------------


def _fd(make_loss, params, **kw):
    return check_gradients(make_loss, params, **kw)


def test_grad_matmul():
    rng = np.random.default_rng(10)
    a, b = _p(rng, 4, 5), _p(rng, 5, 3)
    r = Tensor(rng.standard_normal((4, 3)))
    _fd(lambda: ad.tsum(ad.mul(ad.matmul(a, b), r)), [a, b])


def test_grad_add_bias_mul():
    rng = np.random.default_rng(11)
    a, b = _p(rng, 3, 4), _p(rng, 3, 4)
    v = _p(rng, 4)
    r = Tensor(rng.standard_normal((3, 4)))
    _fd(lambda: ad.tsum(ad.mul(ad.bias_add(ad.add(a, b), v), r)), [a, b, v])


def test_grad_mul_scalar_row_col_scale():
    rng = np.random.default_rng(12)
    x = _p(rng, 4, 5)
    rv = _p(rng, 4)
    cv = _p(rng, 5)
    r = Tensor(rng.standard_normal((4, 5)))
    _fd(
        lambda: ad.tsum(ad.mul(ad.col_scale(ad.row_scale(ad.mul_scalar(x, 1.7), rv), cv), r)),
        [x, rv, cv],
    )


def test_grad_concat_slice():
    rng = np.random.default_rng(13)
    a, b = _p(rng, 3, 2), _p(rng, 3, 4)
    r = Tensor(rng.standard_normal((3, 3)))
    _fd(lambda: ad.tsum(ad.mul(ad.slice_cols(ad.concat([a, b], axis=1), 1, 4), r)), [a, b])
    c, d = _p(rng, 2, 3), _p(rng, 4, 3)
    r2 = Tensor(rng.standard_normal((6, 3)))
    _fd(lambda: ad.tsum(ad.mul(ad.concat([c, d], axis=0), r2)), [c, d])


def test_grad_embedding_lookup():
    rng = np.random.default_rng(14)
    table = _p(rng, 6, 4)
    idx = np.array([0, 3, 3, 5, 1])
    r = Tensor(rng.standard_normal((5, 4)))
    _fd(lambda: ad.tsum(ad.mul(ad.embedding_lookup(table, idx), r)), [table])


def test_grad_relu_tanh():
    rng = np.random.default_rng(15)
    x = _p(rng, 5, 5)
    r = Tensor(rng.standard_normal((5, 5)))
    _fd(lambda: ad.tsum(ad.mul(ad.tanh(ad.relu(x)), r)), [x])


def test_grad_layer_norm():
    rng = np.random.default_rng(16)
    x = _p(rng, 4, 8)
    r = Tensor(rng.standard_normal((4, 8)))
    _fd(lambda: ad.tsum(ad.mul(ad.layer_norm(x), r)), [x])


def test_grad_softmax_log_softmax():
    rng = np.random.default_rng(17)
    x = _p(rng, 4, 6)
    r = Tensor(rng.standard_normal((4, 6)))
    _fd(lambda: ad.tsum(ad.mul(ad.softmax(x), r)), [x])
    _fd(lambda: ad.tsum(ad.mul(ad.log_softmax(x), r)), [x])


def test_grad_mean_sum_axes():
    rng = np.random.default_rng(18)
    x = _p(rng, 4, 6)
    _fd(lambda: ad.mean(x), [x])
    _fd(lambda: ad.mean(ad.tsum(x, axis=1), axis=0), [x])
    r = Tensor(rng.standard_normal(6))
    _fd(lambda: ad.tsum(ad.mul(ad.mean(x, axis=0), r)), [x])


def test_grad_transpose_reshape():
    rng = np.random.default_rng(19)
    x = _p(rng, 3, 4)
    r = Tensor(rng.standard_normal((4, 3)))
    _fd(lambda: ad.tsum(ad.mul(ad.transpose(x), r)), [x])
    r2 = Tensor(rng.standard_normal((2, 6)))
    _fd(lambda: ad.tsum(ad.mul(ad.reshape(x, (2, 6)), r2)), [x])


def test_grad_bmm():
    rng = np.random.default_rng(24)
    a, b = _p(rng, 2, 3, 4, 5), _p(rng, 2, 3, 5, 2)
    r = Tensor(rng.standard_normal((2, 3, 4, 2)))
    _fd(lambda: ad.tsum(ad.mul(ad.bmm(a, b), r)), [a, b])
    with pytest.raises(ad.ShapeError, match="bmm"):
        ad.bmm(a, _p(rng, 3, 2, 5, 2))


def test_grad_masked_softmax():
    rng = np.random.default_rng(25)
    x = _p(rng, 2, 3, 4, 5)
    mask = rng.random((2, 1, 1, 5)) < 0.6
    mask[:, ..., 0] = True
    r = Tensor(rng.standard_normal((2, 3, 4, 5)))
    _fd(lambda: ad.tsum(ad.mul(ad.masked_softmax(x, mask), r)), [x])
    # masked entries get exactly zero weight and zero gradient
    x.zero_grad()
    out = ad.masked_softmax(x, mask)
    ad.backward(ad.tsum(ad.mul(out, r)))
    hidden = np.broadcast_to(~mask, x.shape)
    assert np.all(out.data[hidden] == 0.0) and np.all(x.grad[hidden] == 0.0)
    # the unmasked entries are the plain softmax of those entries alone
    keep = mask[1, 0, 0]
    plain = ad.softmax(Tensor(x.data[1, :, :, keep].transpose(1, 2, 0))).data
    assert np.max(np.abs(out.data[1][..., keep] - plain)) < 1e-15
    with pytest.raises(ad.ShapeError, match="no unmasked entry"):
        ad.masked_softmax(x, np.zeros((1, 1, 1, 5), dtype=bool))
    with pytest.raises(ad.ShapeError, match="broadcast"):
        ad.masked_softmax(x, np.ones((3, 1, 1, 5), dtype=bool))


def test_grad_permute():
    rng = np.random.default_rng(26)
    x = _p(rng, 2, 3, 4)
    r = Tensor(rng.standard_normal((4, 2, 3)))
    _fd(lambda: ad.tsum(ad.mul(ad.permute(x, (2, 0, 1)), r)), [x])
    assert np.array_equal(ad.permute(x, (2, 0, 1)).data, np.transpose(x.data, (2, 0, 1)))
    with pytest.raises(ad.ShapeError, match="permute"):
        ad.permute(x, (0, 0, 1))


def test_grad_dropout_fixed_mask():
    rng = np.random.default_rng(20)
    x = _p(rng, 6, 6)
    r = Tensor(rng.standard_normal((6, 6)))
    _fd(lambda: ad.tsum(ad.mul(ad.dropout(x, 0.4, np.random.default_rng(7)), r)), [x])


def test_grad_three_layer_mlp():
    rng = np.random.default_rng(21)
    w1, b1 = _p(rng, 6, 8), _p(rng, 8)
    w2, b2 = _p(rng, 8, 8), _p(rng, 8)
    w3, b3 = _p(rng, 8, 3), _p(rng, 3)
    x = Tensor(rng.standard_normal((5, 6)))
    r = Tensor(rng.standard_normal((5, 3)))

    def loss():
        h = ad.relu(ad.bias_add(ad.matmul(x, w1), b1))
        h = ad.tanh(ad.bias_add(ad.matmul(h, w2), b2))
        return ad.tsum(ad.mul(ad.bias_add(ad.matmul(h, w3), b3), r))

    _fd(loss, [w1, b1, w2, b2, w3, b3])


def test_gradient_accumulation_across_graphs():
    rng = np.random.default_rng(22)
    w = _p(rng, 3, 3)
    x1 = Tensor(rng.standard_normal((2, 3)))
    x2 = Tensor(rng.standard_normal((2, 3)))
    ad.backward(ad.mean(ad.matmul(x1, w)))
    ad.tape_clear()
    g1 = w.grad.copy()
    ad.backward(ad.mean(ad.matmul(x2, w)))
    ad.tape_clear()
    combined = w.grad.copy()
    w.zero_grad()
    ad.backward(ad.mean(ad.matmul(x2, w)))
    assert np.allclose(combined, g1 + w.grad)


# --- checkpoint container ---------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(23)
    params = {
        "layer0.attn.wq": Tensor(rng.standard_normal((8, 8)), requires_grad=True),
        "head.b": Tensor(rng.standard_normal(3), requires_grad=True),
        "tables.spatial": Tensor(rng.standard_normal((7, 2)), requires_grad=True),
    }
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, params)
    loaded = ad.load_parameters(path)
    assert set(loaded) == set(params)
    for name, arr in loaded.items():
        assert arr.dtype == np.float64
        assert arr.tobytes() == params[name].data.tobytes()
    ad.save_parameters(tmp_path / "ck2.bin", params)
    assert (tmp_path / "ck.bin").read_bytes() == (tmp_path / "ck2.bin").read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, {"w": Tensor(np.ones((4, 4)))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(ValueError, match="truncated"):
        ad.load_parameters(path)


def test_checkpoint_trailing_bytes_detected(tmp_path):
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, {"w": Tensor(np.ones((4, 4)))})
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
