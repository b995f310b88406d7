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


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.tape_clear()
    yield
    ad.tape_clear()


def _p(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _softmax_weights(x):
    """The weights ``softmax_mix`` gives the columns of ``x`` as scores."""
    values = [Tensor(np.ones((x.shape[0], 2)))] * x.shape[1]
    return ad.softmax_mix(values, [Tensor(x[:, j:j + 1]) for j in range(x.shape[1])])[1]


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


def test_matmul_identity():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 6))
    out = ad.matmul(Tensor(np.eye(4)), Tensor(b))
    assert np.array_equal(out.data, np.eye(4) @ b)
    assert np.allclose(out.data, b)


def test_layer_norm_moments():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((9, 16)) * 3 + 1.5
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), eps=1e-12).data
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
    loss = ad.tsum(ad.relu(ad.matmul(w, w)))
    ad.backward(loss)
    once = w.grad.copy()
    ad.backward(loss)
    assert np.array_equal(w.grad, 2.0 * once)


def _view_reshape(x, shape):
    """A reshape op whose backward hands back a view of the upstream gradient."""
    return ad._make("reshape", x.data.reshape(shape), [(x, lambda g: g.reshape(x.shape))])


def test_backward_grads_never_alias_and_accumulate_exactly():
    """``add`` hands the same upstream array to both inputs, and a view
    closure a view of it; their grads must still be separate arrays that
    own their memory, and a second pass adds exactly."""
    rng = np.random.default_rng(8)
    w1 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w3 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    loss = ad.tsum(ad.mul(ad.add(w1, w2), _view_reshape(w3, (3, 4))))
    ad.backward(loss)
    assert w3.grad.base is None
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
    with pytest.raises(ad.ShapeError, match="linear"):
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3)))
    with pytest.raises(ad.ShapeError, match="layer_norm"):
        ad.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.ones(2)))


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
    w, v = _p(rng, 4, 2), _p(rng, 2)
    r = Tensor(rng.standard_normal((3, 2)))
    _fd(lambda: ad.tsum(ad.mul(ad.linear(ad.add(a, b), w, v), r)), [a, b, w, v])


def test_grad_mul_scalar():
    rng = np.random.default_rng(12)
    x = _p(rng, 4, 5)
    r = Tensor(rng.standard_normal((4, 5)))
    _fd(lambda: ad.tsum(ad.mul(ad.mul_scalar(x, 1.7), r)), [x])


def _grads_through(out, r, inputs):
    """Backward of sum(out * r), so the upstream gradient is ``r`` exactly;
    returns each input's gradient."""
    for t in inputs:
        t.zero_grad()
    ad.backward(ad.tsum(ad.mul(out, Tensor(r))))
    ad.tape_clear()
    return [t.grad for t in inputs]


def _all_equal(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def test_grad_linear():
    rng = np.random.default_rng(13)
    x, w, b = _p(rng, 5, 4), _p(rng, 4, 3), _p(rng, 3)
    r = rng.standard_normal((5, 3))
    _fd(lambda: ad.tsum(ad.mul(ad.linear(x, w, b), Tensor(r))), [x, w, b])
    out = ad.linear(x, w, b)
    want, grads = oracle_linear(x.data, w.data, b.data, r)
    assert np.array_equal(out.data, want)
    assert _all_equal(_grads_through(out, r, [x, w, b]), grads)


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


def test_gradient_check_retakes_a_step_across_a_relu_kink():
    """A pre-activation 3e-6 from zero lies within h = 1e-5 of the kink:
    the +h / -h difference straddles it and reads (z + h) / 2h = 0.65
    for a true slope of 1, so the check takes that entry again at h/100,
    where it no longer straddles."""
    w = Tensor(np.array([[0.0, 1.0]]), requires_grad=True)
    b = Tensor(np.array([[3e-6, 0.5]]), requires_grad=True)
    assert check_gradients(lambda: ad.tsum(ad.relu(ad.add(w, b))), [w, b], h=1e-5) < 1e-6


def test_gradient_check_names_an_entry_that_straddles_at_h_over_100():
    """Within h/100 of the kink the retaken difference straddles too, and
    the check fails naming the entry and the smaller |pre-activation| of
    the two evaluations: -4e-9 + 1e-7."""
    b = Tensor(np.array([0.5, -4e-9]), requires_grad=True)
    with pytest.raises(AssertionError, match=r"entry 1 of parameter 0 straddles a ReLU kink "
                                             r"at h/100: smallest \|pre-activation\| 9.6e-08"):
        check_gradients(lambda: ad.tsum(ad.relu(b)), [b], h=1e-5)


def test_grad_layer_norm():
    rng = np.random.default_rng(16)
    x, gain, bias = _p(rng, 4, 8), _p(rng, 8), _p(rng, 8)
    r = rng.standard_normal((4, 8))
    _fd(lambda: ad.tsum(ad.mul(ad.layer_norm(x, gain, bias), Tensor(r))), [x, gain, bias])
    out = ad.layer_norm(x, gain, bias, eps=1e-5)
    want, grads = oracle_layer_norm(x.data, gain.data, bias.data, 1e-5, r)
    assert np.array_equal(out.data, want)
    assert _all_equal(_grads_through(out, r, [x, gain, bias]), grads)


def test_grad_softmax_inside_softmax_mix():
    """The softmax inside softmax_mix, through its weighted sum of one-hot rows."""
    rng = np.random.default_rng(17)
    r = Tensor(rng.standard_normal((4, 6)))
    scores = [_p(rng, 4, 1) for _ in range(6)]
    onehots = [Tensor(np.eye(6)[[j] * 4]) for j in range(6)]
    _fd(lambda: ad.tsum(ad.mul(ad.softmax_mix(onehots, scores)[0], r)), scores)


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
                ad.backward(ad.mul_scalar(loss, g))
                ad.tape_clear()
                want, dx = oracle_cross_entropy(x.data, targets, g)
                assert np.array_equal(loss.data, want) and np.array_equal(x.grad, dx)
    with pytest.raises(ad.ShapeError, match="cross_entropy"):
        ad.cross_entropy(x, targets[:, :-1])
    with pytest.raises(ad.ShapeError, match="cross_entropy"):
        ad.cross_entropy(Tensor(np.zeros(c)), targets[0])


def _attention_case(seed, heads=2, queries=4, keys=5, dh=3):
    """Flat q, k, v, bias leaves for three subgraphs of ``heads`` heads,
    and a key mask: all keys, two padded keys, and a single unmasked key."""
    rng = np.random.default_rng(seed)
    d = heads * dh
    q, k, v = _p(rng, 3 * queries, d), _p(rng, 3 * keys, d), _p(rng, 3 * keys, d)
    bias = _p(rng, 3 * queries * keys, heads)
    mask = np.ones((3, 1, 1, keys), dtype=bool)
    mask[1, ..., [1, 3]] = False
    mask[2] = False
    mask[2, ..., 2] = True
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
        r = Tensor(rng.standard_normal((12, 3 * heads)))
        _fd(lambda: ad.tsum(ad.mul(ad.attention(*inputs, mask, heads, 0.7)[0], r)), inputs)
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
        r = Tensor(rng.standard_normal((12, 3 * heads)))
        _fd(lambda: ad.tsum(ad.mul(ad.attention(q, k, v, bias, full, heads, 0.7)[0], r)),
            [q, k, v])
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
        r = Tensor(rng.standard_normal((12, 3 * heads)))
        _fd(lambda: ad.tsum(ad.mul(ad.attention(*inputs, mask, heads, 0.7)[0], r)), inputs[3:])
        # masked keys get exactly zero weight, and the bias exactly zero gradient there
        inputs[3].zero_grad()
        out, weights = ad.attention(*inputs, mask, heads, 0.7)
        assert weights.shape == (3, heads, 4, 5)
        ad.backward(ad.tsum(ad.mul(out, r)))
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


def test_attention_bit_exact_against_primitive_chain():
    """Each head's column block matches the oracle's chain on that head
    alone, bit for bit."""
    dh, scale = 3, 1.0 / np.sqrt(3)
    for heads in HEADS:
        for seed in (0, 1):
            rng, inputs, mask = _attention_case(seed, heads=heads, dh=dh)
            r = rng.standard_normal((12, heads * dh))
            out, weights = ad.attention(*inputs, mask, heads, scale)
            got = _grads_through(out, r, inputs)
            q, k, v, bias = (t.data for t in inputs)
            for h in range(heads):
                cols = slice(h * dh, (h + 1) * dh)
                want, want_weights, (dq, dkt, dv, dbias) = oracle_attention(
                    q[:, cols].reshape(3, 4, dh), k[:, cols].reshape(3, 5, dh).swapaxes(-1, -2),
                    v[:, cols].reshape(3, 5, dh), bias[:, h].reshape(3, 4, 5), mask[:, 0],
                    scale, r[:, cols].reshape(3, 4, dh))
                assert np.array_equal(out.data[:, cols], want.reshape(12, dh))
                assert np.array_equal(weights[:, h], want_weights)
                assert np.array_equal(got[0][:, cols], dq.reshape(12, dh))
                assert np.array_equal(got[1][:, cols], dkt.swapaxes(-1, -2).reshape(15, dh))
                assert np.array_equal(got[2][:, cols], dv.reshape(15, dh))
                assert np.array_equal(got[3][:, h], dbias.reshape(-1))


def _mix_case(seed, sources, n=5, d=4):
    rng = np.random.default_rng(seed)
    return rng, [_p(rng, n, d) for _ in range(sources)], [_p(rng, n, 1) for _ in range(sources)]


def test_grad_softmax_mix():
    for sources in (1, 3):
        rng, values, scores = _mix_case(27, sources)
        r = Tensor(rng.standard_normal((5, 4)))
        _fd(lambda: ad.tsum(ad.mul(ad.softmax_mix(values, scores)[0], r)), values + scores)
    with pytest.raises(ad.ShapeError, match="softmax_mix"):
        ad.softmax_mix(values, scores[:2])
    with pytest.raises(ad.ShapeError, match="softmax_mix"):
        ad.softmax_mix(values, [Tensor(s.data.reshape(1, 5)) for s in scores])


def test_softmax_mix_bit_exact_against_primitive_chain():
    for sources in (1, 2, 4):
        rng, values, scores = _mix_case(sources, sources)
        r = rng.standard_normal((5, 4))
        out, alpha = ad.softmax_mix(values, scores)
        want, want_alpha, grads = oracle_softmax_mix([t.data for t in values],
                                                     [t.data for t in scores], r)
        assert np.array_equal(out.data, want) and np.array_equal(alpha, want_alpha)
        assert _all_equal(_grads_through(out, r, values + scores), grads)


def test_every_op_has_a_criterion_1_probe():
    """Each public op that records on the tape is gradient-checked by a
    criterion-1 probe, and every op a probe names still exists."""
    import inspect
    import re
    from pathlib import Path

    ops = {name for name in ad.__all__ if inspect.isfunction(getattr(ad, name))
           and "_make(" in inspect.getsource(getattr(ad, name))}
    text = (Path(__file__).parent / "test_acceptance.py").read_text()
    crit1 = text[text.index("def test_criterion_01"):]
    crit1 = crit1[:crit1.index("\ndef ")]
    probed = set(re.findall(r"\bad\.(\w+)\(", "\n".join(
        line for line in crit1.splitlines() if line.lstrip().startswith("probe("))))
    assert {"matmul", "linear", "layer_norm", "attention", "softmax_mix"} <= ops
    assert ops - probed == set(), "ops without a criterion-1 probe"
    assert probed - ops == set(), "probes naming no op"


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
        h = ad.relu(ad.linear(x, w1, b1))
        h = ad.tanh(ad.linear(h, w2, b2))
        return ad.tsum(ad.mul(ad.linear(h, w3, b3), r))

    _fd(loss, [w1, b1, w2, b2, w3, b3])


def test_gradient_accumulation_across_graphs():
    rng = np.random.default_rng(22)
    w = _p(rng, 3, 3)
    x1 = Tensor(rng.standard_normal((2, 3)))
    x2 = Tensor(rng.standard_normal((2, 3)))
    ad.backward(ad.tsum(ad.matmul(x1, w)))
    ad.tape_clear()
    g1 = w.grad.copy()
    ad.backward(ad.tsum(ad.matmul(x2, w)))
    ad.tape_clear()
    combined = w.grad.copy()
    w.zero_grad()
    ad.backward(ad.tsum(ad.matmul(x2, w)))
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


@pytest.mark.parametrize("at,value", [
    (0, 2**64 - 1),  # parameter count: the file ends before the second
    (8, 2**32 - 1),  # name length
    (13, 2**32 - 1),  # rank
    (17, 2**64 - 1), (17, 2**61), (17, 2**32),  # first dimension
])
def test_checkpoint_size_field_beyond_file_is_truncated(tmp_path, at, value):
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, {"w": Tensor(np.ones((4, 4)))})
    raw = bytearray(path.read_bytes())
    width = 4 if at in (8, 13) else 8
    raw[at:at + width] = value.to_bytes(width, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="truncated checkpoint file"):
        ad.load_parameters(path)


def test_checkpoint_name_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "ck.bin"
    ad.save_parameters(path, {"w": Tensor(np.ones((4, 4)))})
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
