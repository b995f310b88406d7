import numpy as np
import pytest

from tapeformer.fusion import FusionConfig, FusionLayer

from helpers import check_gradients

DIMS = {"expl": 6, "pred": 4, "text": 6, "ogb": 5}


def _layer(active=("expl", "pred", "text", "ogb"), seed=0, d_model=8):
    cfg = FusionConfig(d_model=d_model, source_dims=DIMS, active=active)
    return FusionLayer(cfg, np.random.default_rng(seed))


def _bundle(rng, n):
    return {s: rng.standard_normal((n, d)) for s, d in DIMS.items()}


def _rows(layer, bundle):
    """``fuse``'s input: every node of ``bundle`` as ``source_rows`` gathers it."""
    return layer.source_rows(bundle, np.arange(len(bundle["expl"])))


def test_all_sources_masked_is_config_error():
    with pytest.raises(ValueError, match="at least one source"):
        FusionConfig(d_model=8, source_dims=DIMS, active=())


def test_unknown_source_rejected():
    with pytest.raises(ValueError, match="unknown sources"):
        FusionConfig(d_model=8, source_dims=DIMS, active=("expl", "bogus"))


def test_single_source_weight_one_and_passthrough():
    layer = _layer(active=("text",))
    rng = np.random.default_rng(1)
    rows = _rows(layer, _bundle(rng, 5))
    out, alpha = layer.fuse(rows, return_weights=True)
    assert np.allclose(alpha.data, 1.0)
    expect = rows["text"].data @ layer.proj["text"].data
    assert np.allclose(out.data, expect, atol=1e-12)


def test_two_identical_sources_half_half():
    # expl and text share dimension; give them identical inputs + projections
    layer = _layer(active=("expl", "text"))
    layer.proj["text"].data = layer.proj["expl"].data.copy()
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 6))
    out, alpha = layer.fuse(_rows(layer, {"expl": h, "text": h}), return_weights=True)
    assert np.allclose(alpha.data, 0.5, atol=1e-12)
    assert np.allclose(out.data, h @ layer.proj["expl"].data, atol=1e-12)


def test_weights_sum_to_one():
    layer = _layer()
    rng = np.random.default_rng(3)
    for _ in range(10):
        _, alpha = layer.fuse(_rows(layer, _bundle(rng, 7)), return_weights=True)
        assert np.allclose(alpha.data.sum(axis=1), 1.0, atol=1e-9)


def test_gradients_match_finite_differences():
    layer = _layer(seed=4)
    rng = np.random.default_rng(5)
    rows = _rows(layer, _bundle(rng, 3))
    r = rng.standard_normal((3, 8))
    params = list(layer.parameters().values())
    check_gradients(lambda: layer.fuse(rows), params, grad=r)


def test_masking_equals_source_removal():
    rng = np.random.default_rng(6)
    full = _layer(seed=7)
    sub = _layer(active=("expl", "text", "ogb"), seed=8)
    # share the surviving parameters exactly
    for s in sub.cfg.active:
        sub.proj[s].data = full.proj[s].data.copy()
    sub.score_m.data = full.score_m.data.copy()
    sub.score_w.data = full.score_w.data.copy()
    rows = _rows(full, _bundle(rng, 5))
    out_masked = sub.fuse({s: rows[s] for s in sub.cfg.active})
    assert out_masked.data.shape == (5, 8)
    # and equals a layer constructed directly without the source
    again = _layer(active=("expl", "text", "ogb"), seed=9)
    for s in again.cfg.active:
        again.proj[s].data = full.proj[s].data.copy()
    again.score_m.data = full.score_m.data.copy()
    again.score_w.data = full.score_w.data.copy()
    assert np.array_equal(out_masked.data, again.fuse({s: rows[s] for s in again.cfg.active}).data)


def test_permutation_covariant_in_source_order():
    rng = np.random.default_rng(10)
    a = _layer(active=("expl", "pred", "text"), seed=11)
    b = _layer(active=("text", "expl", "pred"), seed=12)
    for s in a.cfg.active:
        b.proj[s].data = a.proj[s].data.copy()
    b.score_m.data = a.score_m.data.copy()
    b.score_w.data = a.score_w.data.copy()
    rows = _rows(a, _bundle(rng, 6))
    assert np.allclose(a.fuse(rows).data, b.fuse(rows).data, atol=1e-12)


def test_zero_rows_still_finite():
    layer = _layer()
    out = layer.fuse(_rows(layer, {s: np.zeros((3, d)) for s, d in DIMS.items()}))
    assert np.allclose(out.data, 0.0)


def test_float64_layer_refuses_rows_narrower_than_its_dtype():
    """float32 rows would enter a float64 layer already rounded: refused,
    naming the source, both dtypes and the load that avoids them. A
    float32 layer takes float64 or float32 rows."""
    layer = _layer()
    bundle = _bundle(np.random.default_rng(5), 3)
    narrow = {s: h.astype(np.float32) if s == "pred" else h for s, h in bundle.items()}
    with pytest.raises(ValueError, match=r"source 'pred' rows are float32, narrower than the "
                                         r'float64 model: load the dataset with '
                                         r'load_dataset\(\.\.\., dtype="float64"\)'):
        _rows(layer, narrow)
    for p in layer.parameters().values():
        p.data = p.data.astype(np.float32)
    assert (layer.fuse(_rows(layer, bundle)).data.tobytes()
            == layer.fuse(_rows(layer, narrow)).data.tobytes())
