import types

import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer import graph as gr
from tapeformer import model as gm
from tapeformer import training as tr
from tapeformer.autodiff import Tensor
from tapeformer.fusion import FusionConfig
from tapeformer.text import DataError, EmbeddingBundle

from helpers import random_edge_list


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.tape_clear()
    yield
    ad.tape_clear()


# --- loss --------------------------------------------------------------------


def test_loss_peaked_logits_near_zero():
    logits = Tensor(np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]]))
    loss = tr.smoothed_cross_entropy(logits, np.array([0, 1]), 0.0)
    assert float(loss.data) < 1e-9


def test_loss_eps_zero_equals_textbook_cross_entropy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, c = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        logits = rng.standard_normal((n, c)) * 3
        labels = rng.integers(0, c, size=n)
        got = float(tr.smoothed_cross_entropy(Tensor(logits), labels, 0.0).data)
        # direct softmax + log formula
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        expect = float(np.mean(-np.log(p[np.arange(n), labels])))
        assert abs(got - expect) < 1e-12


def test_loss_smoothing_matches_direct_summation_oracle():
    rng = np.random.default_rng(1)
    eps = 0.1
    for _ in range(20):
        n, c = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        logits = rng.standard_normal((n, c)) * 2
        labels = rng.integers(0, c, size=n)
        got = float(tr.smoothed_cross_entropy(Tensor(logits), labels, eps).data)
        # independent direct double summation
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        total = 0.0
        for i in range(n):
            for k in range(c):
                y = (1 - eps) * (1.0 if k == labels[i] else 0.0) + eps / c
                total -= y * np.log(p[i, k])
        assert abs(got - total / n) < 1e-10


def test_loss_invalid_label_is_error():
    with pytest.raises(ValueError, match="out of range"):
        tr.smoothed_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]), 0.0)


def test_loss_gradient_flows():
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((5, 4)))
    loss = tr.smoothed_cross_entropy(ad.matmul(x, w), np.array([0, 1, 2, 0, 1]), 0.1)
    ad.backward(loss)
    assert w.grad is not None and np.linalg.norm(w.grad) > 0


# --- Adam --------------------------------------------------------------------


def test_adam_zero_gradient_no_change():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = tr.Adam({"p": p})
    opt.step(0.1)
    assert np.array_equal(p.data, np.array([1.0, -2.0]))


def test_adam_first_step_is_signed_lr():
    for g in (0.3, -40.0):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([g])
        opt = tr.Adam({"p": p})
        opt.step(0.01)
        assert p.data[0] == pytest.approx(-0.01 * np.sign(g), rel=1e-6)


def test_adam_in_place_matches_textbook_formulas_bit_for_bit():
    rng = np.random.default_rng(14)
    shapes = {"a": (5, 7), "b": (7,), "c": (3, 2, 4), "skipped": (2, 2)}
    params = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: t.data.copy() for k, t in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = tr.Adam(params)
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    for t in range(1, 7):
        lr = 0.01 * t
        for k, p in params.items():
            p.grad = None if k == "skipped" else rng.standard_normal(shapes[k]) * 10.0 ** t
        opt.step(lr)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, p in params.items():
            if p.grad is None:
                continue
            g = p.grad
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            ref[k] = ref[k] - lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
        for k, p in params.items():
            assert p.data.tobytes() == ref[k].tobytes(), (t, k)
            assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes()


def test_adam_converges_on_quadratic():
    # decaying lr is required: Adam at fixed lr oscillates at O(lr) around
    # a quadratic's optimum, so the run uses the package's own schedule
    rng = np.random.default_rng(3)
    target = rng.standard_normal(6) * 0.1
    p = Tensor(np.zeros(6), requires_grad=True)
    opt = tr.Adam({"p": p})
    for step in range(1, 101):
        opt.zero_grad()
        p.grad = 2.0 * (p.data - target)
        opt.step(tr.lr_at(step, 0.05, 0, 100))
    assert np.max(np.abs(p.data - target)) < 1e-3


# --- lr schedule -------------------------------------------------------------


def _lr(step):
    return tr.lr_at(step, 0.002, 10, 100)


def test_lr_zero_at_step_zero():
    assert _lr(0) == 0.0


def test_lr_base_at_warmup_end():
    assert _lr(10) == pytest.approx(0.002)


def test_lr_sweep_monotone_up_then_down():
    lrs = [_lr(s) for s in range(0, 101)]
    assert max(lrs) == pytest.approx(0.002)
    peak = int(np.argmax(lrs))
    assert all(lrs[i] <= lrs[i + 1] for i in range(peak))
    assert all(lrs[i] >= lrs[i + 1] for i in range(peak, 100))
    assert lrs[100] == 0.0


# --- temporal split ----------------------------------------------------------


def test_split_one_node_per_partition():
    years = np.array([2016, 2018, 2020])
    split = tr.make_temporal_split(years)
    assert split.train_ids.tolist() == [0]
    assert split.val_ids.tolist() == [1]
    assert split.test_ids.tolist() == [2]


def test_split_empty_partition_is_error():
    with pytest.raises(DataError, match="empty"):
        tr.make_temporal_split(np.array([2015, 2016, 2017]))


def test_split_excludes_unlabeled():
    years = np.array([2016, 2016, 2018, 2019])
    labels = np.array([1, -1, 0, 2])
    split = tr.make_temporal_split(years, labels)
    assert split.train_ids.tolist() == [0]
    assert 1 not in np.concatenate([split.train_ids, split.val_ids, split.test_ids])


def test_split_boundaries_configurable():
    years = np.array([1999, 2005, 2010])
    split = tr.make_temporal_split(years, train_last_year=2000, test_first_year=2008)
    assert split.train_ids.tolist() == [0]
    assert split.val_ids.tolist() == [1]
    assert split.test_ids.tolist() == [2]


# --- training loop -----------------------------------------------------------


class _ScalarStubModel:
    """Logits [w, 0]: predicts class 0 while w > 0, class 1 after."""

    def __init__(self, w0: float):
        self.w = Tensor(np.array([[w0]]), requires_grad=True)

    def parameters(self):
        return {"w": self.w}

    def load_state(self, state):
        self.w.data = state["w"].copy()

    def build_centers(self, data, centers, seed):
        pass

    def logits_for_centers(self, data, centers, seed=0, train=False, rng=None):
        b = len(centers)
        col = ad.matmul(Tensor(np.ones((b, 1))), self.w)
        return ad.matmul(col, Tensor(np.array([[1.0, 0.0]])))


def _stub_data(n_train=10, n_val=4):
    labels = np.concatenate([np.ones(n_train, dtype=np.int64), np.zeros(n_val, dtype=np.int64)])
    years = np.concatenate([np.full(n_train, 2015), np.full(n_val, 2018)])
    data = types.SimpleNamespace(labels=labels, graph=None, bundle=None)
    split = tr.TemporalSplit(
        train_ids=np.arange(n_train),
        val_ids=np.arange(n_train, n_train + n_val),
        test_ids=np.arange(n_train, n_train + n_val),
    )
    return data, split


def test_early_stopping_returns_previous_best():
    # training pushes w negative; val wants w positive, so val accuracy
    # drops from 1.0 to 0.0 as soon as w crosses zero
    data, split = _stub_data()
    model = _ScalarStubModel(w0=0.02)
    cfg = tr.TrainConfig(epochs=30, base_lr=0.004, label_smoothing=0.0,
                         batch_size=2, early_stop_patience=1, seed=0)
    result = tr.train(model, data, split, cfg)
    assert result.history[0].val_accuracy == 1.0
    assert result.history[-1].val_accuracy < 1.0
    assert len(result.history) == result.history[-1].epoch  # stopped right after the drop
    assert result.best_epoch == 1
    assert result.best_val_accuracy == 1.0
    assert result.best_state["w"][0, 0] > 0  # the epoch-1 snapshot, not the final one
    # never returns a checkpoint below the best observed accuracy
    assert result.best_val_accuracy == max(r.val_accuracy for r in result.history)


def _mini_graph_data(seed=0, n=24, c=3):
    rng = np.random.default_rng(seed)
    g = gr.from_edge_list(random_edge_list(rng, n, 0.15), n)
    bundle = EmbeddingBundle(
        h_expl=rng.standard_normal((n, 5)),
        h_pred=rng.standard_normal((n, c)),
        h_text=rng.standard_normal((n, 5)),
        h_ogb=rng.standard_normal((n, 4)),
    )
    labels = rng.integers(0, c, size=n)
    data = types.SimpleNamespace(graph=g, bundle=bundle, labels=labels)
    split = tr.TemporalSplit(train_ids=np.arange(16), val_ids=np.arange(16, 20),
                             test_ids=np.arange(20, 24))
    return data, split


def _tiny_model(seed, c=3):
    cfg = gm.GraphormerConfig(num_classes=c, num_layers=1, num_heads=2, d_model=8,
                              d_ffn=12, max_spd=3, max_degree_bucket=8,
                              ego_hops=1, ego_max_nodes=6)
    fusion = FusionConfig(d_model=8, source_dims={"expl": 5, "pred": c, "text": 5, "ogb": 4})
    return gm.GraphormerModel(cfg, fusion, seed=seed)


def test_grad_accum_matches_full_batch():
    data, split = _mini_graph_data()
    results = []
    for batch_size, accum in ((8, 2), (16, 1)):
        model = _tiny_model(seed=5)
        cfg = tr.TrainConfig(epochs=1, base_lr=0.01, warmup_steps=0, batch_size=batch_size,
                             grad_accum_steps=accum, early_stop_patience=5, seed=7)
        results.append(tr.train(model, data, split, cfg))
    a, b = results
    assert set(a.best_state) == set(b.best_state)
    for k in a.best_state:
        assert np.max(np.abs(a.best_state[k] - b.best_state[k])) < 1e-10, k


def test_training_reproducible_bitwise():
    outs = []
    for _ in range(2):
        data, split = _mini_graph_data(seed=1)
        model = _tiny_model(seed=2)
        cfg = tr.TrainConfig(epochs=3, base_lr=0.01, batch_size=8, early_stop_patience=10, seed=3)
        outs.append(tr.train(model, data, split, cfg))
    a, b = outs
    assert [vars(r) for r in a.history] == [vars(r) for r in b.history]
    for k in a.best_state:
        assert a.best_state[k].tobytes() == b.best_state[k].tobytes()


def test_history_csv_roundtrip(tmp_path):
    rows = [tr.HistoryRow(1, 2, 0.5, 0.25, 1e-3), tr.HistoryRow(2, 4, 0.25, 0.5, 5e-4)]
    p = tmp_path / "history.csv"
    tr.write_history_csv(p, rows)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "epoch,step,train_loss,val_accuracy,lr"
    assert len(lines) == 3
    tr.write_history_csv(tmp_path / "h2.csv", rows)
    assert p.read_bytes() == (tmp_path / "h2.csv").read_bytes()


def test_micro_batches_run_without_finite_checks():
    data, split = _stub_data()
    seen = []

    class Recording(_ScalarStubModel):
        def logits_for_centers(self, data, centers, seed=0, train=False, rng=None):
            seen.append((train, ad._state.check_finite))
            return super().logits_for_centers(data, centers, seed, train, rng)

    cfg = tr.TrainConfig(epochs=1, base_lr=0.01, batch_size=4, early_stop_patience=1, seed=0)
    tr.train(Recording(w0=0.5), data, split, cfg)
    assert {checks for train, checks in seen if train} == {False}
    assert {checks for train, checks in seen if not train} == {False}  # validation too
    assert ad._state.check_finite is True  # restored after training


@pytest.mark.filterwarnings("ignore:invalid value")
def test_predict_replays_a_non_finite_chunk_with_checks_on():
    data, split = _stub_data()
    seen = []

    class Recording(_ScalarStubModel):
        def logits_for_centers(self, data, centers, seed=0, train=False, rng=None):
            seen.append(ad._state.check_finite)
            return super().logits_for_centers(data, centers, seed, train, rng)

    assert tr.predict(Recording(w0=0.5), data, split.val_ids, seed=0, chunk=3).tolist() == [0] * 4
    assert seen == [False, False]
    seen.clear()
    with pytest.raises(FloatingPointError,
                       match="first non-finite op on replay: matmul produced non-finite"):
        tr.predict(Recording(w0=np.inf), data, split.val_ids, seed=0, chunk=3)
    assert seen == [False, True]  # the first chunk, then its checked replay
    assert ad._state.check_finite is True


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_with_diagnostics():
    data, split = _stub_data()

    class ExplodingModel(_ScalarStubModel):
        def logits_for_centers(self, data, centers, seed=0, train=False, rng=None):
            self.w.data *= 1e200  # force overflow in the loss path
            return super().logits_for_centers(data, centers, seed, train, rng)

    model = ExplodingModel(w0=1e200)
    cfg = tr.TrainConfig(epochs=2, base_lr=0.01, batch_size=4, early_stop_patience=2, seed=0)
    with pytest.raises(tr.TrainingDiverged,
                       match="first non-finite op on replay: matmul produced non-finite"):
        tr.train(model, data, split, cfg)


def _record_builds_and_forwards(monkeypatch, model):
    """Events ("build", centers) per build pass, ("step", B) per training
    forward, ("chunk", B) per prediction forward and ("predict", 0) per
    ``predict`` call, in order."""
    events = []
    build, forward, predict = gm.build_batch, model.logits_for_centers, tr.predict

    def recording_build(*args, **kwargs):
        out = build(*args, **kwargs)
        events.append(("build", len(out.sizes)))
        return out

    def recording_forward(data, centers, seed, train=False, rng=None):
        events.append(("step" if train else "chunk", len(centers)))
        return forward(data, centers, seed, train=train, rng=rng)

    def recording_predict(*args, **kwargs):
        events.append(("predict", 0))
        return predict(*args, **kwargs)

    monkeypatch.setattr(gm, "build_batch", recording_build)
    monkeypatch.setattr(model, "logits_for_centers", recording_forward)
    monkeypatch.setattr(tr, "predict", recording_predict)
    return events


def test_train_and_predict_build_before_their_loops(monkeypatch):
    """With three centers per pass, ``train`` builds its 16 training
    centers in six passes before its first step and nothing inside its
    micro-batch loop; each validation ``predict`` builds its misses
    before its first chunk. The history is the one of a model that
    builds per micro-batch."""
    data, split = _mini_graph_data(seed=4)
    cfg = tr.TrainConfig(epochs=2, base_lr=0.01, batch_size=4, early_stop_patience=5, seed=0)
    want = tr.train(_tiny_model(seed=0), data, split, cfg)  # passes hold every miss

    model = _tiny_model(seed=0)
    k = model.cfg.ego_max_nodes
    monkeypatch.setattr(gm, "BUILD_PASS_PAIRS", 3 * k * k)
    events = _record_builds_and_forwards(monkeypatch, model)
    got = tr.train(model, data, split, cfg)
    assert events[:6] == [("build", 3)] * 5 + [("build", 1)]
    assert events[6:10] == [("step", 4)] * 4
    assert events[10:] == [("predict", 0), ("build", 3), ("build", 1), ("chunk", 4)] + (
        [("step", 4)] * 4 + [("predict", 0), ("chunk", 4)])
    assert [vars(r) for r in got.history] == [vars(r) for r in want.history]
    for name, a in want.best_state.items():
        assert got.best_state[name].tobytes() == a.tobytes(), name

    fresh = _tiny_model(seed=1)
    events = _record_builds_and_forwards(monkeypatch, fresh)
    preds = tr.predict(fresh, data, np.arange(24), seed=0, chunk=5)
    assert events == [("predict", 0)] + [("build", 3)] * 8 + [("chunk", 5)] * 4 + [("chunk", 4)]
    assert preds.tolist() == tr.predict(_tiny_model(seed=1), data, np.arange(24), seed=0).tolist()


@pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value")
def test_predict_and_accuracy_accept_empty_ids():
    data, split = _mini_graph_data()
    model = _tiny_model(seed=0)
    for ids in ([], np.array([], dtype=np.int64), np.array([])):
        preds = tr.predict(model, data, ids, seed=0)
        assert preds.dtype == np.int64 and preds.shape == (0,)
        assert np.isnan(tr.accuracy_on(model, data, ids, seed=0))
    assert not model._batch_cache
