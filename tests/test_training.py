import types

import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer import graph as gr
from tapeformer import model as gm
from tapeformer import training as tr
from tapeformer.autodiff import Tensor
from tapeformer.fusion import FusionConfig
from tapeformer.text import DataError

from helpers import random_edge_list


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
    """In both dtypes and two layouts: the second has a gradient-less
    parameter between others, one larger than its neighbours, so that a
    step walks several blocks, and a scalar."""
    layouts = ({"a": (5, 7), "b": (7,), "c": (3, 2, 4), "skipped": (2, 2)},
               {"a": (3, 2), "skipped": (4,), "b": (5,), "big": (6, 7), "c": (2, 3), "d": (9,),
                "s": ()})
    for shapes in layouts:
        for dtype in (np.float64, np.float32):
            _check_adam_against_textbook(shapes, dtype)


def _check_adam_against_textbook(shapes, dtype):
    rng = np.random.default_rng(14)
    params = {k: Tensor(rng.standard_normal(s), requires_grad=True, dtype=dtype)
              for k, s in shapes.items()}
    ref = {k: t.data.copy() for k, t in params.items()}
    m = {k: np.zeros(s, dtype) for k, s in shapes.items()}
    v = {k: np.zeros(s, dtype) for k, s in shapes.items()}
    opt = tr.Adam(params)
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    for t in range(1, 7):
        lr = 0.01 * t
        for k, p in params.items():
            p.grad = None if k == "skipped" else (rng.standard_normal(shapes[k])
                                                  * 10.0 ** t).astype(dtype)
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
            assert p.data.tobytes() == ref[k].tobytes(), (dtype, t, k)
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
    split = tr.make_temporal_split(years, np.zeros(3, dtype=np.int64))
    assert split.train_ids.tolist() == [0]
    assert split.val_ids.tolist() == [1]
    assert split.test_ids.tolist() == [2]


def test_split_empty_partition_is_error():
    with pytest.raises(DataError, match="empty"):
        tr.make_temporal_split(np.array([2015, 2016, 2017]), np.zeros(3, dtype=np.int64))


def test_split_excludes_unlabeled():
    years = np.array([2016, 2016, 2018, 2019])
    labels = np.array([1, -1, 0, 2])
    split = tr.make_temporal_split(years, labels)
    assert split.train_ids.tolist() == [0]
    assert 1 not in np.concatenate([split.train_ids, split.val_ids, split.test_ids])


def test_split_boundaries_configurable():
    years = np.array([1999, 2005, 2010])
    split = tr.make_temporal_split(years, np.zeros(3, dtype=np.int64), train_last_year=2000,
                                   test_first_year=2008)
    assert split.train_ids.tolist() == [0]
    assert split.val_ids.tolist() == [1]
    assert split.test_ids.tolist() == [2]


# --- training loop -----------------------------------------------------------


class _ScalarStubModel:
    """Logits [w, 0]: predicts class 0 while w > 0, class 1 after."""

    cfg = types.SimpleNamespace(pass_centers=16)  # ids per predict chunk

    def __init__(self, w0: float):
        self.w = Tensor(np.array([[w0]]), requires_grad=True)

    def parameters(self):
        return {"w": self.w}

    def load_state(self, state):
        self.w.data = state["w"].copy()

    def build_centers(self, data, centers, seed):
        pass

    def logits_for_centers(self, data, centers, seed):
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


def test_train_refuses_an_empty_train_or_val_partition():
    """Before any work: no build, no parameter read, the model untouched."""
    data, split = _stub_data()
    cfg = tr.TrainConfig(epochs=1, batch_size=2, seed=0)
    empty = np.array([], dtype=np.int64)

    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"train used model.{name} before checking its split")

    for name in ("train", "val"):
        parts = {"train_ids": split.train_ids, "val_ids": split.val_ids,
                 "test_ids": split.test_ids, f"{name}_ids": empty}
        with pytest.raises(DataError, match=f"empty {name} partition"):
            tr.train(Untouchable(), data, tr.TemporalSplit(**parts), cfg)


def test_train_leaves_model_at_best_checkpoint():
    """The best epoch is not the last, and ``train`` returns with every
    parameter equal to the best-validation snapshot, byte for byte."""
    data, split = _stub_data()
    model = _ScalarStubModel(w0=0.02)
    cfg = tr.TrainConfig(epochs=30, base_lr=0.004, label_smoothing=0.0,
                         batch_size=2, early_stop_patience=1, seed=0)
    result = tr.train(model, data, split, cfg)
    assert result.best_epoch < result.history[-1].epoch
    params = model.parameters()
    assert set(params) == set(result.best_state)
    for name, tensor in params.items():
        assert tensor.data.tobytes() == result.best_state[name].tobytes(), name
    assert tr.accuracy_on(model, data, split.val_ids, seed=0) == result.best_val_accuracy


def _mini_graph_data(seed=0, n=24, c=3):
    rng = np.random.default_rng(seed)
    g = gr.from_edge_list(random_edge_list(rng, n, 0.15), n)
    bundle = {
        "expl": rng.standard_normal((n, 5)),
        "pred": rng.standard_normal((n, c)),
        "text": rng.standard_normal((n, 5)),
        "ogb": rng.standard_normal((n, 4)),
    }
    labels = rng.integers(0, c, size=n)
    data = types.SimpleNamespace(graph=g, bundle=bundle, labels=labels)
    split = tr.TemporalSplit(train_ids=np.arange(16), val_ids=np.arange(16, 20),
                             test_ids=np.arange(20, 24))
    return data, split


def _tiny_model(seed, c=3, dtype="float32", num_layers=1):
    cfg = gm.GraphormerConfig(num_classes=c, num_layers=num_layers, num_heads=2, d_model=8,
                              d_ffn=12, max_spd=3, max_degree_bucket=8,
                              ego_hops=1, ego_max_nodes=6, dtype=dtype)
    fusion = FusionConfig(d_model=8, source_dims={"expl": 5, "pred": c, "text": 5, "ogb": 4})
    return gm.GraphormerModel(cfg, fusion, seed=seed)


def test_parameters_the_loss_never_reaches_stay_put():
    """At ``num_layers=0`` no attention reads the spatial or edge bias, so
    their gradients stay None through every step of a 2-epoch ``train``:
    Adam steps them with a zero gradient and zero moments, which leaves
    them byte for byte at their initial values, while every other
    parameter moves."""
    data, split = _mini_graph_data()
    model = _tiny_model(seed=3, num_layers=0)
    before = {k: t.data.copy() for k, t in model.parameters().items()}
    cfg = tr.TrainConfig(epochs=2, base_lr=0.01, batch_size=8, early_stop_patience=5, seed=0)
    tr.train(model, data, split, cfg)
    idle = {"spatial.bias", "edge.weight"}
    for k, t in model.parameters().items():
        assert (t.data.tobytes() == before[k].tobytes()) == (k in idle), k


def test_bias_rows_past_the_path_width_stay_zero(tmp_path):
    """No stored path is longer than w = ``path_width`` (4 at the default
    model config, 2 * ego_hops), and no stacked pair holds a distance past
    w: an ego subgraph has no unreachable pair and padding reads 0. So the
    ``edge.weight`` rows past 3w and the spatial buckets past w get no
    gradient, and after a 2-epoch train at the default model config on
    the seed-0 corpus they are still their initial zeros, while the rows
    and buckets before them have moved."""
    import dataclasses

    from tapeformer.cli import main as cli_main

    out = tmp_path / "bench"
    assert cli_main(["gen-synthetic", "--out", str(out), "--nodes", "400", "--classes", "4",
                     "--seed", "0"]) == 0
    config = str(out / "config.json")
    assert cli_main(["prepare", "--config", config]) == 0
    defaults = [a for f in dataclasses.fields(gm.GraphormerParams)
                for a in ("--set", f"model.{f.name}={f.default}")]
    assert cli_main(["train", "--config", config, "--set", "train.epochs=2", *defaults]) == 0
    state = ad.load_parameters(out / "checkpoint.bin")
    cfg = gm.GraphormerParams().for_classes(4)
    w = cfg.path_width
    assert w == 4 < cfg.max_spd
    edge, spatial = state["edge.weight"], state["spatial.bias"]
    assert edge.shape == (3 * cfg.max_spd, cfg.num_heads) and not edge[3 * w:].any()
    assert spatial.shape == (cfg.max_spd + 2, cfg.num_heads) and not spatial[w + 1:].any()
    assert edge[:3 * w].all() and spatial[:w + 1].all()


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


def test_short_last_step_gets_the_equivalent_large_batch_gradient(monkeypatch):
    """16 training centers at 12 per optimizer step leave a last step of
    4. Under ``batch_size=4, grad_accum_steps=3`` its one micro-batch's
    ``backward`` starts from its share of the step's centers, 4 / 4, so
    the step accumulates the gradients ``batch_size=12,
    grad_accum_steps=1`` gives it, not a third of them."""
    data, split = _mini_graph_data(seed=4)
    grads = []

    class SpyAdam(tr.Adam):
        def step(self, lr):
            grads.append({k: t.grad.copy() for k, t in self.params.items()})
            super().step(lr)

    monkeypatch.setattr(tr, "Adam", SpyAdam)
    tails = []
    for batch_size, accum in ((4, 3), (12, 1)):
        grads.clear()
        cfg = tr.TrainConfig(epochs=1, base_lr=0.01, warmup_steps=0, batch_size=batch_size,
                             grad_accum_steps=accum, early_stop_patience=5, seed=0)
        tr.train(_tiny_model(seed=0, dtype="float64"), data, split, cfg)
        assert len(grads) == 2
        tails.append(grads[-1])
    accumulated, whole = tails
    assert accumulated.keys() == whole.keys()
    for k, g in whole.items():
        assert g.dtype == np.float64 and np.abs(g).max() > 0, k
        assert np.max(np.abs(accumulated[k] - g)) < 1e-12, k


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


# the model config gen-synthetic writes, but for its dtype
DESK = dict(num_layers=2, num_heads=4, d_model=64, d_ffn=128, max_degree_bucket=4,
            ego_max_nodes=16)


def _desk_model(kind, **params):
    """A ``kind`` model of the desk config, with ``params`` over it, for the
    sources and classes of ``_mini_graph_data``."""
    cfg = gm.GraphormerParams(**{**DESK, **params}).for_classes(3)
    return gm.build_model(cfg, kind, ("expl", "pred", "text", "ogb"),
                          {"expl": 5, "pred": 3, "text": 5, "ogb": 4}, seed=0)


def test_an_ablation_builds_each_center_once(monkeypatch):
    """The graph transformer rows of an ablation share one subgraph store:
    over all rows each train, val and test center is built once, and
    every row equals, field for field, the row trained on a fresh model
    with a store of its own."""
    from tapeformer import evaluation as ev

    data, split = _mini_graph_data()
    data.num_classes = 3
    data.source_dims = lambda: {"expl": 5, "pred": 3, "text": 5, "ogb": 4}
    cfg = gm.GraphormerParams(**DESK).for_classes(3)
    tcfg = tr.TrainConfig(epochs=2, batch_size=8, seed=0)
    toggles = ("graphormer+TA", "graphormer+E", "TA+P+E", "full")
    built, build_batch = [], gm.build_batch

    def counting(g, stack, cfg):
        built.extend(stack.nodes[:, 0].tolist())
        return build_batch(g, stack, cfg)

    monkeypatch.setattr(gm, "build_batch", counting)
    rows = ev.run_ablation(data, split, cfg, tcfg, toggles=toggles)
    assert [r.kind for r in rows].count("graphormer") == 3
    centers = np.concatenate([split.train_ids, split.val_ids, split.test_ids])
    assert sorted(built) == sorted(set(centers.tolist()))
    alone = [ev.run_ablation(data, split, cfg, tcfg, toggles=(r.name,))[0] for r in rows]
    assert rows == alone


@pytest.mark.parametrize("kind", ["graphormer", "mlp"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_step_stays_in_the_model_dtype(monkeypatch, tmp_path, kind, dtype):
    """One optimizer step over two micro-batches and the validation
    predict after it: every op output, recorded or made off the tape,
    every leaf gradient (as Adam gets it), Adam's moments and scratch
    rows, the logits and the fusion weights are of the model's dtype, and
    so are the rows ``fuse`` gets from a loaded dataset and the bundle
    rows they are gathered from. ``train`` returns
    with no gradients and an empty tape."""
    data, split = _mini_graph_data()
    model = _desk_model(kind, dtype=dtype)
    outputs, optimizers, make = [], [], ad._make

    def spy(op_name, out, inputs, closures):
        outputs.append((op_name, out.dtype, ad._state.recording))
        return make(op_name, out, inputs, closures)

    class SpyAdam(tr.Adam):
        def __init__(self, params):
            super().__init__(params)
            optimizers.append(self)

        def step(self, lr):
            grads = {name: t.grad.dtype for name, t in self.params.items()}
            assert grads == dict.fromkeys(self.params, dtype)
            super().step(lr)

    monkeypatch.setattr(ad, "_make", spy)
    monkeypatch.setattr(tr, "Adam", SpyAdam)
    tcfg = tr.TrainConfig(epochs=1, batch_size=8, grad_accum_steps=2, seed=0)
    tr.train(model, data, split, tcfg)  # 16 training centers: one step
    (opt,) = optimizers
    assert opt.t == 1
    ops = {name for name, _, _ in outputs}
    assert {"cross_entropy", "softmax_mix", "linear"} <= ops
    assert kind == "mlp" or {"attention", "layer_norm", "embedding_lookup"} <= ops
    assert [(n, d) for n, d, _ in outputs if d != dtype] == []
    validation = {name for name, _, recording in outputs if not recording}
    assert {"softmax_mix", "linear"} <= validation and "cross_entropy" not in validation
    assert kind == "mlp" or {"attention", "layer_norm", "embedding_lookup"} <= validation
    assert all(t.grad is None for t in model.parameters().values())
    assert ad.tape_size() == 0
    arrays = [*opt.m.values(), *opt.v.values(), opt._moments, opt._rows]
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}
    with ad.no_grad():
        assert model.logits_for_centers(data, split.test_ids, seed=0).data.dtype == dtype
        rows = model.fusion.source_rows(data.bundle, split.test_ids)
        fused, weights = model.fusion.fuse(rows, return_weights=True)
    assert (fused.data.dtype, weights.data.dtype) == (dtype, dtype)
    loaded = _saved_and_loaded(data, tmp_path, dtype)
    fused_rows, source_rows = [], model.fusion.source_rows

    def spy_source_rows(bundle, ids):
        rows = source_rows(bundle, ids)
        fused_rows.extend((bundle[s][ids], rows[s].data) for s in rows)
        return rows

    monkeypatch.setattr(model.fusion, "source_rows", spy_source_rows)
    with ad.no_grad():
        model.logits_for_centers(loaded, split.test_ids, seed=0)
    assert fused_rows and {h.dtype for pair in fused_rows for h in pair} == {np.dtype(dtype)}


def test_gradients_live_from_a_step_s_first_backward_to_its_update(monkeypatch):
    """Each step's first micro-batch ``backward`` finds no gradient and
    its second adds to the first's; every epoch's validation pass runs with
    no gradient on any parameter and an empty tape, and so does the caller
    after ``train``."""
    data, split = _mini_graph_data()
    model = _tiny_model(seed=2)
    params = model.parameters().values()
    at_backward, at_validation = [], []
    backward, accuracy_on = ad.backward, tr.accuracy_on

    def spy_backward(out, grad=None):
        at_backward.append(any(t.grad is not None for t in params))
        backward(out, grad)

    def spy_accuracy_on(*args, **kwargs):
        at_validation.append((any(t.grad is not None for t in params), ad.tape_size()))
        return accuracy_on(*args, **kwargs)

    monkeypatch.setattr(ad, "backward", spy_backward)
    monkeypatch.setattr(tr, "accuracy_on", spy_accuracy_on)
    cfg = tr.TrainConfig(epochs=3, batch_size=4, grad_accum_steps=2, early_stop_patience=5,
                         seed=0)
    tr.train(model, data, split, cfg)  # 16 training centers: 2 steps of 2 micro-batches
    assert at_backward == [False, True] * 6
    assert at_validation == [(False, 0)] * 3
    assert all(t.grad is None for t in params)
    assert ad.tape_size() == 0


def _saved_and_loaded(data, tmp_path, dtype):
    """``data`` through ``save_dataset`` and back with its bundle in ``dtype``."""
    from tapeformer import dataset as dsm

    n = data.graph.num_nodes
    ds = dsm.PreparedDataset(class_names=["a", "b", "c"], labels=data.labels,
                             years=np.zeros(n, dtype=np.int64), graph=data.graph,
                             bundle=data.bundle, text_dim=5, pred_top_k=3, seed=0)
    dsm.save_dataset(ds, tmp_path / "ds.bin")
    return dsm.load_dataset(tmp_path / "ds.bin", dtype=dtype)


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
        def logits_for_centers(self, data, centers, seed):
            seen.append((ad._state.recording, ad._state.check_finite))
            return super().logits_for_centers(data, centers, seed)

    cfg = tr.TrainConfig(epochs=1, base_lr=0.01, batch_size=4, early_stop_patience=1, seed=0)
    tr.train(Recording(w0=0.5), data, split, cfg)
    assert {checks for recording, checks in seen if recording} == {False}
    assert {checks for recording, checks in seen if not recording} == {False}  # validation too
    assert ad._state.check_finite is True  # restored after training


@pytest.mark.filterwarnings("ignore:invalid value")
def test_predict_replays_a_non_finite_chunk_with_checks_on():
    data, split = _stub_data()
    seen = []

    class Recording(_ScalarStubModel):
        cfg = types.SimpleNamespace(pass_centers=3)

        def logits_for_centers(self, data, centers, seed):
            seen.append(ad._state.check_finite)
            return super().logits_for_centers(data, centers, seed)

    assert tr.predict(Recording(w0=0.5), data, split.val_ids, seed=0).tolist() == [0] * 4
    assert seen == [False, False]
    seen.clear()
    with pytest.raises(FloatingPointError,
                       match="first non-finite op on replay: matmul produced non-finite"):
        tr.predict(Recording(w0=np.inf), data, split.val_ids, seed=0)
    assert seen == [False, True]  # the first chunk, then its checked replay
    assert ad._state.check_finite is True


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_with_diagnostics():
    data, split = _stub_data()

    class ExplodingModel(_ScalarStubModel):
        def logits_for_centers(self, data, centers, seed):
            self.w.data *= 1e200  # force overflow in the loss path
            return super().logits_for_centers(data, centers, seed)

    model = ExplodingModel(w0=1e200)
    cfg = tr.TrainConfig(epochs=2, base_lr=0.01, batch_size=4, early_stop_patience=2, seed=0)
    with pytest.raises(tr.TrainingDiverged) as err:
        tr.train(model, data, split, cfg)
    # the whole message: the step, the lr and the op the replay names
    assert str(err.value) == ("non-finite loss at step 1 (lr=3.333e-03); "
                              "first non-finite op on replay: matmul produced non-finite values")
    assert ad.tape_size() == 0  # the diverged forward's records are gone
    assert all(t.grad is None for t in model.parameters().values())


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

    def recording_forward(data, centers, seed):
        events.append(("step" if ad._state.recording else "chunk", len(centers)))
        return forward(data, centers, seed)

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
    before its first chunk, and its chunks hold three centers too. The
    history is the one of a model that builds and predicts in passes
    that hold every miss."""
    data, split = _mini_graph_data(seed=4)
    cfg = tr.TrainConfig(epochs=2, base_lr=0.01, batch_size=4, early_stop_patience=5, seed=0)
    want = tr.train(_tiny_model(seed=0), data, split, cfg)  # passes hold every miss

    model = _tiny_model(seed=0)
    k, pairs = model.cfg.ego_max_nodes, gm.BUILD_PASS_PAIRS
    monkeypatch.setattr(gm, "BUILD_PASS_PAIRS", 3 * k * k)
    events = _record_builds_and_forwards(monkeypatch, model)
    got = tr.train(model, data, split, cfg)
    assert events[:6] == [("build", 3)] * 5 + [("build", 1)]
    assert events[6:10] == [("step", 4)] * 4
    val_chunks = [("chunk", 3), ("chunk", 1)]
    assert events[10:] == [("predict", 0), ("build", 3), ("build", 1), *val_chunks] + (
        [("step", 4)] * 4 + [("predict", 0), *val_chunks])
    assert [vars(r) for r in got.history] == [vars(r) for r in want.history]
    for name, a in want.best_state.items():
        assert got.best_state[name].tobytes() == a.tobytes(), name

    fresh = _tiny_model(seed=1)
    events = _record_builds_and_forwards(monkeypatch, fresh)
    preds = tr.predict(fresh, data, np.arange(24), seed=0)
    assert events == [("predict", 0)] + [("build", 3)] * 8 + [("chunk", 3)] * 8
    monkeypatch.setattr(gm, "BUILD_PASS_PAIRS", pairs)
    assert preds.tolist() == tr.predict(_tiny_model(seed=1), data, np.arange(24), seed=0).tolist()


@pytest.mark.parametrize("kind", ["graphormer", "mlp"])
@pytest.mark.parametrize("k, chunks", [(16, [64, 6]), (32, [16] * 4 + [6]), (200, [1] * 70)],
                         ids=["k=16", "k=32", "k=200"])
def test_predict_chunks_are_build_passes(monkeypatch, kind, k, chunks):
    """``predict`` runs one forward per ``pass_centers`` ids, the centers
    a build pass holds, for either kind of model: 64 at ego_max_nodes=16,
    16 at 32 and 1 at 200."""
    data, _ = _mini_graph_data(n=70)
    model = _desk_model(kind, ego_max_nodes=k)
    events = _record_builds_and_forwards(monkeypatch, model)
    tr.predict(model, data, np.arange(70), seed=0)
    assert [n for event, n in events if event == "chunk"] == chunks


@pytest.mark.parametrize("widths", [{"d_model": 1, "num_heads": 1}, {"d_ffn": 1}],
                         ids=["d_model=1", "d_ffn=1"])
def test_the_narrowest_widths_train(widths):
    """``d_model`` and ``d_ffn`` may be 1, their lower bound: the graph
    transformer builds and takes a training step with a finite loss."""
    data, split = _mini_graph_data()
    model = _desk_model("graphormer", **widths)
    result = tr.train(model, data, split, tr.TrainConfig(epochs=1, batch_size=16, seed=0))
    assert [(r.epoch, r.step) for r in result.history] == [(1, 1)]
    assert np.isfinite(result.history[0].train_loss)


def test_predict_refuses_ids_that_are_not_integers():
    """A bool mask or float ids are refused naming their dtype, before
    anything is built, rather than cast to node ids."""
    data, _ = _mini_graph_data()
    model = _tiny_model(seed=0)
    for ids, dtype in (([True, False, True], "bool"), (np.array([1.7, 2.2]), "float64")):
        with pytest.raises(gr.GraphConstructionError, match=f"integers, got dtype {dtype}"):
            tr.predict(model, data, ids, seed=0)
    assert not model.store.entries


@pytest.mark.filterwarnings("ignore:Mean of empty slice", "ignore:invalid value")
def test_predict_and_accuracy_accept_empty_ids():
    data, split = _mini_graph_data()
    model = _tiny_model(seed=0)
    for ids in ([], np.array([], dtype=np.int64), np.array([])):
        preds = tr.predict(model, data, ids, seed=0)
        assert preds.dtype == np.int64 and preds.shape == (0,)
        assert np.isnan(tr.accuracy_on(model, data, ids, seed=0))
    assert not model.store.entries
