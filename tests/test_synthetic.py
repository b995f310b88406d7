import numpy as np
import pytest

from tapeformer import synthetic as syn
from tapeformer.graph import from_edge_list
from tapeformer.text import load_feature_matrix, load_llm_records, load_node_documents
from tapeformer.training import make_temporal_split


def test_infeasible_params_rejected():
    with pytest.raises(ValueError, match="classes"):
        syn.SyntheticParams(num_nodes=3, num_classes=4)
    with pytest.raises(ValueError, match="text_signal"):
        syn.SyntheticParams(text_signal=1.5)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        syn.SyntheticParams(seed=-1)


def test_generation_deterministic():
    p = syn.SyntheticParams(num_nodes=60, num_classes=3, seed=5)
    a = syn.generate(p)
    b = syn.generate(p)
    assert [d.title for d in a.docs] == [d.title for d in b.docs]
    assert a.edges == b.edges
    assert a.features.tobytes() == b.features.tobytes()


def test_every_class_in_every_partition():
    p = syn.SyntheticParams(num_nodes=80, num_classes=4, seed=1)
    data = syn.generate(p)
    years = np.array([d.year for d in data.docs])
    split = make_temporal_split(years, data.labels)
    for ids in (split.train_ids, split.val_ids, split.test_ids):
        assert set(data.labels[ids].tolist()) == set(range(4))


def test_citations_point_to_earlier_years():
    p = syn.SyntheticParams(num_nodes=100, num_classes=3, seed=2)
    data = syn.generate(p)
    years = {d.id: d.year for d in data.docs}
    for u, v in data.edges:
        assert years[v] <= years[u]


def test_homophily_raises_same_class_rate():
    rates = {}
    for hom in (0.0, 0.9):
        p = syn.SyntheticParams(num_nodes=300, num_classes=4, homophily=hom, seed=3)
        data = syn.generate(p)
        same = sum(data.labels[u] == data.labels[v] for u, v in data.edges)
        rates[hom] = same / len(data.edges)
    assert rates[0.0] < 0.45  # near the chance rate for 4 balanced classes
    assert rates[0.9] > 0.8


def test_max_text_signal_makes_stub_exact():
    p = syn.SyntheticParams(num_nodes=60, num_classes=4, text_signal=1.0, seed=4)
    data = syn.generate(p)
    for d in data.docs:
        assert data.records[d.id].predictions[0] == d.label


def test_zero_signals_leave_no_label_information():
    p = syn.SyntheticParams(num_nodes=120, num_classes=4, text_signal=0.0,
                            homophily=0.0, feature_signal=0.0, seed=5)
    data = syn.generate(p)
    # no class token ever appears in any document
    for d in data.docs:
        text = d.title + " " + d.abstract
        assert "field" not in text and "kw" not in text
    # stub falls back to index order everywhere
    assert all(r.predictions[0] == 0 for r in data.records.values())
    # features carry no class direction: mean per-class cosine to any
    # class mean stays near zero
    feats = data.features
    for cls in range(4):
        centroid = feats[data.labels == cls].mean(axis=0)
        assert np.linalg.norm(centroid) < 0.2


def test_zero_signal_corpus_trains_to_chance():
    import types

    from tapeformer.fusion import FusionConfig
    from tapeformer.graph import from_edge_list
    from tapeformer.model import FusedMlp, GraphormerConfig
    from tapeformer.text import build_bundle
    from tapeformer.training import TrainConfig, make_temporal_split, predict, train

    p = syn.SyntheticParams(num_nodes=240, num_classes=4, text_signal=0.0,
                            homophily=0.0, feature_signal=0.0, seed=8)
    data = syn.generate(p)
    g = from_edge_list(data.edges, p.num_nodes)
    bundle = build_bundle(data.docs, data.records, data.features, num_classes=4, text_dim=64)
    ds = types.SimpleNamespace(graph=g, bundle=bundle, labels=data.labels)
    years = np.array([d.year for d in data.docs])
    split = make_temporal_split(years, data.labels)
    mcfg = GraphormerConfig(num_classes=4, num_layers=1, num_heads=2, d_model=32, d_ffn=32)
    model = FusedMlp(mcfg, FusionConfig(d_model=32, source_dims={
        "expl": 64, "pred": 4, "text": 64, "ogb": 128}), seed=1)
    train(model, ds, split, TrainConfig(epochs=15, base_lr=0.002, batch_size=8,
                                        early_stop_patience=15, seed=1))
    preds = predict(model, ds, split.test_ids, seed=1)
    acc = float((preds == data.labels[split.test_ids]).mean())
    assert abs(acc - 0.25) < 0.17, f"zero-signal accuracy {acc} strays far from chance"


def test_features_unit_norm_and_signal_direction():
    p = syn.SyntheticParams(num_nodes=100, num_classes=3, feature_signal=0.6, seed=6)
    data = syn.generate(p)
    norms = np.linalg.norm(data.features, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    # same-class features are more aligned than cross-class ones
    same, cross = [], []
    for cls in range(3):
        f = data.features[data.labels == cls]
        same.append((f @ f.T).mean())
        g = data.features[data.labels != cls]
        cross.append((f @ g.T).mean())
    assert min(same) > max(cross)


def test_written_files_load_back(tmp_path):
    p = syn.SyntheticParams(num_nodes=50, num_classes=3, seed=7)
    data = syn.generate(p)
    paths = syn.write_synthetic_files(data, tmp_path)
    docs = load_node_documents(paths["node_docs"])
    assert len(docs) == 50
    assert [d.title for d in docs] == [d.title for d in data.docs]
    g = from_edge_list(data.edges, 50)
    g2 = __import__("tapeformer.graph", fromlist=["load_edge_list"]).load_edge_list(paths["edges"], 50)
    assert np.array_equal(g.out_offsets, g2.out_offsets)
    assert np.array_equal(g.out_targets, g2.out_targets)
    feats = load_feature_matrix(paths["ogb_features"])
    assert feats.tobytes() == data.features.tobytes()
    recs = load_llm_records(paths["llm_cache"], data.class_names)
    assert len(recs) == 50
    assert recs[0].predictions == data.records[0].predictions
