import json
import re
import struct

import numpy as np
import pytest

from tapeformer import dataset as dsm
from tapeformer import synthetic as syn
from tapeformer.text import DataError


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    data = syn.generate(syn.SyntheticParams(num_nodes=40, num_classes=3, seed=11))
    paths = syn.write_synthetic_files(data, out)
    return data, paths


def test_prepare_builds_consistent_dataset(corpus):
    data, paths = corpus
    ds = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"],
                     paths["llm_cache"], data.class_names, text_dim=64)
    assert ds.num_nodes == 40
    assert ds.num_classes == 3
    assert np.array_equal(ds.labels, data.labels)
    assert ds.bundle.h_text.shape == (40, 64)
    assert ds.bundle.h_pred.shape == (40, 3)
    assert ds.source_dims() == {"expl": 64, "pred": 3, "text": 64, "ogb": 128}


def test_prepare_without_cache_gives_zero_llm_rows(corpus):
    data, paths = corpus
    ds = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"],
                     None, data.class_names, text_dim=32)
    assert not ds.bundle.h_expl.any()
    assert not ds.bundle.h_pred.any()
    assert ds.bundle.h_text.any()


def test_llm_records_matching_no_document_are_ignored_or_refused(corpus, tmp_path, caplog):
    """Records whose id is no document id are dropped with a warning that
    counts them and names the first; the INFO line counts matched records
    only; a non-empty cache of which no record matches is a DataError."""
    data, paths = corpus
    lines = open(paths["llm_cache"], encoding="utf-8").read().splitlines()
    extra = ['{"id": 100000, "predictions": ["field0"], "explanation": "x"}',
             '{"id": -3, "predictions": [], "explanation": "y"}']
    partial = tmp_path / "partial.jsonl"
    partial.write_text("\n".join(lines[:10] + extra) + "\n")
    with caplog.at_level("INFO", logger="tapeformer.dataset"):
        ds = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"], partial,
                         data.class_names, text_dim=32)
    assert "ignoring 2 LLM record(s) whose id matches no document in [0, 40), the first 100000" \
        in caplog.text
    assert "10 cached LLM records" in caplog.text
    assert ds.bundle.h_pred[:10].any(axis=1).all() and not ds.bundle.h_pred[10:].any()
    full = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"],
                       paths["llm_cache"], data.class_names, text_dim=32)
    for s in ("expl", "pred"):
        assert ds.bundle.source(s)[:10].tobytes() == full.bundle.source(s)[:10].tobytes()
    stray = tmp_path / "stray.jsonl"
    stray.write_text("\n".join(extra) + "\n")
    with pytest.raises(DataError, match=r"stray.jsonl: no LLM record matches a document: all 2 "
                                        r"ids lie outside \[0, 40\), the first 100000"):
        dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"], stray,
                    data.class_names)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    ds = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"], empty,
                     data.class_names, text_dim=32)
    assert not ds.bundle.h_pred.any()


def test_prepare_rejects_feature_row_mismatch(corpus, tmp_path):
    data, paths = corpus
    from tapeformer.text import save_feature_matrix

    bad = tmp_path / "bad.bin"
    save_feature_matrix(bad, np.zeros((7, 4)))
    with pytest.raises(DataError, match="feature rows"):
        dsm.prepare(paths["node_docs"], paths["edges"], bad, None, data.class_names)


def test_prepare_rejects_label_outside_classes(corpus, tmp_path):
    """A label outside [-1, C), above the classes or below -1, is a
    DataError naming the documents file, the node and the label: an
    artifact ``load_dataset`` refuses is never written."""
    data, paths = corpus
    first = int(np.flatnonzero(data.labels == 2)[0])
    with pytest.raises(DataError, match=rf"docs.jsonl: node {first} has label 2, outside "
                                        r"\[-1, 2\) for the 2 configured classes"):
        dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"],
                    None, data.class_names[:2])
    docs = [json.loads(line) for line in open(paths["node_docs"], encoding="utf-8")]
    for doc in docs:
        if doc["id"] in (7, 9):
            doc["label"] = -5 if doc["id"] == 7 else -1
    bad = tmp_path / "labels.jsonl"
    bad.write_text("".join(json.dumps(d) + "\n" for d in docs))
    with pytest.raises(DataError, match=r"labels.jsonl: node 7 has label -5, outside \[-1, 3\)"):
        dsm.prepare(bad, paths["edges"], paths["ogb_features"], None, data.class_names)
    docs = [d for d in docs if d["id"] != 7] + [dict(docs[0], id=7, label=None)]
    bad.write_text("".join(json.dumps(d) + "\n" for d in docs))
    ds = dsm.prepare(bad, paths["edges"], paths["ogb_features"], None, data.class_names)
    assert ds.labels[7] == ds.labels[9] == -1  # null and -1 both mean unlabeled


def test_artifact_roundtrip_and_stable_hash(corpus, tmp_path):
    data, paths = corpus
    ds = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"],
                     paths["llm_cache"], data.class_names, text_dim=64)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    h1 = dsm.save_dataset(ds, p1)
    h2 = dsm.save_dataset(ds, p2)
    assert h1 == h2
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.bin.sha256").read_text().strip() == h1
    back = dsm.load_dataset(p1)
    assert back.class_names == ds.class_names
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.years, ds.years)
    assert np.array_equal(back.graph.out_offsets, ds.graph.out_offsets)
    assert np.array_equal(back.graph.in_targets, ds.graph.in_targets)
    assert back.graph.num_edges == ds.graph.num_edges
    for s in ("expl", "pred", "text", "ogb"):
        assert back.bundle.source(s).tobytes() == ds.bundle.source(s).tobytes()


def test_artifact_corruption_detected(corpus, tmp_path):
    data, paths = corpus
    ds = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"],
                     None, data.class_names, text_dim=32)
    p = tmp_path / "c.bin"
    dsm.save_dataset(ds, p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError, match="truncated"):
        dsm.load_dataset(p)
    p.write_bytes(b"garbage!" + raw[8:])
    with pytest.raises(DataError, match="not a prepared dataset"):
        dsm.load_dataset(p)


def test_undecodable_artifact_header_names_the_file(corpus, tmp_path):
    """A meta block that is not JSON or not UTF-8, or an array name that
    is not UTF-8, is a DataError naming the artifact, with or without the
    hash sidecar."""
    data, paths = corpus
    ds = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"],
                     None, data.class_names, text_dim=32)
    p = tmp_path / "h.bin"
    dsm.save_dataset(ds, p)
    raw = p.read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    name_at = 32 + n  # the first array's name
    for at, value, cause in ((16, raw[16] ^ 1, "artifact meta is not JSON: Expecting value"),
                             (16, 0xFF, "artifact meta is not UTF-8"),
                             (name_at, 0xFF, "an array name is not UTF-8")):
        bad = bytearray(raw)
        bad[at] = value
        p.write_bytes(bytes(bad))
        for sidecar in (True, False):
            if not sidecar:
                p.with_name("h.bin.sha256").unlink(missing_ok=True)
            with pytest.raises(DataError, match=rf"h.bin: {cause}"):
                dsm.load_dataset(p)


def test_undecodable_hash_sidecar_is_a_mismatch(corpus, tmp_path):
    data, paths = corpus
    ds = dsm.prepare(paths["node_docs"], paths["edges"], paths["ogb_features"],
                     None, data.class_names, text_dim=32)
    p = tmp_path / "h.bin"
    dsm.save_dataset(ds, p)
    p.with_name("h.bin.sha256").write_bytes(b"\xff" * 64 + b"\n")
    with pytest.raises(DataError, match=r"h.bin: sha256 [0-9a-f]{64} differs from .*h.bin.sha256"):
        dsm.load_dataset(p)


def _edgeless(tmp_path, corpus, cols=0):
    """The corpus with no edges and a ``cols``-wide feature matrix."""
    from tapeformer.text import save_feature_matrix

    data, paths = corpus
    (tmp_path / "edges.tsv").write_text("# no edges\n")
    save_feature_matrix(tmp_path / "feat.bin", np.zeros((40, cols)))
    return dsm.prepare(paths["node_docs"], tmp_path / "edges.tsv", tmp_path / "feat.bin",
                       None, data.class_names, text_dim=8)


def test_artifact_roundtrip_with_empty_arrays(corpus, tmp_path):
    ds = _edgeless(tmp_path, corpus)
    assert ds.graph.num_edges == 0 and ds.bundle.h_ogb.shape == (40, 0)
    h = dsm.save_dataset(ds, tmp_path / "e.bin")
    back = dsm.load_dataset(tmp_path / "e.bin")
    assert back.graph.out_targets.shape == back.graph.in_targets.shape == (0,)
    assert back.bundle.h_ogb.shape == (40, 0)
    assert np.array_equal(back.graph.out_offsets, np.zeros(41, dtype=np.int64))
    for s in ("expl", "pred", "text"):
        assert back.bundle.source(s).tobytes() == ds.bundle.source(s).tobytes()
    assert dsm.save_dataset(back, tmp_path / "f.bin") == h


def _first_dim_offsets(raw: bytes) -> dict[str, int]:
    """Byte offset of each array's first dimension in an artifact."""
    (meta_len,) = struct.unpack_from("<Q", raw, 8)
    pos, out = 16 + meta_len + 8, {}
    while pos < len(raw):
        (nlen,) = struct.unpack_from("<Q", raw, pos)
        name = raw[pos + 8:pos + 8 + nlen].decode()
        pos += 8 + nlen + 1
        (rank,) = struct.unpack_from("<Q", raw, pos)
        shape = struct.unpack_from(f"<{rank}Q", raw, pos + 8)
        out[name] = pos + 8
        pos += 8 + 8 * rank + 8 * int(np.prod(shape))
    return out


@pytest.mark.parametrize("field,value", [
    ("meta length", 2**64 - 1), ("meta length", 2**40),
    ("labels", 2**64 - 1), ("labels", 2**61), ("h_text", 2**32),
    ("h_ogb", 2**62),  # zero columns: no bytes, but a shape numpy cannot hold
])
def test_artifact_size_field_beyond_file_is_truncated(corpus, tmp_path, field, value):
    ds = _edgeless(tmp_path, corpus)
    dsm.save_dataset(ds, tmp_path / "a.bin")
    raw = bytearray((tmp_path / "a.bin").read_bytes())
    at = 8 if field == "meta length" else _first_dim_offsets(bytes(raw))[field]
    raw[at:at + 8] = struct.pack("<Q", value)
    (tmp_path / "b.bin").write_bytes(bytes(raw))
    with pytest.raises(DataError, match=r"b.bin: truncated dataset artifact"):
        dsm.load_dataset(tmp_path / "b.bin")


def test_save_and_load_log_their_stage_seconds(corpus, tmp_path, caplog):
    ds = _edgeless(tmp_path, corpus, cols=3)
    with caplog.at_level("INFO", logger="tapeformer.dataset"):
        dsm.save_dataset(ds, tmp_path / "a.bin")
        dsm.load_dataset(tmp_path / "a.bin")
    assert "a.bin" in caplog.text
    for stage in ("hash", "write", "read\\+hash", "validation"):
        assert re.search(rf"\b{stage} \d+\.\d{{3}}s", caplog.text), stage
