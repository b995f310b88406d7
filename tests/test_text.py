import json
import struct

import numpy as np
import pytest

from tapeformer import text as tp
from tapeformer.text import LlmRecord, NodeDocument

from helpers import oracle_encode_text, oracle_tokenize


CLASSES = ["databases", "machine learning", "networking", "crypto", "vision"]


def _doc(i=0, title="A", abstract="B", label=0, year=2015):
    return NodeDocument(id=i, title=title, abstract=abstract, label=label, year=year)


# --- prompt ------------------------------------------------------------------


def test_prompt_contains_inputs_and_classes():
    p = tp.format_prompt(_doc(title="Graph nets", abstract="We study things."), CLASSES)
    assert "Graph nets" in p and "We study things." in p
    for name in CLASSES:
        assert name in p


def test_prompt_deterministic():
    d = _doc(title="T", abstract="A")
    assert tp.format_prompt(d, CLASSES) == tp.format_prompt(d, CLASSES)


def test_prompt_no_unfilled_placeholders():
    import re

    placeholders = re.findall(r"\{(\w+)\}", tp.PROMPT_TEMPLATE)
    assert placeholders  # template really is parameterized
    rendered = tp.format_prompt(_doc(title="x", abstract="y"), CLASSES)
    for ph in placeholders:
        assert "{" + ph + "}" not in rendered


# --- stub provider -----------------------------------------------------------


def test_stub_ranks_verbatim_class_first():
    d = _doc(title="A survey", abstract="advances in machine learning for graphs")
    rec = tp.stub_llm_provider(d, CLASSES, seed=0)
    assert rec.predictions[0] == CLASSES.index("machine learning")
    assert "machine" in rec.explanation


def test_stub_tie_break_is_class_index_order():
    d = _doc(title="zzz", abstract="qqq www")
    rec = tp.stub_llm_provider(d, CLASSES, seed=0)
    assert rec.predictions == list(range(5))


def test_stub_perfect_when_class_name_embedded():
    rng = np.random.default_rng(0)
    hits = 0
    for i in range(50):
        cls = int(rng.integers(0, len(CLASSES)))
        d = _doc(i, title=f"note {i}", abstract=f"a paper about {CLASSES[cls]} methods")
        rec = tp.stub_llm_provider(d, CLASSES, seed=0)
        hits += rec.predictions[0] == cls
    assert hits == 50


# --- text hashing ------------------------------------------------------------


def test_encode_empty_text_zero_vector():
    v = tp.encode_text("", 64, seed=0)
    assert np.array_equal(v, np.zeros(64))


def test_encode_text_unit_norm():
    rng = np.random.default_rng(1)
    for i in range(20):
        words = " ".join(f"w{int(rng.integers(0, 50))}" for _ in range(int(rng.integers(1, 30))))
        v = tp.encode_text(words, 128, seed=3)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9


def test_encode_text_deterministic_and_seed_sensitive():
    a = tp.encode_text("graph transformers", 64, seed=1)
    b = tp.encode_text("graph transformers", 64, seed=1)
    c = tp.encode_text("graph transformers", 64, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_encode_text_similarity_ordering():
    # shared-prefix texts must stay closer than disjoint-vocabulary texts
    rng = np.random.default_rng(2)
    wins = 0
    trials = 30
    for t in range(trials):
        base_words = [f"alpha{t}w{i}" for i in range(12)]
        suffix = [f"beta{t}w{i}" for i in range(4)]
        disjoint = [f"gamma{t}w{i}" for i in range(12)]
        t0 = " ".join(base_words)
        t1 = t0 + " " + " ".join(suffix)
        t2 = " ".join(disjoint)
        e0, e1, e2 = (tp.encode_text(x, 256, seed=5) for x in (t0, t1, t2))
        wins += float(e0 @ e1) > float(e0 @ e2)
    assert wins == trials


ORACLE_TEXTS = [
    "",
    "graph graph graph nets nets graph",
    "Naïve café RÉSUMÉ: 東京 graphs, ÜBER-graphs and \u212aelvin",  # non-ASCII splits tokens
    "The the THE tHe",
    "   \n\t  ",
    "!!! ???",
    " ".join(f"w{i % 37}" for i in range(500)),  # large bucket counts
]


@pytest.mark.parametrize("dim", [1, 7, 256])
@pytest.mark.parametrize("seed", [0, 1, -1, 2**40])
def test_encode_text_bit_exact_against_per_token_oracle(dim, seed):
    for text in ORACLE_TEXTS:
        got = tp.encode_text(text, dim, seed)
        assert got.shape == (dim,)
        assert got.tobytes() == oracle_encode_text(text, dim, seed).tobytes(), text
    # all texts in one pass: the shared vocabulary must not leak between rows
    rows = tp._encode_texts(ORACLE_TEXTS, dim, seed)
    expect = np.stack([oracle_encode_text(t, dim, seed) for t in ORACLE_TEXTS])
    assert rows.tobytes() == expect.tobytes()


# characters whose lowering, encoding or digit/letter class could trip a
# byte-level tokenizer: the Kelvin sign lowers to ASCII "k", "İ" to "i"
# plus a combining dot, Arabic-Indic and fullwidth digits and letters are
# not ASCII, then NUL, combining marks, lone surrogates (a JSON "\\ud800"
# escape gives one), "ß", a ligature and an astral character
TRICKY_CHARS = ("\u212a", "\u0130", "\u0660", "\u0669", "\uff10", "\uff21", "\uff41", "\x00",
                "\u0301", "\u0307", "\ud800", "\udfff", "\u00df", "\ufb01", "\U0001d400",
                "\u03a3", " ", "\t", "\n", "-", "_", "A", "z", "0", "9")


def test_tokenize_matches_regex_oracle_on_random_unicode():
    rng = np.random.default_rng(13)
    for _ in range(400):
        parts = []
        for _ in range(int(rng.integers(0, 30))):
            pick = rng.random()
            if pick < 0.35:
                parts.append(TRICKY_CHARS[rng.integers(len(TRICKY_CHARS))])
            elif pick < 0.7:
                parts.append(chr(rng.integers(0x21, 0x7F)))  # printable ASCII
            else:
                parts.append(chr(rng.integers(0x80, 0x110000)))  # any code point, surrogates too
        text = "".join(parts)
        assert tp.tokenize(text) == oracle_tokenize(text), repr(text)
        assert tp.encode_text(text, 8, 3).tobytes() == oracle_encode_text(text, 8, 3).tobytes()


def test_tokenize_tricky_characters():
    assert tp.tokenize("\u212aelvin \u0130stanbul") == ["kelvin", "i", "stanbul"]
    assert tp.tokenize("x\u0660y \uff21\uff22 a\x00b c\u0301d e\ud800f") == ["x", "y", "a", "b", "c",
                                                                            "d", "e", "f"]


def test_encode_text_rejects_empty_dim():
    with pytest.raises(ValueError, match="encode_text: dim must be >= 1"):
        tp.encode_text("graph", 0)


# --- prediction encoding -----------------------------------------------------


def test_single_prediction_one_hot():
    rec = LlmRecord(0, [3], "")
    v = tp.encode_predictions(rec, 5, top_k=5)
    expect = np.zeros(5)
    expect[3] = 1.0
    assert np.array_equal(v, expect)


def test_two_predictions_rank_weights():
    rec = LlmRecord(0, [3, 1], "")
    v = tp.encode_predictions(rec, 5, top_k=2)
    assert v[3] == pytest.approx(2.0 / 3.0)
    assert v[1] == pytest.approx(1.0 / 3.0)
    assert v.sum() == pytest.approx(1.0)


def test_prediction_rows_sum_one_or_zero():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = int(rng.integers(2, 10))
        m = int(rng.integers(0, c + 1))
        preds = rng.permutation(c)[:m].tolist()
        rec = LlmRecord(0, preds, "")
        v = tp.encode_predictions(rec, c, top_k=int(rng.integers(1, 8)))
        s = v.sum()
        assert s == pytest.approx(1.0) or s == 0.0
    assert tp.encode_predictions(None, 4, 3).sum() == 0.0


# --- llm cache file ----------------------------------------------------------


def test_load_llm_records_empty_file(tmp_path):
    p = tmp_path / "cache.jsonl"
    p.write_text("")
    assert tp.load_llm_records(p, CLASSES) == {}


def test_load_llm_records_maps_names_to_indices(tmp_path):
    p = tmp_path / "cache.jsonl"
    p.write_text(json.dumps({"id": 0, "predictions": ["crypto", "machine learning"], "explanation": "e"}) + "\n")
    recs = tp.load_llm_records(p, CLASSES)
    assert recs[0].predictions == [3, 1]
    assert recs[0].explanation == "e"


def test_load_llm_records_unknown_names_dropped(tmp_path, caplog):
    p = tmp_path / "cache.jsonl"
    p.write_text(json.dumps({"id": 1, "predictions": ["nope", "vision"], "explanation": ""}) + "\n")
    with caplog.at_level("WARNING"):
        recs = tp.load_llm_records(p, CLASSES)
    assert recs[1].predictions == [4]
    assert "unknown class names" in caplog.text


def test_load_llm_records_errors(tmp_path):
    p = tmp_path / "cache.jsonl"
    p.write_text('{"id": 0, "predictions": []}\nnot json\n')
    with pytest.raises(tp.DataError, match=":2"):
        tp.load_llm_records(p, CLASSES)
    p.write_text(
        json.dumps({"id": 0, "predictions": []}) + "\n" + json.dumps({"id": 0, "predictions": []}) + "\n"
    )
    with pytest.raises(tp.DataError, match="duplicate"):
        tp.load_llm_records(p, CLASSES)


def test_load_llm_records_predictions_must_be_a_string_array(tmp_path):
    p = tmp_path / "cache.jsonl"
    for bad in ('"vision"', '{"vision": 1}', '["vision", 3]', "null"):
        p.write_text('{"id": 0, "predictions": []}\n{"id": 1, "predictions": %s}\n' % bad)
        with pytest.raises(tp.DataError, match=r"cache.jsonl:2: 'predictions' must be a JSON array"):
            tp.load_llm_records(p, CLASSES)


@pytest.mark.parametrize("value", ["1.0", "true", '"1"', "null", "1e3", "9223372036854775808"])
def test_load_llm_records_id_must_be_an_integer(tmp_path, value):
    p = tmp_path / "cache.jsonl"
    p.write_text('{"id": %s, "predictions": ["vision"]}\n' % value)
    with pytest.raises(tp.DataError, match=r"cache.jsonl:1: 'id' must be a 64-bit integer"):
        tp.load_llm_records(p, CLASSES)


def test_null_explanation_reads_as_absent(tmp_path):
    p = tmp_path / "cache.jsonl"
    p.write_text('{"id": 0, "predictions": ["vision"], "explanation": null}\n'
                 '{"id": 1, "predictions": ["vision"]}\n')
    recs = tp.load_llm_records(p, CLASSES)
    assert recs[0].explanation == recs[1].explanation == ""
    docs = [_doc(0), _doc(1)]
    b = tp.build_bundle(docs, recs, np.zeros((2, 1)), num_classes=5, text_dim=16)
    assert b.h_expl[0].tobytes() == b.h_expl[1].tobytes() == np.zeros(16).tobytes()


def test_llm_cache_generator_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    p = tmp_path / "cache.jsonl"
    lines = []
    for i in range(1000):
        k = int(rng.integers(0, 4))
        names = [CLASSES[j] for j in rng.permutation(5)[:k]]
        lines.append(json.dumps({"id": i, "predictions": names, "explanation": f"expl {i}"}))
    p.write_text("\n".join(lines) + "\n")
    recs = tp.load_llm_records(p, CLASSES)
    assert sorted(recs) == list(range(1000))
    assert all(recs[i].explanation == f"expl {i}" for i in range(1000))


# --- node documents ----------------------------------------------------------


def test_load_node_documents_roundtrip(tmp_path):
    p = tmp_path / "docs.jsonl"
    rows = [
        {"id": 1, "title": "B", "abstract": "b", "label": None, "year": 2018},
        {"id": 0, "title": "A", "abstract": "a", "label": 2, "year": 2015},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    docs = tp.load_node_documents(p)
    assert [d.id for d in docs] == [0, 1]
    assert docs[0].label == 2 and docs[1].label is None


def test_load_node_documents_errors(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text(json.dumps({"id": 0, "title": "", "abstract": "", "year": 2000}) + "\n")
    with pytest.raises(tp.DataError, match="empty title"):
        tp.load_node_documents(p)
    p.write_text(json.dumps({"id": 1, "title": "t", "abstract": "", "year": 2000}) + "\n")
    with pytest.raises(tp.DataError, match="dense range"):
        tp.load_node_documents(p)
    p.write_text(json.dumps({"id": 0, "title": "t", "abstract": ""}) + "\n")
    with pytest.raises(tp.DataError, match=":1"):
        tp.load_node_documents(p)


@pytest.mark.parametrize("field,value", [
    ("id", "true"), ("id", "0.0"), ("id", '"0"'), ("label", "1.7"), ("label", "false"),
    ("year", "2018.9"), ("year", '"2018"'), ("year", "null"), ("year", "-9223372036854775809"),
])
def test_load_node_documents_integer_fields(tmp_path, field, value):
    rec = {"id": "0", "title": '"t"', "abstract": '"a"', "label": "1", "year": "2018"}
    rec[field] = value
    p = tmp_path / "docs.jsonl"
    p.write_text('{"id": 1, "title": "u", "year": 2017}\n'
                 + "{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n")
    with pytest.raises(tp.DataError, match=rf"docs.jsonl:2: '{field}' must be a 64-bit integer"):
        tp.load_node_documents(p)


def test_load_node_documents_null_label_and_abstract(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text('{"id": 0, "title": "graph nets", "abstract": null, "label": null, "year": 2015}\n'
                 '{"id": 1, "title": "graph nets", "year": 2015}\n')
    docs = tp.load_node_documents(p)
    assert docs[0] == NodeDocument(0, "graph nets", "", None, 2015)
    assert docs[1] == NodeDocument(1, "graph nets", "", None, 2015)
    b = tp.build_bundle(docs, {}, np.zeros((2, 1)), num_classes=2, text_dim=32)
    assert b.h_text[0].tobytes() == b.h_text[1].tobytes()
    p.write_text('{"id": 0, "title": null, "year": 2015}\n')
    with pytest.raises(tp.DataError, match="empty title"):
        tp.load_node_documents(p)


def test_load_node_documents_line_must_be_an_object(tmp_path):
    p = tmp_path / "docs.jsonl"
    p.write_text('{"id": 0, "title": "t", "year": 2015}\n[1, 2]\n')
    with pytest.raises(tp.DataError, match=r"docs.jsonl:2: expected a JSON object"):
        tp.load_node_documents(p)
    p.write_text('{"id": 0, "title": "t", "year": 2015} {"id": 1}\n')
    with pytest.raises(tp.DataError, match=r"docs.jsonl:1: invalid JSON: Extra data"):
        tp.load_node_documents(p)


def test_text_inputs_must_be_utf8(tmp_path):
    """A byte that is not UTF-8 is a DataError naming the file and the
    line, also past the first chunk a text-mode read decodes; UTF-8
    beyond ASCII loads."""
    good = b'{"id": 0, "title": "caf\xc3\xa9", "year": 2015}\n'
    p = tmp_path / "docs.jsonl"
    p.write_bytes(good)
    assert tp.load_node_documents(p)[0].title == "caf\u00e9"
    p.write_bytes(good + b"\n" * 20000 + b'{"id": 1, "title": "\xff", "year": 2015}\n')
    with pytest.raises(tp.DataError, match=r"docs.jsonl:20002: not UTF-8: byte 0xff at column 21"):
        tp.load_node_documents(p)
    p = tmp_path / "llm_cache.jsonl"
    p.write_bytes(b'{"id": 0, "predictions": [], "explanation": "caf\xe9"}\n')
    with pytest.raises(tp.DataError, match=r"llm_cache.jsonl:1: not UTF-8: byte 0xe9"):
        tp.load_llm_records(p, CLASSES)
    p = tmp_path / "feat.csv"
    p.write_bytes(b"1,2\n1.0,\xc3\n")  # a two-byte sequence cut short
    with pytest.raises(tp.DataError, match=r"feat.csv:2: not UTF-8: byte 0xc3"):
        tp.load_feature_matrix(p)


# --- bundle ------------------------------------------------------------------


def _tiny_corpus(n=6):
    docs = [
        _doc(i, title=f"paper {i}", abstract=f"about {CLASSES[i % 5]}", label=i % 5, year=2015 + i % 5)
        for i in range(n)
    ]
    records = {d.id: tp.stub_llm_provider(d, CLASSES, 0) for d in docs if d.id != 2}
    ogb = np.random.default_rng(0).standard_normal((n, 8))
    return docs, records, ogb


def test_bundle_missing_record_zero_rows():
    docs, records, ogb = _tiny_corpus()
    b = tp.build_bundle(docs, records, ogb, num_classes=5, text_dim=32)
    assert np.array_equal(b.h_expl[2], np.zeros(32))
    assert np.array_equal(b.h_pred[2], np.zeros(5))
    assert np.linalg.norm(b.h_text[2]) > 0


def test_bundle_shapes_and_rows():
    docs, records, ogb = _tiny_corpus()
    b = tp.build_bundle(docs, records, ogb, num_classes=5, text_dim=32)
    assert b.h_text.shape == (6, 32)
    assert b.h_expl.shape == (6, 32)
    assert b.h_pred.shape == (6, 5)
    assert b.h_ogb.shape == (6, 8)


def test_bundle_deterministic():
    docs, records, ogb = _tiny_corpus()
    b1 = tp.build_bundle(docs, records, ogb, num_classes=5, text_dim=32, seed=9)
    b2 = tp.build_bundle(docs, records, ogb, num_classes=5, text_dim=32, seed=9)
    for s in tp.SOURCES:
        assert b1.source(s).tobytes() == b2.source(s).tobytes()


def test_bundle_local_degradation():
    docs, records, ogb = _tiny_corpus()
    full = tp.build_bundle(docs, records, ogb, num_classes=5, text_dim=32)
    changed = dict(records)
    changed[3] = LlmRecord(3, [0], "different words entirely")
    b2 = tp.build_bundle(docs, changed, ogb, num_classes=5, text_dim=32)
    assert not np.array_equal(full.h_expl[3], b2.h_expl[3])
    mask = np.ones(6, dtype=bool)
    mask[3] = False
    assert np.array_equal(full.h_expl[mask], b2.h_expl[mask])
    assert np.array_equal(full.h_text, b2.h_text)


def test_bundle_bit_exact_against_per_node_oracle():
    docs, records, ogb = _tiny_corpus(12)
    docs[5].abstract = "Ünïcödé abstract, über graphs"
    records = {i: r for i, r in records.items() if i % 3}  # 0, 3, 6, 9 (and 2) missing
    records[4] = LlmRecord(4, [1], "")
    b = tp.build_bundle(docs, records, ogb, num_classes=5, text_dim=16, pred_top_k=3, seed=7)
    h_text, h_expl, h_pred = np.zeros((12, 16)), np.zeros((12, 16)), np.zeros((12, 5))
    for i, doc in enumerate(docs):
        h_text[i] = oracle_encode_text(doc.title + "\n" + doc.abstract, 16, 7)
        rec = records.get(doc.id)
        if rec is not None:
            h_expl[i] = oracle_encode_text(rec.explanation, 16, 7)
            h_pred[i] = tp.encode_predictions(rec, 5, 3)
    assert b.h_text.tobytes() == h_text.tobytes()
    assert b.h_expl.tobytes() == h_expl.tobytes()
    assert b.h_pred.tobytes() == h_pred.tobytes()
    assert b.h_ogb.tobytes() == ogb.tobytes()


def test_bundle_override_and_errors():
    docs, records, ogb = _tiny_corpus()
    pre = np.full((6, 10), 0.5)
    b = tp.build_bundle(docs, records, ogb, num_classes=5, text_dim=32, overrides={"expl": pre})
    assert b.h_expl.shape == (6, 10)
    with pytest.raises(tp.DataError, match="rows"):
        tp.build_bundle(docs, records, ogb[:3], num_classes=5, text_dim=32)
    with pytest.raises(tp.DataError, match="unknown embedding source"):
        tp.build_bundle(docs, records, ogb, num_classes=5, overrides={"bogus": pre})


# --- feature matrix files ----------------------------------------------------


def test_feature_matrix_binary_roundtrip(tmp_path):
    for shape in [(7, 4), (0, 4), (3, 0)]:
        m = np.random.default_rng(5).standard_normal(shape)
        p = tmp_path / "feat.bin"
        tp.save_feature_matrix(p, m)
        back = tp.load_feature_matrix(p)
        assert back.shape == shape and back.tobytes() == m.tobytes()


def test_feature_matrix_csv(tmp_path):
    p = tmp_path / "feat.csv"
    p.write_text("# comment\n2,3\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    m = tp.load_feature_matrix(p)
    assert m.shape == (2, 3)
    assert m[1, 2] == 6.0
    bad = tmp_path / "bad.csv"
    bad.write_text("2,3\n1.0,2.0,3.0\n")
    with pytest.raises(tp.DataError, match="does not match header"):
        tp.load_feature_matrix(bad)


@pytest.mark.parametrize("header", ["0,-1", "-1,0", "-2,3"])
def test_feature_matrix_csv_negative_dimension(tmp_path, header):
    p = tmp_path / "feat.csv"
    p.write_text(f"# rows,cols\n{header}\n")
    with pytest.raises(tp.DataError, match=rf"feat.csv:2: negative dimension in header '{header}'"):
        tp.load_feature_matrix(p)


@pytest.mark.parametrize("dims", [(2**63, 2), (2**64 - 1, 2**64 - 1), (3, 2**61), (0, 2**62)])
def test_feature_matrix_size_field_beyond_file_is_truncated(tmp_path, dims):
    p = tmp_path / "feat.bin"
    tp.save_feature_matrix(p, np.ones((3, 2)))
    raw = bytearray(p.read_bytes())
    raw[8:24] = struct.pack("<QQ", *dims)
    p.write_bytes(bytes(raw))
    with pytest.raises(tp.DataError, match=r"feat.bin: truncated feature matrix"):
        tp.load_feature_matrix(p)
    p.write_bytes(bytes(raw[:20]))  # the header itself cut short
    with pytest.raises(tp.DataError, match=r"feat.bin: truncated feature matrix"):
        tp.load_feature_matrix(p)


def test_feature_matrix_size_field_below_file_is_refused(tmp_path):
    p = tmp_path / "feat.bin"
    tp.save_feature_matrix(p, np.ones((3, 2)))
    raw = bytearray(p.read_bytes())
    raw[16:24] = struct.pack("<Q", 1)  # one column: the rows would shift
    p.write_bytes(bytes(raw))
    with pytest.raises(tp.DataError, match=r"feat.bin: 24 bytes after the \(3, 1\) feature matrix"):
        tp.load_feature_matrix(p)
