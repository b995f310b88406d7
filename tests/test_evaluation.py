import json

import numpy as np
import pytest

from tapeformer import evaluation as ev


def test_perfect_predictions_diagonal_and_all_ones():
    labels = np.array([0, 1, 2, 2, 1, 0])
    counts = ev.confusion(labels, labels, 3)
    assert np.array_equal(counts, np.diag([2, 2, 2]))
    rep = ev.metrics(counts)
    assert rep.accuracy == 1.0
    assert rep.macro_precision == 1.0
    assert rep.macro_recall == 1.0
    assert rep.macro_f1 == 1.0


def test_empty_input_is_error():
    with pytest.raises(ValueError, match="zero predictions"):
        ev.confusion([], [], 3)


def test_out_of_range_class_is_error():
    with pytest.raises(ValueError, match="out of range"):
        ev.confusion([0, 3], [0, 1], 3)
    with pytest.raises(ValueError, match="out of range"):
        ev.confusion([0, 1], [0, -1], 3)


def test_confusion_matches_tally_oracle():
    rng = np.random.default_rng(0)
    c = 40
    preds = rng.integers(0, c, size=1000)
    labels = rng.integers(0, c, size=1000)
    counts = ev.confusion(preds, labels, c)
    tally = np.zeros((c, c), dtype=np.int64)
    for p, t in zip(preds, labels):
        tally[t, p] += 1
    assert counts.dtype == np.int64
    assert np.array_equal(counts, tally)
    assert counts.sum() == 1000


def test_single_predicted_class_zero_denominator_rule():
    # two true classes, but only class 0 ever predicted
    preds = np.array([0, 0, 0, 0])
    labels = np.array([0, 0, 1, 1])
    rep = ev.metrics(ev.confusion(preds, labels, 2))
    assert rep.per_class[0].precision == 0.5
    assert rep.per_class[1].precision == 0.0  # zero denominator counted as 0
    assert rep.macro_precision == pytest.approx(0.25)
    assert rep.zero_denominator_classes == 1
    assert rep.per_class[1].f1 == 0.0  # never NaN


def _loop_oracle(preds, labels, c):
    """Independent per-class loop over raw pairs."""
    acc = float(np.mean(preds == labels))
    ps, rs, fs = [], [], []
    for k in range(c):
        tp = int(np.sum((preds == k) & (labels == k)))
        fp = int(np.sum((preds == k) & (labels != k)))
        fn = int(np.sum((preds != k) & (labels == k)))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return acc, sum(ps) / c, sum(rs) / c, sum(fs) / c


def test_metrics_match_loop_oracle():
    rng = np.random.default_rng(1)
    for trial in range(20):
        c = int(rng.integers(2, 12))
        n = int(rng.integers(5, 400))
        preds = rng.integers(0, c, size=n)
        labels = rng.integers(0, c, size=n)
        rep = ev.metrics(ev.confusion(preds, labels, c))
        acc, mp, mr, mf = _loop_oracle(preds, labels, c)
        assert abs(rep.accuracy - acc) < 1e-12
        assert abs(rep.macro_precision - mp) < 1e-12
        assert abs(rep.macro_recall - mr) < 1e-12
        assert abs(rep.macro_f1 - mf) < 1e-12


def test_accuracy_is_trace_over_total_exactly():
    rng = np.random.default_rng(2)
    preds = rng.integers(0, 5, size=333)
    labels = rng.integers(0, 5, size=333)
    counts = ev.confusion(preds, labels, 5)
    rep = ev.metrics(counts)
    assert rep.accuracy == np.trace(counts) / counts.sum()


def test_macro_invariant_under_class_relabeling():
    rng = np.random.default_rng(3)
    c = 7
    preds = rng.integers(0, c, size=500)
    labels = rng.integers(0, c, size=500)
    rep = ev.metrics(ev.confusion(preds, labels, c))
    perm = rng.permutation(c)
    rep2 = ev.metrics(ev.confusion(perm[preds], perm[labels], c))
    assert rep2.accuracy == pytest.approx(rep.accuracy, abs=1e-12)
    assert rep2.macro_precision == pytest.approx(rep.macro_precision, abs=1e-12)
    assert rep2.macro_recall == pytest.approx(rep.macro_recall, abs=1e-12)
    assert rep2.macro_f1 == pytest.approx(rep.macro_f1, abs=1e-12)
    # per-class rows are permuted copies
    for i in range(c):
        assert rep2.per_class[perm[i]].f1 == pytest.approx(rep.per_class[i].f1, abs=1e-12)


def test_report_json_fields():
    labels = np.array([0, 1, 1, 0])
    rep = ev.metrics(ev.confusion(labels, labels, 2))
    obj = json.loads(ev.report_to_json(rep))
    assert set(obj) >= {"accuracy", "macro_precision", "macro_recall", "macro_f1", "per_class"}
    assert obj["per_class"][0]["support"] == 2


# --- toggle parsing ----------------------------------------------------------


def test_parse_toggles():
    assert ev.parse_toggle("graphormer+TA") == ("graphormer", ("text", "ogb"))
    assert ev.parse_toggle("graphormer+P") == ("graphormer", ("pred",))
    assert ev.parse_toggle("graphormer+E") == ("graphormer", ("expl",))
    assert ev.parse_toggle("TA+P+E") == ("mlp", ("expl", "pred", "text", "ogb"))
    assert ev.parse_toggle("full") == ("graphormer", ("expl", "pred", "text", "ogb"))
    assert ev.parse_toggle("graphormer+ogb") == ("graphormer", ("ogb",))


def test_parse_toggle_errors_list_valid_names():
    with pytest.raises(ValueError, match="valid tokens"):
        ev.parse_toggle("graphormer+XYZ")
    with pytest.raises(ValueError, match="no embedding sources"):
        ev.parse_toggle("graphormer")


def test_parse_toggle_names_full_as_a_whole_name_only():
    """``full`` is a whole configuration name, not a token: ``full+E`` is
    refused, and the message lists the tokens without it and names
    ``full`` apart."""
    with pytest.raises(ValueError) as err:
        ev.parse_toggle("full+E")
    assert str(err.value) == (
        "unknown ablation toggle 'full' in 'full+E'; valid tokens: "
        "['e', 'expl', 'graphormer', 'mlp', 'ogb', 'p', 'pred', 'ta', 'text'], "
        "or the whole name 'full' alone for the full system")


def test_format_table_sorted_and_aligned():
    rep = ev.metrics(ev.confusion([0, 1], [0, 1], 2))
    rows = [
        ev.AblationRow("b-config", "mlp", ("text",), 0.5, rep),
        ev.AblationRow("a-config", "graphormer", ("ogb",), 0.75, rep),
    ]
    text = ev.format_ablation_table(rows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("configuration")
    assert len(lines) == 3
