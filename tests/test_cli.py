import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tapeformer import autodiff as ad
from tapeformer import cli
from tapeformer.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small, strongly separable corpus the CLI commands share."""
    out = tmp_path_factory.mktemp("cli")
    rc = main(["gen-synthetic", "--out", str(out), "--nodes", "60", "--classes", "3",
               "--text-signal", "1.0", "--homophily", "0.8", "--feature-signal", "0.5",
               "--feature-dim", "16", "--text-dim", "64", "--seed", "3"])
    assert rc == 0
    rc = main(["prepare", "--config", str(out / "config.json")])
    assert rc == 0
    return out


def _cfg_path(workdir):
    return str(workdir / "config.json")


# --- config handling ---------------------------------------------------------


def test_config_unknown_keys_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"trian": {}}))
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.load_config(p)
    p.write_text(json.dumps({"train": {"epocs": 3}}))
    with pytest.raises(cli.ConfigError, match="epocs"):
        cli.load_config(p)


def test_config_overrides_win(workdir):
    cfg = cli.load_config(_cfg_path(workdir))
    assert cfg.train.epochs == 40
    cfg = cli.apply_overrides(cfg, ["train.epochs=3", "model.kind=mlp", "seed=9"])
    assert cfg.train.epochs == 3
    assert cfg.model.kind == "mlp"
    assert cfg.seed == 9
    with pytest.raises(cli.ConfigError, match="unknown config field"):
        cli.apply_overrides(cfg, ["train.bogus=1"])
    with pytest.raises(cli.ConfigError, match="section.key=value"):
        cli.apply_overrides(cfg, ["no-equals-sign"])


@pytest.mark.parametrize("setting, named", [("train.epochs=abc", "train.epochs"),
                                             ("model.dropout=1.5", "dropout"),
                                             ("model.num_heads=3", "num_heads"),
                                             ("model.max_degree_bucket=-1", "max_degree_bucket"),
                                             ("model.ln_eps=-1", "ln_eps"),
                                             ("model.ln_eps=0", "ln_eps"),
                                             ("model.ego_hops=0", "ego_hops"),
                                             ("model.ego_max_nodes=0", "ego_max_nodes"),
                                             ("model.max_spd=0", "max_spd"),
                                             ("model.num_heads=0", "num_heads"),
                                             ("model.num_heads=-4", "num_heads"),
                                             ("model.d_model=0", "d_model"),
                                             ("model.d_model=-8", "d_model"),
                                             ("model.d_ffn=0", "d_ffn"),
                                             ("model.d_ffn=-1", "d_ffn"),
                                             ("model.num_layers=-1", "num_layers"),
                                             ("train.base_lr=-1", "base_lr"),
                                             ("train.warmup_steps=-5", "warmup_steps"),
                                             ("seed=-1", "seed"),
                                             ("data.text_dim=0", "text_dim"),
                                             ("data.pred_top_k=0", "pred_top_k"),
                                             ("model.d_edge_feature=3", "model.d_edge_feature"),
                                             ('model.sources=["text","text"]',
                                              "sources ['text'] given more than once")])
def test_bad_set_value_is_exit_2(workdir, capsys, setting, named):
    rc = main(["train", "--config", _cfg_path(workdir), "--set", setting])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err


def test_config_file_with_removed_key_is_exit_2(workdir, tmp_path, capsys):
    """``model.d_edge_feature`` is gone (edge features are always
    ``EDGE_FEATURE_DIM`` wide): a config that still sets it is refused."""
    cfg = json.loads(Path(_cfg_path(workdir)).read_text())
    cfg["model"]["d_edge_feature"] = 3
    p = tmp_path / "old.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 2
    assert "unknown config key(s) ['model.d_edge_feature']" in capsys.readouterr().err


def test_readme_lists_every_model_and_train_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Model configuration\n", 1)[1].split("\n## ", 1)[0]
    for cls in (cli.GraphormerParams, cli.TrainParams):
        for f in dataclasses.fields(cls):
            assert f"`{f.name}`" in section, (cls.__name__, f.name)


def test_overrides_coerce_to_declared_types(workdir, tmp_path):
    cfg = cli.apply_overrides(cli.load_config(_cfg_path(workdir)),
                              ["train.base_lr=1", "paths.out_dir=123", "train.warmup_steps=null"])
    assert cfg.train.base_lr == 1.0 and isinstance(cfg.train.base_lr, float)
    assert cfg.paths.out_dir == "123"
    assert cfg.train.warmup_steps is None
    for bad in ("model.d_model=1.5", "model.sources=expl", "seed=true", 'model.sources=["expl", 3]'):
        with pytest.raises(cli.ConfigError, match=bad.split("=")[0]):
            cli.apply_overrides(cli.load_config(_cfg_path(workdir)), [bad])
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"train": {"epochs": "3"}}))
    with pytest.raises(cli.ConfigError, match="train.epochs"):
        cli.load_config(p)


def test_resolved_config_loads_back_equal(workdir, tmp_path):
    sets = ["train.epochs=6", "train.warmup_steps=3", "model.kind=mlp", "model.dropout=0.25",
            f"paths.out_dir={tmp_path}", "seed=5"]
    cfg = cli.apply_overrides(cli.load_config(_cfg_path(workdir)), sets)
    cli.echo_config(cfg, tmp_path)
    assert cli.load_config(tmp_path / "config.resolved.json") == cfg


def test_set_reruns_range_checks_at_load(workdir):
    for bad in ("model.num_heads=3", "model.max_degree_bucket=-1", "model.ln_eps=0",
                "model.ego_hops=0", "model.ego_max_nodes=0", "model.num_heads=0",
                "model.d_model=0", "model.d_ffn=0", "model.num_layers=-1", "train.base_lr=-1",
                "train.base_lr=0", "train.warmup_steps=-5", "seed=-1"):
        section, _, name = bad.split("=")[0].rpartition(".")
        with pytest.raises(cli.ConfigError, match=f"{section or 'config'}: .*{name}"):
            cli.apply_overrides(cli.load_config(_cfg_path(workdir)), [bad])
    # zero layers and a zero warmup stay valid
    cli.apply_overrides(cli.load_config(_cfg_path(workdir)),
                        ["model.num_layers=0", "train.warmup_steps=0"])


def test_gen_synthetic_config_pins_format_and_defaults(tmp_path):
    assert main(["gen-synthetic", "--out", str(tmp_path), "--seed", "0"]) == 0
    paths = {name: str(tmp_path / file) for name, file in (
        ("dataset", "dataset.bin"), ("edges", "edges.tsv"), ("llm_cache", "llm_cache.jsonl"),
        ("node_docs", "docs.jsonl"), ("ogb_features", "features.bin"))}
    assert json.loads((tmp_path / "config.json").read_text()) == {
        "ablation": {"configs": ["graphormer+TA", "graphormer+P", "graphormer+E", "TA+P+E",
                                 "full"]},
        "data": {"class_names": ["field0", "field1", "field2", "field3"], "pred_top_k": 5,
                 "text_dim": 256},
        "model": {"d_ffn": 128, "d_model": 64, "dropout": 0.0,
                  "ego_hops": 2, "ego_max_nodes": 16, "kind": "graphormer", "ln_eps": 1e-12,
                  "max_degree_bucket": 4, "max_spd": 5, "num_heads": 4, "num_layers": 2,
                  "sources": ["expl", "pred", "text", "ogb"]},
        "paths": {**paths, "out_dir": str(tmp_path), "override_expl": "", "override_ogb": "",
                  "override_pred": "", "override_text": ""},
        "seed": 0,
        "split": {"test_first_year": 2019, "train_last_year": 2017},
        "train": {"base_lr": 0.002, "batch_size": 8, "early_stop_patience": 10, "epochs": 40,
                  "grad_accum_steps": 1, "label_smoothing": 0.1, "warmup_steps": None},
    }


def test_engine_shape_error_is_internal_exit_1(workdir, monkeypatch, capsys):
    def broken_train(*args, **kwargs):
        raise cli.ad.ShapeError("matmul: incompatible shapes (2, 3) x (4, 5)")

    monkeypatch.setattr(cli, "train", broken_train)
    rc = main(["train", "--config", _cfg_path(workdir), "--set", "train.epochs=1"])
    assert rc == 1
    assert "internal error: ShapeError" in capsys.readouterr().err


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_config_not_utf8_is_a_config_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_bytes(b'{"seed": 1,\n "note": "\xff"}\n')
    with pytest.raises(cli.ConfigError, match=r"c.json:2: not UTF-8: byte 0xff"):
        cli.load_config(p)


@pytest.mark.parametrize("key", ["node_docs", "edges", "llm_cache"])
def test_non_utf8_input_is_exit_2(workdir, tmp_path, capsys, key):
    """A 0xff byte opening line 6 of a text input: exit 2, naming the file and the line."""
    cfg = json.loads(Path(_cfg_path(workdir)).read_text())
    src = Path(cfg["paths"][key])
    lines = src.read_bytes().split(b"\n")
    lines[5] = b"\xff" + lines[5]
    (tmp_path / src.name).write_bytes(b"\n".join(lines))
    cfg["paths"].update({key: str(tmp_path / src.name)}, dataset=str(tmp_path / "dataset.bin"),
                        out_dir=str(tmp_path))
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(cfg))
    assert main(["prepare", "--config", str(p)]) == 2
    assert f"{src.name}:6: not UTF-8: byte 0xff at column 1" in capsys.readouterr().err


def test_missing_edge_file_is_exit_2(workdir, tmp_path, capsys):
    cfg = json.loads(Path(_cfg_path(workdir)).read_text())
    cfg["paths"]["edges"] = str(tmp_path / "missing_edges.tsv")
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(cfg))
    rc = main(["prepare", "--config", str(p)])
    assert rc == 2
    assert "missing_edges.tsv" in capsys.readouterr().err


@pytest.mark.parametrize("endpoint", ["99999999999999999999", "-99999999999999999999"])
def test_edge_id_beyond_int64_is_exit_2(workdir, tmp_path, capsys, endpoint):
    lines = (workdir / "edges.tsv").read_text().splitlines() + [f"0\t{endpoint}"]
    (tmp_path / "edges.tsv").write_text("\n".join(lines) + "\n")
    cfg = json.loads(Path(_cfg_path(workdir)).read_text())
    cfg["paths"].update(edges=str(tmp_path / "edges.tsv"), dataset=str(tmp_path / "dataset.bin"),
                        out_dir=str(tmp_path))
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(cfg))
    assert main(["prepare", "--config", str(p)]) == 2
    assert f"edges.tsv:{len(lines)}: endpoint beyond int64" in capsys.readouterr().err


def test_feature_matrix_size_field_is_exit_2(workdir, tmp_path, capsys):
    raw = bytearray(Path(workdir / "features.bin").read_bytes())
    raw[8:16] = (2**64 - 1).to_bytes(8, "little")  # the row count
    (tmp_path / "features.bin").write_bytes(bytes(raw))
    cfg = json.loads(Path(_cfg_path(workdir)).read_text())
    cfg["paths"].update(ogb_features=str(tmp_path / "features.bin"),
                        dataset=str(tmp_path / "dataset.bin"), out_dir=str(tmp_path))
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(cfg))
    assert main(["prepare", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "features.bin: truncated feature matrix" in err and "internal error" not in err


def test_llm_records_matching_no_document(workdir, tmp_path, capsys, caplog):
    """``prepare -v`` warns about cache records whose id is no document
    and counts only the matched ones; a cache none of whose records
    matches exits 2 naming the cause."""
    lines = (workdir / "llm_cache.jsonl").read_text().splitlines()
    stray = '{"id": 100000, "predictions": ["field0"], "explanation": "x"}'
    cfg = json.loads(Path(_cfg_path(workdir)).read_text())
    cfg["paths"].update(llm_cache=str(tmp_path / "llm_cache.jsonl"),
                        dataset=str(tmp_path / "dataset.bin"), out_dir=str(tmp_path))
    p = tmp_path / "stray.json"
    p.write_text(json.dumps(cfg))
    (tmp_path / "llm_cache.jsonl").write_text("\n".join(lines + [stray]) + "\n")
    with caplog.at_level("INFO"):
        assert main(["-v", "prepare", "--config", str(p)]) == 0
    assert "ignoring 1 LLM record(s) whose id matches no document in [0, 60), the first 100000" \
        in caplog.text
    assert f"{len(lines)} cached LLM records" in caplog.text and len(lines) == 60
    capsys.readouterr()
    (tmp_path / "llm_cache.jsonl").write_text(stray + "\n")
    assert main(["prepare", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "llm_cache.jsonl: no LLM record matches a document: all 1 ids lie outside [0, 60)" in err


def test_label_outside_classes_is_refused_by_prepare(workdir, tmp_path, capsys):
    """A document labelled -5 stops ``prepare`` with exit 2 naming the node
    and the label, before any artifact is written that ``train`` would
    refuse."""
    docs = [json.loads(line) for line in (workdir / "docs.jsonl").read_text().splitlines()]
    for doc in docs:
        if doc["id"] == 11:
            doc["label"] = -5
    (tmp_path / "docs.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
    cfg = json.loads(Path(_cfg_path(workdir)).read_text())
    cfg["paths"].update(node_docs=str(tmp_path / "docs.jsonl"),
                        dataset=str(tmp_path / "dataset.bin"), out_dir=str(tmp_path))
    p = tmp_path / "labels.json"
    p.write_text(json.dumps(cfg))
    assert main(["prepare", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "docs.jsonl: node 11 has label -5, outside [-1, 3) for the 3 configured classes" in err
    assert not (tmp_path / "dataset.bin").exists()


# --- prepare -----------------------------------------------------------------


def test_prepare_idempotent_hash(workdir, capsys):
    rc1 = main(["prepare", "--config", _cfg_path(workdir)])
    out1 = capsys.readouterr().out
    rc2 = main(["prepare", "--config", _cfg_path(workdir)])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    h1 = [l for l in out1.splitlines() if l.startswith("content sha256")]
    h2 = [l for l in out2.splitlines() if l.startswith("content sha256")]
    assert h1 == h2 and h1


def test_prepare_artifact_hash_is_pinned(tmp_path, capsys):
    """The artifact of the 400-node seed-0 corpus, byte for byte: a change to
    text hashing, edge parsing or the artifact format shows here."""
    rc = main(["gen-synthetic", "--out", str(tmp_path), "--nodes", "400", "--classes", "4",
               "--seed", "0"])
    assert rc == 0
    capsys.readouterr()
    assert main(["prepare", "--config", str(tmp_path / "config.json")]) == 0
    out = capsys.readouterr().out
    assert "content sha256: 46a71a2a0862a28df4772cb811cf3ed915e4843a7be007233fbad728238f977d" in out


def test_prepare_writes_resolved_config(workdir):
    echo = workdir / "config.resolved.json"
    assert echo.exists()
    obj = json.loads(echo.read_text())
    assert obj["data"]["class_names"] == ["field0", "field1", "field2"]
    assert obj["train"]["epochs"] == 40


def test_synthetic_roundtrip_through_artifact(workdir):
    from tapeformer.dataset import load_dataset
    from tapeformer.text import load_node_documents

    ds = load_dataset(workdir / "dataset.bin")
    docs = load_node_documents(workdir / "docs.jsonl")
    assert ds.num_nodes == len(docs) == 60
    assert np.array_equal(ds.years, np.array([d.year for d in docs]))


def test_prepare_with_embedding_override(workdir, tmp_path):
    from tapeformer.dataset import load_dataset
    from tapeformer.text import save_feature_matrix

    override = tmp_path / "expl_override.bin"
    mat = np.full((60, 12), 0.125)
    save_feature_matrix(override, mat)
    rc = main(["prepare", "--config", _cfg_path(workdir),
               "--set", f"paths.override_expl={override}",
               "--set", f"paths.out_dir={tmp_path}",
               "--set", f"paths.dataset={tmp_path / 'ds.bin'}"])
    assert rc == 0
    ds = load_dataset(tmp_path / "ds.bin")
    assert ds.bundle.h_expl.shape == (60, 12)
    assert np.array_equal(ds.bundle.h_expl, mat)
    # the other sources are untouched
    base = load_dataset(workdir / "dataset.bin")
    assert np.array_equal(ds.bundle.h_text, base.bundle.h_text)


def _rewrite_meta(src, dst, edit):
    """Copy an artifact with its JSON meta passed through ``edit``."""
    raw = src.read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    meta = json.loads(raw[16:16 + n])
    edit(meta)
    new = json.dumps(meta).encode()
    dst.write_bytes(raw[:8] + len(new).to_bytes(8, "little") + new + raw[16 + n:])


def _resave(src, dst, edit):
    """Load an artifact, corrupt it in memory with ``edit``, save it with a
    matching hash sidecar."""
    from tapeformer.dataset import load_dataset, save_dataset

    ds = load_dataset(src)
    edit(ds)
    save_dataset(ds, dst)


def _bad_dtype(src, dst):
    raw = bytearray(src.read_bytes())
    n = int.from_bytes(raw[8:16], "little")
    name_len = int.from_bytes(raw[24 + n:32 + n], "little")
    raw[32 + n + name_len] = 7  # the first array's dtype code
    dst.write_bytes(bytes(raw))


def _huge_first_dim(src, dst):
    raw = bytearray(src.read_bytes())
    n = int.from_bytes(raw[8:16], "little")
    name_len = int.from_bytes(raw[24 + n:32 + n], "little")
    at = 32 + n + name_len + 1 + 8  # past the dtype code and the rank
    raw[at:at + 8] = (2**64 - 1).to_bytes(8, "little")
    dst.write_bytes(bytes(raw))


def _flip_last_byte(src, dst):
    raw = bytearray(src.read_bytes())
    raw[-1] ^= 1
    dst.write_bytes(bytes(raw))
    dst.with_name(dst.name + ".sha256").write_text(
        src.with_name(src.name + ".sha256").read_text())


def _flip_first_meta_byte(src, dst):
    raw = bytearray(src.read_bytes())
    raw[16] ^= 1  # "{" becomes "z"; no hash sidecar is copied
    dst.write_bytes(bytes(raw))


def _set(array, index, value):
    def edit(ds):
        (ds.labels if array == "labels" else getattr(ds.graph, array))[index] = value
    return edit


def _reverse_a_row(ds):
    off, tgt = ds.graph.in_offsets, ds.graph.in_targets
    v = int(np.argmax(np.diff(off) >= 2))
    tgt[off[v]:off[v + 1]] = tgt[off[v]:off[v + 1]][::-1].copy()


CORRUPT_ARTIFACTS = {
    "dtype code": (_bad_dtype, "unknown dtype code 7"),
    "size field": (_huge_first_dim, "ds.bin: truncated dataset artifact"),
    "meta JSON": (_flip_first_meta_byte, "ds.bin: artifact meta is not JSON"),
    "meta key": (lambda s, d: _rewrite_meta(s, d, lambda m: m.pop("num_edges")),
                 "missing keys ['num_edges']"),
    "length": (lambda s, d: _resave(s, d, lambda ds: setattr(ds, "years", ds.years[:-1])),
               "years is int64 (59,), expected int64 (60,)"),
    "offsets start": (lambda s, d: _resave(s, d, _set("out_offsets", 0, 1)),
                      "out_offsets must rise monotonically from 0"),
    "offsets order": (lambda s, d: _resave(s, d, _set("in_offsets", 5, 10 ** 6)),
                      "in_offsets must rise monotonically"),
    "offsets end": (lambda s, d: _resave(s, d, _set("out_offsets", -1, 0)),
                    "out_offsets must rise monotonically"),
    "target range": (lambda s, d: _resave(s, d, _set("out_targets", 0, 60)),
                     "out_targets has a node id outside [0, 60)"),
    "target order": (lambda s, d: _resave(s, d, _reverse_a_row),
                     "in_targets are not sorted within a row"),
    "label range": (lambda s, d: _resave(s, d, _set("labels", 0, 3)),
                    "labels must lie in [-1, 3)"),
    "sha256": (_flip_last_byte, "differs from"),
    "trailing bytes": (lambda s, d: d.write_bytes(s.read_bytes() + b"\0"),
                       "trailing bytes after the last array"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_ARTIFACTS))
def test_corrupt_artifact_is_exit_2(workdir, tmp_path, capsys, case):
    corrupt, named = CORRUPT_ARTIFACTS[case]
    art = tmp_path / "ds.bin"
    corrupt(workdir / "dataset.bin", art)
    rc = main(["inspect", "--config", _cfg_path(workdir), "--set", f"paths.dataset={art}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err


# --- train / eval ------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(workdir):
    rc = main(["train", "--config", _cfg_path(workdir), "--set", "train.epochs=6",
               "--set", "train.early_stop_patience=6"])
    assert rc == 0
    return workdir


def test_train_writes_artifacts(trained):
    assert (trained / "checkpoint.bin").exists()
    assert (trained / "history.csv").exists()
    assert (trained / "val_metrics.json").exists()
    header = (trained / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,step,train_loss,val_accuracy,lr"


def test_train_reproducible_history(trained, tmp_path):
    first = (trained / "history.csv").read_bytes()
    first_ckpt = (trained / "checkpoint.bin").read_bytes()
    rc = main(["train", "--config", _cfg_path(trained), "--set", "train.epochs=6",
               "--set", "train.early_stop_patience=6",
               "--set", f"paths.out_dir={tmp_path}",
               "--set", f"paths.dataset={trained / 'dataset.bin'}"])
    assert rc == 0
    assert (tmp_path / "history.csv").read_bytes() == first
    assert (tmp_path / "checkpoint.bin").read_bytes() == first_ckpt


def test_eval_train_split_overfit_accuracy_one(trained, capsys):
    rc = main(["eval", "--config", _cfg_path(trained),
               "--checkpoint", str(trained / "checkpoint.bin"), "--split", "train"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accuracy"] == 1.0


def test_eval_json_roundtrip_and_split_flag(trained, capsys):
    rc = main(["eval", "--config", _cfg_path(trained),
               "--checkpoint", str(trained / "checkpoint.bin"), "--split", "test"])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((trained / "eval_test.json").read_text())
    assert printed == on_disk
    assert set(printed) >= {"accuracy", "macro_precision", "macro_recall", "macro_f1", "per_class"}


def test_eval_shape_incompatible_checkpoint(trained, capsys):
    rc = main(["eval", "--config", _cfg_path(trained),
               "--checkpoint", str(trained / "checkpoint.bin"), "--split", "val",
               "--set", "model.d_model=32"])
    assert rc == 2
    assert "shape" in capsys.readouterr().err


@pytest.mark.parametrize("corruption,cause", [
    ("trailing", "trailing bytes after parameter"),
    ("non-finite", "'head.w' has non-finite values"),
    ("size field", "truncated checkpoint file"),
])
def test_eval_corrupt_checkpoint_is_exit_2(trained, tmp_path, capsys, corruption, cause):
    bad = tmp_path / "checkpoint.bin"
    if corruption == "trailing":
        bad.write_bytes((trained / "checkpoint.bin").read_bytes() + b"\0" * 8)
    elif corruption == "size field":
        raw = bytearray((trained / "checkpoint.bin").read_bytes())
        name_len = int.from_bytes(raw[8:12], "little")
        at = 12 + name_len + 4  # the first parameter's first dimension
        raw[at:at + 8] = (2**64 - 1).to_bytes(8, "little")
        bad.write_bytes(bytes(raw))
    else:
        state = ad.load_parameters(trained / "checkpoint.bin")
        state["head.w"][0, 0] = np.nan
        ad.save_parameters(bad, state)
    rc = main(["eval", "--config", _cfg_path(trained), "--checkpoint", str(bad),
               "--split", "val", "--set", f"paths.out_dir={tmp_path}",
               "--set", f"paths.dataset={trained / 'dataset.bin'}"])
    assert rc == 2
    assert cause in capsys.readouterr().err


# --- ablate ------------------------------------------------------------------


def test_ablate_emits_sorted_rows(workdir, capsys, tmp_path):
    rc = main(["ablate", "--config", _cfg_path(workdir),
               "--set", "train.epochs=1",
               "--set", "model.num_layers=1", "--set", "model.d_model=16",
               "--set", "model.d_ffn=16", "--set", "model.ego_max_nodes=6",
               "--set", f"paths.out_dir={tmp_path}",
               "--set", f"paths.dataset={workdir / 'dataset.bin'}"])
    assert rc == 0
    rows = json.loads((tmp_path / "ablation.json").read_text())
    names = [r["configuration"] for r in rows]
    assert names == sorted(names)
    assert len(rows) == 5
    table = (tmp_path / "ablation.txt").read_text()
    assert table.splitlines()[0].startswith("configuration")
    again = capsys.readouterr().out
    assert "graphormer+E" in again


def test_ablate_unknown_toggle_is_exit_2(workdir, capsys, tmp_path):
    rc = main(["ablate", "--config", _cfg_path(workdir),
               "--set", 'ablation.configs=["graphormer+XYZ"]',
               "--set", f"paths.out_dir={tmp_path}",
               "--set", f"paths.dataset={workdir / 'dataset.bin'}"])
    assert rc == 2
    assert "valid tokens" in capsys.readouterr().err


# --- inspect / gen-synthetic -------------------------------------------------


def test_inspect_prints_stats(workdir, capsys):
    rc = main(["inspect", "--config", _cfg_path(workdir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nodes: 60" in out
    assert "split sizes" in out
    assert "class 2" in out
    assert "clustering" in out


def test_gen_synthetic_rejects_bad_params(tmp_path, capsys):
    rc = main(["gen-synthetic", "--out", str(tmp_path), "--nodes", "3", "--classes", "4"])
    assert rc == 2
    assert "classes" in capsys.readouterr().err
    for flag, value, named in (("--text-dim", "0", "text_dim"),
                               ("--feature-dim", "-1", "feature_dim"),
                               ("--avg-degree", "-3", "avg_out_degree")):
        out = tmp_path / flag.lstrip("-")
        assert main(["gen-synthetic", "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{named} must be >= 1" in err and "internal error" not in err
        assert not out.exists()  # refused before anything is written


def test_gen_synthetic_flags_default_to_synthetic_params():
    args = cli.make_parser().parse_args(["gen-synthetic", "--out", "x"])
    got = cli.SyntheticParams(num_nodes=args.nodes, num_classes=args.classes,
                              text_signal=args.text_signal, homophily=args.homophily,
                              feature_signal=args.feature_signal, feature_dim=args.feature_dim,
                              avg_out_degree=args.avg_degree, seed=args.seed)
    assert got == cli.SyntheticParams()


def test_out_dir_env_var(workdir, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
    cfg = cli.load_config(_cfg_path(workdir))
    cfg.paths.out_dir = ""
    out = cli.resolve_out_dir(cfg)
    assert out == Path(tmp_path / "envout")
    assert out.exists()
