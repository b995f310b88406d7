import json
from pathlib import Path

import numpy as np
import pytest

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
                                             ("model.dropout=1.5", "dropout")])
def test_bad_set_value_is_exit_2(workdir, capsys, setting, named):
    rc = main(["train", "--config", _cfg_path(workdir), "--set", setting])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err


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


def test_missing_edge_file_is_exit_2(workdir, tmp_path, capsys):
    cfg = json.loads(Path(_cfg_path(workdir)).read_text())
    cfg["paths"]["edges"] = str(tmp_path / "missing_edges.tsv")
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(cfg))
    rc = main(["prepare", "--config", str(p)])
    assert rc == 2
    assert "missing_edges.tsv" in capsys.readouterr().err


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


def test_out_dir_env_var(workdir, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
    cfg = cli.load_config(_cfg_path(workdir))
    cfg.paths.out_dir = ""
    out = cli.resolve_out_dir(cfg)
    assert out == Path(tmp_path / "envout")
    assert out.exists()
