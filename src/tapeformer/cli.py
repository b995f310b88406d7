"""Batch entry points: dataset preparation, training, evaluation,
ablation, synthetic-benchmark generation, and dataset inspection.

One JSON config file drives every command; ``--set section.field=value``
flags override individual fields (flags win). The commands that read
the prepared dataset load it, in the model's dtype, and split it in one
place, ``_load_run``; metrics come from ``evaluation.score``. Every run
writes the fully resolved config next to its outputs, through the same
``save_config`` that writes ``gen-synthetic``'s config, so results stay
reproducible.
Exit codes: 0 success, 1 runtime failure, 2 invalid input or config.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .binfile import utf8_lines
from .dataset import load_dataset, prepare, save_dataset
from .evaluation import (
    DEFAULT_ABLATION,
    format_ablation_table,
    parse_toggle,
    report_to_json,
    run_ablation,
    score,
)
from .graph import GraphConstructionError
from .fusion import check_sources
from .model import GraphormerParams, build_model, check_kind
from .structural import clustering_coefficients
from .synthetic import SyntheticParams, generate, write_synthetic_files
from .text import SOURCES, DataError, EncodingParams, load_feature_matrix
from .training import (
    SplitParams,
    TrainConfig,
    TrainParams,
    TrainingDiverged,
    make_temporal_split,
    train,
    write_history_csv,
)

log = logging.getLogger(__name__)

OUT_DIR_ENV = "TAPEFORMER_OUT_DIR"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# configuration tree
# ---------------------------------------------------------------------------


@dataclass
class PathsConfig:
    node_docs: str = ""
    edges: str = ""
    ogb_features: str = ""
    llm_cache: str = ""
    dataset: str = ""  # prepared artifact; default <out_dir>/dataset.bin
    out_dir: str = ""  # default $TAPEFORMER_OUT_DIR or ./runs
    override_expl: str = ""
    override_pred: str = ""
    override_text: str = ""
    override_ogb: str = ""


@dataclass
class DataConfig(EncodingParams):
    class_names: list[str] = field(default_factory=list)


@dataclass
class ModelConfig(GraphormerParams):
    kind: str = "graphormer"  # or "mlp" (fused features, no structure)
    sources: list[str] = field(default_factory=lambda: list(SOURCES))

    def __post_init__(self):
        super().__post_init__()
        check_kind(self.kind)
        check_sources(self.sources)


@dataclass
class AblationConfig:
    configs: list[str] = field(default_factory=lambda: list(DEFAULT_ABLATION))

    def __post_init__(self):
        if not self.configs:
            raise ValueError("configs must name at least one configuration")
        repeated = sorted({c for c in self.configs if self.configs.count(c) > 1})
        if repeated:
            raise ValueError(f"configs {repeated} given more than once")
        named: dict[tuple, str] = {}  # (kind, sources) -> the first name selecting it
        for name in self.configs:
            kind, sources = selected = parse_toggle(name)
            if selected in named:
                raise ValueError(f"configs {named[selected]!r} and {name!r} both select "
                                 f"{kind} over {'+'.join(sources)}")
            named[selected] = name


@dataclass
class RunConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainParams = field(default_factory=TrainParams)
    split: SplitParams = field(default_factory=SplitParams)
    ablation: AblationConfig = field(default_factory=AblationConfig)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _from_dict(cls, obj, where: str = ""):
    """Build ``cls`` from a JSON object, its sections recursively.

    Each value is checked against its field's declared type before the
    dataclass's own range checks run; an int given for a float becomes
    a float. A ConfigError names the first field that does not fit.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where.rstrip('.') or 'config root'}: expected an object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config key(s) {[where + k for k in unknown]}; "
                          f"valid: {sorted(hints)}")
    values = {}
    for name, value in obj.items():
        hint = hints[name]
        if dataclasses.is_dataclass(hint):
            values[name] = _from_dict(hint, value, f"{where}{name}.")
            continue
        if hint is float and type(value) is int:
            value = float(value)
        if typing.get_origin(hint) is list:
            ok = isinstance(value, list) and all(isinstance(v, typing.get_args(hint)) for v in value)
        else:  # exact types: a bool is not an int here
            ok = type(value) in (typing.get_args(hint) or (hint,))
        if not ok:
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{where}{name}: expected {expected}, got {value!r}")
        values[name] = value
    try:
        return cls(**values)
    except ValueError as e:  # a range check in __post_init__
        raise ConfigError(f"{where.rstrip('.') or 'config'}: {e}") from None


def load_config(path) -> RunConfig:
    try:
        obj = json.loads("".join(line for _, line in utf8_lines(path, ConfigError)))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    return _from_dict(RunConfig, obj)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dataclasses.asdict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


def apply_overrides(cfg: RunConfig, sets: list[str]) -> RunConfig:
    """Apply `section.field=value` overrides to the config's JSON form and
    build it again, so every field's type and range is checked as for a
    config file.

    Values parse as JSON, else as a string; a field declared as a string
    always takes the raw text. A key naming a whole section is refused:
    its other fields would fall back to the library defaults. Sections and
    string fields are those of ``cfg``, whatever an earlier override set.
    """
    obj, given = dataclasses.asdict(cfg), dataclasses.asdict(cfg)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        key, raw = item.split("=", 1)
        *sections, leaf = key.split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target, section = obj, given
        for p in sections:
            if not isinstance(section.get(p), dict):
                raise ConfigError(f"--set: unknown config section {p!r} in {key!r}")
            target, section = target[p], section[p]
        if leaf not in section:
            raise ConfigError(f"--set: unknown config field {key!r}")
        if isinstance(section[leaf], dict):
            raise ConfigError(f"--set: {key!r} names a config section; "
                              f"set its fields one at a time as section.field=value")
        if isinstance(section[leaf], str) and not isinstance(value, str):
            value = raw
        target[leaf] = value
    return _from_dict(RunConfig, obj)


def resolve_out_dir(cfg: RunConfig) -> Path:
    out = cfg.paths.out_dir or os.environ.get(OUT_DIR_ENV, "") or "runs"
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _dataset_path(cfg: RunConfig, out_dir: Path) -> Path:
    return Path(cfg.paths.dataset) if cfg.paths.dataset else out_dir / "dataset.bin"


def _load_run(cfg: RunConfig):
    """The output directory, the prepared dataset with its bundle in the
    model's dtype, and its temporal split."""
    out_dir = resolve_out_dir(cfg)
    path = _dataset_path(cfg, out_dir)
    if not path.exists():
        raise DataError(f"prepared dataset not found: {path}; run `prepare` first")
    ds = load_dataset(path, cfg.model.dtype)
    return out_dir, ds, make_temporal_split(ds.years, ds.labels, **dataclasses.asdict(cfg.split))


def _build_model(cfg: RunConfig, ds):
    m = cfg.model
    return build_model(m.for_classes(ds.num_classes), m.kind, m.sources, ds.source_dims(),
                       cfg.seed)


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(**dataclasses.asdict(cfg.train), seed=cfg.seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_synthetic(args) -> int:
    params = SyntheticParams(
        num_nodes=args.nodes, num_classes=args.classes, text_signal=args.text_signal,
        homophily=args.homophily, feature_signal=args.feature_signal,
        feature_dim=args.feature_dim, avg_out_degree=args.avg_degree, seed=args.seed,
    )
    cfg = RunConfig(data=DataConfig(text_dim=args.text_dim))  # range-checked before any write
    data = generate(params)
    out = Path(args.out)
    paths = write_synthetic_files(data, out)
    cfg.paths = PathsConfig(out_dir=str(out), dataset=str(out / "dataset.bin"), **paths)
    cfg.data.class_names = data.class_names
    # desk-scale model/training defaults sized for the benchmark; the low
    # degree-bucket cap keeps centrality tables from memorizing individual
    # hubs on a 400-node transductive graph
    cfg.model.num_layers = 2
    cfg.model.num_heads = 4
    cfg.model.d_model = 64
    cfg.model.d_ffn = 128
    cfg.model.ego_max_nodes = 16
    cfg.model.max_degree_bucket = 4
    cfg.train.epochs = 40
    cfg.train.base_lr = 0.002
    cfg.train.batch_size = 8
    cfg.train.early_stop_patience = 10
    cfg.seed = args.seed
    save_config(cfg, out / "config.json")
    print(f"wrote synthetic corpus ({params.num_nodes} nodes, {len(data.edges)} edge "
          f"records, {params.num_classes} classes) and config to {out}")
    return 0


def cmd_prepare(cfg: RunConfig) -> int:
    out_dir = resolve_out_dir(cfg)
    for name in ("node_docs", "edges", "ogb_features"):
        p = getattr(cfg.paths, name)
        if not p:
            raise ConfigError(f"paths.{name} is required for prepare")
        if not Path(p).exists():
            raise DataError(f"input file does not exist: {p}")
    if not cfg.data.class_names:
        raise ConfigError("data.class_names is required for prepare")
    if cfg.paths.llm_cache and not Path(cfg.paths.llm_cache).exists():
        raise DataError(f"input file does not exist: {cfg.paths.llm_cache}")
    overrides = {}
    for s in SOURCES:
        p = getattr(cfg.paths, f"override_{s}")
        if p:
            overrides[s] = load_feature_matrix(p)
    ds = prepare(
        cfg.paths.node_docs, cfg.paths.edges, cfg.paths.ogb_features,
        cfg.paths.llm_cache or None, cfg.data.class_names,
        text_dim=cfg.data.text_dim, pred_top_k=cfg.data.pred_top_k,
        seed=cfg.seed, overrides=overrides or None,
    )
    path = _dataset_path(cfg, out_dir)
    hexhash = save_dataset(ds, path)
    save_config(cfg, out_dir / "config.resolved.json")
    print(f"dataset: {path}")
    print(f"content sha256: {hexhash}")
    print(f"nodes={ds.num_nodes} edges={ds.graph.num_edges} classes={ds.num_classes}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    out_dir, ds, split = _load_run(cfg)
    model = _build_model(cfg, ds)
    result = train(model, ds, split, _train_config(cfg))
    ad.save_parameters(out_dir / "checkpoint.bin", result.best_state)
    write_history_csv(out_dir / "history.csv", result.history)
    report = score(model, ds, split.val_ids, cfg.seed)
    (out_dir / "val_metrics.json").write_text(report_to_json(report) + "\n", encoding="utf-8")
    save_config(cfg, out_dir / "config.resolved.json")
    print(f"best epoch {result.best_epoch}: val accuracy {result.best_val_accuracy:.4f}")
    print(f"checkpoint: {out_dir / 'checkpoint.bin'}")
    print(f"history: {out_dir / 'history.csv'}")
    return 0


def cmd_eval(cfg: RunConfig, checkpoint: str, split_name: str) -> int:
    out_dir, ds, split = _load_run(cfg)
    model = _build_model(cfg, ds)
    if not Path(checkpoint).exists():
        raise DataError(f"checkpoint does not exist: {checkpoint}")
    model.load_state(ad.load_parameters(checkpoint))
    payload = report_to_json(score(model, ds, split.of(split_name), cfg.seed))
    (out_dir / f"eval_{split_name}.json").write_text(payload + "\n", encoding="utf-8")
    save_config(cfg, out_dir / "config.resolved.json")
    print(payload)
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    out_dir, ds, split = _load_run(cfg)
    rows = run_ablation(ds, split, cfg.model.for_classes(ds.num_classes), _train_config(cfg),
                        toggles=tuple(cfg.ablation.configs))
    table = format_ablation_table(rows)
    with open(out_dir / "ablation.txt", "w", encoding="utf-8") as f:
        f.write(table)
    payload = [
        {"configuration": r.name, "model": r.kind, "sources": list(r.sources),
         "val_accuracy": r.val_accuracy, "test_accuracy": r.test_report.accuracy,
         "test_macro_f1": r.test_report.macro_f1}
        for r in rows
    ]
    with open(out_dir / "ablation.json", "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    save_config(cfg, out_dir / "config.resolved.json")
    print(table, end="")
    return 0


def cmd_inspect(cfg: RunConfig) -> int:
    _, ds, split = _load_run(cfg)
    print(f"nodes: {ds.num_nodes}")
    print(f"edges: {ds.graph.num_edges} "
          f"(dropped {ds.graph.self_loops_dropped} self-loops, "
          f"{ds.graph.duplicates_dropped} duplicates)")
    print(f"classes: {ds.num_classes}")
    print(f"split sizes: train={len(split.train_ids)} val={len(split.val_ids)} "
          f"test={len(split.test_ids)}")
    support = np.bincount(ds.labels[ds.labels >= 0], minlength=ds.num_classes)
    for i, name in enumerate(ds.class_names):
        print(f"  class {i} ({name}): {support[i]}")
    rng = np.random.default_rng(cfg.seed)
    sample = rng.choice(ds.num_nodes, size=min(200, ds.num_nodes), replace=False)
    cc = float(np.mean(clustering_coefficients(ds.graph, sample)))
    print(f"mean clustering coefficient (sampled {len(sample)} nodes): {cc:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config field, e.g. --set train.epochs=5")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapeformer",
        description="Node classification on text-attributed citation graphs.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="INFO-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synthetic", help="generate a synthetic benchmark corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--nodes", type=int, default=SyntheticParams.num_nodes)
    g.add_argument("--classes", type=int, default=SyntheticParams.num_classes)
    g.add_argument("--text-signal", type=float, default=SyntheticParams.text_signal)
    g.add_argument("--homophily", type=float, default=SyntheticParams.homophily)
    g.add_argument("--feature-signal", type=float, default=SyntheticParams.feature_signal)
    g.add_argument("--feature-dim", type=int, default=SyntheticParams.feature_dim)
    g.add_argument("--avg-degree", type=int, default=SyntheticParams.avg_out_degree)
    g.add_argument("--text-dim", type=int, default=EncodingParams.text_dim)
    g.add_argument("--seed", type=int, default=SyntheticParams.seed)

    for name, fn in (("prepare", cmd_prepare), ("train", cmd_train),
                     ("ablate", cmd_ablate), ("inspect", cmd_inspect)):
        p = sub.add_parser(name)
        _add_config_args(p)
        p.set_defaults(config_command=fn)

    e = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    _add_config_args(e)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", choices=("train", "val", "test"), default="val")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "gen-synthetic":
            return cmd_gen_synthetic(args)
        cfg = apply_overrides(load_config(args.config), args.set)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.split)
        return args.config_command(cfg)
    except TrainingDiverged as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return 1
    except ad.ShapeError as e:  # a ValueError, but an engine fault rather than bad input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (ConfigError, DataError, GraphConstructionError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a runtime failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
