"""Learned-attention integration of the embedding sources.

Each active source is projected to the model width, scored with a small
additive-attention head (w . tanh(W u)), and the projections are mixed
with softmax weights over sources. Scalar per-source gating keeps the
parameter count tiny and makes single-source ablations exact: masking a
source is literally removing it from the computation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .text import SOURCES

__all__ = ["FusionConfig", "FusionLayer", "check_sources"]


def check_sources(sources) -> None:
    """A fusion's sources: at least one, each in ``SOURCES``, none twice."""
    if not sources:
        raise ValueError("at least one source must be active")
    unknown = [s for s in sources if s not in SOURCES]
    if unknown:
        raise ValueError(f"unknown sources {unknown}; valid: {list(SOURCES)}")
    repeated = sorted({s for s in sources if sources.count(s) > 1})
    if repeated:
        raise ValueError(f"sources {repeated} given more than once")


@dataclass
class FusionConfig:
    d_model: int
    source_dims: dict[str, int]
    active: tuple[str, ...] = SOURCES

    def __post_init__(self):
        self.active = tuple(self.active)
        check_sources(self.active)
        missing = [s for s in self.active if s not in self.source_dims]
        if missing:
            raise ValueError(f"fusion: no dimension given for sources {missing}")


def xavier_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


class FusionLayer:
    """Per-source projections plus a shared scoring head."""

    def __init__(self, cfg: FusionConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.proj = {
            s: Tensor(xavier_init(rng, cfg.source_dims[s], d), requires_grad=True)
            for s in cfg.active
        }
        self.score_m = Tensor(xavier_init(rng, d, d), requires_grad=True)
        self.score_w = Tensor(xavier_init(rng, d, 1), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        out = {f"fusion.proj.{s}": p for s, p in self.proj.items()}
        out["fusion.score_m"] = self.score_m
        out["fusion.score_w"] = self.score_w
        return out

    def fuse(self, rows: dict[str, np.ndarray], return_weights: bool = False):
        """Mix one matrix of rows per active source into (n, d_model).

        ``rows[s]`` is an (n, source_dims[s]) array; it enters the tape in
        the parameters' dtype. Rows narrower than that dtype (float32 rows into
        a float64 model) are refused rather than widened. Returns the fused
        Tensor, plus the (n, num_active) softmax weights when requested (a
        Tensor off the tape).
        """
        dtype = self.score_w.data.dtype
        projected = []
        scores = []
        for s in self.cfg.active:
            h = rows[s]
            if h.dtype.itemsize < dtype.itemsize:
                raise ValueError(f"source {s!r} rows are {h.dtype}, narrower than the "
                                 f"{dtype} model: load the dataset with "
                                 f'load_dataset(..., dtype="{dtype}")')
            u = ad.matmul(Tensor(h, dtype=dtype), self.proj[s])
            projected.append(u)
            scores.append(ad.matmul(ad.tanh(ad.matmul(u, self.score_m)), self.score_w))
        out, alpha = ad.softmax_mix(projected, scores)
        return (out, Tensor(alpha)) if return_weights else out
