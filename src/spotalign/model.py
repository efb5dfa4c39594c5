"""Bimodal encoders and the fusion/prediction stack.

Image pathway: per-scale linear projections of pre-extracted tile features,
self-attention over the 25 neighbor tokens of each spot, one transformer
block across all spots of a slide for global context, and a scale-wise
fusion block over the {local, neighbor, global} token triple of each spot.
Gene pathway: a two-layer encoder followed by a residual feed-forward
refinement.  Dropout (rate configurable, 0.1 by default) is applied after
attention output projections, inside feed-forward sublayers, and in the
gene encoder.

All blocks are pre-norm residual transformers.  The global block uses no
positional encoding, so it is permutation-equivariant over spots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import DiffTensor
from .errors import ContractError, DataError, ShapeError

SCALES = ("local", "neighbor", "global")

_FUSION_MODES = ("mean", "concat")


@dataclass
class ModelConfig:
    n_genes: int
    d_in: int = 1024
    d: int = 512
    heads: int = 4
    neighbor_blocks: int = 2
    global_blocks: int = 1
    fusion_blocks: int = 1
    d_ff: int = 0  # 0 means 4 * d
    dropout: float = 0.1
    neighbor_tokens: int = 25
    fusion_mode: str = "mean"

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ContractError(f"d={self.d} must be divisible by heads={self.heads}")
        if self.fusion_mode not in _FUSION_MODES:
            raise ContractError(f"fusion_mode must be one of {_FUSION_MODES}")
        if self.d_ff == 0:
            self.d_ff = 4 * self.d


@dataclass
class ScaleEmbeddings:
    """Per-scale and fused image embeddings plus the gene embedding."""

    per_scale: tuple[DiffTensor, DiffTensor, DiffTensor]  # local, neighbor, global
    fused: DiffTensor  # N x d
    gene: DiffTensor  # N x d


# ---------------------------------------------------------------------------
# parameters


def _block_shapes(prefix: str, d: int, d_ff: int) -> dict[str, tuple[int, ...]]:
    return {
        f"{prefix}/ln1/g": (d,),
        f"{prefix}/ln1/b": (d,),
        f"{prefix}/attn/wq": (d, d),
        f"{prefix}/attn/bq": (d,),
        f"{prefix}/attn/wk": (d, d),
        f"{prefix}/attn/bk": (d,),
        f"{prefix}/attn/wv": (d, d),
        f"{prefix}/attn/bv": (d,),
        f"{prefix}/attn/wo": (d, d),
        f"{prefix}/attn/bo": (d,),
        f"{prefix}/ln2/g": (d,),
        f"{prefix}/ln2/b": (d,),
        f"{prefix}/ffn/w1": (d, d_ff),
        f"{prefix}/ffn/b1": (d_ff,),
        f"{prefix}/ffn/w2": (d_ff, d),
        f"{prefix}/ffn/b2": (d,),
    }


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Stable name -> shape map for every trainable parameter."""
    shapes: dict[str, tuple[int, ...]] = {}
    for scale in SCALES:
        shapes[f"proj_{scale}/w"] = (cfg.d_in, cfg.d)
        shapes[f"proj_{scale}/b"] = (cfg.d,)
    for i in range(cfg.neighbor_blocks):
        shapes.update(_block_shapes(f"neighbor/block{i}", cfg.d, cfg.d_ff))
    for i in range(cfg.global_blocks):
        shapes.update(_block_shapes(f"global/block{i}", cfg.d, cfg.d_ff))
    for i in range(cfg.fusion_blocks):
        shapes.update(_block_shapes(f"fusion/block{i}", cfg.d, cfg.d_ff))
    if cfg.fusion_mode == "concat":
        shapes["fusion/out/w"] = (3 * cfg.d, cfg.d)
        shapes["fusion/out/b"] = (cfg.d,)
    shapes["gene/enc/w1"] = (cfg.n_genes, cfg.d)
    shapes["gene/enc/b1"] = (cfg.d,)
    shapes["gene/enc/w2"] = (cfg.d, cfg.d)
    shapes["gene/enc/b2"] = (cfg.d,)
    shapes["gene/ffn/w1"] = (cfg.d, cfg.d_ff)
    shapes["gene/ffn/b1"] = (cfg.d_ff,)
    shapes["gene/ffn/w2"] = (cfg.d_ff, cfg.d)
    shapes["gene/ffn/b2"] = (cfg.d,)
    shapes["group_image/w"] = (cfg.d, cfg.d)
    shapes["group_image/b"] = (cfg.d,)
    shapes["group_gene/w"] = (cfg.d, cfg.d)
    shapes["group_gene/b"] = (cfg.d,)
    shapes["pred/w"] = (cfg.d, cfg.n_genes)
    shapes["pred/b"] = (cfg.n_genes,)
    return shapes


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded initialization: N(0, 1/fan_in) weights, zero biases, unit LN gains."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit("/", 1)[1]
        if leaf == "g":
            params[name] = np.ones(shape)
        elif leaf.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = shape[0]
            params[name] = rng.normal(size=shape) / math.sqrt(fan_in)
    return params


def as_tensors(params: dict[str, np.ndarray], tape: ad.Tape | None = None) -> dict[str, DiffTensor]:
    """Wrap parameters as tape leaves (training) or constants (inference)."""
    if tape is None:
        return {k: ad.constant(v) for k, v in params.items()}
    return {k: tape.leaf(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# building blocks


def attention_block(
    x: DiffTensor,
    p: dict[str, DiffTensor],
    prefix: str,
    heads: int,
    drop: float,
    rng,
    training: bool,
) -> DiffTensor:
    """Pre-norm multi-head self-attention followed by a feed-forward sublayer.

    ``x`` is a batch of token sequences, shape (B, T, d).
    """
    b, t, d = x.shape
    dh = d // heads

    h = ad.layer_norm(x, p[f"{prefix}/ln1/g"], p[f"{prefix}/ln1/b"])
    q = ad.linear(h, p[f"{prefix}/attn/wq"], p[f"{prefix}/attn/bq"])
    k = ad.linear(h, p[f"{prefix}/attn/wk"], p[f"{prefix}/attn/bk"])
    v = ad.linear(h, p[f"{prefix}/attn/wv"], p[f"{prefix}/attn/bv"])

    def split(z):
        return ad.permute(ad.reshape(z, (b, t, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)  # (B, H, T, dh)
    scores = ad.matmul(q, ad.transpose(k)) * (1.0 / math.sqrt(dh))
    weights = ad.softmax_rows(scores)  # (B, H, T, T)
    context = ad.matmul(weights, v)  # (B, H, T, dh)
    context = ad.reshape(ad.permute(context, (0, 2, 1, 3)), (b, t, d))
    attn_out = ad.linear(context, p[f"{prefix}/attn/wo"], p[f"{prefix}/attn/bo"])
    x = x + ad.dropout(attn_out, drop, rng, training)

    h2 = ad.layer_norm(x, p[f"{prefix}/ln2/g"], p[f"{prefix}/ln2/b"])
    f = ad.gelu(ad.linear(h2, p[f"{prefix}/ffn/w1"], p[f"{prefix}/ffn/b1"]))
    f = ad.dropout(f, drop, rng, training)
    f = ad.linear(f, p[f"{prefix}/ffn/w2"], p[f"{prefix}/ffn/b2"])
    return x + f


# ---------------------------------------------------------------------------
# encoder operations


def project_scale(p: dict[str, DiffTensor], feat, scale: str) -> DiffTensor:
    """Scale-specific affine projection of input features into d dimensions."""
    if scale not in SCALES:
        raise ContractError(f"unknown scale {scale!r}, expected one of {SCALES}")
    feat = ad.as_tensor(feat)
    w = p[f"proj_{scale}/w"]
    if feat.shape[-1] != w.shape[0]:
        raise ShapeError(
            f"{scale} features have dim {feat.shape[-1]}, projection expects {w.shape[0]}"
        )
    return ad.linear(feat, w, p[f"proj_{scale}/b"])


def neighbor_encode(
    p: dict[str, DiffTensor],
    neighbor_feat,
    cfg: ModelConfig,
    rng=None,
    training: bool = False,
) -> DiffTensor:
    """Project the per-spot token grid, attend over it, mean-pool to one token."""
    neighbor_feat = ad.as_tensor(neighbor_feat)
    if neighbor_feat.ndim != 3 or neighbor_feat.shape[1] != cfg.neighbor_tokens:
        raise ShapeError(
            f"neighbor features must be N x {cfg.neighbor_tokens} x D_in, "
            f"got {neighbor_feat.shape}"
        )
    x = project_scale(p, neighbor_feat, "neighbor")  # (N, T, d)
    for i in range(cfg.neighbor_blocks):
        x = attention_block(x, p, f"neighbor/block{i}", cfg.heads, cfg.dropout, rng, training)
    return ad.tmean(x, axis=1)


def global_encode(
    p: dict[str, DiffTensor],
    local_proj: DiffTensor,
    cfg: ModelConfig,
    rng=None,
    training: bool = False,
    sample_ids=None,
) -> DiffTensor:
    """One transformer block attending across all spots of a single slide."""
    if sample_ids is not None and len(set(sample_ids)) > 1:
        raise ContractError(
            f"global context requires a single slide, got samples {sorted(set(sample_ids))}"
        )
    n, d = local_proj.shape
    x = ad.reshape(local_proj, (1, n, d))
    for i in range(cfg.global_blocks):
        x = attention_block(x, p, f"global/block{i}", cfg.heads, cfg.dropout, rng, training)
    return ad.reshape(x, (n, d))


def scale_fusion(
    p: dict[str, DiffTensor],
    i_local: DiffTensor,
    i_neighbor: DiffTensor,
    i_global: DiffTensor,
    cfg: ModelConfig,
    rng=None,
    training: bool = False,
) -> tuple[tuple[DiffTensor, DiffTensor, DiffTensor], DiffTensor]:
    """Attend over the 3-token scale sequence of each spot.

    Returns the three refined per-scale embeddings and the fused embedding
    (token mean by default; concatenation + linear when configured).
    """
    if not (i_local.shape == i_neighbor.shape == i_global.shape):
        raise ShapeError(
            f"scale embeddings disagree: {i_local.shape}, {i_neighbor.shape}, {i_global.shape}"
        )
    n, d = i_local.shape
    stacked = ad.concat(
        [ad.reshape(t, (n, 1, d)) for t in (i_local, i_neighbor, i_global)], axis=1
    )  # (N, 3, d)
    x = stacked
    for i in range(cfg.fusion_blocks):
        x = attention_block(x, p, f"fusion/block{i}", cfg.heads, cfg.dropout, rng, training)

    tokens = [ad.take(x, s, axis=1) for s in range(3)]
    if cfg.fusion_mode == "mean":
        fused = (tokens[0] + tokens[1] + tokens[2]) * (1.0 / 3.0)
    else:
        fused = ad.linear(ad.concat(tokens, axis=-1), p["fusion/out/w"], p["fusion/out/b"])
    return (tokens[0], tokens[1], tokens[2]), fused


def gene_encode(
    p: dict[str, DiffTensor],
    expression,
    cfg: ModelConfig,
    rng=None,
    training: bool = False,
) -> DiffTensor:
    """Two-layer gene encoder followed by a residual feed-forward refinement."""
    expr = ad.as_tensor(expression)
    if expr.shape[-1] != cfg.n_genes:
        raise ShapeError(f"expression has {expr.shape[-1]} genes, model expects {cfg.n_genes}")
    h = ad.linear(expr, p["gene/enc/w1"], p["gene/enc/b1"])
    h = ad.dropout(ad.gelu(h), cfg.dropout, rng, training)
    h = ad.linear(h, p["gene/enc/w2"], p["gene/enc/b2"])

    f = ad.gelu(ad.linear(h, p["gene/ffn/w1"], p["gene/ffn/b1"]))
    f = ad.dropout(f, cfg.dropout, rng, training)
    f = ad.linear(f, p["gene/ffn/w2"], p["gene/ffn/b2"])
    return h + f


def predict_expression(p: dict[str, DiffTensor], fused: DiffTensor) -> DiffTensor:
    """Single affine prediction head from the fused embedding to genes."""
    return ad.linear(fused, p["pred/w"], p["pred/b"])


def _encode_image(p, batch, cfg, rng, training):
    """Local, neighbor and global scales fused: (per-scale, fused)."""
    i_local = project_scale(p, batch.local_feat, "local")
    i_neighbor = neighbor_encode(p, batch.neighbor_feat, cfg, rng, training)
    g_proj = project_scale(p, batch.local_feat, "global")
    i_global = global_encode(p, g_proj, cfg, rng, training)
    return scale_fusion(p, i_local, i_neighbor, i_global, cfg, rng, training)


def forward_embeddings(
    p: dict[str, DiffTensor],
    batch: data_io.SpotBatch,
    cfg: ModelConfig,
    rng=None,
    training: bool = False,
) -> ScaleEmbeddings:
    """Full bimodal forward pass over one single-slide batch."""
    per_scale, fused = _encode_image(p, batch, cfg, rng, training)
    gene = gene_encode(p, batch.expression, cfg, rng, training)
    return ScaleEmbeddings(per_scale=per_scale, fused=fused, gene=gene)


def forward_image(
    p: dict[str, DiffTensor],
    batch: data_io.SpotBatch,
    cfg: ModelConfig,
) -> DiffTensor:
    """Inference pathway: image encoders plus the prediction head, eval mode."""
    _, fused = _encode_image(p, batch, cfg, None, False)
    return predict_expression(p, fused)


# ---------------------------------------------------------------------------
# checkpoints

_CONFIG_STR_FIELDS = {"fusion_mode": _FUSION_MODES}


def save_checkpoint(path, params: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    """Write every parameter plus a config echo to a tensor container."""
    entries: dict[str, np.ndarray] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _CONFIG_STR_FIELDS:
            value = _CONFIG_STR_FIELDS[f.name].index(value)
        entries[f"config:{f.name}"] = np.array([float(value)])
    for name, arr in params.items():
        entries[f"param:{name}"] = arr
    data_io.write_container(path, entries)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    entries = data_io.read_container(path)
    kwargs = {}
    for f in fields(ModelConfig):
        key = f"config:{f.name}"
        if key not in entries:
            raise DataError(f"checkpoint {path} missing config entry {f.name!r}")
        raw = float(entries[key][0])
        if f.name in _CONFIG_STR_FIELDS:
            kwargs[f.name] = _CONFIG_STR_FIELDS[f.name][int(raw)]
        elif f.type == "float":
            kwargs[f.name] = raw
        else:
            kwargs[f.name] = int(raw)
    cfg = ModelConfig(**kwargs)
    params = {
        name[len("param:") :]: arr for name, arr in entries.items() if name.startswith("param:")
    }
    expected = param_shapes(cfg)
    if set(params) != set(expected):
        raise DataError(f"checkpoint {path} parameter names do not match its config")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise DataError(
                f"checkpoint {path}: {name} has shape {params[name].shape}, expected {shape}"
            )
    return params, cfg
