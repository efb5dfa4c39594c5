"""Bimodal encoders and the fusion/prediction stack.

Image pathway: per-scale linear projections of pre-extracted tile features,
self-attention over the 25 neighbor tokens of each spot, one transformer
block across all spots of a slide for global context, and a scale-wise
fusion block over the {local, neighbor, global} token triple of each spot.
Gene pathway: two feed-forward sublayers, the second residual.  Dropout
(rate configurable, 0.1 by default) is applied after attention output
projections and inside every feed-forward sublayer, whenever a pass gets an
rng (eval mode passes none).

All blocks are pre-norm residual transformers.  The global block uses no
positional encoding, so it is permutation-equivariant over spots.  It sees a
minibatch in training but the whole slide at inference, as in TRIPLEX; on the
acceptance ablation whole-slide context scores PCC(A) at or above 200-spot
blocks.  Untaped passes encode neighbor tokens in 64-spot blocks and score
attention in blocks of at most 1 MiB of scores, as a taped pass does, with
its bits: O(N·d) memory plus one block of scores.
Every neighbor-encoder op acts per spot, so any block size gives the bits
of one pass.  At 64 spots a block's (64, 25, d_ff) float64 FFN buffers fit
a 2 MiB L2 cache at d_ff = 48; on a 3,000-spot slide 64 encoded faster than
32 or 128, and 256 was 24% slower.  Heads of up to 362 tokens are one block;
a larger slide's query-row slices can round unlike a whole-head product, but
the 400-spot slides of the quick start and the acceptance tests kept their
bits with numpy's bundled OpenBLAS 0.3.31 on a 2-core Xeon (check your own).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import DiffTensor
from .errors import ContractError, DataError, ShapeError, check_fields

SCALES = ("local", "neighbor", "global")

_SPOT_BLOCK = 64  # spots per neighbor-encoder pass when nothing is taped
_LEGACY_PARAMS = {"param:group_image/w", "param:group_image/b", "param:group_gene/w", "param:group_gene/b"}


@dataclass
class ModelConfig:
    n_genes: int
    d_in: int = 1024
    d: int = 512
    heads: int = 4
    neighbor_blocks: int = 2
    d_ff: int = 0  # 0 means 4 * d
    dropout: float = 0.1
    neighbor_tokens: int = 25

    def __post_init__(self):
        check_fields(self, (("d_in", 1), ("d", 1), ("heads", 1), ("neighbor_tokens", 1),
                            ("neighbor_blocks", 0), ("d_ff", 0), ("n_genes", 1)))
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d % self.heads != 0:
            raise ContractError(f"d={self.d} must be divisible by heads={self.heads}")
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


def _ffn_shapes(prefix: str, d_in: int, d_hidden: int, d_out: int) -> dict[str, tuple[int, ...]]:
    return {f"{prefix}/w1": (d_in, d_hidden), f"{prefix}/b1": (d_hidden,),
            f"{prefix}/w2": (d_hidden, d_out), f"{prefix}/b2": (d_out,)}


def _block_shapes(prefix: str, d: int, d_ff: int) -> dict[str, tuple[int, ...]]:
    shapes = {f"{prefix}/ln1/g": (d,), f"{prefix}/ln1/b": (d,)}
    for proj in "qkvo":
        shapes[f"{prefix}/attn/w{proj}"] = (d, d)
        shapes[f"{prefix}/attn/b{proj}"] = (d,)
    shapes.update({f"{prefix}/ln2/g": (d,), f"{prefix}/ln2/b": (d,)})
    return shapes | _ffn_shapes(f"{prefix}/ffn", d, d_ff, d)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Stable name -> shape map for every trainable parameter."""
    shapes: dict[str, tuple[int, ...]] = {}
    for scale in SCALES:
        shapes[f"proj_{scale}/w"] = (cfg.d_in, cfg.d)
        shapes[f"proj_{scale}/b"] = (cfg.d,)
    for i in range(cfg.neighbor_blocks):
        shapes.update(_block_shapes(f"neighbor/block{i}", cfg.d, cfg.d_ff))
    shapes.update(_block_shapes("global/block0", cfg.d, cfg.d_ff))
    shapes.update(_block_shapes("fusion/block0", cfg.d, cfg.d_ff))
    shapes.update(_ffn_shapes("gene/enc", cfg.n_genes, cfg.d, cfg.d))
    shapes.update(_ffn_shapes("gene/ffn", cfg.d, cfg.d_ff, cfg.d))
    shapes["pred/w"] = (cfg.d, cfg.n_genes)
    shapes["pred/b"] = (cfg.n_genes,)
    return shapes


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded initialization: N(0, 1/fan_in) weights, zero biases, unit LN gains."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name == "pred/w":  # the deleted group_* head's two d x d draws: later draws keep their bits
            rng.normal(size=(2, cfg.d, cfg.d))
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
) -> DiffTensor:
    """Pre-norm multi-head self-attention followed by a feed-forward sublayer.

    ``x`` is a batch of token sequences, shape (B, T, d).
    """
    h = ad.layer_norm(x, p[f"{prefix}/ln1/g"], p[f"{prefix}/ln1/b"])
    q = ad.linear(h, p[f"{prefix}/attn/wq"], p[f"{prefix}/attn/bq"])
    k = ad.linear(h, p[f"{prefix}/attn/wk"], p[f"{prefix}/attn/bk"])
    v = ad.linear(h, p[f"{prefix}/attn/wv"], p[f"{prefix}/attn/bv"])
    context = ad.attention(q, k, v, heads)
    attn_out = ad.linear(context, p[f"{prefix}/attn/wo"], p[f"{prefix}/attn/bo"])
    x = x + ad.dropout(attn_out, drop, rng)
    h = ad.layer_norm(x, p[f"{prefix}/ln2/g"], p[f"{prefix}/ln2/b"])
    return x + _ffn(h, p, f"{prefix}/ffn", drop, rng)


def _ffn(x: DiffTensor, p: dict[str, DiffTensor], prefix: str, drop: float, rng) -> DiffTensor:
    """Feed-forward sublayer: linear, GELU, dropout, linear."""
    h = ad.dropout(ad.gelu(ad.linear(x, p[f"{prefix}/w1"], p[f"{prefix}/b1"])), drop, rng)
    return ad.linear(h, p[f"{prefix}/w2"], p[f"{prefix}/b2"])


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
) -> DiffTensor:
    """Project the per-spot token grid, attend over it, mean-pool to one token."""
    neighbor_feat = ad.as_tensor(neighbor_feat)
    if neighbor_feat.ndim != 3 or neighbor_feat.shape[1] != cfg.neighbor_tokens:
        raise ShapeError(
            f"neighbor features must be N x {cfg.neighbor_tokens} x D_in, "
            f"got {neighbor_feat.shape}"
        )
    n = neighbor_feat.shape[0]
    if rng is not None or n <= _SPOT_BLOCK or any(t.tape is not None for t in (neighbor_feat, *p.values())):
        return _pool_neighbors(p, neighbor_feat, cfg, rng)
    # every op here acts per spot, so blocks bound the memory and keep the bits
    return ad.concat([_pool_neighbors(p, neighbor_feat.data[s : s + _SPOT_BLOCK], cfg, None)
                      for s in range(0, n, _SPOT_BLOCK)], axis=0)


def _pool_neighbors(p, neighbor_feat, cfg, rng):
    x = project_scale(p, neighbor_feat, "neighbor")  # (N, T, d)
    for i in range(cfg.neighbor_blocks):
        x = attention_block(x, p, f"neighbor/block{i}", cfg.heads, cfg.dropout, rng)
    return ad.tmean(x, axis=1)


def global_encode(
    p: dict[str, DiffTensor],
    local_proj: DiffTensor,
    cfg: ModelConfig,
    rng=None,
) -> DiffTensor:
    """One transformer block attending across all spots of a single slide."""
    n, d = local_proj.shape
    x = ad.reshape(local_proj, (1, n, d))
    x = attention_block(x, p, "global/block0", cfg.heads, cfg.dropout, rng)
    return ad.reshape(x, (n, d))


def scale_fusion(
    p: dict[str, DiffTensor],
    i_local: DiffTensor,
    i_neighbor: DiffTensor,
    i_global: DiffTensor,
    cfg: ModelConfig,
    rng=None,
) -> tuple[tuple[DiffTensor, DiffTensor, DiffTensor], DiffTensor]:
    """Attend over the 3-token scale sequence of each spot.

    Returns the three refined per-scale embeddings and the fused embedding,
    their token mean, pooled as the neighbor encoder pools its tokens.
    """
    if not (i_local.shape == i_neighbor.shape == i_global.shape):
        raise ShapeError(
            f"scale embeddings disagree: {i_local.shape}, {i_neighbor.shape}, {i_global.shape}"
        )
    n, d = i_local.shape
    x = ad.reshape(ad.concat([i_local, i_neighbor, i_global], axis=-1), (n, 3, d))
    x = attention_block(x, p, "fusion/block0", cfg.heads, cfg.dropout, rng)
    return tuple(ad.take(x, s, axis=1) for s in range(3)), ad.tmean(x, axis=1)


def gene_encode(
    p: dict[str, DiffTensor],
    expression,
    cfg: ModelConfig,
    rng=None,
) -> DiffTensor:
    """A feed-forward sublayer from genes to d, then a residual one."""
    expr = ad.as_tensor(expression)
    if expr.shape[-1] != cfg.n_genes:
        raise ShapeError(f"expression has {expr.shape[-1]} genes, model expects {cfg.n_genes}")
    h = _ffn(expr, p, "gene/enc", cfg.dropout, rng)
    return h + _ffn(h, p, "gene/ffn", cfg.dropout, rng)


def predict_expression(p: dict[str, DiffTensor], fused: DiffTensor) -> DiffTensor:
    """Single affine prediction head from the fused embedding to genes."""
    return ad.linear(fused, p["pred/w"], p["pred/b"])


def _encode_image(p, batch, cfg, rng):
    """Local, neighbor and global scales fused: (per-scale, fused)."""
    i_local = project_scale(p, batch.local_feat, "local")
    i_neighbor = neighbor_encode(p, batch.neighbor_feat, cfg, rng)
    g_proj = project_scale(p, batch.local_feat, "global")
    i_global = global_encode(p, g_proj, cfg, rng)
    return scale_fusion(p, i_local, i_neighbor, i_global, cfg, rng)


def forward_embeddings(
    p: dict[str, DiffTensor],
    batch: data_io.SpotBatch,
    cfg: ModelConfig,
    rng=None,
) -> ScaleEmbeddings:
    """Full bimodal forward pass over one single-slide batch."""
    per_scale, fused = _encode_image(p, batch, cfg, rng)
    gene = gene_encode(p, batch.expression, cfg, rng)
    return ScaleEmbeddings(per_scale=per_scale, fused=fused, gene=gene)


def forward_image(
    p: dict[str, DiffTensor],
    batch: data_io.SpotBatch,
    cfg: ModelConfig,
) -> DiffTensor:
    """Inference pathway: image encoders plus the prediction head, eval mode."""
    _, fused = _encode_image(p, batch, cfg, None)
    return predict_expression(p, fused)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: dict[str, np.ndarray], cfg: ModelConfig) -> None:
    """Write every parameter plus a config echo to a tensor container."""
    entries: dict[str, np.ndarray] = {}
    for f in fields(cfg):
        entries[f"config:{f.name}"] = np.array([float(getattr(cfg, f.name))])
    for name, arr in params.items():
        entries[f"param:{name}"] = arr
    data_io.write_container(path, entries)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Parameters and config of a checkpoint; anything that does not describe
    a valid model raises DataError.  Older checkpoints load: a ``config:``
    entry that names no ModelConfig field, such as ``global_blocks``, is
    ignored (their parameters must still be one global and one fusion
    block's), and their never-trained ``group_*`` head is dropped."""
    entries = data_io.read_container(path)
    kwargs = {}
    for f in fields(ModelConfig):
        entry = entries.get(f"config:{f.name}")
        if entry is None or entry.shape != (1,) or not np.isfinite(entry[0]):
            raise DataError(f"checkpoint {path}: config entry {f.name!r} is not one finite number")
        raw = float(entry[0])
        value = raw if f.type == "float" else int(raw)
        if value != raw:
            raise DataError(f"checkpoint {path}: config entry {f.name!r} has bad value {raw!r}")
        kwargs[f.name] = value
    try:
        cfg = ModelConfig(**kwargs)
    except ContractError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from exc
    params = {name[len("param:") :]: arr for name, arr in entries.items()
              if name.startswith("param:") and name not in _LEGACY_PARAMS}
    # a corrupt block count must not make param_shapes loop for ever
    if cfg.neighbor_blocks > len(params) or set(params) != set(expected := param_shapes(cfg)):
        raise DataError(f"checkpoint {path} parameter names do not match its config")
    for name, shape in expected.items():
        if params[name].shape != shape or not np.isfinite(params[name]).all():
            raise DataError(
                f"checkpoint {path}: {name} must be finite of shape {shape}, got {params[name].shape}"
            )
    return params, cfg
