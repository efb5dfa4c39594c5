"""Training objectives.

Three terms drive the bimodal model: a multi-scale instance-level
contrastive loss against internal soft targets, a cross-level instance-group
loss against opposite-modality centroids, and the prediction head's
per-spot squared-error loss.  Soft targets and centroids are treated as
constants (stop-gradient); gradients flow only through the embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor
from .errors import ContractError, ShapeError


@dataclass
class LossBreakdown:
    multi_ins: float
    cross: float
    pred: float
    total: float
    per_scale: tuple[float, float, float]


def internal_target(i_s: np.ndarray, g: np.ndarray, tau: float) -> np.ndarray:
    """Soft similarity target: row-softmax of the averaged within-modality
    similarity matrices, scaled by the temperature.  Detached by construction
    (plain arrays in, plain array out)."""
    i_s = np.asarray(i_s, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if i_s.shape != g.shape:
        raise ShapeError(f"embedding shapes differ: {i_s.shape} vs {g.shape}")
    return ad.softmax_rows((i_s @ i_s.T + g @ g.T) / (2.0 * tau))


def multi_scale_instance_loss(
    per_scale: Sequence[DiffTensor],
    gene: DiffTensor,
    tau: float,
    targets: Sequence[np.ndarray] | None = None,
) -> tuple[DiffTensor, tuple[float, float, float]]:
    """Bidirectional contrastive loss between each image scale and the genes.

    Per scale: logits Z = I_s Gᵀ; the image→gene direction is the
    target-weighted row log-softmax of Z, the gene→image direction the same
    on Zᵀ with transposed targets; both normalized by batch size, averaged
    over the three scales.  Returns the loss and per-scale values.

    Targets are constants (stop-gradient): computed from the current
    embeddings by default, or injected via ``targets`` (one N x N matrix per
    scale), which is how gradient checks hold them fixed.
    """
    if len(per_scale) != 3:
        raise ContractError(f"expected 3 scale embeddings, got {len(per_scale)}")
    n = gene.shape[0]
    scale_losses = []
    for si, i_s in enumerate(per_scale):
        t_s = internal_target(i_s.data, gene.data, tau) if targets is None else targets[si]
        z = ad.matmul(i_s, ad.transpose(gene))
        loss_s = (ad.cross_entropy(z, t_s) + ad.cross_entropy(ad.transpose(z), t_s.T)) * (1.0 / n)
        scale_losses.append(loss_s)
    total = (scale_losses[0] + scale_losses[1] + scale_losses[2]) * (1.0 / 3.0)
    return total, tuple(loss.item() for loss in scale_losses)


def _one_hot(indices, k: int, name: str) -> np.ndarray:
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= k):
        raise ContractError(f"{name} assignment index out of range [0, {k})")
    out = np.zeros((indices.shape[0], k))
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def cross_level_loss(
    i_ins: DiffTensor,
    g_ins: DiffTensor,
    gene_centroids: np.ndarray,
    image_centroids: np.ndarray,
    image_assign: np.ndarray,
    gene_assign: np.ndarray,
    tau_ig: float,
) -> DiffTensor:
    """Instance-group discrimination against opposite-modality centroids.

    Image instances score against gene centroids and vice versa, at
    temperature ``tau_ig``.  Targets are one-hot at the given group indices;
    training gives each instance the group its counterpart (the same spot's
    other modality) falls in.  Centroids are constants.
    """
    k = gene_centroids.shape[0]
    if image_centroids.shape[0] != k:
        raise ShapeError(f"centroid counts differ: {k} gene vs {image_centroids.shape[0]} image")
    t_img, t_gene = _one_hot(image_assign, k, "image"), _one_hot(gene_assign, k, "gene")
    n = i_ins.shape[0]
    logits_img = ad.matmul(i_ins, ad.constant(gene_centroids.T)) * (1.0 / tau_ig)
    logits_gene = ad.matmul(g_ins, ad.constant(image_centroids.T)) * (1.0 / tau_ig)
    return (ad.cross_entropy(logits_img, t_img) + ad.cross_entropy(logits_gene, t_gene)) * (1.0 / n)


def prediction_loss(predicted: DiffTensor, target) -> DiffTensor:
    """Mean over spots of the squared Euclidean distance between expression
    vectors (the per-spot norm form, not the per-element mean)."""
    target = ad.as_tensor(target)
    if predicted.shape != target.shape:
        raise ShapeError(f"prediction shape {predicted.shape} vs target {target.shape}")
    n = predicted.shape[0]
    diff = predicted - target
    return ad.tsum(ad.mul(diff, diff)) * (1.0 / n)


def total_loss(
    multi_ins: DiffTensor,
    cross: DiffTensor,
    pred: DiffTensor,
    lam: float,
    per_scale: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> tuple[DiffTensor, LossBreakdown]:
    """Weighted objective: multi_ins + lam * cross + pred, with a float
    breakdown for logging that composes exactly the same way."""
    total = multi_ins + cross * lam + pred
    breakdown = LossBreakdown(
        multi_ins=multi_ins.item(),
        cross=cross.item(),
        pred=pred.item(),
        total=total.item(),
        per_scale=per_scale,
    )
    return total, breakdown
