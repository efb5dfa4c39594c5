"""Prediction metrics and the cross-fold evaluation protocol.

Per-gene Pearson correlation is computed across the spots of one sample,
averaged over a fold's samples, then over folds.  Genes whose truth or
prediction has zero variance yield an undefined (NaN) correlation; they are
excluded from averages and counted rather than silently zeroed.  The
highly-predictive gene set is the top genes by average rank across folds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError


def pcc(y, y_hat) -> float:
    """Pearson correlation of two vectors; NaN when either has zero variance."""
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if y.shape != y_hat.shape:
        raise ShapeError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if y.size < 2:
        raise ContractError("pcc requires at least 2 observations")
    yc = _unit_scaled(y - y.mean())
    pc = _unit_scaled(y_hat - y_hat.mean())
    denom = math.sqrt(float((yc**2).sum())) * math.sqrt(float((pc**2).sum()))
    if denom == 0.0:
        return math.nan
    return float((yc * pc).sum() / denom)


def _unit_scaled(centered: np.ndarray) -> np.ndarray:
    """Scale by the power of two that puts the largest magnitude in [0.5, 1).

    Squares of values below ~1e-154 are subnormal and lose bits; squares
    above ~1e154 overflow.  PCC is scale-free, and a power of two scales
    exactly, so the result is unchanged wherever the unscaled sums stayed
    normal.
    """
    return np.ldexp(centered, -np.frexp(np.abs(centered).max())[1])


def _same_shape(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    y, y_hat = np.asarray(y, dtype=np.float64), np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ShapeError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    return y, y_hat


def mse_metric(y, y_hat) -> float:
    """Per-element mean squared error over all N*M entries."""
    y, y_hat = _same_shape(y, y_hat)
    return float(((y - y_hat) ** 2).mean())


def mae_metric(y, y_hat) -> float:
    """Per-element mean absolute error over all N*M entries."""
    y, y_hat = _same_shape(y, y_hat)
    return float(np.abs(y - y_hat).mean())


def per_gene_pcc(truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Column-wise Pearson correlation; NaN columns where undefined."""
    truth, pred = _same_shape(truth, pred)
    return np.array([pcc(truth[:, g], pred[:, g]) for g in range(truth.shape[1])])


def rank_genes(gene_pcc: np.ndarray) -> np.ndarray:
    """Ranks 1..M by descending PCC; undefined genes last; ties by index."""
    m = gene_pcc.shape[0]
    undefined = np.isnan(gene_pcc)
    order = np.lexsort((np.arange(m), -np.where(undefined, 0.0, gene_pcc), undefined))
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return ranks


@dataclass
class FoldReport:
    fold_id: int
    per_gene_pcc: np.ndarray  # length M, NaN where undefined
    mse: float
    mae: float

    @property
    def gene_rank(self) -> np.ndarray:  # length M, 1 = best
        return rank_genes(self.per_gene_pcc)

    @property
    def n_genes(self) -> int:
        return self.per_gene_pcc.shape[0]

    @property
    def n_undefined(self) -> int:
        return int(np.isnan(self.per_gene_pcc).sum())

    @property
    def pcc_a(self) -> float:
        return _nanmean(self.per_gene_pcc)


def _nanmean(values: np.ndarray) -> float:
    defined = values[~np.isnan(values)]
    return float(defined.mean()) if defined.size else math.nan


def build_fold_report(
    fold_id: int,
    sample_pairs: list[tuple[np.ndarray, np.ndarray]],
) -> FoldReport:
    """Score one fold from (truth, prediction) pairs, one pair per sample.

    Per-gene PCC within each sample, averaged over the fold's samples (genes
    undefined in a sample are excluded from its average).
    """
    if not sample_pairs:
        raise ContractError("fold report needs at least one sample")
    per_sample = np.stack([per_gene_pcc(t, p) for t, p in sample_pairs])
    with np.errstate(invalid="ignore"):
        gene = np.where(
            np.isnan(per_sample).all(axis=0),
            np.nan,
            np.nan_to_num(per_sample).sum(axis=0)
            / np.maximum((~np.isnan(per_sample)).sum(axis=0), 1),
        )
    mse = float(np.mean([mse_metric(t, p) for t, p in sample_pairs]))
    mae = float(np.mean([mae_metric(t, p) for t, p in sample_pairs]))
    return FoldReport(fold_id=fold_id, per_gene_pcc=gene, mse=mse, mae=mae)


def select_hpg(fold_reports: list[FoldReport], top: int) -> list[int]:
    """Top genes by average rank across folds; ties broken by gene index."""
    if not fold_reports:
        raise ContractError("select_hpg needs at least one fold report")
    m = fold_reports[0].n_genes
    if top > m:
        raise ContractError(f"top={top} exceeds gene count {m}")
    mean_rank = np.mean([r.gene_rank for r in fold_reports], axis=0)
    return np.argsort(mean_rank, kind="stable")[:top].tolist()


def aggregate(fold_reports: list[FoldReport], hpg: list[int]) -> dict[str, tuple[float, float]]:
    """Cross-fold (mean, std) of MSE, MAE, PCC(A), and PCC(H) over the ``hpg``
    genes, keyed ``mse``, ``mae``, ``pcc_a``, ``pcc_h`` in that order."""
    if not fold_reports:
        raise ContractError("aggregate needs at least one fold report")
    hpg_arr = np.asarray(hpg, dtype=np.int64)
    per_fold = {
        "mse": [r.mse for r in fold_reports],
        "mae": [r.mae for r in fold_reports],
        "pcc_a": [r.pcc_a for r in fold_reports],
        "pcc_h": [_nanmean(r.per_gene_pcc[hpg_arr]) for r in fold_reports],
    }
    return {name: (float(np.mean(v)), float(np.std(v))) for name, v in per_fold.items()}


# ---------------------------------------------------------------------------
# report emission


def write_report_csv(path, fold_reports: list[FoldReport], summary: dict, hpg: list[int]) -> None:
    """Machine-readable long-format table: fold, metric, value.  Each fold's
    rows, then each ``summary`` metric's mean and ``_std`` rows, then ``hpg``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["fold", "metric", "value"])
        for r in fold_reports:
            writer.writerow([r.fold_id, "mse", repr(r.mse)])
            writer.writerow([r.fold_id, "mae", repr(r.mae)])
            writer.writerow([r.fold_id, "pcc_a", repr(r.pcc_a)])
            writer.writerow([r.fold_id, "undefined_genes", r.n_undefined])
        for name, (mean, std) in summary.items():
            writer.writerow(["summary", name, repr(mean)])
            writer.writerow(["summary", f"{name}_std", repr(std)])
        writer.writerow(["summary", "hpg", " ".join(str(g) for g in hpg)])


def format_report_text(fold_reports: list[FoldReport], summary: dict) -> str:
    lines = [
        f"fold {r.fold_id}: mse={r.mse:.6f} mae={r.mae:.6f} "
        f"pcc_a={r.pcc_a:.6f} undefined={r.n_undefined}/{r.n_genes}"
        for r in fold_reports
    ]
    lines.append("summary: " + " ".join(f"{k}={m:.6f}±{s:.6f}" for k, (m, s) in summary.items()))
    return "\n".join(lines) + "\n"
