"""Feature-grouping branch: K-means on unit-normalized vectors (one Lloyd run
per start: ``n_init`` seeded k-means++ draws, or the given centroids), and
``assign_cross``, which puts a row in the group whose centroid is nearest its
unit-normalized form by ``_nearest``, the rule of Lloyd's final assignment, so
a row that took part in a fit falls in the group the fit gave it.  Training
groups the fused and gene embeddings themselves, through no parameter.

Centroids are means of normalized member rows and are deliberately not
re-normalized.  All tie-breaks are by lowest index, and every function is a
deterministic function of its inputs and seed.

Lloyd screens distances with one matrix product, |x|^2 - 2 x.c + |c|^2.  Its
tolerance, (d + 2) * 4e-12 * (max|x|^2 + max|c|^2), exceeds the rounding error
of that form and of the direct (x - c)^2 form together many times over, so rows
whose two best screened distances differ by more keep their direct-form argmin;
the rest (ties, underflow, overflow) are rescanned in the direct form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor
from .errors import ContractError

_MAX_ITER = 100  # Lloyd assignment steps per restart
_SHIFT_TOL = 1e-6  # Lloyd stops once no centroid moves this far


@dataclass
class GroupState:
    """K-means result for one modality."""

    centroids: np.ndarray  # k x d
    assignments: np.ndarray  # length N, values in [0, k)
    inertia: float  # sum of squared distances at convergence
    n_iter: int
    inertia_trace: tuple[float, ...] = ()  # inertia at each assignment step


def group_project(p: dict[str, DiffTensor], e_ins, modality: str) -> DiffTensor:
    """``e_ins`` unchanged: the rows k-means groups for ``modality``, as training
    groups them (``p`` is unused; training does not call this)."""
    if modality not in ("image", "gene"):
        raise ContractError(f"modality must be 'image' or 'gene', got {modality!r}")
    return ad.as_tensor(e_ins)


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm; a zero or overflowing squared norm raises."""
    with np.errstate(over="ignore"):
        sq = (x * x).sum(axis=-1, keepdims=True)
    if not np.all((sq > 0.0) & (sq < np.inf)):
        raise ContractError("l2_normalize_rows: zero row or squared norm overflow")
    return x * sq ** -0.5


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=-1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points duplicate a centroid; take lowest unchosen index
            candidates = [i for i in range(n) if i not in chosen]
            idx = candidates[0]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=-1))
    return points[chosen].copy()


def _nearest(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray):
    """Direct-form nearest centroid per row, and the squared distance to it."""
    c_sq = (centroids * centroids).sum(axis=-1)
    screen = points @ (-2.0 * centroids.T)
    screen += sq_norms[:, None] + c_sq
    assign = screen.argmin(axis=1)
    if centroids.shape[0] > 1:
        # every screened value lies within this bound; past overflow, tol is inf
        bound = 4.0 * float(sq_norms.max() + c_sq.max())
        tol = (points.shape[1] + 2) * (1e-12 * bound + np.finfo(float).tiny)
        gap = np.partition(screen, 1, axis=1)[:, 1] - screen[np.arange(len(assign)), assign]
        redo = np.flatnonzero(~(gap > tol))  # a NaN gap is redone too
        assign[redo] = ((points[redo, None, :] - centroids) ** 2).sum(axis=-1).argmin(axis=1)
    return assign, ((points - centroids[assign]) ** 2).sum(axis=-1)


def _lloyd(points: np.ndarray, centroids: np.ndarray) -> GroupState:
    """One Lloyd run from the k x d starting ``centroids``."""
    k, d = centroids.shape
    sq_norms = (points * points).sum(axis=-1)
    n_iter = 0
    trace = []
    for n_iter in range(1, _MAX_ITER + 1):
        assign, member_dist = _nearest(points, sq_norms, centroids)
        trace.append(float(member_dist.sum()))
        # row-order member sums, as numpy's mean adds them (a lone column pairwise)
        cells = (assign[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(cells, weights=points.ravel(), minlength=k * d).reshape(k, d)
        if d == 1:
            sums = np.array([[points[assign == j, 0].sum()] for j in range(k)])
        counts = np.bincount(assign, minlength=k)
        new_centroids = sums / np.maximum(counts, 1)[:, None]
        for j in np.flatnonzero(counts == 0):
            far = int(member_dist.argmax())
            new_centroids[j] = points[far]
            member_dist[far] = -1.0  # a later empty cluster must steal elsewhere
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=-1)).max()
        centroids = new_centroids
        if shift < _SHIFT_TOL:
            break
    assign, member_dist = _nearest(points, sq_norms, centroids)
    trace.append(float(member_dist.sum()))
    return GroupState(centroids, assign.astype(np.int64), trace[-1], n_iter, tuple(trace))


def kmeans(
    e_clu: np.ndarray,
    k: int,
    seed: int,
    normalize: bool = True,
    n_init: int = 10,
    init: np.ndarray | None = None,
) -> GroupState:
    """Seeded k-means++ / Lloyd clustering of grouping features: one Lloyd
    run per start, and the lowest final inertia wins, ties going to the
    earliest start.

    Rows are l2-normalized first unless ``normalize`` is off (raw mode).  The
    starts are ``n_init`` k-means++ draws with seeds derived from ``seed``, or,
    given ``init`` (a finite k x d array), those centroids alone (``seed`` and
    ``n_init`` unused).  Empty clusters are repaired by reseeding from the
    point farthest from its centroid.
    """
    points = np.asarray(e_clu, dtype=np.float64)
    if points.ndim != 2:
        raise ContractError(f"kmeans expects an N x d matrix, got shape {points.shape}")
    n = points.shape[0]
    if k <= 0:
        raise ContractError(f"k must be positive, got {k}")
    if n_init < 1:
        raise ContractError(f"n_init must be >= 1, got {n_init}")
    if k > n:
        raise ContractError(f"k={k} exceeds the number of points n={n}")
    if not np.all(np.isfinite(points)):
        raise ContractError("kmeans requires finite inputs")
    if init is not None and (np.shape(init) != (k, points.shape[1]) or not np.all(np.isfinite(init))):
        raise ContractError(f"init must be a finite {k} x {points.shape[1]} array, got {np.shape(init)}")
    if normalize:
        points = l2_normalize_rows(points)

    if init is None:
        starts = (_kmeans_pp_init(points, k, np.random.default_rng(np.random.SeedSequence([seed, r])))
                  for r in range(n_init))
    else:
        starts = [np.asarray(init, dtype=np.float64)]
    return min((_lloyd(points, start) for start in starts), key=lambda run: run.inertia)


def assign_cross(e_ins: np.ndarray, other_centroids: np.ndarray) -> np.ndarray:
    """The group each l2-normalized row of ``e_ins`` falls in, by ``_nearest``."""
    e = l2_normalize_rows(np.asarray(e_ins, dtype=np.float64))
    c = np.asarray(other_centroids, dtype=np.float64)
    if e.shape[-1] != c.shape[-1]:
        raise ContractError(f"instance dim {e.shape[-1]} does not match centroid dim {c.shape[-1]}")
    return _nearest(e, (e * e).sum(axis=-1), c)[0].astype(np.int64)
