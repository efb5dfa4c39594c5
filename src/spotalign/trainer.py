"""Optimization loop: patient-grouped folds, Adam with step decay, centroid
refresh per batch or per epoch from a bank of the rows the next fit clusters
(a batch step's own rows, or every step's of the last epoch: a memory bank
as in Wu et al., CVPR 2018; epoch 0 clusters an eval-mode pass), and
``train_fold``, which runs one ``_train_step``, on its own tape, per batch of
each epoch's ``_schedule`` (a ``_FoldState`` carries what one step hands the
next), hands each log line to ``on_line`` and scores the final parameters
once.  ``kmeans_n_init`` counts the k-means++ restarts of a fold's first fit,
and every later fit, in either mode, is one Lloyd run from the last centroids
(a warm start as in mini-batch k-means, Sculley, WWW 2010).

Every random stream (init, shuffling, dropout, clustering) is derived from
the config seed plus structural indices, so a full training run is a pure
function of (data, config) and repeats bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import evaluation, grouping, losses, model
from .data_io import SpotBatch
from .errors import ContractError, DataError, NumericError, check_fields

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_DECAY = 0.95
LR_DECAY_EVERY = 20


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 256
    epochs: int = 200
    seed: int = 0
    k: int = 25
    lam: float = 0.8
    tau: float = 0.07
    tau_ig: float = 0.07
    multi_ins_weight: float = 1.0
    n_folds: int = 2
    cluster_refresh: str = "batch"  # "batch" or "epoch"
    kmeans_n_init: int = 10  # restarts of a fold's first fit; later fits start from the last centroids

    def __post_init__(self):
        check_fields(self, (("batch_size", 1), ("epochs", 1), ("k", 1), ("kmeans_n_init", 1),
                            ("seed", 0), ("lam", 0), ("multi_ins_weight", 0)))
        if self.lr <= 0:
            raise ContractError("lr must be positive")
        if self.tau <= 0 or self.tau_ig <= 0:
            raise ContractError("temperatures must be positive")
        if self.cluster_refresh not in ("batch", "epoch"):
            raise ContractError("cluster_refresh must be 'batch' or 'epoch'")


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Fixed step decay: lr0 * LR_DECAY^floor(epoch / LR_DECAY_EVERY)."""
    if epoch < 0:
        raise ContractError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr * LR_DECAY ** (epoch // LR_DECAY_EVERY)


# ---------------------------------------------------------------------------
# folds


@dataclass
class FoldPlan:
    folds: dict[int, list[str]]  # fold id -> sample ids

    def test_samples(self, fold_id: int) -> list[str]:
        return list(self.folds[fold_id])


def make_folds(samples: list[tuple[str, str]], n_folds: int, seed: int) -> FoldPlan:
    """Patient-grouped fold assignment.

    Patients are shuffled by seed, ordered largest-first by sample count
    (stable), then greedily packed into the currently smallest fold, so all
    samples of one patient always land together.
    """
    if n_folds <= 0:
        raise ContractError(f"n_folds must be positive, got {n_folds}")
    by_patient: dict[str, list[str]] = {}
    for sample_id, patient_id in samples:
        by_patient.setdefault(patient_id, []).append(sample_id)
    if n_folds > len(by_patient):
        raise ContractError(
            f"n_folds={n_folds} exceeds the {len(by_patient)} distinct patients"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    patients = list(by_patient)
    rng.shuffle(patients)
    patients.sort(key=lambda p: -len(by_patient[p]))  # stable: keeps shuffle for ties

    folds: dict[int, list[str]] = {f: [] for f in range(n_folds)}
    sizes = [0] * n_folds
    for p in patients:
        target = min(range(n_folds), key=lambda f: (sizes[f], f))
        folds[target].extend(by_patient[p])
        sizes[target] += len(by_patient[p])

    assigned = [sid for fold in folds.values() for sid in fold]
    if sorted(assigned) != sorted(sid for sid, _ in samples):
        raise ContractError("internal error: fold plan lost or duplicated samples")
    return FoldPlan(folds=folds)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """Standard bias-corrected Adam update, in place."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}; step aborted")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    params_final: dict[str, np.ndarray]
    history: list[dict] = field(default_factory=list)
    report: evaluation.FoldReport | None = None  # None when the fold has no test samples


def _derived_rng(*path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(path)))


def _derived_seed(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def train_fold(
    fold_id: int,
    plan: FoldPlan,
    batches: list[SpotBatch],
    model_cfg: model.ModelConfig,
    cfg: TrainConfig,
    on_line=lambda line: None,
) -> TrainResult:
    """Train one fold and return its final parameters and their test-fold report.

    Each epoch runs one ``_train_step`` per chunk of ``_schedule`` (a batch
    step fits the centroids to its own rows) and logs its ``step=`` line after
    the step, and its tape, are gone.  In epoch mode it first fits them to
    every training spot: epoch 0 to ``_epoch_centroids``' eval-mode pass, later
    epochs to the ``_FoldState.bank`` of the last epoch's step rows, and
    empties it.  A fold's first fit runs ``kmeans_n_init`` restarts, each later
    one a Lloyd run from the last centroids.  The test fold is scored once, on
    the final parameters, so nothing is chosen on it.  Each log line goes to
    ``on_line`` as it is made, and nowhere else (by default, nowhere).
    """
    test_ids = set(plan.test_samples(fold_id))
    train_batches = [b for b in batches if b.sample_id not in test_ids]
    test_batches = [b for b in batches if b.sample_id in test_ids]
    if not train_batches:
        raise ContractError(f"fold {fold_id} leaves no training samples")
    straddle = {b.patient_id for b in train_batches} & {b.patient_id for b in test_batches}
    if straddle:
        raise ContractError(f"patients straddle fold {fold_id}: {sorted(straddle)}")

    state = _init_state(train_batches, model_cfg, cfg, fold_id)
    groupable = sum(b.n_spots for b in train_batches) >= cfg.k
    history: list[dict] = []
    report = None
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        if cfg.lam > 0 and cfg.cluster_refresh == "epoch":
            if groupable:
                seeds = [_derived_seed(cfg.seed, fold_id, epoch, s) for s in (23, 29)]
                state.centroids = (_centroids(state.bank, cfg, seeds, state.centroids) if epoch
                                   else _epoch_centroids(state.params, train_batches, model_cfg, cfg, seeds))
            state.bank = []
        schedule = _schedule(train_batches, cfg, fold_id, epoch)
        epoch_total = 0.0
        for si, chunk in schedule:
            step = state.step
            breakdown = _train_step(state, train_batches[si].take(chunk), model_cfg, cfg,
                                    fold_id, epoch, lr, on_line)
            # loss fields at full precision so total can be re-derived exactly
            on_line(f"step={step} epoch={epoch} lr={lr!r} multi_ins={breakdown.multi_ins!r} "
                 f"cross={breakdown.cross!r} pred={breakdown.pred!r} total={breakdown.total!r}")
            epoch_total += breakdown.total
        summary = {"epoch": epoch, "lr": lr, "mean_total": epoch_total / max(len(schedule), 1)}
        line = f"epoch={epoch} mean_total={summary['mean_total']:.6f}"
        if epoch == cfg.epochs - 1 and test_batches:
            report = evaluate_fold(fold_id, state.params, model_cfg, test_batches)
            summary.update(val_pcc_a=report.pcc_a, val_mse=report.mse)
            line += f" val_pcc_a={report.pcc_a:.6f}"
        history.append(summary)
        on_line(line)

    return TrainResult(params_final=state.params, history=history, report=report)


@dataclass
class _FoldState:
    """What one training step hands the next."""

    params: dict[str, np.ndarray]
    adam: AdamState
    centroids: tuple[np.ndarray, np.ndarray] | None = None  # image, gene
    step: int = 0  # steps taken in this fold, across epochs
    # the (fused, gene) arrays the next fit clusters: a batch step's own, or each step's of this epoch
    bank: list = field(default_factory=list)


def _init_state(train_batches, model_cfg, cfg: TrainConfig, fold_id: int) -> _FoldState:
    params = model.init_params(model_cfg, _derived_seed(cfg.seed, fold_id, 2))
    # start the prediction head at the training-set mean expression so early
    # epochs refine structure instead of relearning the output scale
    params["pred/b"] = np.concatenate([b.expression for b in train_batches]).mean(axis=0)
    return _FoldState(params, init_adam(params))


def _schedule(train_batches, cfg: TrainConfig, fold_id: int, epoch: int):
    """The epoch's (slide index, spot indices) chunks: each slide's spots in a
    seeded shuffle, cut into ``batch_size`` chunks, taken round-robin across
    slides."""
    chunk_lists = []
    for si, b in enumerate(train_batches):
        perm = _derived_rng(cfg.seed, fold_id, epoch, si, 11).permutation(b.n_spots)
        chunk_lists.append([(si, perm[i : i + cfg.batch_size])
                            for i in range(0, b.n_spots, cfg.batch_size)])
    return [chunks[r] for r in range(max(map(len, chunk_lists)))
            for chunks in chunk_lists if r < len(chunks)]


def _train_step(state: _FoldState, sub: SpotBatch, model_cfg, cfg: TrainConfig,
                fold_id: int, epoch: int, lr: float, on_line) -> losses.LossBreakdown:
    """One step on ``sub`` that advances ``state`` in place: forward both
    modalities on the step's own tape, refresh the centroids from the batch in
    batch mode (from the previous step's centroids once there are any; a sub-k
    batch reuses them), backpropagate and Adam-update; return the loss breakdown."""
    step, params = state.step, state.params
    tape = ad.Tape()
    pt = model.as_tensors(params, tape)
    emb = model.forward_embeddings(pt, sub, model_cfg, _derived_rng(cfg.seed, fold_id, epoch, step, 13))
    pred_loss = losses.prediction_loss(model.predict_expression(pt, emb.fused), sub.expression)

    multi, per_scale_vals = ad.constant(0.0), (0.0, 0.0, 0.0)
    if cfg.multi_ins_weight > 0:
        multi, per_scale_vals = losses.multi_scale_instance_loss(emb.per_scale, emb.gene, cfg.tau)
        if cfg.multi_ins_weight != 1.0:
            multi = multi * cfg.multi_ins_weight

    cross = ad.constant(0.0)
    if cfg.lam > 0:
        rows = (emb.fused.data, emb.gene.data)
        _check_groupable([rows], f"step {step} epoch {epoch}")
        if cfg.cluster_refresh == "epoch":
            state.bank.append(rows)  # the arrays only: a tensor would keep this step's tape alive
        else:
            state.bank = [rows]  # the rows this step's own fit clusters
            if sub.n_spots >= cfg.k:
                seeds = [_derived_seed(cfg.seed, fold_id, epoch, step, s) for s in (17, 19)]
                state.centroids = _centroids(state.bank, cfg, seeds, state.centroids)
            elif state.centroids is not None:
                on_line(f"step={step} epoch={epoch} event=centroids_reused n={sub.n_spots}")
        if state.centroids is None:
            on_line(f"step={step} epoch={epoch} event=cross_skipped reason=no_centroids")
        else:
            c_img, c_gene = state.centroids
            # each row's target is the group its counterpart, the same spot's other modality, falls in
            img_targets = grouping.assign_cross(emb.gene.data, c_gene)
            gene_targets = grouping.assign_cross(emb.fused.data, c_img)
            cross = losses.cross_level_loss(emb.fused, emb.gene, c_gene, c_img,
                                            img_targets, gene_targets, cfg.tau_ig)

    total, breakdown = losses.total_loss(multi, cross, pred_loss, cfg.lam, per_scale_vals)
    node_grads = tape.backward(total)
    adam_step(params, {name: node_grads[pt[name].node_id] for name in params}, state.adam, lr)
    state.step += 1
    return breakdown


def _epoch_centroids(params, train_batches, model_cfg, cfg, seeds):
    """Epoch 0's centroids, of an eval-mode pass over every training spot (per slide, for global context)."""
    const_pt = model.as_tensors(params)
    embeddings = [model.forward_embeddings(const_pt, b, model_cfg) for b in train_batches]
    rows = [(e.fused.data, e.gene.data) for e in embeddings]
    _check_groupable(rows, "epoch 0 centroid refresh")
    return _centroids(rows, cfg, seeds)


def _check_groupable(rows, where: str) -> None:
    """NumericError naming ``where`` unless each row of the array pairs ``rows`` has a finite squared norm."""
    with np.errstate(over="ignore"):
        if not all(np.isfinite((x * x).sum(axis=-1)).all() for pair in rows for x in pair):
            raise NumericError(f"{where}: embeddings that reach grouping are not finite")


def _centroids(rows, cfg: TrainConfig, seeds, init=None) -> tuple[np.ndarray, np.ndarray]:
    """Image and gene k-means centroids of the (fused, gene) array pairs
    ``rows`` (their spots concatenated): ``kmeans_n_init`` restarts from one
    seed per modality, or one Lloyd run each from the last centroids ``init``."""
    fits = (grouping.kmeans(np.concatenate(x), cfg.k, seed, n_init=cfg.kmeans_n_init, init=start)
            for x, seed, start in zip(zip(*rows), seeds, init or (None, None)))
    return tuple(fit.centroids for fit in fits)


# ---------------------------------------------------------------------------
# inference and evaluation


def infer(params: dict[str, np.ndarray], model_cfg: model.ModelConfig, batch: SpotBatch) -> np.ndarray:
    """Eval-mode prediction from the image pathway only."""
    for what, got, want in (("genes", batch.n_genes, model_cfg.n_genes),
                            ("feature dims", batch.local_feat.shape[1], model_cfg.d_in),
                            ("neighbor tokens", batch.neighbor_feat.shape[1], model_cfg.neighbor_tokens)):
        if got != want:
            raise DataError(f"sample {batch.sample_id} has {got} {what}, model expects {want}")
    return model.forward_image(model.as_tensors(params), batch, model_cfg).data


def evaluate_fold(
    fold_id: int,
    params: dict[str, np.ndarray],
    model_cfg: model.ModelConfig,
    test_batches: list[SpotBatch],
) -> evaluation.FoldReport:
    pairs = [(b.expression, infer(params, model_cfg, b)) for b in test_batches]
    return evaluation.build_fold_report(fold_id, pairs)
