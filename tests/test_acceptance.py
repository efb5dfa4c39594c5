"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints one ``ACCEPTANCE <name>: PASS/FAIL`` line.  The directional
component-ablation study runs the full training pipeline 20 times (4 loss
configurations x 5 seeds) on the coupled synthetic study; everything is
seeded, so its numbers are bit-reproducible.
"""

import itertools
import math
import multiprocessing
import os
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from statistics import median
from unittest import mock

import numpy as np
import pytest

from spotalign import autodiff as ad
from spotalign import data_io, evaluation, grouping, losses, model, trainer
from spotalign.cli import main as cli_main

from gradcheck import grad_check

GRAD_TOL = 1e-4
IDENTITY_TOL = 1e-10


def criterion(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# gradient suite


def _frozen_multi_loss(scales, gene, tau):
    targets = [losses.internal_target(s.data, gene.data, tau) for s in scales]
    loss, _ = losses.multi_scale_instance_loss(scales, gene, tau, targets=targets)
    return loss


def test_gradient_suite():
    """Analytic gradients of every exported objective match central finite
    differences (rel <= 1e-4, 64-bit, h=1e-5) on 100 seeded random batches
    with N in {2,4,8}, d in {4,16}, k in {2,3}; targets, assignments, and
    centroids held constant per the stop-gradient semantics."""
    tau = 0.07
    worst = 0.0
    start = time.time()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = (2, 4, 8)[seed % 3]
        d = (4, 16)[seed % 2]
        k = (2, 3)[(seed // 2) % 2] if n > 2 else 2

        # gene encoder (two-layer + residual feed-forward refinement)
        mcfg = model.ModelConfig(n_genes=5, d_in=4, d=4, heads=2, d_ff=8, dropout=0.0)
        params = model.init_params(mcfg, seed)
        g_in = rng.normal(size=(n, 5)) ** 2

        def enc_loss(x, params=params, mcfg=mcfg):
            out = model.gene_encode({k_: ad.constant(v) for k_, v in params.items()}, x, mcfg)
            return ad.tsum(ad.mul(out, out))

        worst = max(worst, grad_check(enc_loss, g_in))

        name = list(params)[seed % len(params)]

        def enc_param_loss(x, params=params, mcfg=mcfg, name=name, g_in=g_in):
            pt = {k_: ad.constant(v) for k_, v in params.items()}
            pt[name] = x
            out = model.gene_encode(pt, g_in, mcfg)
            return ad.tsum(ad.mul(out, out))

        worst = max(worst, grad_check(enc_param_loss, params[name]))

        # multi-scale instance loss, targets frozen
        scales = [rng.normal(size=(n, d)) for _ in range(3)]
        gene = rng.normal(size=(n, d))
        frozen = [losses.internal_target(s, gene, tau) for s in scales]

        def multi_loss_wrt_scale(x, scales=scales, gene=gene, frozen=frozen):
            tensors = [x, ad.constant(scales[1]), ad.constant(scales[2])]
            loss, _ = losses.multi_scale_instance_loss(
                tensors, ad.constant(gene), tau, targets=frozen
            )
            return loss

        def multi_loss_wrt_gene(x, scales=scales, frozen=frozen):
            loss, _ = losses.multi_scale_instance_loss(
                [ad.constant(s) for s in scales], x, tau, targets=frozen
            )
            return loss

        worst = max(worst, grad_check(multi_loss_wrt_scale, scales[0]))
        worst = max(worst, grad_check(multi_loss_wrt_gene, gene))

        # cross-level loss; temperature-scaled embeddings
        # keep the logits in the finite-difference oracle's resolvable range
        i_ins = tau * rng.normal(size=(n, d))
        g_ins = tau * rng.normal(size=(n, d))
        c_gene = grouping.kmeans(rng.normal(size=(max(k, n), d)), k, seed=seed).centroids
        c_img = grouping.kmeans(rng.normal(size=(max(k, n), d)), k, seed=seed + 1).centroids
        ia = grouping.assign_cross(i_ins, c_gene)
        ga = grouping.assign_cross(g_ins, c_img)

        def cross_hard(x, g_ins=g_ins, c_gene=c_gene, c_img=c_img, ia=ia, ga=ga):
            return losses.cross_level_loss(
                x, ad.constant(g_ins), c_gene, c_img, ia, ga, tau
            )

        worst = max(worst, grad_check(cross_hard, i_ins))

        # prediction loss
        target = rng.normal(size=(n, d)) ** 2

        def pred_loss(x, target=target):
            return losses.prediction_loss(x, target)

        worst = max(worst, grad_check(pred_loss, rng.normal(size=(n, d))))

        # weighted total on the mean-fused composite
        w_pred = rng.normal(size=(d, 5)) / math.sqrt(d)

        def total(x, scales=scales, gene=gene, frozen=frozen, c_gene=c_gene,
                  c_img=c_img, w_pred=w_pred, target=rng.normal(size=(n, 5)) ** 2):
            tensors = [x, ad.constant(scales[1]), ad.constant(scales[2])]
            multi, _ = losses.multi_scale_instance_loss(
                tensors, ad.constant(gene), tau, targets=frozen
            )
            fused = (tensors[0] + tensors[1] + tensors[2]) * (1.0 / 3.0)
            fused_scaled = fused * tau
            ia2 = grouping.assign_cross(fused_scaled.data, c_gene)
            ga2 = grouping.assign_cross(tau * gene, c_img)
            cross = losses.cross_level_loss(
                fused_scaled, ad.constant(tau * gene), c_gene, c_img, ia2, ga2, tau
            )
            pred = losses.prediction_loss(ad.matmul(fused, ad.constant(w_pred)), target)
            loss, _ = losses.total_loss(multi, cross, pred, lam=0.8)
            return loss

        worst = max(worst, grad_check(total, scales[0]))

    elapsed = time.time() - start
    criterion(
        "gradient-suite",
        worst <= GRAD_TOL and elapsed < 120.0,
        f"max_rel_err={worst:.3e} elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# loss identities


def test_loss_identities():
    """Uniform-logit values, log-softmax shift invariance, and vanishing
    loss at perfect alignment, all at their stated tolerances."""
    tau = 0.07
    failures = []

    for n in (2, 5):
        zeros = [ad.constant(np.zeros((n, 4))) for _ in range(3)]
        loss, per_scale = losses.multi_scale_instance_loss(zeros, ad.constant(np.zeros((n, 4))), tau)
        for s in per_scale:  # each direction contributes ln N
            if abs(s - 2.0 * math.log(n)) > IDENTITY_TOL:
                failures.append(f"instance-loss uniform N={n}: {s}")
        if abs(loss.item() - 2.0 * math.log(n)) > IDENTITY_TOL:
            failures.append(f"instance-loss total N={n}")

    for k in (2, 25):
        c = np.random.default_rng(0).normal(size=(k, 4))
        cl = losses.cross_level_loss(
            ad.constant(np.zeros((3, 4))), ad.constant(np.zeros((3, 4))), c, c,
            np.zeros(3, dtype=int), np.zeros(3, dtype=int), tau,
        )
        if abs(cl.item() - 2.0 * math.log(k)) > IDENTITY_TOL:
            failures.append(f"group-loss uniform k={k}: {cl.item()}")

    # shift invariance via constant-column augmentation
    rng = np.random.default_rng(1)
    scales = [rng.normal(size=(4, 6)) for _ in range(3)]
    gene = rng.normal(size=(4, 6))
    aug = lambda m, v: np.concatenate([m, np.full((m.shape[0], 1), v)], axis=1)
    base, _ = losses.multi_scale_instance_loss([ad.constant(s) for s in scales], ad.constant(gene), tau)
    shifted, _ = losses.multi_scale_instance_loss(
        [ad.constant(aug(s, 1.0)) for s in scales], ad.constant(aug(gene, 2.5)), tau
    )
    if abs(base.item() - shifted.item()) > IDENTITY_TOL:
        failures.append("instance-loss shift invariance")

    c_gene, c_img = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
    ia, ga = np.array([0, 1, 2, 0]), np.array([2, 1, 0, 1])
    base_cl = losses.cross_level_loss(
        ad.constant(scales[0]), ad.constant(gene), c_gene, c_img, ia, ga, tau
    )
    shift_cl = losses.cross_level_loss(
        ad.constant(aug(scales[0], 1.0)), ad.constant(aug(gene, 1.0)),
        aug(c_gene, 1.3), aug(c_img, 0.9), ia, ga, tau,
    )
    if abs(base_cl.item() - shift_cl.item()) > IDENTITY_TOL:
        failures.append("group-loss shift invariance")

    # perfect alignment at raw-similarity margin 20/tau
    margin = 20.0 / tau
    aligned = math.sqrt(margin) * np.eye(4)
    m_loss, _ = losses.multi_scale_instance_loss(
        [ad.constant(aligned)] * 3, ad.constant(aligned), tau
    )
    if m_loss.item() >= 1e-6:
        failures.append(f"instance-loss perfect alignment: {m_loss.item()}")
    c_loss = losses.cross_level_loss(
        ad.constant(aligned), ad.constant(aligned),
        math.sqrt(margin) * np.eye(4), math.sqrt(margin) * np.eye(4),
        np.arange(4), np.arange(4), tau,
    )
    if c_loss.item() >= 1e-6:
        failures.append(f"group-loss perfect alignment: {c_loss.item()}")

    criterion("loss-identities", not failures, "; ".join(failures))


# ---------------------------------------------------------------------------
# k-means suite


def _brute_force_best_inertia(points: np.ndarray, k: int) -> float:
    best = np.inf
    for assign in itertools.product(range(k), repeat=points.shape[0]):
        assign = np.array(assign)
        total = 0.0
        for j in range(k):
            members = points[assign == j]
            if members.shape[0]:
                total += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


def test_kmeans_suite():
    """Nearest-centroid optimality of every assignment, non-increasing
    inertia traces, exact agreement with the exhaustive partition oracle on
    small instances, and bitwise determinism by seed."""
    failures = []

    for seed in range(30):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(int(rng.integers(10, 40)), 4))
        k = int(rng.integers(2, 7))
        state = grouping.kmeans(points, k=k, seed=seed)
        normalized = points / np.linalg.norm(points, axis=1, keepdims=True)
        dists = ((normalized[:, None, :] - state.centroids[None, :, :]) ** 2).sum(axis=-1)
        own = dists[np.arange(points.shape[0]), state.assignments]
        if not np.all(own <= dists.min(axis=1) + 1e-12):
            failures.append(f"assignment optimality seed {seed}")
        if not np.all(np.diff(state.inertia_trace) <= 1e-12):
            failures.append(f"inertia trace seed {seed}")

    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(n, 3) + 1))
        points = rng.normal(size=(n, 2))
        state = grouping.kmeans(points, k=k, seed=seed, normalize=False, n_init=32)
        best = _brute_force_best_inertia(points, k)
        if not math.isclose(state.inertia, best, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"brute force seed {seed}: {state.inertia} vs {best}")

    for seed in range(10):
        points = np.random.default_rng(2000 + seed).normal(size=(25, 5))
        a = grouping.kmeans(points, k=4, seed=seed)
        b = grouping.kmeans(points, k=4, seed=seed)
        if (
            a.centroids.tobytes() != b.centroids.tobytes()
            or a.assignments.tobytes() != b.assignments.tobytes()
            or a.inertia != b.inertia
        ):
            failures.append(f"determinism seed {seed}")

    criterion("kmeans-suite", not failures, "; ".join(failures[:3]))


# ---------------------------------------------------------------------------
# metric suite


def test_metric_suite():
    """Correlation identities with affine invariance at 1e-12, exact hand
    values for the error metrics, and fold-order-invariant gene selection."""
    failures = []
    rng = np.random.default_rng(3)
    for trial in range(50):
        y = rng.normal(size=6)
        y_hat = rng.normal(size=6)
        a = float(rng.uniform(0.1, 10))
        b = float(rng.uniform(-5, 5))
        base = evaluation.pcc(y, y_hat)
        if abs(evaluation.pcc(a * y + b, y_hat) - base) > 1e-12:
            failures.append(f"affine a>0 trial {trial}")
        if abs(evaluation.pcc(-a * y + b, y_hat) + base) > 1e-12:
            failures.append(f"affine a<0 trial {trial}")
        if abs(evaluation.pcc(y, y) - 1.0) > 1e-12:
            failures.append("self correlation")
        if abs(evaluation.pcc(y, -y) + 1.0) > 1e-12:
            failures.append("anti correlation")

    if evaluation.mse_metric([[1.0]], [[3.0]]) != 4.0:
        failures.append("mse scalar")
    if evaluation.mae_metric([[1.0]], [[3.0]]) != 2.0:
        failures.append("mae scalar")
    if evaluation.mse_metric(np.zeros((2, 2)), np.array([[1.0, -1.0], [0.0, 2.0]])) != 1.5:
        failures.append("mse matrix")
    if evaluation.mae_metric(np.zeros((2, 2)), np.array([[1.0, -1.0], [0.0, 2.0]])) != 1.0:
        failures.append("mae matrix")

    reports = []
    for f in range(4):
        pccs = rng.uniform(-1, 1, size=40)
        reports.append(evaluation.FoldReport(fold_id=f, per_gene_pcc=pccs, mse=0.1, mae=0.1))
    for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
        if evaluation.select_hpg([reports[i] for i in perm], 10) != evaluation.select_hpg(reports, 10):
            failures.append(f"fold order {perm}")

    criterion("metric-suite", not failures, "; ".join(failures[:3]))


# ---------------------------------------------------------------------------
# directional component ablation (desk-scale replication)

ABLATION_SEEDS = (0, 1, 2, 3, 4)
BLAS_SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
ABLATION_CONFIGS = {
    "plain": dict(multi_ins_weight=0.0, lam=0.0),
    "multi_scale": dict(multi_ins_weight=1.0, lam=0.0),
    "cross_level": dict(multi_ins_weight=0.0, lam=0.8),
    "full": dict(multi_ins_weight=1.0, lam=0.8),
}


def _ablation_run(task):
    """One (config, seed) training run; returns final validation PCC(A)."""
    label, seed = task
    flags = ABLATION_CONFIGS[label]
    spec = data_io.SynthSpec(
        n_spots=400, n_slides=2, latent_dim=16, n_genes=60,
        rho=0.8, sigma=0.3, seed=100 + seed, d_in=64,
        count_scale=3.0, n_clusters=8, cluster_strength=0.85,
    )
    batches = data_io.batches_from_study(data_io.synth_generate(spec))
    mcfg = model.ModelConfig(
        n_genes=60, d_in=64, d=24, heads=4, neighbor_blocks=1, d_ff=48, dropout=0.0
    )
    tcfg = trainer.TrainConfig(
        lr=5e-3, batch_size=200, epochs=50, seed=seed, k=25,
        tau=0.07, tau_ig=0.07, n_folds=2, kmeans_n_init=4,
        cluster_refresh="epoch", **flags,
    )
    plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, seed)
    result = trainer.train_fold(0, plan, batches, mcfg, tcfg)
    return label, seed, result.history[-1]["val_pcc_a"]


@pytest.fixture(scope="module")
def ablation_medians():
    tasks = [(label, seed) for label in ABLATION_CONFIGS for seed in ABLATION_SEEDS]
    start = time.time()
    workers = min(4, os.cpu_count() or 1)
    if workers > 1:
        # Spawned workers read the BLAS thread count when they import numpy,
        # so one BLAS thread each keeps the workers from oversubscribing the
        # cores; this process's BLAS is already loaded and keeps its threads.
        with mock.patch.dict(os.environ, BLAS_SINGLE_THREAD), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            results = list(pool.map(_ablation_run, tasks))
    else:
        results = [_ablation_run(t) for t in tasks]
    elapsed = time.time() - start
    by_label: dict[str, list[float]] = {label: [] for label in ABLATION_CONFIGS}
    for label, _seed, pcc_a in results:
        by_label[label].append(pcc_a)
    _print_per_seed(by_label)
    return {label: median(vals) for label, vals in by_label.items()}, elapsed


def _print_per_seed(by_label: dict[str, list[float]]) -> None:
    """Per-seed PCC(A) and the paired per-seed gains behind the two closest
    medians, so a flipped gate can be traced to the seeds that moved."""
    def line(name: str, vals, fmt: str) -> None:
        cells = " ".join(f"seed{s}={v:{fmt}}" for s, v in zip(ABLATION_SEEDS, vals))
        print(f"ABLATION {name}: {cells}")

    for label, vals in by_label.items():
        line(label, vals, ".4f")
    for better, worse in (("full", "multi_scale"), ("cross_level", "plain")):
        line(f"{better}-{worse}", np.subtract(by_label[better], by_label[worse]), "+.4f")


def test_component_ablation_directional(ablation_medians):
    """On the coupled synthetic study (rho=0.8, sigma=0.3, 2 slides x 400
    spots, M=60, 50 epochs, 5 seeds): median final validation PCC(A) must
    improve from the MSE-only bimodal baseline when either discrimination
    pathway is added, and further when both are, within a 30-minute budget."""
    medians, elapsed = ablation_medians
    plain = medians["plain"]
    ms = medians["multi_scale"]
    cl = medians["cross_level"]
    full = medians["full"]
    ok = plain < ms and plain < cl and ms < full and cl < full and elapsed < 1800
    criterion(
        "component-ablation",
        ok,
        f"plain={plain:.4f} multi_scale={ms:.4f} cross_level={cl:.4f} "
        f"full={full:.4f} elapsed={elapsed:.0f}s",
    )


def test_lambda_sensitivity(ablation_medians):
    """The cross-level weight at its default (0.8) must not underperform
    disabling it (lambda=0) on the same runs, by 5-seed median."""
    medians, _ = ablation_medians
    ok = medians["full"] >= medians["multi_scale"]
    criterion(
        "lambda-sensitivity",
        ok,
        f"lam0.8={medians['full']:.4f} lam0={medians['multi_scale']:.4f}",
    )


# ---------------------------------------------------------------------------
# determinism


def test_training_determinism():
    """Two complete train_fold runs with identical config and seed produce
    bitwise-identical final checkpoints (dropout, clustering, and both
    contrastive terms all active)."""
    spec = data_io.SynthSpec(
        n_spots=60, n_slides=2, latent_dim=4, n_genes=8, d_in=12, seed=21,
        n_clusters=3,
    )
    batches = data_io.batches_from_study(data_io.synth_generate(spec))
    mcfg = model.ModelConfig(
        n_genes=8, d_in=12, d=8, heads=2, neighbor_blocks=1, d_ff=16, dropout=0.1
    )
    tcfg = trainer.TrainConfig(
        lr=1e-3, batch_size=30, epochs=3, seed=13, k=4, lam=0.8,
        multi_ins_weight=1.0, n_folds=2, kmeans_n_init=2,
    )
    plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 13)

    a = trainer.train_fold(0, plan, batches, mcfg, tcfg)
    b = trainer.train_fold(0, plan, batches, mcfg, tcfg)
    mismatched = [
        name
        for name in a.params_final
        if a.params_final[name].tobytes() != b.params_final[name].tobytes()
    ]
    criterion("determinism", not mismatched, f"mismatched={mismatched[:3]}")


# ---------------------------------------------------------------------------
# fold integrity


def test_fold_integrity():
    """Across 1000 random patient/sample configurations, no patient's
    samples ever straddle folds and no sample is lost or duplicated."""
    violations = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n_patients = int(rng.integers(2, 26))
        samples = []
        for p in range(n_patients):
            for i in range(int(rng.integers(1, 6))):
                samples.append((f"s{p}_{i}", f"p{p}"))
        n_folds = int(rng.integers(2, n_patients + 1))
        plan = trainer.make_folds(samples, n_folds, seed)
        seen: dict[str, int] = {}
        for fold, sids in plan.folds.items():
            for sid in sids:
                if sid in seen:
                    violations += 1
                seen[sid] = fold
        if len(seen) != len(samples):
            violations += 1
        fold_of_patient = {pid: seen[sid] for sid, pid in samples}
        for sid, pid in samples:
            if seen[sid] != fold_of_patient[pid]:
                violations += 1
    criterion("fold-integrity", violations == 0, f"violations={violations}")


# ---------------------------------------------------------------------------
# CLI smoke


def test_cli_smoke(tmp_path):
    """simulate -> train -> eval -> predict -> render completes with exit 0
    and schema-valid outputs inside the time budget."""
    start = time.time()
    spec = tmp_path / "synth.ini"
    spec.write_text(
        "[synth]\nn_spots = 60\nn_slides = 2\nlatent = 4\ngenes = 12\n"
        "rho = 0.9\nsigma = 0.2\nseed = 3\nd_in = 12\n"
    )
    config = tmp_path / "run.ini"
    config.write_text(
        "[data]\nmanifest = study/manifest.ini\n\n"
        "[model]\nd = 8\nheads = 2\nneighbor_blocks = 1\nd_ff = 16\n\n"
        "[loss]\nk = 4\nlambda = 0.8\n\n"
        "[train]\nlr = 0.002\nbatch = 30\nepochs = 3\nseed = 1\nfolds = 2\n"
        "kmeans_n_init = 2\n\n"
        "[out]\ndir = run\n"
    )

    codes = [cli_main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "study")])]
    codes.append(cli_main(["train", "--config", str(config)]))
    manifest = str(tmp_path / "study" / "manifest.ini")
    checkpoint = str(tmp_path / "run" / "fold0_final.gdml")
    codes.append(cli_main(["eval", "--checkpoint", checkpoint, "--manifest", manifest,
                           "--out", str(tmp_path / "evalout")]))
    codes.append(cli_main(["predict", "--checkpoint", checkpoint, "--manifest", manifest,
                           "--out", str(tmp_path / "predout")]))
    codes.append(cli_main(["render", "--predictions", str(tmp_path / "predout" / "predictions.gdml"),
                           "--gene", "gene_0002", "--out", str(tmp_path / "map.svg")]))

    problems = []
    if codes != [0, 0, 0, 0, 0]:
        problems.append(f"exit codes {codes}")
    entries = data_io.read_container(tmp_path / "predout" / "predictions.gdml")
    if "pred:S00" not in entries or not np.all(np.isfinite(entries["pred:S00"])):
        problems.append("predictions container invalid")
    if not (tmp_path / "run" / "report.csv").read_text().startswith("fold,metric,value"):
        problems.append("report.csv schema")
    svg_root = ET.fromstring((tmp_path / "map.svg").read_text())
    n_polys = len([el for el in svg_root.iter() if el.tag.endswith("polygon")])
    if n_polys != entries["pred:S00"].shape[0]:
        problems.append(f"svg polygons {n_polys}")
    elapsed = time.time() - start
    if elapsed >= 600:
        problems.append(f"too slow: {elapsed:.0f}s")
    criterion("cli-smoke", not problems, "; ".join(problems) or f"elapsed={elapsed:.0f}s")
