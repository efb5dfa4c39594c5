"""Optimizer, schedule, fold-plan, and training-loop tests."""

import dataclasses
import gc
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotalign import autodiff as ad
from spotalign import data_io, grouping, losses, model, trainer
from spotalign.errors import ContractError, DataError, NumericError


def desk_setup(n_spots=60, n_slides=2, n_genes=8, seed=0):
    spec = data_io.SynthSpec(
        n_spots=n_spots, n_slides=n_slides, latent_dim=4, n_genes=n_genes,
        d_in=12, rho=0.9, sigma=0.1, seed=seed,
    )
    batches = data_io.batches_from_study(data_io.synth_generate(spec))
    mcfg = model.ModelConfig(
        n_genes=n_genes, d_in=12, d=8, heads=2, neighbor_blocks=1,
        d_ff=16, dropout=0.1,
    )
    return batches, mcfg


class TestLrSchedule:
    def test_initial_value(self):
        cfg = trainer.TrainConfig(lr=1e-4)
        assert trainer.lr_schedule(0, cfg) == 1e-4

    def test_before_first_boundary(self):
        cfg = trainer.TrainConfig(lr=1e-4)
        assert trainer.lr_schedule(19, cfg) == 1e-4

    def test_two_decays(self):
        cfg = trainer.TrainConfig(lr=1e-4)
        assert trainer.lr_schedule(40, cfg) == pytest.approx(9.025e-5, rel=1e-12)
        assert trainer.lr_schedule(40, cfg) == 1e-4 * 0.95**2

    def test_closed_form_sequence(self):
        cfg = trainer.TrainConfig(lr=3e-3)
        assert (trainer.LR_DECAY, trainer.LR_DECAY_EVERY) == (0.95, 20)
        for epoch in range(100):
            assert trainer.lr_schedule(epoch, cfg) == 3e-3 * 0.95 ** (epoch // 20)

    def test_negative_epoch(self):
        with pytest.raises(ContractError):
            trainer.lr_schedule(-1, trainer.TrainConfig())


class TestMakeFolds:
    def test_one_patient_per_fold(self):
        samples = [(f"s{i}", f"p{i}") for i in range(8)]
        plan = trainer.make_folds(samples, 8, seed=0)
        assert sorted(len(v) for v in plan.folds.values()) == [1] * 8

    def test_greedy_two_patients(self):
        samples = [("s0", "pa"), ("s1", "pa"), ("s2", "pa"), ("s3", "pb")]
        plan = trainer.make_folds(samples, 2, seed=0)
        sizes = sorted(len(v) for v in plan.folds.values())
        assert sizes == [1, 3]
        # the large patient's samples are together
        fold_of = {s: f for f, ss in plan.folds.items() for s in ss}
        assert fold_of["s0"] == fold_of["s1"] == fold_of["s2"]

    def test_many_patient_colocation_and_balance(self):
        rng = np.random.default_rng(1)
        samples = []
        sizes = rng.multinomial(68 - 23, np.ones(23) / 23) + 1  # 68 samples, 23 patients
        for p, count in enumerate(sizes):
            for i in range(count):
                samples.append((f"s{p}_{i}", f"p{p}"))
        plan = trainer.make_folds(samples, 8, seed=3)
        fold_sizes = [len(v) for v in plan.folds.values()]
        assert sum(fold_sizes) == 68
        fold_of = {s: f for f, ss in plan.folds.items() for s in ss}
        for p, count in enumerate(sizes):
            folds = {fold_of[f"s{p}_{i}"] for i in range(count)}
            assert len(folds) == 1
        assert max(fold_sizes) - min(fold_sizes) <= int(sizes.max())

    def test_deterministic(self):
        samples = [(f"s{i}", f"p{i % 5}") for i in range(20)]
        a = trainer.make_folds(samples, 3, seed=9)
        b = trainer.make_folds(samples, 3, seed=9)
        assert a.folds == b.folds

    def test_too_many_folds(self):
        with pytest.raises(ContractError):
            trainer.make_folds([("s0", "p0"), ("s1", "p0")], 2, seed=0)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_no_patient_straddles_folds(self, seed):
        rng = np.random.default_rng(seed)
        n_patients = int(rng.integers(2, 12))
        samples = []
        for p in range(n_patients):
            for i in range(int(rng.integers(1, 5))):
                samples.append((f"s{p}_{i}", f"p{p}"))
        n_folds = int(rng.integers(2, n_patients + 1))
        plan = trainer.make_folds(samples, n_folds, seed)
        fold_of_sample = {}
        for f, ss in plan.folds.items():
            for s in ss:
                assert s not in fold_of_sample
                fold_of_sample[s] = f
        assert len(fold_of_sample) == len(samples)
        fold_of_patient = {pid: fold_of_sample[sid] for sid, pid in samples}
        for sid, pid in samples:
            assert fold_of_sample[sid] == fold_of_patient[pid]


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = {"w": np.array([1.0, 2.0])}
        state = trainer.init_adam(params)
        trainer.adam_step(params, {"w": np.zeros(2)}, state, lr=1e-4)
        assert state.t == 1
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])

    def test_first_step_magnitude_closed_form(self):
        params = {"w": np.zeros(3)}
        state = trainer.init_adam(params)
        trainer.adam_step(params, {"w": np.ones(3)}, state, lr=1e-4)
        expected = -1e-4 * 1.0 / (1.0 + trainer.ADAM_EPS)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)

    def test_bitwise_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(4)
            params = {"w": rng.normal(size=(3, 3))}
            state = trainer.init_adam(params)
            for _ in range(10):
                trainer.adam_step(params, {"w": rng.normal(size=(3, 3))}, state, lr=1e-3)
            return params["w"]

        assert run().tobytes() == run().tobytes()

    def test_nan_gradient_names_parameter(self):
        params = {"bad/param": np.zeros(2)}
        state = trainer.init_adam(params)
        with pytest.raises(NumericError, match="bad/param"):
            trainer.adam_step(params, {"bad/param": np.array([np.nan, 0.0])}, state, lr=1e-4)


class TestTrainFold:
    def test_two_epoch_determinism_bitwise(self):
        batches, mcfg = desk_setup()
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=30, epochs=2, seed=7, k=4, lam=0.8, n_folds=2,
            kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 7)

        def run():
            return trainer.train_fold(0, plan, batches, mcfg, tcfg)

        a, b = run(), run()
        for name in a.params_final:
            assert a.params_final[name].tobytes() == b.params_final[name].tobytes(), name
        assert a.history[-1]["mean_total"] == b.history[-1]["mean_total"]

    def test_mse_only_training_reduces_validation_mse(self):
        batches, mcfg = desk_setup(n_spots=80)
        tcfg = trainer.TrainConfig(
            lr=3e-3, batch_size=40, epochs=12, seed=1, k=4,
            lam=0.0, multi_ins_weight=0.0, n_folds=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 1)
        last = trainer.train_fold(0, plan, batches, mcfg, tcfg).history[-1]["val_mse"]
        # epoch 0 does not depend on the epoch count: a 1-epoch run scores it
        one_epoch = dataclasses.replace(tcfg, epochs=1)
        first = trainer.train_fold(0, plan, batches, mcfg, one_epoch).history[-1]["val_mse"]
        assert last < first

    def test_test_fold_scored_once_on_final_params(self, monkeypatch):
        batches, mcfg = desk_setup()
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=30, epochs=3, seed=4, k=4, lam=0.8, n_folds=2,
            kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 4)
        calls = []
        evaluate_fold = trainer.evaluate_fold

        def counting(*args):
            calls.append(args)
            return evaluate_fold(*args)

        monkeypatch.setattr(trainer, "evaluate_fold", counting)
        lines: list[str] = []
        result = trainer.train_fold(0, plan, batches, mcfg, tcfg, on_line=lines.append)
        assert len(calls) == 1
        assert result.report.pcc_a == result.history[-1]["val_pcc_a"]
        assert result.report.mse == result.history[-1]["val_mse"]
        test = [b for b in batches if b.sample_id in set(plan.folds[0])]
        final = evaluate_fold(0, result.params_final, mcfg, test)
        assert final.per_gene_pcc.tobytes() == result.report.per_gene_pcc.tobytes()
        epoch_lines = [line for line in lines if line.startswith("epoch=")]
        assert [" val_pcc_a=" in line for line in epoch_lines] == [False, False, True]
        assert ["val_pcc_a" in h for h in result.history] == [False, False, True]

    def test_fold_without_test_samples_has_no_report(self):
        batches, mcfg = desk_setup()
        plan = trainer.FoldPlan(folds={0: [], 1: [b.sample_id for b in batches]})
        tcfg = trainer.TrainConfig(lr=1e-3, batch_size=30, epochs=1, seed=4, k=4, kmeans_n_init=2)
        result = trainer.train_fold(0, plan, batches, mcfg, tcfg)
        assert result.report is None
        assert "val_pcc_a" not in result.history[-1]

    def test_patient_straddle_rejected_at_train_time(self):
        batches, mcfg = desk_setup()
        # deliberately corrupt plan: same patient on both sides
        plan = trainer.FoldPlan(folds={0: [batches[0].sample_id], 1: [batches[1].sample_id]})
        batches[1].patient_id = batches[0].patient_id
        object.__setattr__(batches[1], "patient_id", batches[0].patient_id)
        tcfg = trainer.TrainConfig(epochs=1, batch_size=30, k=4)
        with pytest.raises(ContractError, match="straddle"):
            trainer.train_fold(0, plan, batches, mcfg, tcfg)

    def test_sub_k_batches_reuse_centroids_and_log_it(self):
        batches, mcfg = desk_setup(n_spots=30)
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=10, epochs=1, seed=3, k=20, lam=0.8, n_folds=2,
            kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 3)
        lines: list[str] = []
        trainer.train_fold(0, plan, batches, mcfg, tcfg, on_line=lines.append)
        assert any("cross_skipped" in line for line in lines)

        # one 50-spot training slide cut into 20 + 20 + 10: the 10-spot chunk is
        # below k and scores its cross term against step 1's centroids
        batches, mcfg = desk_setup(n_spots=50)
        tcfg = dataclasses.replace(tcfg, batch_size=20, k=15)
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 3)
        lines = []
        trainer.train_fold(0, plan, batches, mcfg, tcfg, on_line=lines.append)
        reused = lines.index("step=2 epoch=0 event=centroids_reused n=10")
        assert not any("event=" in line for line in lines[:reused])
        assert lines[reused - 1].startswith("step=1 epoch=0 lr=")
        assert lines[reused + 1].startswith("step=2 epoch=0 lr=")
        assert " cross=0.0 " not in lines[reused + 1]

    def test_total_equals_sum_of_logged_parts(self):
        batches, mcfg = desk_setup()
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=30, epochs=1, seed=5, k=4, lam=0.8, n_folds=2,
            kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 5)
        lines: list[str] = []
        trainer.train_fold(0, plan, batches, mcfg, tcfg, on_line=lines.append)
        for line in lines:
            if not line.startswith("step=") or "event=" in line:
                continue
            kv = dict(part.split("=") for part in line.split())
            total = float(kv["multi_ins"]) + 0.8 * float(kv["cross"]) + float(kv["pred"])
            assert total == float(kv["total"])  # exact: log carries full precision

    def test_epoch_refresh_mode_runs(self):
        batches, mcfg = desk_setup(n_spots=40)
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=20, epochs=2, seed=6, k=4, lam=0.8, n_folds=2,
            cluster_refresh="epoch", kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 6)
        result = trainer.train_fold(0, plan, batches, mcfg, tcfg)
        assert len(result.history) == 2

    def test_epoch_refresh_below_k_skips_cross(self):
        batches, mcfg = desk_setup(n_spots=20)
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=10, epochs=2, seed=6, k=25, lam=0.8, n_folds=2,
            cluster_refresh="epoch", kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 6)
        lines: list[str] = []
        result = trainer.train_fold(0, plan, batches, mcfg, tcfg, on_line=lines.append)
        steps = [line for line in lines if line.startswith("step=")]
        skipped = [line for line in steps if "event=cross_skipped reason=no_centroids" in line]
        trained = [line for line in steps if "event=" not in line]
        assert len(skipped) == len(trained) == len(steps) // 2 > 0
        assert all(" cross=0.0 " in line for line in trained)
        assert len(result.history) == 2


def spy_kmeans(monkeypatch):
    """Record each ``grouping.kmeans`` call's ``init`` and the centroids it
    returned; the trainer names the start (``init=None`` when cold) on every call."""
    calls = []
    kmeans = grouping.kmeans

    def spy(e_clu, k, seed, *, n_init, init):
        state = kmeans(e_clu, k, seed, n_init=n_init, init=init)
        calls.append((init, state.centroids))
        return state

    monkeypatch.setattr(grouping, "kmeans", spy)
    return calls


class TestWarmStart:
    def test_batch_refresh_starts_from_previous_step_centroids(self, monkeypatch):
        # one 50-spot training slide per fold cut into 20 + 20 + 10 spots: the
        # 10-spot chunk is below k, so each epoch fits twice per modality
        batches, mcfg = desk_setup(n_spots=50)
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=20, epochs=2, seed=3, k=15, lam=0.8, n_folds=2,
            kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 3)
        calls = spy_kmeans(monkeypatch)
        for fold_id in (0, 1):
            calls.clear()
            lines: list[str] = []
            trainer.train_fold(fold_id, plan, batches, mcfg, tcfg, on_line=lines.append)
            assert "step=2 epoch=0 event=centroids_reused n=10" in lines
            assert len(calls) == 8  # 2 epochs x 2 fits x (image, gene)
            assert calls[0][0] is None and calls[1][0] is None
            for i in range(2, 8):  # the previous fit of the same modality, across the sub-k step
                assert calls[i][0] is calls[i - 2][1], i

    def test_epoch_refresh_starts_from_previous_epoch_centroids(self, monkeypatch):
        # epoch 0 fits cold with kmeans_n_init restarts; each later epoch runs
        # one Lloyd per modality from the previous epoch's centroids
        batches, mcfg = desk_setup(n_spots=40)
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=20, epochs=3, seed=6, k=4, lam=0.8, n_folds=2,
            cluster_refresh="epoch", kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 6)
        fits = []  # (n_init, the start's bytes or None, the fitted centroids' bytes) per fit
        kmeans = grouping.kmeans

        def spy(e_clu, k, seed, *, n_init, init):
            start = None if init is None else init.tobytes()
            state = kmeans(e_clu, k, seed, n_init=n_init, init=init)
            fits.append((n_init, start, state.centroids.tobytes()))
            return state

        monkeypatch.setattr(grouping, "kmeans", spy)
        trainer.train_fold(0, plan, batches, mcfg, tcfg)
        assert len(fits) == 6  # 3 epochs x (image, gene)
        assert [fit[:2] for fit in fits[:2]] == [(2, None), (2, None)]
        for i in range(2, 6):  # the previous epoch's fit of the same modality
            assert fits[i][1] is not None and fits[i][1] == fits[i - 2][2], i


def nearest_unit_groups(rows, centroids):
    """Each row's group: the nearest centroid to the row scaled to unit length."""
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return ((unit[:, None, :] - centroids) ** 2).sum(axis=-1).argmin(axis=1).tolist()


def spy_grouping(monkeypatch):
    """Record each k-means fit (the rows it clustered and its result) and each
    cross-level loss call's arguments; fail on any ``group_project`` call."""
    fits, scored = [], []
    kmeans, cross_level_loss = grouping.kmeans, losses.cross_level_loss

    def fit(e_clu, k, seed, *, n_init, init):
        state = kmeans(e_clu, k, seed, n_init=n_init, init=init)
        fits.append((e_clu, state))
        return state

    def score(i_ins, g_ins, c_gene, c_img, image_assign, gene_assign, tau_ig):
        scored.append(SimpleNamespace(fused=i_ins.data, gene=g_ins.data, c_gene=c_gene, c_img=c_img,
                                      image_targets=image_assign, gene_targets=gene_assign))
        return cross_level_loss(i_ins, g_ins, c_gene, c_img, image_assign, gene_assign, tau_ig)

    def forbidden(*args):
        raise AssertionError("training called group_project")

    monkeypatch.setattr(grouping, "kmeans", fit)
    monkeypatch.setattr(losses, "cross_level_loss", score)
    monkeypatch.setattr(grouping, "group_project", forbidden)
    return fits, scored


class TestCounterpartTargets:
    def test_batch_targets_are_the_counterpart_fit_groups(self, monkeypatch):
        # one 50-spot training slide cut into 20 + 20 + 10: steps 0 and 1 fit
        # their own rows, step 2 is below k and reuses step 1's centroids
        batches, mcfg = desk_setup(n_spots=50)
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=20, epochs=1, seed=3, k=15, lam=0.8, n_folds=2,
            kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 3)
        fits, scored = spy_grouping(monkeypatch)
        trainer.train_fold(0, plan, batches, mcfg, tcfg)
        assert len(fits) == 4 and len(scored) == 3
        for step, call in enumerate(scored):
            (img_rows, img_fit), (gene_rows, gene_fit) = fits[2 * min(step, 1): 2 * min(step, 1) + 2]
            assert call.c_img is img_fit.centroids and call.c_gene is gene_fit.centroids
            if step < 2:  # k-means clustered the scored rows themselves
                assert img_rows.tobytes() == call.fused.tobytes()
                assert gene_rows.tobytes() == call.gene.tobytes()
                assert call.image_targets.tolist() == gene_fit.assignments.tolist()
                assert call.gene_targets.tolist() == img_fit.assignments.tolist()
            assert call.image_targets.tolist() == nearest_unit_groups(call.gene, call.c_gene)
            assert call.gene_targets.tolist() == nearest_unit_groups(call.fused, call.c_img)

    def test_epoch_targets_are_the_counterpart_groups(self, monkeypatch):
        batches, mcfg = desk_setup(n_spots=40)
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=20, epochs=2, seed=6, k=4, lam=0.8, n_folds=2,
            cluster_refresh="epoch", kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 6)
        fits, scored = spy_grouping(monkeypatch)
        trainer.train_fold(0, plan, batches, mcfg, tcfg)
        assert len(fits) == 4 and len(scored) == 4  # 2 epochs x (2 fits, 2 steps)
        for i, call in enumerate(scored):
            epoch = i // 2
            assert call.c_img is fits[2 * epoch][1].centroids
            assert call.c_gene is fits[2 * epoch + 1][1].centroids
            assert call.image_targets.tolist() == nearest_unit_groups(call.gene, call.c_gene)
            assert call.gene_targets.tolist() == nearest_unit_groups(call.fused, call.c_img)

    @pytest.mark.parametrize("name,change", [("gene/enc/b1", np.nan), ("gene/ffn/b2", 1e200)])
    def test_refresh_rows_grouping_cannot_place_raise_numeric_error(self, name, change):
        batches, mcfg = desk_setup(n_spots=40)
        tcfg = trainer.TrainConfig(k=4, cluster_refresh="epoch", kmeans_n_init=2)
        params = model.init_params(mcfg, 0)
        params[name] = params[name] + change  # NaN rows, or finite rows whose squared norm overflows
        with pytest.raises(NumericError, match="^epoch 0 centroid refresh: "):
            trainer._epoch_centroids(params, batches, mcfg, tcfg, seeds=(1, 2))


class TestEpochBank:
    # two 30-spot training slides per fold, batch 20: each epoch runs 4 steps,
    # taken round-robin across the slides, so step order is not slide order
    CFG = dict(lr=1e-3, batch_size=20, epochs=3, seed=6, k=4, lam=0.8, n_folds=2,
               cluster_refresh="epoch", kmeans_n_init=2)

    def fold_setup(self):
        batches, mcfg = desk_setup(n_spots=30, n_slides=4)
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 6)
        train = [b for b in batches if b.sample_id not in set(plan.folds[0])]
        assert len(train) == 2
        return batches, mcfg, plan, train, trainer.TrainConfig(**self.CFG)

    def test_eval_pass_only_at_epoch_0(self, monkeypatch):
        batches, mcfg, plan, train, tcfg = self.fold_setup()
        lines: list[str] = []
        calls = []  # (eval mode, epoch, sample id) of each forward_embeddings call
        forward = model.forward_embeddings

        def spy(p, batch, cfg, rng=None):
            epoch = sum(line.startswith("epoch=") for line in lines)
            calls.append((rng is None, epoch, batch.sample_id))
            return forward(p, batch, cfg, rng)

        monkeypatch.setattr(model, "forward_embeddings", spy)
        trainer.train_fold(0, plan, batches, mcfg, tcfg, on_line=lines.append)
        assert [(e, sid) for is_eval, e, sid in calls if is_eval] == [(0, b.sample_id) for b in train]
        assert [e for is_eval, e, _ in calls if not is_eval] == [0] * 4 + [1] * 4 + [2] * 4

    def test_later_epochs_cluster_the_last_epochs_step_rows(self, monkeypatch):
        batches, mcfg, plan, train, tcfg = self.fold_setup()
        steps = {}  # e -> epoch e - 1's step (fused, gene) rows, in step order
        forward, kmeans = model.forward_embeddings, grouping.kmeans
        fits = []

        def spy_forward(p, batch, cfg, rng=None):
            emb = forward(p, batch, cfg, rng)
            if rng is not None:  # a training step; len(fits) // 2 refreshes have run
                steps.setdefault(len(fits) // 2, []).append((emb.fused.data.copy(), emb.gene.data.copy()))
            return emb

        def spy_kmeans(e_clu, k, seed, *, n_init, init):
            state = kmeans(e_clu, k, seed, n_init=n_init, init=init)
            fits.append((e_clu.copy(), k, seed, n_init, init, state.centroids))
            return state

        monkeypatch.setattr(model, "forward_embeddings", spy_forward)
        monkeypatch.setattr(grouping, "kmeans", spy_kmeans)
        trainer.train_fold(0, plan, batches, mcfg, tcfg)
        assert len(fits) == 6 and sorted(steps) == [1, 2, 3]  # 3 epochs x (image, gene)
        for epoch in (1, 2):
            for modality, salt in enumerate((23, 29)):
                rows, k, seed, n_init, init, _ = fits[2 * epoch + modality]
                want = np.concatenate([pair[modality] for pair in steps[epoch]])
                assert rows.shape == (60, 8) and rows.tobytes() == want.tobytes(), (epoch, modality)
                assert (k, seed, n_init) == (4, trainer._derived_seed(6, 0, epoch, salt), 2)
                assert init is fits[2 * (epoch - 1) + modality][5]  # the last fit's centroids

    def test_bank_keeps_no_tape_alive(self, monkeypatch):
        batches, mcfg, plan, train, tcfg = self.fold_setup()
        assert_bank_keeps_no_tape_alive(monkeypatch, plan, batches, mcfg, tcfg)

    def test_banked_rows_die_at_the_next_refresh(self, monkeypatch):
        # checked as each step starts, so after its epoch's refresh has returned
        batches, mcfg, plan, train, tcfg = self.fold_setup()
        banked = {}  # epoch -> weakrefs to the arrays its steps banked
        train_step = trainer._train_step

        def step(state, sub, model_cfg, cfg, fold_id, epoch, *rest):
            gc.collect()
            alive = [e for e, refs in banked.items() if e < epoch and any(ref() is not None for ref in refs)]
            assert not alive, (epoch, alive)
            breakdown = train_step(state, sub, model_cfg, cfg, fold_id, epoch, *rest)
            banked.setdefault(epoch, []).extend(weakref.ref(x) for x in state.bank[-1])
            return breakdown

        monkeypatch.setattr(trainer, "_train_step", step)
        trainer.train_fold(0, plan, batches, mcfg, tcfg)
        assert sorted(banked) == [0, 1, 2] and all(len(refs) == 8 for refs in banked.values())


def assert_bank_keeps_no_tape_alive(monkeypatch, plan, batches, mcfg, tcfg):
    """Each step's ``Tape`` is dead once ``_train_step`` returns, and the bank
    holds only ndarrays; the fold runs 12 steps."""
    tapes = []
    train_step = trainer._train_step

    class RecordedTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    def step(state, *args):
        breakdown = train_step(state, *args)
        gc.collect()
        assert tapes[-1]() is None
        assert state.bank and all(type(x) is np.ndarray for pair in state.bank for x in pair)
        return breakdown

    monkeypatch.setattr(ad, "Tape", RecordedTape)
    monkeypatch.setattr(trainer, "_train_step", step)
    trainer.train_fold(0, plan, batches, mcfg, tcfg)
    assert len(tapes) == 12


class TestBatchBank:
    def test_bank_is_the_steps_own_rows_and_each_fit_clusters_them(self, monkeypatch):
        # one 50-spot training slide cut into 20 + 20 + 10 for 2 epochs: the
        # 20-spot steps fit their own rows, the 10-spot steps are below k
        batches, mcfg = desk_setup(n_spots=50)
        tcfg = trainer.TrainConfig(lr=1e-3, batch_size=20, epochs=2, seed=3, k=15, lam=0.8,
                                   n_folds=2, kmeans_n_init=2)
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 3)
        forward, kmeans, train_step = model.forward_embeddings, grouping.kmeans, trainer._train_step
        rows, fits, sizes = [], [], []

        def spy_forward(p, batch, cfg, rng=None):
            emb = forward(p, batch, cfg, rng)
            rows.append((emb.fused.data, emb.gene.data))
            return emb

        def spy_kmeans(e_clu, k, seed, *, n_init, init):
            fits.append(e_clu.copy())
            return kmeans(e_clu, k, seed, n_init=n_init, init=init)

        def step(state, sub, *args):
            before = len(fits)
            breakdown = train_step(state, sub, *args)
            fused, gene = rows[-1]
            assert len(state.bank) == 1 and state.bank[0][0] is fused and state.bank[0][1] is gene
            want = [fused.tobytes(), gene.tobytes()] if sub.n_spots >= tcfg.k else []
            assert [x.tobytes() for x in fits[before:]] == want
            sizes.append(sub.n_spots)
            return breakdown

        monkeypatch.setattr(model, "forward_embeddings", spy_forward)
        monkeypatch.setattr(grouping, "kmeans", spy_kmeans)
        monkeypatch.setattr(trainer, "_train_step", step)
        trainer.train_fold(0, plan, batches, mcfg, tcfg)
        assert sizes == [20, 20, 10] * 2 and len(fits) == 8

    def test_bank_keeps_no_tape_alive(self, monkeypatch):
        batches, mcfg, plan, train, tcfg = TestEpochBank().fold_setup()
        tcfg = dataclasses.replace(tcfg, cluster_refresh="batch")
        assert_bank_keeps_no_tape_alive(monkeypatch, plan, batches, mcfg, tcfg)


def inline_schedule(train_batches, cfg, fold_id, epoch):
    """The per-slide shuffle and round-robin loop as ``train_fold`` first ran
    it inline, kept verbatim as the oracle for ``trainer._schedule``."""
    chunk_lists = []
    for si, b in enumerate(train_batches):
        rng = trainer._derived_rng(cfg.seed, fold_id, epoch, si, 11)
        perm = rng.permutation(b.n_spots)
        chunks = [
            (si, perm[i : i + cfg.batch_size])
            for i in range(0, b.n_spots, cfg.batch_size)
        ]
        chunk_lists.append(chunks)
    schedule = []
    for round_i in range(max(len(c) for c in chunk_lists)):
        for chunks in chunk_lists:
            if round_i < len(chunks):
                schedule.append(chunks[round_i])
    return schedule


class TestTrainStep:
    # batch sizes below, equal to and above each slide's spot count
    @pytest.mark.parametrize("sizes", [(7,), (20, 7), (3, 25, 12)])
    @pytest.mark.parametrize("batch_size", [1, 5, 7, 12, 25, 40])
    def test_schedule_matches_inline_loop(self, sizes, batch_size):
        slides = [SimpleNamespace(n_spots=n) for n in sizes]
        cfg = trainer.TrainConfig(batch_size=batch_size, seed=9)
        for fold_id, epoch in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 5)]:
            got = trainer._schedule(slides, cfg, fold_id, epoch)
            want = inline_schedule(slides, cfg, fold_id, epoch)
            assert [si for si, _ in got] == [si for si, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_steps_from_fresh_state_match_train_fold(self):
        # one 50-spot training slide, batch 40: step 1's 10 spots are below k,
        # so it scores against the centroids that step 0 left in the state
        batches, mcfg = desk_setup(n_spots=50)
        tcfg = trainer.TrainConfig(
            lr=1e-3, batch_size=40, epochs=1, seed=3, k=15, lam=0.8, n_folds=2,
            kmeans_n_init=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 3)
        logged: list[str] = []
        result = trainer.train_fold(0, plan, batches, mcfg, tcfg, on_line=logged.append)

        train = [b for b in batches if b.sample_id not in set(plan.folds[0])]
        state = trainer._init_state(train, mcfg, tcfg, 0)
        lr = trainer.lr_schedule(0, tcfg)
        lines: list[str] = []
        for si, chunk in trainer._schedule(train, tcfg, 0, 0):
            step = state.step
            b = trainer._train_step(state, train[si].take(chunk), mcfg, tcfg, 0, 0, lr, lines.append)
            lines.append(f"step={step} epoch=0 lr={lr!r} multi_ins={b.multi_ins!r} "
                         f"cross={b.cross!r} pred={b.pred!r} total={b.total!r}")
        assert state.step == 2
        assert lines == logged[:-1]
        assert "step=1 epoch=0 event=centroids_reused n=10" in lines
        assert result.params_final.keys() == state.params.keys()
        for name, value in result.params_final.items():
            assert value.tobytes() == state.params[name].tobytes(), name


class TestInfer:
    def test_whole_slide_peak_below_half_a_score_tensor(self):
        n, heads = 1500, 4
        mcfg = model.ModelConfig(n_genes=8, d_in=16, d=24, heads=heads, neighbor_blocks=1, d_ff=48)
        rng = np.random.default_rng(0)
        batch = data_io.SpotBatch(
            sample_id="S00", patient_id="P00", local_feat=rng.normal(size=(n, 16)),
            neighbor_feat=rng.normal(size=(n, 25, 16)), expression=rng.random((n, 8)),
            coords=np.stack([np.arange(n), np.zeros(n, int)], axis=1).astype(np.int32),
        )
        params = model.init_params(mcfg, 0)
        tracemalloc.start()
        try:
            trainer.infer(params, mcfg, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full_scores = heads * n * n * 8  # one (1, H, N, N) float64 tensor: 72 MB
        assert peak < full_scores / 2, f"peak {peak / 1e6:.1f} MB"

    def test_deterministic_and_finite(self):
        batches, mcfg = desk_setup()
        params = model.init_params(mcfg, 0)
        a = trainer.infer(params, mcfg, batches[0])
        b = trainer.infer(params, mcfg, batches[0])
        assert a.tobytes() == b.tobytes()
        assert np.all(np.isfinite(a))
        assert a.shape == (batches[0].n_spots, mcfg.n_genes)

    def test_dimension_mismatch_is_load_error(self):
        batches, mcfg = desk_setup()
        wrong = model.ModelConfig(n_genes=mcfg.n_genes + 1, d_in=mcfg.d_in, d=8, heads=2, d_ff=16)
        params = model.init_params(wrong, 0)
        with pytest.raises(DataError):
            trainer.infer(params, wrong, batches[0])

    def test_decoupled_expression_trains_to_zero_correlation(self):
        # rho=0: expression carries no feature information, so a trained
        # model's validation PCC(A) must hover near zero (5-seed median)
        pccs = []
        for seed in range(5):
            spec = data_io.SynthSpec(
                n_spots=80, n_slides=2, latent_dim=4, n_genes=8, d_in=12,
                rho=0.0, sigma=0.1, seed=50 + seed,
            )
            batches = data_io.batches_from_study(data_io.synth_generate(spec))
            mcfg = model.ModelConfig(
                n_genes=8, d_in=12, d=8, heads=2, neighbor_blocks=1, d_ff=16,
                dropout=0.1,
            )
            tcfg = trainer.TrainConfig(
                lr=2e-3, batch_size=40, epochs=8, seed=seed, k=4, lam=0.8,
                n_folds=2, kmeans_n_init=2,
            )
            plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, seed)
            result = trainer.train_fold(0, plan, batches, mcfg, tcfg)
            pccs.append(result.history[-1]["val_pcc_a"])
        assert abs(float(np.median(pccs))) < 0.1, pccs

    def test_trained_model_beats_train_mean_baseline(self):
        batches, mcfg = desk_setup(n_spots=80)
        tcfg = trainer.TrainConfig(
            lr=3e-3, batch_size=40, epochs=15, seed=2, k=4,
            lam=0.0, multi_ins_weight=0.0, n_folds=2,
        )
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 2)
        result = trainer.train_fold(0, plan, batches, mcfg, tcfg)
        test_ids = set(plan.folds[0])
        train = [b for b in batches if b.sample_id not in test_ids]
        test = [b for b in batches if b.sample_id in test_ids]
        baseline = np.concatenate([b.expression for b in train]).mean(axis=0)
        pred = trainer.infer(result.params_final, mcfg, test[0])
        mse_model = float(((pred - test[0].expression) ** 2).mean())
        mse_base = float(((baseline - test[0].expression) ** 2).mean())
        assert mse_model < mse_base
