"""Loss tests against scripted formula oracles and analytic identities."""

import math

import numpy as np
import pytest

from spotalign import autodiff as ad
from spotalign import losses
from spotalign.errors import ContractError, ShapeError
from spotalign.trainer import TrainConfig

from gradcheck import grad_check


def np_log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def scripted_multi_scale(per_scale, gene, tau):
    """Independent evaluation of the bidirectional multi-scale loss."""
    n = gene.shape[0]
    total = 0.0
    for i_s in per_scale:
        raw = (i_s @ i_s.T + gene @ gene.T) / (2.0 * tau)
        raw = raw - raw.max(axis=1, keepdims=True)
        e = np.exp(raw)
        t = e / e.sum(axis=1, keepdims=True)
        z = i_s @ gene.T
        term = (t * np_log_softmax(z)).sum() + (t.T * np_log_softmax(z.T)).sum()
        total += -term / n
    return total / 3.0


class TestInternalTarget:
    def test_equal_rows_uniform(self):
        x = np.tile([1.0, 2.0, 3.0], (4, 1))
        t = losses.internal_target(x, x, tau=0.07)
        np.testing.assert_allclose(t, np.full((4, 4), 0.25), atol=1e-12)

    def test_identity_similarity_scalar_oracle(self):
        # two orthonormal rows: both within-modality similarity matrices are
        # the identity, so each target row is softmax([2/(2 tau), 0])
        x = np.eye(2)
        t1 = losses.internal_target(x, x, tau=1.0)
        e = math.exp(1.0)
        np.testing.assert_allclose(t1[0], [e / (e + 1), 1 / (e + 1)], rtol=1e-12)
        np.testing.assert_allclose(t1[0], [0.73106, 0.26894], atol=5e-6)

        t_half = losses.internal_target(x, x, tau=0.5)
        e2 = math.exp(2.0)
        np.testing.assert_allclose(t_half[0], [e2 / (e2 + 1), 1 / (e2 + 1)], rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        t = losses.internal_target(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), 0.07)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_symmetric_in_modalities(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        np.testing.assert_allclose(
            losses.internal_target(a, b, 0.1), losses.internal_target(b, a, 0.1), atol=1e-14
        )


class TestMultiScaleInstanceLoss:
    def test_uniform_case_equals_2_ln_n(self):
        n = 2
        zero = [ad.constant(np.zeros((n, 4))) for _ in range(3)]
        gene = ad.constant(np.zeros((n, 4)))
        loss, per_scale = losses.multi_scale_instance_loss(zero, gene, tau=0.07)
        assert loss.item() == pytest.approx(2.0 * math.log(n), abs=1e-10)
        for s in per_scale:
            assert s == pytest.approx(2.0 * math.log(n), abs=1e-10)

    def test_perfect_alignment_loss_vanishes(self):
        tau = 0.07
        margin = 20.0 / tau
        aligned = math.sqrt(margin) * np.eye(4)
        scales = [ad.constant(aligned) for _ in range(3)]
        loss, _ = losses.multi_scale_instance_loss(scales, ad.constant(aligned), tau)
        assert loss.item() < 1e-6

    def test_matches_scripted_formula_oracle(self):
        rng = np.random.default_rng(3)
        per_scale = [rng.normal(size=(4, 8)) for _ in range(3)]
        gene = rng.normal(size=(4, 8))
        loss, _ = losses.multi_scale_instance_loss(
            [ad.constant(s) for s in per_scale], ad.constant(gene), tau=0.07
        )
        assert loss.item() == pytest.approx(scripted_multi_scale(per_scale, gene, 0.07), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        per_scale = [rng.normal(size=(5, 6)) for _ in range(3)]
        gene = rng.normal(size=(5, 6))
        perm = rng.permutation(5)
        a, _ = losses.multi_scale_instance_loss(
            [ad.constant(s) for s in per_scale], ad.constant(gene), 0.07
        )
        b, _ = losses.multi_scale_instance_loss(
            [ad.constant(s[perm]) for s in per_scale], ad.constant(gene[perm]), 0.07
        )
        assert a.item() == pytest.approx(b.item(), abs=1e-10)

    def test_logit_shift_invariance_via_augmented_column(self):
        # appending constant columns to both modalities shifts every logit by
        # a constant and leaves the loss unchanged
        rng = np.random.default_rng(5)
        per_scale = [rng.normal(size=(4, 6)) for _ in range(3)]
        gene = rng.normal(size=(4, 6))
        c = 3.7
        aug = lambda m, v: np.concatenate([m, np.full((4, 1), v)], axis=1)
        base, _ = losses.multi_scale_instance_loss(
            [ad.constant(s) for s in per_scale], ad.constant(gene), 0.07
        )
        shifted, _ = losses.multi_scale_instance_loss(
            [ad.constant(aug(s, 1.0)) for s in per_scale], ad.constant(aug(gene, c)), 0.07
        )
        assert base.item() == pytest.approx(shifted.item(), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        # targets held constant at their unperturbed values (stop-gradient
        # semantics), so the finite-difference oracle measures the same
        # function the analytic gradient differentiates
        rng = np.random.default_rng(6)
        fixed = [rng.normal(size=(3, 4)) for _ in range(3)]
        gene = rng.normal(size=(3, 4))
        frozen = [losses.internal_target(s, gene, 0.07) for s in fixed]

        def f(x):
            scales = [x, ad.constant(fixed[1]), ad.constant(fixed[2])]
            loss, _ = losses.multi_scale_instance_loss(
                scales, ad.constant(gene), 0.07, targets=frozen
            )
            return loss

        assert grad_check(f, fixed[0]) <= 1e-4

        def f_gene(x):
            loss, _ = losses.multi_scale_instance_loss(
                [ad.constant(s) for s in fixed], x, 0.07, targets=frozen
            )
            return loss

        assert grad_check(f_gene, gene) <= 1e-4


class TestCrossLevelLoss:
    def test_hand_scalar_case(self):
        # logits [10, -10] after scaling in each direction; per-direction
        # cross-entropy is ln(1 + e^-20)
        tau = 0.07
        i_ins = ad.constant([[10.0 * tau, -10.0 * tau]])
        g_ins = ad.constant([[10.0 * tau, -10.0 * tau]])
        centroids = np.eye(2)
        loss = losses.cross_level_loss(
            i_ins, g_ins, centroids, centroids,
            np.array([0]), np.array([0]), tau,
        )
        per_direction = math.log1p(math.exp(-20.0))
        assert per_direction == pytest.approx(2.0611536181902037e-09, rel=1e-6)
        assert loss.item() == pytest.approx(2.0 * per_direction, rel=1e-9)

    def test_uniform_logits_equal_2_ln_k(self):
        k = 25
        i_ins = ad.constant(np.zeros((3, 4)))
        g_ins = ad.constant(np.zeros((3, 4)))
        centroids = np.random.default_rng(0).normal(size=(k, 4))
        loss = losses.cross_level_loss(
            i_ins, g_ins, centroids, centroids,
            np.zeros(3, dtype=int), np.zeros(3, dtype=int), 0.07,
        )
        assert loss.item() == pytest.approx(2.0 * math.log(k), abs=1e-10)

    def test_hard_mode_vanishes_at_large_margin(self):
        tau = 0.07
        margin = 20.0 / tau
        i_ins = ad.constant(math.sqrt(margin) * np.eye(3))
        g_ins = ad.constant(math.sqrt(margin) * np.eye(3))
        centroids = math.sqrt(margin) * np.eye(3)
        loss = losses.cross_level_loss(
            i_ins, g_ins, centroids, centroids,
            np.arange(3), np.arange(3), tau,
        )
        assert loss.item() < 1e-6

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ContractError, match="out of range"):
            losses.cross_level_loss(
                ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))),
                np.ones((2, 3)), np.ones((2, 3)),
                np.array([0, 2]), np.array([0, 1]), 0.07,
            )

    def test_shift_invariance_via_augmented_column(self):
        rng = np.random.default_rng(8)
        i_ins = rng.normal(size=(4, 5))
        g_ins = rng.normal(size=(4, 5))
        c_gene = rng.normal(size=(3, 5))
        c_img = rng.normal(size=(3, 5))
        ia, ga = np.array([0, 1, 2, 0]), np.array([1, 0, 2, 2])
        aug_rows = lambda m, v: np.concatenate([m, np.full((m.shape[0], 1), v)], axis=1)
        base = losses.cross_level_loss(
            ad.constant(i_ins), ad.constant(g_ins), c_gene, c_img, ia, ga, 0.07
        )
        shifted = losses.cross_level_loss(
            ad.constant(aug_rows(i_ins, 1.0)), ad.constant(aug_rows(g_ins, 1.0)),
            aug_rows(c_gene, 0.7), aug_rows(c_img, 0.7), ia, ga, 0.07,
        )
        assert base.item() == pytest.approx(shifted.item(), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        # embeddings scaled by tau so the temperature-divided logits stay
        # O(1); at exponential saturation the finite-difference oracle's own
        # roundoff floor (~1e-15 / 2h) swamps the tiny true gradients
        tau = 0.07
        rng = np.random.default_rng(9)
        g_ins = tau * rng.normal(size=(3, 4))
        c_gene = rng.normal(size=(2, 4))
        c_img = rng.normal(size=(2, 4))
        ia, ga = np.array([0, 1, 0]), np.array([1, 1, 0])
        x0 = tau * rng.normal(size=(3, 4))

        def f_hard(x):
            return losses.cross_level_loss(
                x, ad.constant(g_ins), c_gene, c_img, ia, ga, tau
            )

        assert grad_check(f_hard, x0) <= 1e-4


class TestPredictionLoss:
    def test_identity_zero(self):
        y = np.random.default_rng(10).normal(size=(3, 5))
        assert losses.prediction_loss(ad.constant(y), y).item() == 0.0

    def test_hand_single_spot(self):
        pred = ad.constant([[2.0, 3.0]])
        target = np.array([[1.0, 2.0]])
        assert losses.prediction_loss(pred, target).item() == pytest.approx(2.0)

    def test_hand_two_spots(self):
        pred = ad.constant([[1.0, 0.0], [0.0, 1.0]])
        target = np.zeros((2, 2))
        assert losses.prediction_loss(pred, target).item() == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.prediction_loss(ad.constant(np.ones((2, 3))), np.ones((2, 4)))

    def test_gradient(self):
        rng = np.random.default_rng(11)
        target = rng.normal(size=(4, 3))
        err = grad_check(lambda x: losses.prediction_loss(x, target), rng.normal(size=(4, 3)))
        assert err <= 1e-6


class TestTotalLoss:
    def _parts(self, m, c, p):
        return ad.constant(np.array(m)), ad.constant(np.array(c)), ad.constant(np.array(p))

    def test_lambda_zero_drops_cross(self):
        total, bd = losses.total_loss(*self._parts(0.5, 0.2, 0.3), lam=0.0)
        assert bd.total == pytest.approx(0.8)

    def test_lambda_one_plain_sum(self):
        total, bd = losses.total_loss(*self._parts(0.5, 0.2, 0.3), lam=1.0)
        assert bd.total == pytest.approx(1.0)

    def test_hand_weighted_case(self):
        total, bd = losses.total_loss(*self._parts(0.5, 0.2, 0.3), lam=0.8)
        assert bd.total == pytest.approx(0.96)

    def test_breakdown_composition_exact(self):
        rng = np.random.default_rng(12)
        m, c, p = (float(v) for v in rng.random(3))
        total, bd = losses.total_loss(*self._parts(m, c, p), lam=0.8)
        assert bd.total == bd.multi_ins + 0.8 * bd.cross + bd.pred
        assert total.item() == bd.total

    def test_temperatures_validation(self):
        with pytest.raises(ContractError):
            TrainConfig(tau=0.0)
        with pytest.raises(ContractError):
            TrainConfig(lam=-0.1)
