"""Tests for the reverse-mode tensor core.

Expected values come from independent oracles: hand arithmetic, scalar
re-evaluation with math.exp, and the central finite-difference checker.
"""

import gc
import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotalign import autodiff as ad
from spotalign.errors import ContractError, ShapeError


def finite_matrices(rows=3, cols=4):
    return st.lists(
        st.lists(st.floats(-50, 50), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda m: np.array(m, dtype=np.float64))


class TestMatmul:
    def test_identity_passthrough(self):
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant(m))
        np.testing.assert_array_equal(out.data, m)

    def test_hand_product(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_dimension_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        b = ad.constant(rng.normal(size=(4, 3)))
        err = ad.grad_check(lambda a: ad.tsum(ad.matmul(a, b)), rng.normal(size=(2, 4)))
        assert err <= 1e-6

    def test_batched_gradient(self):
        rng = np.random.default_rng(8)
        x = ad.constant(rng.normal(size=(5, 6, 4)))
        err = ad.grad_check(lambda w: ad.tsum(ad.matmul(x, w)), rng.normal(size=(4, 3)))
        assert err <= 1e-6


class TestSoftmax:
    def test_uniform_row(self):
        out = ad.softmax_rows(ad.constant([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_scalar_oracle(self):
        # independent scalar evaluation of the softmax definition
        e1, e0 = math.exp(1.0), math.exp(0.0)
        expected = [e1 / (e1 + e0), e0 / (e1 + e0)]
        out = ad.softmax_rows(ad.constant([[1.0, 0.0]]))
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-14)
        np.testing.assert_allclose(out.data[0], [0.73106, 0.26894], atol=5e-6)

    def test_large_logits_do_not_overflow(self):
        out = ad.softmax_rows(ad.constant([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-300)

    @given(finite_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, m):
        out = ad.softmax_rows(ad.constant(m))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    @given(finite_matrices(), st.lists(st.floats(-30, 30), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, m, shifts):
        c = np.array(shifts)[:, None]
        base = ad.softmax_rows(ad.constant(m)).data
        shifted = ad.softmax_rows(ad.constant(m + c)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_nan_propagates(self):
        out = ad.softmax_rows(ad.constant([[np.nan, 0.0]]))
        assert np.isnan(out.data).any()


class TestElementwiseOps:
    def test_gelu_zero_fixed_point(self):
        assert ad.gelu(ad.constant([0.0])).data[0] == 0.0

    def test_gelu_gradient(self):
        rng = np.random.default_rng(3)
        err = ad.grad_check(lambda x: ad.tsum(ad.gelu(x)), rng.normal(size=(4, 4)))
        assert err <= 1e-6

    def test_dropout_rate_zero_is_identity(self):
        x = ad.constant(np.arange(6.0).reshape(2, 3))
        out = ad.dropout(x, 0.0, np.random.default_rng(0), training=True)
        assert out is x

    def test_dropout_eval_mode_is_exact_identity(self):
        x = ad.constant(np.arange(6.0).reshape(2, 3))
        out = ad.dropout(x, 0.5, None, training=False)
        assert out is x

    def test_dropout_scales_survivors(self):
        x = ad.constant(np.ones((200, 50)))
        out = ad.dropout(x, 0.25, np.random.default_rng(5), training=True)
        surviving = out.data[out.data != 0]
        np.testing.assert_allclose(surviving, 1.0 / 0.75)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ContractError):
            ad.dropout(ad.constant([1.0]), 1.0, np.random.default_rng(0))

    def test_l2_normalize_hand_case(self):
        out = ad.l2_normalize_rows(ad.constant([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], rtol=1e-15)

    def test_l2_normalize_zero_row_errors_by_default(self):
        with pytest.raises(ContractError, match="zero row"):
            ad.l2_normalize_rows(ad.constant([[0.0, 0.0], [1.0, 0.0]]))

    def test_concat_roundtrip_gradient(self):
        rng = np.random.default_rng(11)
        b = ad.constant(rng.normal(size=(3, 2)))

        def f(x):
            joined = ad.concat([x, b], axis=-1)
            return ad.tsum(ad.mul(joined, joined))

        assert ad.grad_check(f, rng.normal(size=(3, 4))) <= 1e-6

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(13)
        g = ad.constant(rng.normal(size=(5,)))
        b = ad.constant(rng.normal(size=(5,)))
        err = ad.grad_check(
            lambda x: ad.tsum(ad.gelu(ad.layer_norm(x, g, b))), rng.normal(size=(3, 5))
        )
        assert err <= 1e-4


class TestBackward:
    def test_linear_case(self):
        tape = ad.Tape()
        w = tape.leaf([1.0, 5.0, -2.0])
        grads = tape.backward(ad.tsum(w))
        np.testing.assert_array_equal(grads[w.node_id], [1.0, 1.0, 1.0])

    def test_hand_differentiated_square(self):
        tape = ad.Tape()
        w = tape.leaf([1.0, 2.0])
        grads = tape.backward(ad.tsum(ad.mul(w, w)))
        np.testing.assert_array_equal(grads[w.node_id], [2.0, 4.0])

    def test_unreachable_leaf_gets_zero(self):
        tape = ad.Tape()
        w = tape.leaf([1.0, 2.0])
        unused = tape.leaf([[3.0]])
        grads = tape.backward(ad.tsum(w))
        np.testing.assert_array_equal(grads[unused.node_id], [[0.0]])

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        w = tape.leaf([1.0, 2.0])
        with pytest.raises(ContractError, match="scalar"):
            tape.backward(ad.mul(w, w))

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ContractError, match="tape"):
            ad.add(t1.leaf([1.0]), t2.leaf([2.0]))

    def test_reused_node_accumulates(self):
        tape = ad.Tape()
        w = tape.leaf([3.0])
        y = ad.add(ad.mul(w, w), w)  # y = w^2 + w, dy/dw = 2w + 1
        grads = tape.backward(ad.tsum(y))
        np.testing.assert_allclose(grads[w.node_id], [7.0])

    def test_identical_seeds_reproduce_tapes_and_gradients_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            tape = ad.Tape()
            w = tape.leaf(rng.normal(size=(4, 3)))
            x = ad.constant(rng.normal(size=(2, 4)))
            h = ad.gelu(ad.matmul(x, w))
            h = ad.dropout(h, 0.3, np.random.default_rng(7), training=True)
            loss = ad.tmean(ad.mul(h, h))
            return tape, tape.backward(loss)[w.node_id]

        (tape_a, grad_a), (tape_b, grad_b) = run(), run()
        assert grad_a.tobytes() == grad_b.tobytes()
        assert len(tape_a) == len(tape_b)
        assert tape_a._parents == tape_b._parents

    def test_distinct_tapes_run_concurrently(self):
        def gradient(seed):
            rng = np.random.default_rng(seed)
            tape = ad.Tape()
            w = tape.leaf(rng.normal(size=(8, 8)))
            loss = ad.tsum(ad.gelu(ad.matmul(w, w)))
            return tape.backward(loss)[w.node_id]

        threaded = {}

        def work(seed):
            threaded[seed] = gradient(seed)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for seed in range(4):
            assert threaded[seed].tobytes() == gradient(seed).tobytes()


class TestSweep:
    """A tape is swept once and freed by reference counting alone."""

    @staticmethod
    def _step():
        rng = np.random.default_rng(0)
        tape = ad.Tape()
        w = tape.leaf(rng.normal(size=(4, 3)))
        b = tape.leaf(rng.normal(size=(3,)))
        x = ad.constant(rng.normal(size=(5, 4)))
        loss = ad.tsum(ad.softmax_rows(ad.gelu(ad.linear(x, w, b)) * 0.5))
        return tape, w, loss

    def test_swept_tape_is_freed_with_the_cycle_collector_off(self):
        gc.disable()
        try:
            tape, w, loss = self._step()
            after = ad.mul(w, 2.0)  # recorded past the loss, so never reached
            tape.backward(loss)
            ref = weakref.ref(tape)
            del tape, w, loss, after
            assert ref() is None
        finally:
            gc.enable()

    def test_second_backward_raises(self):
        tape, _, loss = self._step()
        tape.backward(loss)
        with pytest.raises(ContractError, match="already swept"):
            tape.backward(loss)

    def test_len_is_kept_after_backward(self):
        tape, _, loss = self._step()
        before = len(tape)
        tape.backward(loss)
        assert len(tape) == before > 0

    def test_leaves_with_one_upstream_gradient_get_separate_arrays(self):
        tape = ad.Tape()
        w1, w2 = tape.leaf([1.0, 2.0]), tape.leaf([3.0, 4.0])
        grads = tape.backward(ad.tsum(w1 + w2))
        g1, g2 = grads[w1.node_id], grads[w2.node_id]
        g1[0] = 99.0
        np.testing.assert_array_equal(g2, [1.0, 1.0])


class TestLinear:
    SHAPES = [((5, 4), (4, 3)), ((2, 5, 4), (4, 3))]

    @staticmethod
    def _grads(shape_x, shape_w, fused):
        rng = np.random.default_rng(len(shape_x))
        tape = ad.Tape()
        x = tape.leaf(rng.normal(size=shape_x))
        w = tape.leaf(rng.normal(size=shape_w))
        b = tape.leaf(rng.normal(size=shape_w[-1:]))
        y = ad.linear(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
        weights = ad.constant(rng.normal(size=y.shape))
        grads = tape.backward(ad.tsum(ad.mul(ad.gelu(y), weights)))
        return [y.data] + [grads[t.node_id] for t in (x, w, b)]

    @pytest.mark.parametrize("shape_x,shape_w", SHAPES)
    def test_matches_matmul_plus_add_bytewise(self, shape_x, shape_w):
        fused = self._grads(shape_x, shape_w, fused=True)
        composite = self._grads(shape_x, shape_w, fused=False)
        for got, want in zip(fused, composite):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape_x,shape_w", SHAPES)
    def test_gradients_pass_grad_check(self, shape_x, shape_w):
        rng = np.random.default_rng(3)
        x = rng.normal(size=shape_x)
        w = rng.normal(size=shape_w)
        b = rng.normal(size=shape_w[-1:])
        for i in range(3):
            def f(t, i=i):
                args = [ad.constant(x), ad.constant(w), ad.constant(b)]
                args[i] = t
                return ad.tsum(ad.gelu(ad.linear(*args)))

            assert ad.grad_check(f, (x, w, b)[i]) <= 1e-6


class TestGradCheck:
    def test_linear_exactness(self):
        err = ad.grad_check(ad.tsum, np.array([[1.0, -2.0], [0.5, 4.0]]))
        assert err <= 1e-10

    def test_reports_deliberate_mismatch(self):
        # a function whose analytic gradient is wrong on purpose: treat the
        # input as a constant inside, so analytic grad is zero
        def broken(x):
            return ad.tsum(ad.mul(ad.constant(x.data), ad.constant(x.data))) + ad.tsum(x) * 0.0

        err = ad.grad_check(broken, np.array([1.0, 2.0]))
        assert err > 0.5

    def test_composite_ops_pass(self):
        rng = np.random.default_rng(17)
        w = ad.constant(rng.normal(size=(4, 5)))
        t = ad.constant(rng.normal(size=(3, 5)))

        def f(x):
            return ad.tmean(ad.mul(ad.log_softmax_rows(ad.matmul(x, w)), t))

        assert ad.grad_check(f, rng.normal(size=(3, 4))) <= 1e-6
