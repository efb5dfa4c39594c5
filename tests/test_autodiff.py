"""Tests for the reverse-mode tensor core.

Expected values come from independent oracles: hand arithmetic, scalar
re-evaluation with math.exp, the central finite-difference checker, and the
composites that the fused primitives replaced.
"""

import gc
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotalign import autodiff as ad
from spotalign.errors import ContractError, ShapeError

from gradcheck import grad_check


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
        err = grad_check(lambda a: ad.tsum(ad.matmul(a, b)), rng.normal(size=(2, 4)))
        assert err <= 1e-6

    def test_batched_gradient(self):
        rng = np.random.default_rng(8)
        x = ad.constant(rng.normal(size=(5, 6, 4)))
        err = grad_check(lambda w: ad.tsum(ad.matmul(x, w)), rng.normal(size=(4, 3)))
        assert err <= 1e-6


class TestSoftmax:
    def test_uniform_row(self):
        out = ad.softmax_rows(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_scalar_oracle(self):
        # independent scalar evaluation of the softmax definition
        e1, e0 = math.exp(1.0), math.exp(0.0)
        expected = [e1 / (e1 + e0), e0 / (e1 + e0)]
        out = ad.softmax_rows(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out[0], expected, rtol=1e-14)
        np.testing.assert_allclose(out[0], [0.73106, 0.26894], atol=5e-6)

    def test_large_logits_do_not_overflow(self):
        out = ad.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)

    @given(finite_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, m):
        out = ad.softmax_rows(m.copy())
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    @given(finite_matrices(), st.lists(st.floats(-30, 30), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, m, shifts):
        c = np.array(shifts)[:, None]
        base = ad.softmax_rows(m.copy())
        shifted = ad.softmax_rows(m + c)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_nan_propagates(self):
        out = ad.softmax_rows(np.array([[np.nan, 0.0]]))
        assert np.isnan(out).any()

    def test_works_in_place(self):
        a = np.array([[1.0, 2.0], [3.0, 3.0]])
        out = ad.softmax_rows(a)
        assert out is a
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-15)


class TestElementwiseOps:
    def test_gelu_zero_fixed_point(self):
        assert ad.gelu(ad.constant([0.0])).data[0] == 0.0

    def test_gelu_gradient(self):
        rng = np.random.default_rng(3)
        err = grad_check(lambda x: ad.tsum(ad.gelu(x)), rng.normal(size=(4, 4)))
        assert err <= 1e-6

    def test_dropout_rate_zero_is_identity(self):
        x = ad.constant(np.arange(6.0).reshape(2, 3))
        out = ad.dropout(x, 0.0, np.random.default_rng(0))
        assert out is x

    def test_dropout_eval_mode_is_exact_identity(self):
        x = ad.constant(np.arange(6.0).reshape(2, 3))
        out = ad.dropout(x, 0.5, None)
        assert out is x

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_dropout_draws_exactly_when_it_drops(self, rate):
        rng, oracle = np.random.default_rng(9), np.random.default_rng(9)
        ad.dropout(ad.constant(np.ones((3, 4))), rate, rng)
        if rate > 0:
            oracle.random((3, 4))
        assert rng.random() == oracle.random()

    def test_dropout_scales_survivors(self):
        x = ad.constant(np.ones((200, 50)))
        out = ad.dropout(x, 0.25, np.random.default_rng(5))
        surviving = out.data[out.data != 0]
        np.testing.assert_allclose(surviving, 1.0 / 0.75)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ContractError):
            ad.dropout(ad.constant([1.0]), 1.0, np.random.default_rng(0))

    def test_concat_roundtrip_gradient(self):
        rng = np.random.default_rng(11)
        b = ad.constant(rng.normal(size=(3, 2)))

        def f(x):
            joined = ad.concat([x, b], axis=-1)
            return ad.tsum(ad.mul(joined, joined))

        assert grad_check(f, rng.normal(size=(3, 4))) <= 1e-6

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(13)
        for shape in ((3, 5), (2, 3, 5)):
            args = (rng.normal(size=shape), rng.normal(size=(5,)), rng.normal(size=(5,)))
            for i in range(3):  # input, gain, bias
                def f(t, i=i):
                    operands = [ad.constant(a) for a in args]
                    operands[i] = t
                    return ad.tsum(ad.gelu(ad.layer_norm(*operands)))

                assert grad_check(f, args[i]) <= 1e-4, (shape, i)


# ---------------------------------------------------------------------------
# references: the composites that the fused primitives replaced, kept verbatim
# with the exp, log, pow_const, permute and taped softmax primitives they were
# built from


def ref_log(a):
    a = ad.as_tensor(a)
    return ad._make((a,), np.log(a.data), lambda g: (g / a.data,))


def ref_exp(a):
    a = ad.as_tensor(a)
    data = np.exp(a.data)
    return ad._make((a,), data, lambda g: (g * data,))


def ref_pow_const(a, exponent: float):
    a = ad.as_tensor(a)
    data = a.data ** exponent
    return ad._make((a,), data, lambda g: (g * exponent * a.data ** (exponent - 1.0),))


def ref_log_softmax_rows(a):
    a = ad.as_tensor(a)
    shifted = a - ad.constant(a.data.max(axis=-1, keepdims=True))
    # adding (-1) * log forms the row sum of g as -sum(g), as ad.cross_entropy
    # does; sum(-g) gives zeros of the other sign where a target row is all zero
    return shifted + ref_log(ad.tsum(ref_exp(shifted), axis=-1, keepdims=True)) * -1.0


def ref_layer_norm(a, gain, bias, eps: float = 1e-5):
    a = ad.as_tensor(a)
    mu = ad.tmean(a, axis=-1, keepdims=True)
    centered = ad.sub(a, mu)
    var = ad.tmean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ref_pow_const(var + eps, -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), ad.as_tensor(gain)), ad.as_tensor(bias))


def ref_gelu(a):
    """GELU as whole-array expressions, as ad.gelu computed it before it
    worked in place."""
    a = ad.as_tensor(a)
    x = a.data
    t = np.tanh(ad.GELU_COEF * (x + ad.GELU_CUBIC * x * x * x))

    def backward(g):
        dinner = ad.GELU_COEF * (1.0 + 3.0 * ad.GELU_CUBIC * x ** 2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * dinner),)

    return ad._make((a,), 0.5 * x * (1.0 + t), backward)


def ref_permute(a, axes):
    a = ad.as_tensor(a)
    inverse = tuple(int(i) for i in np.argsort(axes))
    return ad._make((a,), a.data.transpose(axes), lambda g: (g.transpose(inverse),))


def ref_softmax_rows(a):
    a = ad.as_tensor(a)
    data = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

    return ad._make((a,), data, backward)


def ref_attention(q, k, v, heads):
    """The composite that model.attention_block recorded before ad.attention."""
    b, t, d = q.shape
    dh = d // heads

    def split(z):
        return ref_permute(ad.reshape(z, (b, t, heads, dh)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)  # (B, H, T, dh)
    scores = ad.matmul(q, ad.transpose(k)) * (1.0 / math.sqrt(dh))
    weights = ref_softmax_rows(scores)  # (B, H, T, T)
    context = ad.matmul(weights, v)  # (B, H, T, dh)
    return ad.reshape(ref_permute(context, (0, 2, 1, 3)), (b, t, d))


def ref_token(x, s):
    """Token ``s`` of an (N, 3, d) tensor by one-hot mask and sum."""
    selector = np.zeros((1, 3, 1))
    selector[0, s, 0] = 1.0
    return ad.tsum(ad.mul(x, ad.constant(selector)), axis=1)


def output_and_grads(op, *arrays):
    """op's output and the gradients of <op(leaves), w> for fixed random w."""
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    y = op(*leaves)
    w = np.random.default_rng(99).normal(size=y.shape)
    grads = tape.backward(ad.tsum(ad.mul(y, ad.constant(w))))
    return [y.data] + [grads[t.node_id] for t in leaves]


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def untaped_attention_peak(q, k, v, heads):
    """An untaped attention's output and the peak bytes it allocated."""
    q, k, v = ad.constant(q), ad.constant(k), ad.constant(v)
    tracemalloc.start()
    try:
        out = ad.attention(q, k, v, heads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out.data, peak


class TestFusedPrimitives:
    """Each fused primitive against the composite it replaced."""

    # batch-sized shapes: at (7, 5) a row sum over the wrong layout still gave the same bits
    @pytest.mark.parametrize("shape", [(200, 200), (200, 25)])
    @pytest.mark.parametrize("soft", [False, True], ids=["one_hot", "soft"])
    @pytest.mark.parametrize("view", [lambda t: t, ad.transpose], ids=["rows", "transposed"])
    def test_cross_entropy_matches_composite_bytewise(self, shape, soft, view):
        rng = np.random.default_rng(shape[1] + soft)
        x = rng.normal(size=shape) * 4.0
        t = view(ad.constant(self._targets(rng, shape, soft))).data
        got = output_and_grads(lambda z: ad.cross_entropy(view(z), t), x)
        want = output_and_grads(
            lambda z: ad.tsum(ad.mul(ad.constant(-t), ref_log_softmax_rows(view(z)))), x
        )
        for g, w in zip(got, want):  # the output, then the input gradient
            assert_same_bytes(g, w)

    @staticmethod
    def _targets(rng, shape, soft):
        if soft:
            t = rng.random(shape)
            return t / t.sum(axis=-1, keepdims=True)
        return np.eye(shape[1])[rng.integers(0, shape[1], size=shape[0])]

    def test_cross_entropy_passes_grad_check(self):
        rng = np.random.default_rng(5)
        t = self._targets(rng, (6, 4), soft=True)
        assert grad_check(lambda z: ad.cross_entropy(z, t), rng.normal(size=(6, 4))) <= 1e-6
        assert grad_check(lambda z: ad.cross_entropy(ad.transpose(z), t.T),
                             rng.normal(size=(6, 4))) <= 1e-6

    @pytest.mark.parametrize("shape,view", [
        ((7, 96), lambda t: t),
        ((5, 25, 48), lambda t: t),  # the neighbor encoder's FFN at d_ff=48
        ((33, 20), ad.transpose),
    ])
    def test_gelu_matches_composite_bytewise(self, shape, view):
        x = np.random.default_rng(len(shape)).normal(size=shape) * 3.0
        got = output_and_grads(lambda t: ad.gelu(view(t)), x)
        want = output_and_grads(lambda t: ref_gelu(view(t)), x)
        for g, w in zip(got, want):  # the output, then the input gradient
            assert_same_bytes(g, w)
        untaped = ad.gelu(view(ad.constant(x)))
        assert_same_bytes(untaped.data, want[0])

    @pytest.mark.parametrize("token", range(3))
    def test_take_matches_mask_sum_bytewise(self, token):
        x = np.random.default_rng(token).normal(size=(4, 3, 5))
        got = output_and_grads(lambda t: ad.take(t, token, axis=1), x)
        want = output_and_grads(lambda t: ref_token(t, token), x)
        assert_same_bytes(got[0], want[0])
        assert_same_bytes(got[1][:, token], want[1][:, token])
        # off the token the mask leaves g * 0.0, whose sign follows g
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("shape", [(4, 6), (2, 3, 6)])
    def test_layer_norm_matches_composite(self, shape):
        rng = np.random.default_rng(len(shape))
        args = (rng.normal(size=shape) * 3.0 + 1.0, rng.normal(size=(6,)), rng.normal(size=(6,)))
        got = output_and_grads(ad.layer_norm, *args)
        want = output_and_grads(ref_layer_norm, *args)
        y, dx, dgain, dbias = got
        ref_y, ref_dx, ref_dgain, ref_dbias = want
        for g, w in ((y, ref_y), (dgain, ref_dgain), (dbias, ref_dbias)):
            assert_same_bytes(g, w)
        # only dx has a new formula, which rounds differently
        assert dx.shape == ref_dx.shape
        assert np.abs(dx - ref_dx).max() <= 1e-12 * np.abs(ref_dx).max()

    # (B, T, d, heads): the neighbor, global and fusion blocks at the acceptance
    # config (batch 200, d=24, a 400-spot slide); neighbor blocks at the default
    # batch of 256 (2 batch blocks) and at 1000 spots (5); the largest slide whose
    # head is one block; then small and T = 1 cases.  A (1, 400) head is 2 query-row
    # slices, so its match with a whole-head product depends on the BLAS, not on
    # construction: it held with numpy's bundled OpenBLAS 0.3.31 (Haswell kernels).
    ATTENTION_SHAPES = [(200, 25, 24, 4), (1, 400, 24, 4), (200, 3, 24, 4), (256, 25, 24, 4),
                        (1000, 25, 24, 4), (1, 362, 24, 4), (5, 7, 8, 2), (3, 4, 6, 1),
                        (4, 1, 6, 3), (2, 1, 5, 1)]

    @pytest.mark.parametrize("b,t,d,heads", ATTENTION_SHAPES)
    def test_attention_matches_composite_bytewise(self, b, t, d, heads):
        rng = np.random.default_rng(b * t + d)
        q, k, v = (rng.normal(size=(b, t, d)) * 2.0 for _ in range(3))
        got = output_and_grads(lambda *qkv: ad.attention(*qkv, heads), q, k, v)
        want = output_and_grads(lambda *qkv: ref_attention(*qkv, heads), q, k, v)
        for g, w in zip(got, want):  # output, then the q, k and v gradients
            assert_same_bytes(g, w)

    # both paths share one forward, which scores heads in blocks (an untaped call
    # reuses one block's buffer); (2, 401) slices each item's head into 2 blocks,
    # and (1, 3000) slices its head into 69
    @pytest.mark.parametrize("b,t,d,heads", ATTENTION_SHAPES + [(1, 401, 24, 4), (2, 401, 24, 4),
                                                                (1, 512, 24, 4), (1, 1000, 32, 8),
                                                                (1, 3000, 24, 4)])
    def test_untaped_attention_matches_taped_bytewise(self, b, t, d, heads):
        rng = np.random.default_rng(b * t + d)
        q, k, v = (rng.normal(size=(b, t, d)) * 2.0 for _ in range(3))
        tape = ad.Tape()
        taped = ad.attention(tape.leaf(q), tape.leaf(k), tape.leaf(v), heads)
        untaped = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v), heads)
        assert taped.tape is tape and untaped.tape is None
        assert_same_bytes(untaped.data, taped.data)

    @pytest.mark.parametrize("blocks", [2, 3, 7])
    @pytest.mark.parametrize("b,t", [(1, 401), (2, 401), (1, 1000), (2, 1000)])
    def test_score_blocks_split_heads(self, monkeypatch, blocks, b, t):
        rng = np.random.default_rng(blocks * t + b)
        q, k, v = (rng.normal(size=(b, t, 24)) * 2.0 for _ in range(3))
        want = output_and_grads(lambda *qkv: ref_attention(*qkv, 4), q, k, v)
        monkeypatch.setattr(ad, "_SCORE_BLOCK", -(-t * t * 8 // blocks))  # slices per head
        got = output_and_grads(lambda *qkv: ad.attention(*qkv, 4), q, k, v)
        for g, w in zip(got, want):  # output, then the q, k and v gradients
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()
        untaped, peak = untaped_attention_peak(q, k, v, 4)
        assert_same_bytes(untaped, got[0])
        # one block of scores (its row count rounded up), then inputs, context and output
        assert peak < ad._SCORE_BLOCK + b * t * 8 + 5 * q.nbytes, f"peak {peak / 2**20:.2f} MiB"

    # a block of whole heads of `items` batch items keeps the bits of a whole-head
    # product by construction; at dh = 128 (the default d = 512, 4 heads) slicing
    # the query rows instead would round differently
    @pytest.mark.parametrize("items", [1, 2, 3, 7])
    def test_batch_blocks_keep_whole_head_bits(self, monkeypatch, items):
        rng = np.random.default_rng(items)
        q, k, v = (rng.normal(size=(7, 25, 512)) for _ in range(3))
        want = output_and_grads(lambda *qkv: ref_attention(*qkv, 4), q, k, v)
        monkeypatch.setattr(ad, "_SCORE_BLOCK", items * 25 * 25 * 8 + 7)
        got = output_and_grads(lambda *qkv: ad.attention(*qkv, 4), q, k, v)
        for g, w in zip(got, want):  # output, then the q, k and v gradients
            assert_same_bytes(g, w)
        untaped = ad.attention(ad.constant(q), ad.constant(k), ad.constant(v), 4)
        assert_same_bytes(untaped.data, got[0])

    def test_untaped_attention_memory_is_bounded_by_a_score_block(self):
        # a whole (1, 2000, 2000) head of scores would be 32 MB
        rng = np.random.default_rng(0)
        q, k, v = (rng.normal(size=(1, 2000, 24)) for _ in range(3))
        _, peak = untaped_attention_peak(q, k, v, 4)
        assert peak < 2 * ad._SCORE_BLOCK + 5 * q.nbytes, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("shape", [(0, 5, 8), (2, 0, 8)])
    def test_attention_on_empty_inputs(self, shape):
        x = np.zeros(shape)
        untaped = ad.attention(ad.constant(x), ad.constant(x), ad.constant(x), 2)
        assert untaped.data.shape == shape
        for g in output_and_grads(lambda *qkv: ad.attention(*qkv, 2), x, x, x):
            assert g.shape == shape  # the output, then the q, k and v gradients

    @pytest.mark.parametrize("b,t,d,heads", [(2, 3, 4, 2), (1, 4, 6, 3), (3, 1, 2, 1)])
    def test_attention_gradients_pass_grad_check(self, b, t, d, heads):
        rng = np.random.default_rng(t)
        qkv = [rng.normal(size=(b, t, d)) for _ in range(3)]
        w = ad.constant(rng.normal(size=(b, t, d)))
        for i in range(3):
            def f(x, i=i):
                args = [ad.constant(a) for a in qkv]
                args[i] = x
                return ad.tsum(ad.mul(ad.attention(*args, heads), w))

            assert grad_check(f, qkv[i]) <= 1e-6, i

    def test_attention_rejects_bad_shapes(self):
        x = ad.constant(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            ad.attention(x, x, x, 3)
        with pytest.raises(ShapeError):
            ad.attention(x, x, ad.constant(np.zeros((2, 4, 4))), 2)


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
            h = ad.dropout(h, 0.3, np.random.default_rng(7))
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
        loss = ad.cross_entropy(ad.gelu(ad.linear(x, w, b)) * 0.5, np.full((5, 3), 1.0 / 3.0))
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

            assert grad_check(f, (x, w, b)[i]) <= 1e-6


class TestGradCheck:
    def test_linear_exactness(self):
        err = grad_check(ad.tsum, np.array([[1.0, -2.0], [0.5, 4.0]]))
        assert err <= 1e-10

    def test_reports_deliberate_mismatch(self):
        # a function whose analytic gradient is wrong on purpose: treat the
        # input as a constant inside, so analytic grad is zero
        def broken(x):
            return ad.tsum(ad.mul(ad.constant(x.data), ad.constant(x.data))) + ad.tsum(x) * 0.0

        err = grad_check(broken, np.array([1.0, 2.0]))
        assert err > 0.5

    def test_composite_ops_pass(self):
        rng = np.random.default_rng(17)
        w = ad.constant(rng.normal(size=(4, 5)))
        t = rng.normal(size=(3, 5))

        def f(x):
            return ad.cross_entropy(ad.gelu(ad.matmul(x, w)), t) * 0.5

        assert grad_check(f, rng.normal(size=(3, 4))) <= 1e-6

    def test_non_scalar_f_is_refused(self):
        with pytest.raises(ContractError, match="scalar-valued"):
            grad_check(lambda x: ad.mul(x, 2.0), np.array([1.0, 2.0]))

    def test_f_that_ignores_x_reads_zero(self):
        # f never touches x, so no tape records it: both gradients are zero
        assert grad_check(lambda x: ad.tsum(ad.constant(np.ones(3))), np.array([1.0, 2.0])) == 0.0
