"""Encoder tests against independently scripted numpy oracles.

The oracle below re-implements the pre-norm attention block with explicit
per-head slicing loops, so it shares no code path with the model's fused
``ad.attention`` node.  The ``inline_*`` oracles spell the feed-forward
sublayers and the scale-fusion pooling out op by op, as the model once did,
and must give the model's bits.
"""

import hashlib
import math

import numpy as np
import pytest

from spotalign import autodiff as ad
from spotalign import data_io, model, trainer
from spotalign.data_io import SpotBatch
from spotalign.errors import ContractError, ShapeError

from gradcheck import grad_check


def tiny_config(**overrides):
    base = dict(
        n_genes=6,
        d_in=8,
        d=4,
        heads=2,
        neighbor_blocks=1,
        d_ff=8,
        dropout=0.0,
        neighbor_tokens=4,
    )
    base.update(overrides)
    return model.ModelConfig(**base)


def np_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))


def np_layer_norm(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def scripted_block(x, params, prefix, heads):
    """Independent attention-block evaluation with per-head loops."""
    h = np_layer_norm(x, params[f"{prefix}/ln1/g"], params[f"{prefix}/ln1/b"])
    q = h @ params[f"{prefix}/attn/wq"] + params[f"{prefix}/attn/bq"]
    k = h @ params[f"{prefix}/attn/wk"] + params[f"{prefix}/attn/bk"]
    v = h @ params[f"{prefix}/attn/wv"] + params[f"{prefix}/attn/bv"]
    batch, tokens, d = x.shape
    dh = d // heads
    ctx = np.zeros_like(x)
    for bi in range(batch):
        for hd in range(heads):
            cols = slice(hd * dh, (hd + 1) * dh)
            scores = q[bi, :, cols] @ k[bi, :, cols].T / math.sqrt(dh)
            scores = scores - scores.max(axis=1, keepdims=True)
            e = np.exp(scores)
            ctx[bi, :, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[bi, :, cols]
    x = x + (ctx @ params[f"{prefix}/attn/wo"] + params[f"{prefix}/attn/bo"])
    h2 = np_layer_norm(x, params[f"{prefix}/ln2/g"], params[f"{prefix}/ln2/b"])
    f = np_gelu(h2 @ params[f"{prefix}/ffn/w1"] + params[f"{prefix}/ffn/b1"])
    return x + (f @ params[f"{prefix}/ffn/w2"] + params[f"{prefix}/ffn/b2"])


def inline_attention_block(x, p, prefix, heads, drop, rng):
    h = ad.layer_norm(x, p[f"{prefix}/ln1/g"], p[f"{prefix}/ln1/b"])
    q = ad.linear(h, p[f"{prefix}/attn/wq"], p[f"{prefix}/attn/bq"])
    k = ad.linear(h, p[f"{prefix}/attn/wk"], p[f"{prefix}/attn/bk"])
    v = ad.linear(h, p[f"{prefix}/attn/wv"], p[f"{prefix}/attn/bv"])
    context = ad.attention(q, k, v, heads)
    attn_out = ad.linear(context, p[f"{prefix}/attn/wo"], p[f"{prefix}/attn/bo"])
    x = x + ad.dropout(attn_out, drop, rng)

    h2 = ad.layer_norm(x, p[f"{prefix}/ln2/g"], p[f"{prefix}/ln2/b"])
    f = ad.gelu(ad.linear(h2, p[f"{prefix}/ffn/w1"], p[f"{prefix}/ffn/b1"]))
    f = ad.dropout(f, drop, rng)
    f = ad.linear(f, p[f"{prefix}/ffn/w2"], p[f"{prefix}/ffn/b2"])
    return x + f


def inline_gene_encode(p, expression, cfg, rng):
    h = ad.linear(ad.as_tensor(expression), p["gene/enc/w1"], p["gene/enc/b1"])
    h = ad.dropout(ad.gelu(h), cfg.dropout, rng)
    h = ad.linear(h, p["gene/enc/w2"], p["gene/enc/b2"])

    f = ad.gelu(ad.linear(h, p["gene/ffn/w1"], p["gene/ffn/b1"]))
    f = ad.dropout(f, cfg.dropout, rng)
    f = ad.linear(f, p["gene/ffn/w2"], p["gene/ffn/b2"])
    return h + f


def inline_scale_fusion(p, i_local, i_neighbor, i_global, cfg, rng):
    n, d = i_local.shape
    x = ad.reshape(ad.concat([i_local, i_neighbor, i_global], axis=-1), (n, 3, d))
    x = inline_attention_block(x, p, "fusion/block0", cfg.heads, cfg.dropout, rng)
    tokens = [ad.take(x, s, axis=1) for s in range(3)]
    return tuple(tokens), (tokens[0] + tokens[1] + tokens[2]) * (1.0 / 3.0)


def taped_bits(fn, params, inputs, seed):
    """Bytes of ``fn``'s outputs and of the gradients of a weighted sum of
    them with respect to ``params`` and ``inputs``, with dropout drawn from
    a generator seeded with ``seed``."""
    tape = ad.Tape()
    pt = model.as_tensors(params, tape)
    leaves = [tape.leaf(x) for x in inputs]
    outputs = fn(pt, *leaves, np.random.default_rng(seed))
    weights = np.random.default_rng(seed + 1)
    loss = ad.constant(0.0)
    for out in outputs:
        loss = loss + ad.tsum(out * ad.constant(weights.normal(size=out.shape)))
    grads = tape.backward(loss)
    return ([out.data.tobytes() for out in outputs],
            [grads[t.node_id].tobytes() for t in (*pt.values(), *leaves)])


def make_batch(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    counts = rng.poisson(5.0, size=(n, cfg.n_genes)) + 1
    expr = np.log1p(1e4 * counts / counts.sum(axis=1, keepdims=True))
    return SpotBatch(
        sample_id="S00",
        patient_id="P00",
        local_feat=rng.normal(size=(n, cfg.d_in)),
        neighbor_feat=rng.normal(size=(n, cfg.neighbor_tokens, cfg.d_in)),
        expression=expr,
        coords=np.stack([np.arange(n), np.zeros(n, int)], axis=1).astype(np.int32),
    )


class TestProjectScale:
    def test_zero_weights_zero_output(self):
        cfg = tiny_config()
        params = model.init_params(cfg, 0)
        params["proj_local/w"][:] = 0.0
        params["proj_local/b"][:] = 0.0
        out = model.project_scale(model.as_tensors(params), np.ones((3, cfg.d_in)), "local")
        np.testing.assert_array_equal(out.data, np.zeros((3, cfg.d)))

    def test_identity_passthrough(self):
        cfg = tiny_config(d_in=4, d=4)
        params = model.init_params(cfg, 0)
        params["proj_local/w"] = np.eye(4)
        params["proj_local/b"][:] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 4))
        out = model.project_scale(model.as_tensors(params), x, "local")
        np.testing.assert_array_equal(out.data, x)

    def test_matches_matrix_product_oracle(self):
        cfg = tiny_config()
        params = model.init_params(cfg, 3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8))
        out = model.project_scale(model.as_tensors(params), x, "neighbor")
        expected = x @ params["proj_neighbor/w"] + params["proj_neighbor/b"]
        np.testing.assert_allclose(out.data, expected, rtol=1e-13)

    def test_dim_mismatch(self):
        cfg = tiny_config()
        params = model.as_tensors(model.init_params(cfg, 0))
        with pytest.raises(ShapeError):
            model.project_scale(params, np.ones((3, cfg.d_in + 1)), "local")


class TestModelConfig:
    @pytest.mark.parametrize("sizes", [dict(heads=0), dict(heads=-1), dict(d=0), dict(d=-4),
                                       dict(neighbor_tokens=0), dict(neighbor_tokens=-1),
                                       dict(d_in=0)])
    def test_sizes_below_one_rejected(self, sizes):
        with pytest.raises(ContractError, match=">= 1"):
            tiny_config(**sizes)

    @pytest.mark.parametrize("sizes", [dict(neighbor_blocks=-1), dict(d_ff=-1),
                                       dict(neighbor_blocks=-2), dict(d_ff=-3)])
    def test_negative_counts_rejected(self, sizes):
        with pytest.raises(ContractError, match=">= 0"):
            tiny_config(**sizes)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, math.nan])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ContractError, match="dropout"):
            tiny_config(dropout=rate)

    def test_zero_blocks_and_rate_accepted(self):
        cfg = tiny_config(neighbor_blocks=0, dropout=0.0, neighbor_tokens=1, d_ff=0)
        assert cfg.d_ff == 4 * cfg.d


class TestParamTable:
    CFG = dict(n_genes=7, d_in=5, d=8, heads=2, neighbor_blocks=2, d_ff=12)
    BLOCK = [("ln1/g", (8,)), ("ln1/b", (8,)),
             ("attn/wq", (8, 8)), ("attn/bq", (8,)), ("attn/wk", (8, 8)), ("attn/bk", (8,)),
             ("attn/wv", (8, 8)), ("attn/bv", (8,)), ("attn/wo", (8, 8)), ("attn/bo", (8,)),
             ("ln2/g", (8,)), ("ln2/b", (8,)),
             ("ffn/w1", (8, 12)), ("ffn/b1", (12,)), ("ffn/w2", (12, 8)), ("ffn/b2", (8,))]
    # the table's order is the init draw order and the checkpoint entry order
    INIT_SHA256 = "05af8a93238566c4b15289427b08f3dc6182fbf024dfe8767f52a91f6da1b6dd"

    def test_names_shapes_and_order(self):
        expected = []
        for scale in ("local", "neighbor", "global"):
            expected += [(f"proj_{scale}/w", (5, 8)), (f"proj_{scale}/b", (8,))]
        for block in ("neighbor/block0", "neighbor/block1", "global/block0", "fusion/block0"):
            expected += [(f"{block}/{name}", shape) for name, shape in self.BLOCK]
        expected += [("gene/enc/w1", (7, 8)), ("gene/enc/b1", (8,)),
                     ("gene/enc/w2", (8, 8)), ("gene/enc/b2", (8,)),
                     ("gene/ffn/w1", (8, 12)), ("gene/ffn/b1", (12,)),
                     ("gene/ffn/w2", (12, 8)), ("gene/ffn/b2", (8,)),
                     ("pred/w", (8, 7)), ("pred/b", (7,))]
        assert list(model.param_shapes(model.ModelConfig(**self.CFG)).items()) == expected

    def test_init_bits(self):
        cfg = model.ModelConfig(**self.CFG)
        params = model.init_params(cfg, 0)
        assert list(params) == list(model.param_shapes(cfg))
        digest = hashlib.sha256(b"".join(arr.tobytes() for arr in params.values()))
        assert digest.hexdigest() == self.INIT_SHA256


class TestAttentionBlock:
    def test_one_tape_node_between_projections(self, monkeypatch):
        cfg = tiny_config()
        tape = ad.Tape()
        pt = model.as_tensors(model.init_params(cfg, 1), tape)
        x = tape.leaf(np.random.default_rng(1).normal(size=(2, 3, cfg.d)))
        linear_ids = []
        ad_linear = ad.linear

        def linear(*args):
            out = ad_linear(*args)
            linear_ids.append(out.node_id)
            return out

        monkeypatch.setattr(ad, "linear", linear)
        model.attention_block(x, pt, "neighbor/block0", cfg.heads, 0.0, None)
        q, k, v, out = linear_ids[:4]  # the q, k, v and output projections
        assert (k, v, out) == (q + 1, q + 2, q + 4)
        assert tape._parents[q + 3] == (q, k, v)


    def test_same_bits_as_inline_composite(self):
        cfg = tiny_config(d=8, d_ff=12, dropout=0.3)
        params = model.init_params(cfg, 47)
        x = np.random.default_rng(47).normal(size=(3, 4, cfg.d))

        def run(block):
            def fn(p, x, rng):
                return [block(x, p, "neighbor/block0", cfg.heads, cfg.dropout, rng)]
            return taped_bits(fn, params, [x], seed=47)

        assert run(model.attention_block) == run(inline_attention_block)


class TestNeighborEncode:
    def test_equal_tokens_collapse_to_single_token_transform(self):
        # with identical tokens, attention weights are uniform over equal
        # values, so the pooled output equals the single-token pathway
        cfg = tiny_config()
        params = model.init_params(cfg, 5)
        pt = model.as_tensors(params)
        rng = np.random.default_rng(5)
        token = rng.normal(size=(3, 1, cfg.d_in))
        tiled = np.repeat(token, cfg.neighbor_tokens, axis=1)
        pooled = model.neighbor_encode(pt, tiled, cfg)

        single = model.project_scale(pt, token, "neighbor")
        single = model.attention_block(single, pt, "neighbor/block0", cfg.heads, 0.0, None)
        np.testing.assert_allclose(pooled.data, single.data.reshape(3, cfg.d), atol=1e-12)

    def test_two_token_toy_matches_scripted_oracle(self):
        cfg = tiny_config(heads=1, neighbor_tokens=2)
        params = model.init_params(cfg, 7)
        rng = np.random.default_rng(7)
        feat = rng.normal(size=(2, 2, cfg.d_in))
        out = model.neighbor_encode(model.as_tensors(params), feat, cfg)

        tokens = feat @ params["proj_neighbor/w"] + params["proj_neighbor/b"]
        expected = scripted_block(tokens, params, "neighbor/block0", heads=1).mean(axis=1)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_output_shape(self):
        cfg = tiny_config()
        params = model.as_tensors(model.init_params(cfg, 0))
        out = model.neighbor_encode(params, np.zeros((7, cfg.neighbor_tokens, cfg.d_in)), cfg)
        assert out.shape == (7, cfg.d)

    def test_token_count_mismatch(self):
        cfg = tiny_config()
        params = model.as_tensors(model.init_params(cfg, 0))
        with pytest.raises(ShapeError):
            model.neighbor_encode(params, np.zeros((7, cfg.neighbor_tokens + 1, cfg.d_in)), cfg)


class TestGlobalEncode:
    def test_singleton_matches_scripted_oracle(self):
        cfg = tiny_config()
        params = model.init_params(cfg, 9)
        x = np.random.default_rng(9).normal(size=(1, cfg.d))
        out = model.global_encode(model.as_tensors(params), ad.constant(x), cfg)
        expected = scripted_block(x[None], params, "global/block0", cfg.heads)[0]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_three_spot_toy_matches_scripted_oracle(self):
        cfg = tiny_config()
        params = model.init_params(cfg, 11)
        x = np.random.default_rng(11).normal(size=(3, cfg.d))
        out = model.global_encode(model.as_tensors(params), ad.constant(x), cfg)
        expected = scripted_block(x[None], params, "global/block0", cfg.heads)[0]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_permutation_equivariance(self):
        cfg = tiny_config()
        params = model.as_tensors(model.init_params(cfg, 13))
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, cfg.d))
        perm = rng.permutation(6)
        base = model.global_encode(params, ad.constant(x), cfg).data
        permuted = model.global_encode(params, ad.constant(x[perm]), cfg).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)



class TestScaleFusion:
    def test_identical_tokens_identical_outputs(self):
        cfg = tiny_config()
        params = model.as_tensors(model.init_params(cfg, 15))
        x = ad.constant(np.random.default_rng(15).normal(size=(4, cfg.d)))
        tokens, fused = model.scale_fusion(params, x, x, x, cfg)
        np.testing.assert_allclose(tokens[0].data, tokens[1].data, atol=1e-10)
        np.testing.assert_allclose(tokens[1].data, tokens[2].data, atol=1e-10)
        np.testing.assert_allclose(fused.data, tokens[0].data, atol=1e-10)

    def test_shapes_preserved(self):
        cfg = tiny_config(d=16, d_ff=32, heads=4)
        params = model.as_tensors(model.init_params(cfg, 0))
        rng = np.random.default_rng(0)
        tensors = [ad.constant(rng.normal(size=(5, 16))) for _ in range(3)]
        tokens, fused = model.scale_fusion(params, *tensors, cfg)
        assert all(t.shape == (5, 16) for t in tokens)
        assert fused.shape == (5, 16)

    def test_one_spot_toy_matches_scripted_oracle(self):
        cfg = tiny_config()
        params = model.init_params(cfg, 17)
        rng = np.random.default_rng(17)
        il, ins, ig = (rng.normal(size=(1, cfg.d)) for _ in range(3))
        tokens, fused = model.scale_fusion(
            model.as_tensors(params), ad.constant(il), ad.constant(ins), ad.constant(ig), cfg
        )
        seq = np.stack([il[0], ins[0], ig[0]])[None]  # (1, 3, d)
        expected = scripted_block(seq, params, "fusion/block0", cfg.heads)[0]
        for s in range(3):
            np.testing.assert_allclose(tokens[s].data[0], expected[s], atol=1e-12)
        np.testing.assert_allclose(fused.data[0], expected.mean(axis=0), atol=1e-12)


    def test_fused_token_mean_same_bits_as_inline_sum(self):
        cfg = tiny_config(d=8, d_ff=12, dropout=0.3)
        params = model.init_params(cfg, 49)
        rng = np.random.default_rng(49)
        inputs = [rng.normal(size=(5, cfg.d)) for _ in range(3)]

        def run(fuse):
            def fn(p, i_local, i_neighbor, i_global, rng):
                tokens, fused = fuse(p, i_local, i_neighbor, i_global, cfg, rng)
                return [*tokens, fused]
            return taped_bits(fn, params, inputs, seed=49)

        assert run(model.scale_fusion) == run(inline_scale_fusion)


class TestGeneEncode:
    def test_zero_input_zero_biases_gives_zero(self):
        cfg = tiny_config()
        params = model.init_params(cfg, 0)
        for name in params:
            if name.startswith("gene/") and name.rsplit("/", 1)[1].startswith("b"):
                params[name][:] = 0.0
        out = model.gene_encode(model.as_tensors(params), np.zeros((3, cfg.n_genes)), cfg)
        np.testing.assert_array_equal(out.data, np.zeros((3, cfg.d)))

    def test_eval_mode_deterministic(self):
        cfg = tiny_config(dropout=0.3)
        params = model.as_tensors(model.init_params(cfg, 21))
        x = np.random.default_rng(21).normal(size=(4, cfg.n_genes)) ** 2
        a = model.gene_encode(params, x, cfg)
        b = model.gene_encode(params, x, cfg)
        assert a.data.tobytes() == b.data.tobytes()
        dropped = model.gene_encode(params, x, cfg, np.random.default_rng(21))
        assert dropped.data.tobytes() != a.data.tobytes()

    def test_layer_by_layer_oracle(self):
        cfg = tiny_config(n_genes=6, d=4, d_ff=8)
        params = model.init_params(cfg, 23)
        x = np.random.default_rng(23).normal(size=(2, 6)) ** 2
        out = model.gene_encode(model.as_tensors(params), x, cfg)

        h = np_gelu(x @ params["gene/enc/w1"] + params["gene/enc/b1"])
        h = h @ params["gene/enc/w2"] + params["gene/enc/b2"]
        f = np_gelu(h @ params["gene/ffn/w1"] + params["gene/ffn/b1"])
        expected = h + (f @ params["gene/ffn/w2"] + params["gene/ffn/b2"])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_same_bits_as_inline_composite(self):
        cfg = tiny_config(d=8, d_ff=12, dropout=0.3)
        params = model.init_params(cfg, 51)
        x = np.random.default_rng(51).normal(size=(4, cfg.n_genes)) ** 2

        def run(encode):
            return taped_bits(lambda p, x, rng: [encode(p, x, cfg, rng)], params, [x], seed=51)

        assert run(model.gene_encode) == run(inline_gene_encode)

    def test_gene_count_mismatch(self):
        cfg = tiny_config()
        params = model.as_tensors(model.init_params(cfg, 0))
        with pytest.raises(ShapeError):
            model.gene_encode(params, np.zeros((3, cfg.n_genes + 2)), cfg)


class TestPredictExpression:
    def test_zero_weights_broadcast_bias(self):
        cfg = tiny_config()
        params = model.init_params(cfg, 0)
        params["pred/w"][:] = 0.0
        params["pred/b"][:] = np.arange(cfg.n_genes, dtype=float)
        out = model.predict_expression(
            model.as_tensors(params), ad.constant(np.ones((4, cfg.d)))
        )
        np.testing.assert_array_equal(out.data, np.tile(np.arange(cfg.n_genes, dtype=float), (4, 1)))

    def test_shape_contract(self):
        cfg = tiny_config(n_genes=250)
        params = model.as_tensors(model.init_params(cfg, 0))
        out = model.predict_expression(params, ad.constant(np.zeros((3, cfg.d))))
        assert out.shape == (3, 250)

    def test_matmul_oracle(self):
        cfg = tiny_config()
        params = model.init_params(cfg, 25)
        fused = np.random.default_rng(25).normal(size=(3, cfg.d))
        out = model.predict_expression(model.as_tensors(params), ad.constant(fused))
        np.testing.assert_allclose(
            out.data, fused @ params["pred/w"] + params["pred/b"], rtol=1e-13
        )


class TestModelInvariants:
    def test_outputs_finite_across_many_seeds(self):
        cfg = tiny_config()
        for seed in range(1000):
            params = model.as_tensors(model.init_params(cfg, seed))
            batch = make_batch(cfg, 3, seed=seed)
            emb = model.forward_embeddings(params, batch, cfg)
            for t in (*emb.per_scale, emb.fused, emb.gene):
                assert np.all(np.isfinite(t.data)), f"non-finite output at seed {seed}"

    def test_prediction_mse_gradient_every_parameter(self):
        cfg = tiny_config(d_in=3, n_genes=3, d=4, d_ff=6, heads=2, neighbor_tokens=2)
        params = model.init_params(cfg, 27)
        batch = make_batch(cfg, 2, seed=27)

        def loss_for(name):
            def f(x):
                pt = {k: ad.constant(v) for k, v in params.items()}
                pt[name] = x
                pred = model.forward_image(pt, batch, cfg)
                diff = pred - ad.constant(batch.expression)
                return ad.tsum(ad.mul(diff, diff)) * (1.0 / batch.n_spots)

            return f

        # h = 1e-4 keeps the finite-difference oracle itself out of the
        # roundoff regime for parameters with near-zero gradients
        for name, value in params.items():
            err = grad_check(loss_for(name), value, h=1e-4)
            assert err <= 1e-4, f"gradient mismatch for {name}: {err}"

    def test_save_load_forward_bitwise(self, tmp_path):
        cfg = tiny_config()
        params = model.init_params(cfg, 29)
        batch = make_batch(cfg, 4, seed=29)
        before = model.forward_image(model.as_tensors(params), batch, cfg).data

        path = tmp_path / "model.gdml"
        model.save_checkpoint(path, params, cfg)
        loaded, cfg2 = model.load_checkpoint(path)
        assert cfg2 == cfg
        after = model.forward_image(model.as_tensors(loaded), batch, cfg2).data
        assert before.tobytes() == after.tobytes()

    @staticmethod
    def assert_legacy_checkpoint_loads_same_bits(tmp_path, seed, legacy_entries):
        # save a checkpoint, rewrite its entries as an older version wrote
        # them, and check that it loads to the same parameters and predictions
        cfg = tiny_config()
        params = model.init_params(cfg, seed)
        batch = make_batch(cfg, 5, seed=seed)
        path = tmp_path / "model.gdml"
        model.save_checkpoint(path, params, cfg)
        data_io.write_container(path, legacy_entries(data_io.read_container(path)))

        loaded, cfg2 = model.load_checkpoint(path)
        assert cfg2 == cfg
        assert list(loaded) == list(params)
        assert all(loaded[name].tobytes() == params[name].tobytes() for name in params)
        before = trainer.infer(params, cfg, batch)
        assert trainer.infer(loaded, cfg2, batch).tobytes() == before.tobytes()

    def test_checkpoint_with_fusion_mode_entry_loads_same_bits(self, tmp_path):
        # checkpoints from before fusion was always the token mean also store
        # config:fusion_mode, 0.0 for "mean"; the loader ignores the entry
        self.assert_legacy_checkpoint_loads_same_bits(
            tmp_path, 43, lambda entries: {**entries, "config:fusion_mode": np.array([0.0])})

    def test_checkpoint_with_block_count_entries_loads_same_bits(self, tmp_path):
        # checkpoints from before the global and fusion blocks were fixed at
        # one each store config:global_blocks and config:fusion_blocks, 1.0
        # each, right after config:neighbor_blocks; the loader ignores both
        def legacy_entries(entries):
            legacy = {}
            for name, arr in entries.items():
                legacy[name] = arr
                if name == "config:neighbor_blocks":
                    legacy["config:global_blocks"] = np.array([1.0])
                    legacy["config:fusion_blocks"] = np.array([1.0])
            return legacy

        self.assert_legacy_checkpoint_loads_same_bits(tmp_path, 44, legacy_entries)

    def test_spot_blocks_keep_inference_bits(self, monkeypatch):
        cfg = tiny_config(d_in=16, d=24, heads=4, d_ff=48, neighbor_tokens=25)
        params = model.as_tensors(model.init_params(cfg, 37))
        n = 401  # no block size below divides it; n + 1 is one unblocked pass
        batch = make_batch(cfg, n, seed=37)
        outputs = []
        blocks = (1, 7, 32, 64, 128, 256, n + 1)
        assert model._SPOT_BLOCK in blocks
        for block in blocks:
            monkeypatch.setattr(model, "_SPOT_BLOCK", block)
            outputs.append(model.forward_image(params, batch, cfg).data.tobytes())
        assert outputs[:-1] == [outputs[-1]] * (len(blocks) - 1)

    def test_training_pass_is_not_blocked(self, monkeypatch):
        # blocks would reorder the dropout draws even on constant parameters
        cfg = tiny_config(dropout=0.2)
        params = model.as_tensors(model.init_params(cfg, 41))
        batch = make_batch(cfg, 9, seed=41)

        def run():
            rng = np.random.default_rng(5)
            return model.neighbor_encode(params, batch.neighbor_feat, cfg, rng).data

        whole = run()
        monkeypatch.setattr(model, "_SPOT_BLOCK", 2)
        assert run().tobytes() == whole.tobytes()

    def test_training_dropout_consumes_rng_deterministically(self):
        cfg = tiny_config(dropout=0.2)
        params = model.init_params(cfg, 31)
        batch = make_batch(cfg, 3, seed=31)

        def run():
            pt = model.as_tensors(params)
            emb = model.forward_embeddings(pt, batch, cfg, rng=np.random.default_rng(77))
            return emb.fused.data

        assert run().tobytes() == run().tobytes()
