"""Layer probes: forward and backward time of each layer on its own.

Each probe builds a fresh ``Tape``, registers the layer's parameters and
inputs as leaves, times the layer's forward call, then times the public
``Tape.backward`` from a scalar made of the layer's output.  Probes run at
the acceptance config (batch 200, d=24) on a slice of a seeded synthetic
slide, untraced, and report the median over several repetitions.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from spotalign import autodiff as ad
from spotalign import data_io, grouping, losses, model, trainer

from workloads import Sizes, ablation_spec, model_config

PROBED_LAYERS = (
    "neighbor_encode", "global_encode", "scale_fusion", "gene_encode",
    "multi_scale_instance_loss", "cross_level_loss", "prediction_loss",
)
PROBE_METRICS = (
    [f"probe.{layer}.{phase}" for layer in PROBED_LAYERS for phase in ("fwd_ms", "bwd_ms")]
    + ["probe.kmeans.ms", "probe.infer_slide.ms", "probe.adam_step.ms",
       "probe.data_io.write_ms", "probe.data_io.read_ms"]
)


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return (time.perf_counter() - start) * 1e3, out


def run_probes(sizes: Sizes, seed: int, workdir: Path) -> dict[str, float]:
    slide = data_io.batches_from_study(data_io.synth_generate(ablation_spec(sizes, seed)))[0]
    batch = slide.take(np.arange(sizes.batch))
    cfg = model_config(sizes, dropout=0.0)
    params = model.init_params(cfg, seed)
    rng = np.random.default_rng(seed)

    # realistic layer inputs from one eval-mode forward pass
    const = model.as_tensors(params)
    emb = model.forward_embeddings(const, batch, cfg)
    i_local = model.project_scale(const, batch.local_feat, "local").data
    i_neighbor = model.neighbor_encode(const, batch.neighbor_feat, cfg).data
    g_proj = model.project_scale(const, batch.local_feat, "global").data
    i_global = model.global_encode(const, g_proj, cfg).data
    e_img = grouping.group_project(const, emb.fused.data, "image").data
    e_gene = grouping.group_project(const, emb.gene.data, "gene").data
    c_img = grouping.kmeans(e_img, sizes.k, seed, n_init=4).centroids
    c_gene = grouping.kmeans(e_gene, sizes.k, seed + 1, n_init=4).centroids
    pred = model.predict_expression(const, emb.fused).data

    def layer(name, tape, p):
        leaf = tape.leaf
        if name == "neighbor_encode":
            return model.neighbor_encode(p, batch.neighbor_feat, cfg)
        if name == "global_encode":
            return model.global_encode(p, leaf(g_proj), cfg)
        if name == "scale_fusion":
            return model.scale_fusion(p, leaf(i_local), leaf(i_neighbor), leaf(i_global), cfg)[1]
        if name == "gene_encode":
            return model.gene_encode(p, batch.expression, cfg)
        if name == "multi_scale_instance_loss":
            scales = [leaf(t.data) for t in emb.per_scale]
            return losses.multi_scale_instance_loss(scales, leaf(emb.gene.data), 0.07)[0]
        if name == "cross_level_loss":
            fused, gene = emb.fused.data, emb.gene.data
            return losses.cross_level_loss(
                leaf(fused), leaf(gene), c_gene, c_img,
                grouping.assign_cross(fused, c_gene), grouping.assign_cross(gene, c_img), 0.07,
            )
        return losses.prediction_loss(leaf(pred), batch.expression)

    out: dict[str, list[float]] = {m: [] for m in PROBE_METRICS}
    weights: dict[str, np.ndarray] = {}
    for _ in range(sizes.probe_reps):
        for name in PROBED_LAYERS:
            tape = ad.Tape()
            p = model.as_tensors(params, tape)
            fwd_ms, y = _timed(lambda: layer(name, tape, p))
            if y.data.size > 1:  # reduce to a scalar with fixed random weights
                w = weights.setdefault(name, rng.normal(size=y.shape))
                y = ad.tsum(ad.mul(y, ad.constant(w)))
            bwd_ms, _ = _timed(lambda: tape.backward(y))
            out[f"probe.{name}.fwd_ms"].append(fwd_ms)
            out[f"probe.{name}.bwd_ms"].append(bwd_ms)

        kmeans_ms, _ = _timed(lambda: grouping.kmeans(e_img, sizes.k, seed, n_init=10))
        out["probe.kmeans.ms"].append(kmeans_ms)
        infer_ms, _ = _timed(lambda: trainer.infer(params, cfg, slide))
        out["probe.infer_slide.ms"].append(infer_ms)

        state = trainer.init_adam(params)
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        trial = {k: v.copy() for k, v in params.items()}
        adam_ms, _ = _timed(lambda: trainer.adam_step(trial, grads, state, 5e-3))
        out["probe.adam_step.ms"].append(adam_ms)

        path = workdir / "probe.gdml"
        entries = {"neighbor": slide.neighbor_feat, "local": slide.local_feat}
        write_ms, _ = _timed(lambda: data_io.write_container(path, entries))
        read_ms, _ = _timed(lambda: data_io.read_container(path))
        out["probe.data_io.write_ms"].append(write_ms)
        out["probe.data_io.read_ms"].append(read_ms)
    return {name: statistics.median(values) for name, values in out.items()}
