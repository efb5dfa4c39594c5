"""The benchmark's workloads, built from a seed.

Each workload has a ``setup`` (timed as set-up, not as work) and a ``unit``:
one repeatable piece of work whose wall time is the workload's ``wall_s``.

* ``train-ablation``: one ``trainer.train_fold`` (fold 0) at the acceptance
  ablation's "full" config.
* ``train-quickstart``: one ``train_fold`` at the README quick-start config,
  with the library defaults it leaves unset (dropout 0.1, per-batch k-means
  refresh, ``kmeans_n_init=10``).
* ``slide-inference``: ``spotalign predict`` then ``spotalign eval
  --checkpoint`` through ``cli.main`` on a study of two large slides on disk.
  Its set-up trains a short checkpoint (quick-start config) on a small study
  from the same generator seed, so the generating weights match.

Training units run fewer epochs than the 50 of the configs they copy, so
that several units fit in one run; every epoch does the same work at the
learning rate of the first 20 epochs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spotalign import cli, data_io, model, trainer
from spotalign.errors import NumericError


@dataclass(frozen=True)
class Sizes:
    spots: int = 400  # per slide, training studies
    genes: int = 60
    latent: int = 16
    d_in: int = 64
    d: int = 24
    heads: int = 4
    d_ff: int = 48
    batch: int = 200
    k: int = 25
    epochs: int = 5  # per training unit
    slide_spots: int = 3000  # per slide, slide-inference study
    ckpt_epochs: int = 3  # slide-inference set-up training
    setups: int = 5  # fewest set-ups timed per run (median is setup_s)
    slide_setups: int = 3
    probe_reps: int = 5


FULL = Sizes()
TOY = Sizes(spots=60, genes=8, latent=4, d_in=12, d=8, heads=2, d_ff=16, batch=30, k=4,
            epochs=2, slide_spots=90, ckpt_epochs=1, setups=2, slide_setups=2, probe_reps=2)


@dataclass
class Ops:
    """Attempted and failed operations: training steps, slide inferences and
    output checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def count(self, n: int) -> None:
        self.attempted += n


@dataclass
class Epochs:
    """Per-epoch train and validation times from ``train_fold``'s log lines."""

    train_ms: list[float] = field(default_factory=list)
    val_ms: list[float] = field(default_factory=list)
    train_spots: int = 0
    val_spots: int = 0


def ablation_spec(sizes: Sizes, seed: int) -> data_io.SynthSpec:
    return data_io.SynthSpec(
        n_spots=sizes.spots, n_slides=2, latent_dim=sizes.latent, n_genes=sizes.genes,
        rho=0.8, sigma=0.3, seed=seed, d_in=sizes.d_in,
        count_scale=3.0, n_clusters=8, cluster_strength=0.85,
    )


def quickstart_spec(sizes: Sizes, seed: int, n_spots: int | None = None) -> data_io.SynthSpec:
    return data_io.SynthSpec(
        n_spots=n_spots or sizes.spots, n_slides=2, latent_dim=sizes.latent,
        n_genes=sizes.genes, rho=0.8, sigma=0.3, seed=seed, d_in=sizes.d_in,
    )


def model_config(sizes: Sizes, **overrides) -> model.ModelConfig:
    return model.ModelConfig(
        n_genes=sizes.genes, d_in=sizes.d_in, d=sizes.d, heads=sizes.heads,
        neighbor_blocks=1, d_ff=sizes.d_ff, **overrides,
    )


def ablation_train_config(sizes: Sizes, seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        lr=5e-3, batch_size=sizes.batch, epochs=sizes.epochs, seed=seed, k=sizes.k,
        tau=0.07, tau_ig=0.07, n_folds=2, kmeans_n_init=4, cluster_refresh="epoch",
        multi_ins_weight=1.0, lam=0.8,
    )


def quickstart_train_config(sizes: Sizes, seed: int, epochs: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        lr=0.005, batch_size=sizes.batch, epochs=epochs, seed=seed, k=sizes.k,
        lam=0.8, tau_ig=0.07, n_folds=2,
    )


def train_timed(plan, batches, mcfg, tcfg, epochs: Epochs, ops: Ops):
    """Run ``train_fold`` on fold 0, splitting each epoch into train and
    validation time by the timestamps of its log lines: train time runs from
    the epoch's start to its last ``step=`` line, validation from there to
    the ``epoch=`` line.  Returns the result, or None after a NumericError."""
    stamps: list[tuple[float, str]] = []

    def on_line(line: str) -> None:
        stamps.append((time.perf_counter(), line))

    start = time.perf_counter()
    try:
        result = trainer.train_fold(0, plan, batches, mcfg, tcfg, on_line=on_line)
    except NumericError:
        result = None
    epoch_start = last_step = start
    steps = 0
    for t, line in stamps:
        if line.startswith("step=") and " event=" not in line:
            last_step = t
            steps += 1
        elif line.startswith("epoch="):
            epochs.train_ms.append((last_step - epoch_start) * 1e3)
            epochs.val_ms.append((t - last_step) * 1e3)
            epoch_start = t
    ops.count(steps)
    ops.check("numeric_error_free_steps", result is not None)
    if result is not None:
        test_ids = set(plan.test_samples(0))
        epochs.train_spots += tcfg.epochs * sum(b.n_spots for b in batches if b.sample_id not in test_ids)
        epochs.val_spots += tcfg.epochs * sum(b.n_spots for b in batches if b.sample_id in test_ids)
    return result


def check_prediction(ops: Ops, name: str, pred, shape) -> None:
    ops.check(f"{name}_shape", pred is not None and pred.shape == shape)
    ops.check(f"{name}_finite", pred is not None and bool(np.all(np.isfinite(pred))))


def check_pcc_a(ops: Ops, pcc_a: float, first: float | None) -> float:
    """PCC(A) must be defined and, being deterministic, equal in every unit;
    returns the first unit's value."""
    ops.check("pcc_a_defined", not math.isnan(pcc_a))
    ops.check("pcc_a_repeats", first is None or pcc_a == first)
    return pcc_a if first is None else first


# ---------------------------------------------------------------------------


class TrainWorkload:
    """Shared by both training workloads; subclasses choose the configs."""

    name = ""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.setups = sizes.setups
        self.pcc_a: float | None = None

    def configs(self):
        raise NotImplementedError

    def setup(self, epochs: Epochs, ops: Ops) -> None:
        spec, self.mcfg, self.tcfg = self.configs()
        self.batches = data_io.batches_from_study(data_io.synth_generate(spec))
        self.plan = trainer.make_folds(
            [(b.sample_id, b.patient_id) for b in self.batches], 2, self.seed
        )

    def unit(self, epochs: Epochs, ops: Ops) -> dict:
        start = time.perf_counter()
        result = train_timed(self.plan, self.batches, self.mcfg, self.tcfg, epochs, ops)
        return {"wall_s": time.perf_counter() - start, "result": result}

    def check(self, out: dict, ops: Ops) -> None:
        result = out["result"]
        if result is None:
            return
        self.pcc_a = check_pcc_a(ops, result.history[-1]["val_pcc_a"], self.pcc_a)
        ops.check("params_finite", all(np.all(np.isfinite(v)) for v in result.params_final.values()))
        test_ids = set(self.plan.test_samples(0))
        for b in self.batches:
            if b.sample_id in test_ids:
                pred = trainer.infer(result.params_final, self.mcfg, b)
                check_prediction(ops, "val_prediction", pred, b.expression.shape)


class TrainAblation(TrainWorkload):
    name = "train-ablation"

    def configs(self):
        s = self.sizes
        return (ablation_spec(s, self.seed), model_config(s, dropout=0.0),
                ablation_train_config(s, self.seed))


class TrainQuickstart(TrainWorkload):
    name = "train-quickstart"

    def configs(self):
        s = self.sizes
        return (quickstart_spec(s, self.seed), model_config(s),
                quickstart_train_config(s, self.seed, s.epochs))


class SlideInference:
    name = "slide-inference"

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.setups = sizes.slide_setups
        self.pcc_a: float | None = None

    def setup(self, epochs: Epochs, ops: Ops) -> None:
        s = self.sizes
        small = data_io.batches_from_study(data_io.synth_generate(quickstart_spec(s, self.seed)))
        self.mcfg = model_config(s)
        tcfg = quickstart_train_config(s, self.seed, s.ckpt_epochs)
        plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in small], 2, self.seed)
        result = train_timed(plan, small, self.mcfg, tcfg, epochs, ops)
        if result is None:
            raise NumericError("slide-inference set-up: checkpoint training failed")
        self.checkpoint = self.workdir / "checkpoint.gdml"
        model.save_checkpoint(self.checkpoint, result.params_final, self.mcfg)
        study = data_io.synth_generate(quickstart_spec(s, self.seed, n_spots=s.slide_spots))
        self.manifest = data_io.write_study(study, self.workdir / "study")
        self.shapes = {
            x.sample_id: (int(data_io.preprocess_expression(
                x.counts, study.column_names, study.gene_list).keep_mask.sum()), s.genes)
            for x in study.samples
        }

    def unit(self, epochs: Epochs, ops: Ops) -> dict:
        pred_dir, eval_dir = self.workdir / "pred", self.workdir / "eval"
        common = ["--checkpoint", str(self.checkpoint), "--manifest", str(self.manifest)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code_predict = cli.main(["predict", *common, "--out", str(pred_dir)])
            mid = time.perf_counter()
            code_eval = cli.main(["eval", *common, "--out", str(eval_dir)])
            end = time.perf_counter()
        ops.count(2 * len(self.shapes))  # slides inferred by predict and by eval
        return {"wall_s": end - start, "predict_s": mid - start, "codes": (code_predict, code_eval),
                "spots": sum(n for n, _ in self.shapes.values())}

    def check(self, out: dict, ops: Ops) -> None:
        ops.check("predict_exit_code", out["codes"][0] == 0)
        ops.check("eval_exit_code", out["codes"][1] == 0)
        path = self.workdir / "pred" / "predictions.gdml"
        entries = data_io.read_container(path) if path.exists() else {}
        for sid, shape in self.shapes.items():
            check_prediction(ops, "slide_prediction", entries.get(f"pred:{sid}"), shape)
        self.pcc_a = check_pcc_a(ops, read_pcc_a(self.workdir / "eval" / "report.csv"), self.pcc_a)


def read_pcc_a(path: Path) -> float:
    """Summary PCC(A) from an eval ``report.csv``; NaN when absent."""
    if not path.exists():
        return math.nan
    with open(path, newline="") as f:
        for fold, metric, value in csv.reader(f):
            if fold == "summary" and metric == "pcc_a":
                return float(value)
    return math.nan


WORKLOADS = {w.name: w for w in (TrainAblation, TrainQuickstart, SlideInference)}


# ---------------------------------------------------------------------------
# parity fingerprint


def fingerprint(ops: Ops) -> str:
    """Train the acceptance determinism config twice and hash the final
    parameters; a mismatch between the two runs is a failed op."""
    spec = data_io.SynthSpec(
        n_spots=60, n_slides=2, latent_dim=4, n_genes=8, d_in=12, seed=21, n_clusters=3,
    )
    batches = data_io.batches_from_study(data_io.synth_generate(spec))
    mcfg = model.ModelConfig(n_genes=8, d_in=12, d=8, heads=2, neighbor_blocks=1, d_ff=16, dropout=0.1)
    tcfg = trainer.TrainConfig(
        lr=1e-3, batch_size=30, epochs=3, seed=13, k=4, lam=0.8,
        multi_ins_weight=1.0, n_folds=2, kmeans_n_init=2,
    )
    plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 13)
    digests = [params_hash(trainer.train_fold(0, plan, batches, mcfg, tcfg).params_final)
               for _ in range(2)]
    ops.check("determinism_fingerprint", digests[0] == digests[1])
    return digests[0]


def params_hash(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()
