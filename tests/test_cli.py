"""End-to-end CLI tests: pipeline smoke, exit codes, idempotency."""

import configparser
import csv
import errno
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spotalign import cli, data_io, model, trainer
from spotalign.cli import main
from spotalign.data_io import SynthSpec
from spotalign.errors import ContractError, DataError, NumericError
from spotalign.model import ModelConfig
from spotalign.trainer import TrainConfig


SYNTH_SPEC = """\
[synth]
n_spots = 40
n_slides = 2
latent = 4
genes = 10
rho = 0.9
sigma = 0.2
seed = 11
d_in = 12
"""

RUN_CONFIG = """\
[data]
manifest = study/manifest.ini

[model]
d = 8
heads = 2
neighbor_blocks = 1
d_ff = 16
dropout = 0.1

[loss]
k = 4
lambda = 0.8
tau = 0.07
tau_ig = 0.07

[train]
lr = 0.002
batch = 20
epochs = 3
seed = 5
folds = 2
kmeans_n_init = 2

[out]
dir = run
"""


@pytest.fixture
def study_dir(tmp_path):
    spec = tmp_path / "synth.ini"
    spec.write_text(SYNTH_SPEC)
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "study")]) == 0
    return tmp_path


class TestSimulate:
    def test_writes_manifest_and_containers(self, study_dir):
        manifest = study_dir / "study" / "manifest.ini"
        assert manifest.exists()
        batches = data_io.load_study(manifest)
        assert len(batches) == 2
        assert batches[0].n_genes == 10

    def test_rerun_is_deterministic(self, study_dir, tmp_path):
        spec = study_dir / "synth.ini"
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "again")]) == 0
        a = (study_dir / "study" / "S00_local.gdml").read_bytes()
        b = (tmp_path / "again" / "S00_local.gdml").read_bytes()
        assert a == b

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.ini"
        spec.write_text("[synth]\nn_spots = 10\nbananas = 3\n")
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        assert "error: config" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("n_spots", "0"), ("n_spots", "-3"), ("n_slides", "0"), ("n_slides", "-1"),
        ("latent", "-1"), ("latent", "0"), ("genes", "-1"), ("genes", "0"),
        ("d_in", "-2"), ("d_in", "0"), ("neighbor_grid", "-1"), ("seed", "-1"),
        ("sigma", "nan"), ("sigma", "inf"),
        ("count_scale", "-1"), ("count_scale", "0"), ("count_scale", "nan"), ("count_scale", "inf"),
    ])
    def test_impossible_synth_value_exits_2(self, tmp_path, capsys, key, value):
        spec = tmp_path / "bad.ini"
        spec.write_text(f"[synth]\n{key} = {value}\n")
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1, err
        assert key in err, err  # latent and genes are part of their field names
        assert not (tmp_path / "x").exists()


# Short INI names of five fields; every other key is its field name.
ALIASES = {
    "latent_dim": "latent",
    "n_genes": "genes",
    "lam": "lambda",
    "batch_size": "batch",
    "n_folds": "folds",
}
LOSS_FIELDS = ("tau", "tau_ig", "lam", "k")

# A valid value for every settable field, each different from its default.
SYNTH_VALUES = dict(
    n_spots=30, n_slides=3, latent_dim=5, n_genes=7, rho=0.5, sigma=0.1, seed=4, d_in=9,
    neighbor_grid=3, count_scale=10.0, n_clusters=8, cluster_strength=0.85,
)
MODEL_VALUES = dict(d=12, heads=3, neighbor_blocks=1, d_ff=20, dropout=0.2)
TRAIN_VALUES = dict(
    lr=0.01, batch_size=16, epochs=2, seed=8, k=3, lam=0.3,
    tau=0.2, tau_ig=0.3, multi_ins_weight=0.5, n_folds=3, cluster_refresh="epoch",
    kmeans_n_init=2,
)


def ini_section(name, values):
    return f"[{name}]\n" + "".join(f"{ALIASES.get(k, k)} = {v}\n" for k, v in values.items()) + "\n"


def readme_heredoc(filename):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"cat > {re.escape(filename)} <<EOF\n(.*?)EOF\n", readme, re.S).group(1)


class TestConfigSchema:
    def test_every_synth_field_is_settable(self, tmp_path):
        assert set(SYNTH_VALUES) == {f.name for f in fields(SynthSpec)}
        assert all(SYNTH_VALUES[f.name] != f.default for f in fields(SynthSpec))
        spec = tmp_path / "synth.ini"
        spec.write_text(ini_section("synth", SYNTH_VALUES))
        assert cli._load_synth_spec(spec) == SynthSpec(**SYNTH_VALUES)
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "study")]) == 0
        batches = data_io.load_study(tmp_path / "study" / "manifest.ini")
        assert len(batches) == 3
        assert batches[0].neighbor_feat.shape[1:] == (9, 9)

    def test_every_model_and_train_field_is_settable(self, tmp_path):
        study_shapes = {"n_genes", "d_in", "neighbor_tokens"}
        assert set(MODEL_VALUES) == {f.name for f in fields(ModelConfig)} - study_shapes
        assert all(MODEL_VALUES[f.name] != f.default for f in fields(ModelConfig) if f.name in MODEL_VALUES)
        assert set(TRAIN_VALUES) == {f.name for f in fields(TrainConfig)}
        assert all(TRAIN_VALUES[f.name] != f.default for f in fields(TrainConfig))
        loss = {k: v for k, v in TRAIN_VALUES.items() if k in LOSS_FIELDS}
        train = {k: v for k, v in TRAIN_VALUES.items() if k not in LOSS_FIELDS}
        config = tmp_path / "run.ini"
        config.write_text(
            "[data]\nmanifest = study/manifest.ini\n\n"
            + ini_section("model", MODEL_VALUES)
            + ini_section("loss", loss)
            + ini_section("train", train)
            + "[out]\ndir = run\n"
        )
        manifest, out_dir, model_kwargs, train_kwargs = cli._load_run_config(config)
        assert (manifest, out_dir) == (tmp_path / "study" / "manifest.ini", tmp_path / "run")
        assert ModelConfig(n_genes=7, **model_kwargs) == ModelConfig(n_genes=7, **MODEL_VALUES)
        assert TrainConfig(**train_kwargs) == TrainConfig(**TRAIN_VALUES)

    @pytest.mark.parametrize(
        "edits",
        [
            [("data", "bananas = 1")],
            [("model", "n_genes = 10")],
            [("model", "genes = 10")],
            [("model", "bananas = 1")],
            [("model", "d_in = 12")],
            [("model", "neighbor_tokens = 25")],
            [("loss", "batch = 10")],
            [("train", "lambda = 0.5")],
            [("train", "batch_size = 10")],
            [("out", "bananas = 1")],
            [("loss", "target_mode = hard")],
            [("model", "fusion_mode = mean")],
            [("train", "kmeans_max_iter = 100")],
            [("train", "kmeans_tol = 1e-6")],
            [("train", "warp_speed = 9")],
            # a config echoed before these four fields were deleted
            [("model", "fusion_mode = mean"), ("loss", "target_mode = hard"),
             ("train", "kmeans_max_iter = 100"), ("train", "kmeans_tol = 1e-6")],
            # a config echoed before the block depths and the schedule were fixed
            [("model", "global_blocks = 1"), ("model", "fusion_blocks = 1"),
             ("train", "decay = 0.95"), ("train", "decay_every = 20")],
            # a config echoed while [model] still listed the study's shapes
            [("model", "d_in = 12"), ("model", "neighbor_tokens = 25")],
        ],
        ids=lambda edits: "-".join(f"{section}-{line}" for section, line in edits),
    )
    def test_unknown_run_key_exits_2(self, tmp_path, capsys, edits):
        text = RUN_CONFIG
        for section, line in edits:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        config = tmp_path / "run.ini"
        config.write_text(text)
        assert main(["train", "--config", str(config)]) == 2
        named = [f"unknown key {line.split(' =')[0]!r} in section [{section}]" for section, line in edits]
        err = capsys.readouterr().err
        # one line naming every unknown key; one key reads exactly as named[0]
        assert err.startswith("error: config: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert sorted(err[len("error: config: "):-1].split("; ")) == sorted(named), err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cls,name", [
        (cls, f.name) for cls in (ModelConfig, TrainConfig, SynthSpec) for f in fields(cls)
        if f.type == "float"
    ])
    def test_nan_float_field_rejected(self, cls, name):
        required = {"n_genes": 8} if cls is ModelConfig else {}
        with pytest.raises(ContractError, match=name):
            cls(**required, **{name: math.nan})


# Each config the README and these tests use, with the dataclasses it meant
# before keys were derived from the dataclass fields.
QUICKSTART_SPEC = SynthSpec(
    n_spots=400, n_slides=2, latent_dim=16, n_genes=60, rho=0.8, sigma=0.3, seed=0, d_in=64
)
TEST_SPEC = SynthSpec(
    n_spots=40, n_slides=2, latent_dim=4, n_genes=10, rho=0.9, sigma=0.2, seed=11, d_in=12
)
QUICKSTART_RUN = (
    {"d": 24, "heads": 4, "neighbor_blocks": 1, "d_ff": 48},
    TrainConfig(k=25, lam=0.8, tau_ig=0.07, lr=0.005, batch_size=200, epochs=50, seed=0, n_folds=2),
)
TEST_RUN = (
    {"d": 8, "heads": 2, "neighbor_blocks": 1, "d_ff": 16, "dropout": 0.1},
    TrainConfig(
        k=4, lam=0.8, tau=0.07, tau_ig=0.07, lr=0.002, batch_size=20, epochs=3, seed=5,
        n_folds=2, kmeans_n_init=2,
    ),
)


class TestConfigParity:
    @pytest.mark.parametrize(
        "text, expected",
        [(readme_heredoc("synth.ini"), QUICKSTART_SPEC), (SYNTH_SPEC, TEST_SPEC)],
        ids=["readme", "tests"],
    )
    def test_synth_specs(self, tmp_path, text, expected):
        spec = tmp_path / "synth.ini"
        spec.write_text(text)
        assert cli._load_synth_spec(spec) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [(readme_heredoc("run.ini"), QUICKSTART_RUN), (RUN_CONFIG, TEST_RUN)],
        ids=["readme", "tests"],
    )
    def test_run_configs(self, tmp_path, text, expected):
        config = tmp_path / "run.ini"
        config.write_text(text)
        manifest, out_dir, model_kwargs, train_kwargs = cli._load_run_config(config)
        assert manifest == tmp_path / "study" / "manifest.ini"
        assert out_dir == tmp_path / "run"
        assert (model_kwargs, TrainConfig(**train_kwargs)) == expected


class TestTrainPipeline:
    def test_full_pipeline(self, study_dir, monkeypatch):
        calls = []
        evaluate_fold = trainer.evaluate_fold

        def counting(*args):
            calls.append(args[0])
            return evaluate_fold(*args)

        monkeypatch.setattr(trainer, "evaluate_fold", counting)
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG)
        assert main(["train", "--config", str(config)]) == 0
        assert sorted(calls) == [0, 1]  # each fold's final parameters, scored once

        run = study_dir / "run"
        assert (run / "effective_config.ini").exists()
        assert (run / "fold0_final.gdml").exists()
        assert (run / "fold1_final.gdml").exists()
        assert not list(run.glob("*_best.gdml"))
        assert (run / "report.csv").exists()
        assert (run / "fold0_train.log").read_text().startswith("step=")
        # the report scores the final parameters: each fold's PCC(A) is its last epoch's
        with open(run / "report.csv", newline="") as f:
            rows = {(fold, metric): value for fold, metric, value in csv.reader(f)}
        for fold in ("0", "1"):
            last = (run / f"fold{fold}_train.log").read_text().splitlines()[-1]
            assert last.endswith(f" val_pcc_a={float(rows[fold, 'pcc_a']):.6f}"), last

        manifest = study_dir / "study" / "manifest.ini"
        out_eval = study_dir / "eval"
        assert main([
            "eval", "--checkpoint", str(run / "fold0_final.gdml"),
            "--manifest", str(manifest), "--out", str(out_eval),
        ]) == 0
        assert (out_eval / "report.csv").exists()

        out_pred = study_dir / "pred"
        assert main([
            "predict", "--checkpoint", str(run / "fold0_final.gdml"),
            "--manifest", str(manifest), "--out", str(out_pred),
        ]) == 0
        pred_file = out_pred / "predictions.gdml"
        entries = data_io.read_container(pred_file)
        assert "pred:S00" in entries and "coords:S00" in entries
        assert np.all(np.isfinite(entries["pred:S00"]))

        svg_path = study_dir / "map.svg"
        assert main([
            "render", "--predictions", str(pred_file),
            "--gene", "gene_0003", "--out", str(svg_path),
        ]) == 0
        root = ET.fromstring(svg_path.read_text())
        polys = [el for el in root.iter() if el.tag.endswith("polygon")]
        assert len(polys) == entries["pred:S00"].shape[0]

    def test_train_rerun_overwrites_deterministically(self, study_dir):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG)
        assert main(["train", "--config", str(config)]) == 0
        first = (study_dir / "run" / "fold0_final.gdml").read_bytes()
        assert main(["train", "--config", str(config)]) == 0
        assert (study_dir / "run" / "fold0_final.gdml").read_bytes() == first

    def test_parallel_folds_match_sequential(self, study_dir):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG)
        run = study_dir / "run"
        assert main(["train", "--config", str(config)]) == 0
        sequential = {p.name: p.read_bytes() for p in run.iterdir()}
        assert {f"fold{k}_{kind}" for k in (0, 1) for kind in ("final.gdml", "train.log")} <= set(sequential)
        assert main(["train", "--config", str(config), "--jobs", "2"]) == 0
        assert {p.name: p.read_bytes() for p in run.iterdir()} == sequential

    def test_numeric_error_in_fold_1_keeps_fold_0(self, study_dir, capsys, monkeypatch):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG)
        run = study_dir / "run"
        assert main(["train", "--config", str(config)]) == 0
        clean = {p.name: p.read_bytes() for p in run.iterdir()}
        train_step = trainer._train_step
        message = "non-finite gradient for parameter 'pred/w'; step aborted"

        def failing(state, sub, model_cfg, cfg, fold_id, *rest):
            if fold_id == 1 and state.step == 2:
                raise NumericError(message)
            return train_step(state, sub, model_cfg, cfg, fold_id, *rest)

        monkeypatch.setattr(trainer, "_train_step", failing)
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 4
        assert capsys.readouterr().err == f"error: numeric: {message}\n"
        # the rerun writes fold 0 afresh and keeps nothing of the clean run's fold 1
        assert sorted(p.name for p in run.iterdir()) == [
            "effective_config.ini", "fold0_final.gdml", "fold0_train.log", "fold1_train.log", "genes.txt",
        ]
        for name in ("effective_config.ini", "fold0_final.gdml", "fold0_train.log", "genes.txt"):
            assert (run / name).read_bytes() == clean[name], name
        # fold 1's log keeps every line before the failing step
        lines = clean["fold1_train.log"].decode().splitlines(keepends=True)
        failed_at = next(i for i, line in enumerate(lines) if line.startswith("step=2 "))
        assert failed_at == 3 and lines[failed_at - 1].startswith("epoch=0 ")
        assert (run / "fold1_train.log").read_text() == "".join(lines[:failed_at])

    @pytest.mark.parametrize("refresh", ["batch", "epoch"])
    def test_diverging_run_exits_4(self, tmp_path, capsys, refresh):
        spec = tmp_path / "synth.ini"
        spec.write_text(SYNTH_SPEC.replace("n_spots = 40\n", "n_spots = 120\n"))
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "study")]) == 0
        config = tmp_path / "run.ini"
        config.write_text(RUN_CONFIG.replace("lr = 0.002\n", f"lr = 1e150\ncluster_refresh = {refresh}\n"))
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(config)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numeric: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("refresh,jobs", [("batch", 1), ("epoch", 1), ("batch", 2)])
    def test_diverging_run_writes_one_stderr_line(self, tmp_path, refresh, jobs):
        # the installed entry point in a fresh interpreter, where numpy reports
        # floating-point faults as it does outside pytest
        spec = tmp_path / "synth.ini"
        spec.write_text(SYNTH_SPEC.replace("n_spots = 40\n", "n_spots = 120\n"))
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "study")]) == 0
        config = tmp_path / "run.ini"
        config.write_text(RUN_CONFIG.replace("lr = 0.002\n", f"lr = 1e150\ncluster_refresh = {refresh}\n"))
        src = Path(cli.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from spotalign.cli import main; sys.exit(main())",
             "train", "--config", str(config), "--jobs", str(jobs)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.getenv("PYTHONPATH")]))},
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("error: numeric: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_rerun_removes_every_earlier_fold(self, study_dir):
        # a folds = 3 run, say, left fold2_*: this two-fold run keeps none of them
        run = study_dir / "run"
        run.mkdir()
        stale = ["fold2_final.gdml", "fold2_train.log", "fold10_final.gdml"]
        kept = ["fold2_final.gdml.bak", "foldx_train.log", "notes.txt"]
        for name in stale + kept:
            (run / name).write_text("an earlier run's\n")
        assert run_on_study("train", study_dir) == 0
        assert sorted(p.name for p in run.iterdir()) == sorted([
            *kept, "effective_config.ini", "genes.txt", "report.csv", "summary.txt",
            "fold0_final.gdml", "fold0_train.log", "fold1_final.gdml", "fold1_train.log",
        ])

    def test_fold_pool_workers_start_with_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        with cli._fold_pool(2) as pool:
            assert list(pool.map(os.getenv, names, timeout=60)) == ["1", "1"]
        assert [os.environ.get(name) for name in names] == ["2", None]

    def test_effective_config_retrains_bit_identically(self, study_dir):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG)
        assert main(["train", "--config", str(config)]) == 0
        run = study_dir / "run"

        echoed = configparser.ConfigParser(interpolation=None)
        echoed.optionxform = str
        echoed.read(run / "effective_config.ini")
        assert "cluster_refresh" in echoed["train"]
        assert not {"n_genes", "d_in", "neighbor_tokens"} & set(echoed["model"])
        echoed["out"]["dir"] = "again"
        rerun = study_dir / "rerun.ini"
        with open(rerun, "w") as f:
            echoed.write(f)
        assert main(["train", "--config", str(rerun)]) == 0

        checkpoints = sorted(p.name for p in run.glob("*.gdml"))
        assert checkpoints == ["fold0_final.gdml", "fold1_final.gdml"]
        for name in checkpoints:
            assert (study_dir / "again" / name).read_bytes() == (run / name).read_bytes()

    def test_study_sets_input_shapes(self, tmp_path):
        spec = tmp_path / "synth.ini"
        spec.write_text(SYNTH_SPEC.replace("d_in = 12\n", "d_in = 9\nneighbor_grid = 3\n"))
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "study")]) == 0
        config = tmp_path / "run.ini"
        config.write_text(RUN_CONFIG)
        assert main(["train", "--config", str(config)]) == 0
        _, cfg = model.load_checkpoint(tmp_path / "run" / "fold0_final.gdml")
        assert (cfg.n_genes, cfg.d_in, cfg.neighbor_tokens) == (10, 9, 9)

    def test_zero_heads_exits_2(self, study_dir, capsys):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG.replace("heads = 2\n", "heads = 0\n"))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("key,value", [
        ("neighbor_blocks", "-1"), ("dropout", "1.5"), ("d_ff", "-3"),
    ])
    def test_impossible_model_size_exits_2(self, study_dir, capsys, key, value):
        config = study_dir / "run.ini"
        text = re.sub(rf"^{key} = .*\n", "", RUN_CONFIG, flags=re.M)
        config.write_text(text.replace("[model]\n", f"[model]\n{key} = {value}\n"))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1, err
        assert key in err, err
        assert not (study_dir / "run").exists()

    @pytest.mark.parametrize("key,value", [
        ("lambda", "nan"), ("multi_ins_weight", "nan"), ("tau_ig", "inf"),
        ("kmeans_n_init", "0"), ("kmeans_n_init", "-2"), ("lr", "nan"), ("tau", "nan"),
        ("seed", "-1"), ("--jobs", "0"), ("--jobs", "-3"),
    ])
    def test_impossible_train_value_exits_2(self, study_dir, capsys, key, value):
        field = {alias: name for name, alias in ALIASES.items()}.get(key, key)
        section = "loss" if field in LOSS_FIELDS else "train"
        flags = [key, value] if key.startswith("--") else []  # a command-line flag
        config = study_dir / "run.ini"
        text = re.sub(rf"^{key} = .*\n", "", RUN_CONFIG, flags=re.M)
        if not flags:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        config.write_text(text)
        assert main(["train", "--config", str(config), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1, err
        assert field in err, err
        assert not (study_dir / "run").exists()

    def test_duplicate_section_exits_2(self, study_dir, capsys):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG + "\n[train]\nwarp_speed = 9\n")
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: malformed ") and err.count("\n") == 1, err
        assert "section 'train' already exists" in err, err

    def test_missing_manifest_exits_3(self, study_dir, capsys):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG.replace("study/manifest.ini", "nowhere/m.ini"))
        assert main(["train", "--config", str(config)]) == 3
        assert "error: data" in capsys.readouterr().err


class TestEvalFixtures:
    def test_identity_predictions_score_perfectly(self, study_dir):
        manifest = study_dir / "study" / "manifest.ini"
        batches = data_io.load_study(manifest)
        entries = {}
        for b in batches:
            entries[f"pred:{b.sample_id}"] = b.expression
            entries[f"coords:{b.sample_id}"] = b.coords
        fixture = study_dir / "identity.gdml"
        data_io.write_container(fixture, entries)

        out = study_dir / "eval_identity"
        assert main([
            "eval", "--predictions", str(fixture),
            "--manifest", str(manifest), "--out", str(out),
        ]) == 0
        with open(out / "report.csv") as f:
            rows = {(r[0], r[1]): r[2] for r in csv.reader(f)}
        assert float(rows[("summary", "mse")]) == 0.0
        assert float(rows[("summary", "pcc_a")]) == pytest.approx(1.0, abs=1e-12)

    def test_eval_requires_exactly_one_source(self, study_dir, capsys):
        manifest = study_dir / "study" / "manifest.ini"
        assert main(["eval", "--manifest", str(manifest), "--out", str(study_dir / "x")]) == 2

    def test_shape_mismatch_exits_3(self, study_dir, capsys):
        manifest = study_dir / "study" / "manifest.ini"
        batches = data_io.load_study(manifest)
        entries = {f"pred:{b.sample_id}": b.expression[:, :-1] for b in batches}
        fixture = study_dir / "short.gdml"
        data_io.write_container(fixture, entries)
        assert main([
            "eval", "--predictions", str(fixture),
            "--manifest", str(manifest), "--out", str(study_dir / "y"),
        ]) == 3


class TestGeneLists:
    """A checkpoint or predictions container is for the genes, in the order,
    of the ``genes.txt`` beside it."""

    def test_train_writes_the_study_genes(self, study_dir):
        assert run_on_study("train", study_dir) == 0
        genes = data_io.read_gene_list(study_dir / "study" / "genes.txt")
        assert (study_dir / "run" / "genes.txt").read_text() == "".join(f"{g}\n" for g in genes)

    @pytest.mark.parametrize("command", ["eval", "eval --predictions", "predict"])
    def test_reordered_study_genes_exit_3_before_inference(self, study_dir, capsys, monkeypatch, command):
        manifest, study_genes = study_dir / "study" / "manifest.ini", study_dir / "study" / "genes.txt"
        genes = data_io.read_gene_list(study_genes)
        made_for = study_dir / "genes.txt"  # beside run_on_study's checkpoint and the predictions below
        data_io.write_gene_list(made_for, genes)
        data_io.write_gene_list(study_genes, genes[::-1])
        calls = spy(monkeypatch, trainer, "infer")
        if command == "eval --predictions":
            predictions = study_dir / "predictions.gdml"
            data_io.write_container(predictions, {
                f"pred:{b.sample_id}": b.expression for b in data_io.load_study(manifest)})
            code = main(["eval", "--predictions", str(predictions),
                         "--manifest", str(manifest), "--out", str(study_dir / "p")])
        else:
            code = run_on_study(command, study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert f"{made_for} lists {genes[0]!r} as gene 1 where {study_genes} lists {genes[-1]!r}" in err, err
        assert calls == []
        assert not (study_dir / "p").exists()


def assert_one_error(code, err, want):
    assert code == want
    category = {2: "config", 3: "data"}[want]
    assert err.startswith(f"error: {category}: ") and err.count("\n") == 1, err


def assert_one_data_error(code, err):
    assert_one_error(code, err, 3)


def container_layout(blob):
    """Byte ranges of the header fields of a valid container, keyed by entry
    name ("" for the file header), and each entry's payload byte range."""
    header, payloads, offset = {"": range(10)}, {}, 10
    for _ in range(struct.unpack_from("<I", blob, 6)[0]):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        name = blob[offset + 2 : offset + 2 + name_len].decode()
        tag, rank = struct.unpack_from("<BB", blob, offset + 2 + name_len)
        dims = struct.unpack_from(f"<{rank}I", blob, offset + 4 + name_len)
        start = offset + 4 + name_len + 4 * rank
        header[name] = range(offset, start)
        offset = start + math.prod(dims) * {1: 4, 2: 8, 3: 4}[tag]
        payloads[name] = range(start, offset)
    assert offset == len(blob)
    return header, payloads


def raw_entry(name, tag, rank, dims):
    """A one-entry container with no payload, written byte by byte."""
    encoded = name.encode()
    return (data_io.MAGIC + struct.pack("<HIH", data_io.VERSION, 1, len(encoded)) + encoded
            + struct.pack(f"<BB{rank}I", tag, rank, *dims))


def spy(monkeypatch, module, name):
    """Record every call of ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def record(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, record)
    return calls


def run_on_study(command, study_dir, out="p"):
    """Exit code of ``command`` on the study under ``study_dir``, writing to ``out``."""
    manifest = study_dir / "study" / "manifest.ini"
    if command == "train":
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG)
        return main(["train", "--config", str(config)])
    cfg = ModelConfig(n_genes=10, d_in=12, d=8, heads=2, neighbor_blocks=1, d_ff=16)
    checkpoint = study_dir / "ck.gdml"
    model.save_checkpoint(checkpoint, model.init_params(cfg, 0), cfg)
    return main([
        command, "--checkpoint", str(checkpoint),
        "--manifest", str(manifest), "--out", str(study_dir / out),
    ])


class TestMalformedInputs:
    def test_container_truncated_at_every_offset_exits_3(self, tmp_path, capsys):
        full = tmp_path / "full.gdml"
        data_io.write_container(full, {"pred:T": np.arange(6.0).reshape(2, 3)})
        blob = full.read_bytes()
        cut = tmp_path / "cut.gdml"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            code = main([
                "render", "--predictions", str(cut), "--gene", "g0", "--out", str(tmp_path / "x.svg"),
            ])
            assert_one_data_error(code, capsys.readouterr().err)
        # a name that is not UTF-8: byte 12 is the first byte of the first name
        cut.write_bytes(blob[:12] + b"\xff" + blob[13:])
        code = main([
            "render", "--predictions", str(cut), "--gene", "g0", "--out", str(tmp_path / "x.svg"),
        ])
        assert_one_data_error(code, capsys.readouterr().err)

    def test_truncated_checkpoint_exits_3(self, study_dir, capsys):
        cfg = ModelConfig(n_genes=10, d_in=12, d=8, heads=2, neighbor_blocks=1, d_ff=16)
        checkpoint = study_dir / "ck.gdml"
        model.save_checkpoint(checkpoint, model.init_params(cfg, 0), cfg)
        checkpoint.write_bytes(checkpoint.read_bytes()[:7])
        code = main([
            "eval", "--checkpoint", str(checkpoint),
            "--manifest", str(study_dir / "study" / "manifest.ini"), "--out", str(study_dir / "e"),
        ])
        assert_one_data_error(code, capsys.readouterr().err)

    def test_corrupted_checkpoint_bytes_load_or_raise_data_error(self, tmp_path):
        # every header byte and every config payload byte of a small
        # checkpoint, set to 0x00, 0xff, 0x7f and to itself with bit 0 flipped;
        # no neighbor blocks, so 60 entries, and neighbor_blocks reads 0.0,
        # which corrupts to counts as large as 5e303.  The 32 global and fusion
        # block headers share one layout, so of each block only one rank-1 and
        # one rank-2 header.  Then every payload byte of two small parameter
        # entries with bit 0 flipped.
        cfg = ModelConfig(n_genes=2, d_in=2, d=2, heads=1, neighbor_blocks=0, d_ff=2)
        path = tmp_path / "ck.gdml"
        model.save_checkpoint(path, model.init_params(cfg, 0), cfg)
        blob = path.read_bytes()
        header, payloads = container_layout(blob)
        blocks, kept = ("param:global/block0/", "param:fusion/block0/"), ("ln1/g", "attn/wq")
        header = [i for name, span in header.items()
                  if not name.startswith(blocks) or name.endswith(kept) for i in span]
        config = [i for name, span in payloads.items() if name.startswith("config:") for i in span]
        params = [i for name in ("param:proj_local/w", "param:gene/enc/b1") for i in payloads[name]]
        bad = tmp_path / "bad.gdml"
        outcomes, escapes = {"loaded": 0, "data_error": 0}, []

        def load(i, value):
            bad.write_bytes(blob[:i] + bytes([value]) + blob[i + 1 :])
            try:
                model.load_checkpoint(bad)
                outcomes["loaded"] += 1
            except DataError:
                outcomes["data_error"] += 1
            except Exception as exc:  # would leave the CLI as a traceback
                escapes.append(f"byte {i} = {value:#04x}: {type(exc).__name__}: {exc}")

        for i in header + config:
            for value in {0x00, 0xFF, 0x7F, blob[i] ^ 1} - {blob[i]}:
                load(i, value)
        assert outcomes["data_error"] > outcomes["loaded"] > 0
        for i in params:
            load(i, blob[i] ^ 1)
        assert not escapes, f"{len(escapes)} escapes, first: {escapes[:5]}"
        assert len(params) == 48

    @pytest.mark.parametrize("fault", [
        "dims_product_wraps", "zero_size_dims_overflow", "rank_above_64", "inf_value",
        "nan_value", "fractional_size", "empty_entry", "concat_fusion_parameter", "heads_zero",
        "heads_negative", "heads_do_not_divide_d", "nan_parameter", "neighbor_blocks_negative",
        "dropout_above_one", "neighbor_tokens_zero", "d_ff_negative", "d_in_zero", "n_genes_zero",
        "second_global_block",
    ])
    def test_corrupt_checkpoint_exits_3(self, study_dir, capsys, fault):
        cfg = ModelConfig(n_genes=10, d_in=12, d=8, heads=2, neighbor_blocks=1, d_ff=16)
        checkpoint = study_dir / "ck.gdml"
        model.save_checkpoint(checkpoint, model.init_params(cfg, 0), cfg)
        if fault == "dims_product_wraps":  # 2**64 elements: 0 in int64 arithmetic
            checkpoint.write_bytes(raw_entry("config:d", 2, 4, (2**16,) * 4))
        elif fault == "zero_size_dims_overflow":  # 0 elements, but numpy cannot shape them
            checkpoint.write_bytes(raw_entry("config:d", 2, 3, (0, 2**32 - 1, 2**32 - 1)))
        elif fault == "rank_above_64":  # zero elements, so no payload is needed
            checkpoint.write_bytes(raw_entry("config:d", 2, 65, (0,) + (1,) * 64))
        elif fault == "second_global_block":  # written when the global depth was a setting
            entries = data_io.read_container(checkpoint)
            entries["config:global_blocks"] = np.array([2.0])
            entries.update({name.replace("block0", "block1"): arr for name, arr in entries.items()
                            if name.startswith("param:global/block0/")})
            data_io.write_container(checkpoint, entries)
        else:
            key, value = {
                "inf_value": ("config:d", [np.inf]),
                "nan_value": ("config:heads", [np.nan]),
                "fractional_size": ("config:d", [8.5]),
                "empty_entry": ("config:heads", []),
                "concat_fusion_parameter": ("param:fusion/out/b", [0.0] * 8),
                "heads_zero": ("config:heads", [0.0]),
                "heads_negative": ("config:heads", [-1.0]),
                "heads_do_not_divide_d": ("config:heads", [3.0]),
                "nan_parameter": ("param:pred/b", [np.nan] * 10),
                "neighbor_blocks_negative": ("config:neighbor_blocks", [-1.0]),
                "dropout_above_one": ("config:dropout", [1.5]),
                "neighbor_tokens_zero": ("config:neighbor_tokens", [0.0]),
                "d_ff_negative": ("config:d_ff", [-16.0]),
                "d_in_zero": ("config:d_in", [0.0]),
                "n_genes_zero": ("config:n_genes", [0.0]),
            }[fault]
            entries = data_io.read_container(checkpoint)
            entries[key] = np.array(value, dtype=np.float64)
            data_io.write_container(checkpoint, entries)
        code = main([
            "predict", "--checkpoint", str(checkpoint),
            "--manifest", str(study_dir / "study" / "manifest.ini"), "--out", str(study_dir / "p"),
        ])
        assert_one_data_error(code, capsys.readouterr().err)

    def test_older_checkpoints_group_head_is_dropped(self, study_dir, capsys):
        # checkpoints written before the never-trained group_* head was
        # deleted carry it between gene/ffn/* and pred/w
        cfg = ModelConfig(n_genes=10, d_in=12, d=8, heads=2, neighbor_blocks=1, d_ff=16)
        current = study_dir / "ck.gdml"
        model.save_checkpoint(current, model.init_params(cfg, 0), cfg)
        rng = np.random.default_rng(0)
        head = {f"param:group_{m}/{p}": rng.normal(size=(8, 8) if p == "w" else 8)
                for m in ("image", "gene") for p in "wb"}
        older = {}
        for name, arr in data_io.read_container(current).items():
            if name == "param:pred/w":
                older.update(head)
            older[name] = arr
        data_io.write_container(study_dir / "older.gdml", older)
        data_io.write_container(study_dir / "stray.gdml", older | {"param:group_fused/w": np.eye(8)})

        def predict(name):
            return main(["predict", "--checkpoint", str(study_dir / f"{name}.gdml"),
                         "--manifest", str(study_dir / "study" / "manifest.ini"),
                         "--out", str(study_dir / name)])

        params, _ = model.load_checkpoint(study_dir / "older.gdml")
        assert list(params) == list(model.param_shapes(cfg))
        assert predict("ck") == 0 and predict("older") == 0
        assert (study_dir / "older" / "predictions.gdml").read_bytes() == (
            study_dir / "ck" / "predictions.gdml").read_bytes()
        capsys.readouterr()
        code = predict("stray")  # any other unknown parameter name still fails
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert "parameter names do not match" in err

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    @pytest.mark.parametrize("fault", [
        "non_integer_coord", "no_study_genes", "no_study_columns", "empty_gene_selection",
        "repeated_column", "repeated_gene",
    ])
    def test_malformed_study_exits_3(self, study_dir, capsys, command, fault):
        study = study_dir / "study"
        manifest = study / "manifest.ini"
        if fault == "non_integer_coord":
            coords = study / "S00_coords.tsv"
            lines = coords.read_text().splitlines()
            lines[1] = lines[1].rsplit("\t", 1)[0] + "\t1.5"
            coords.write_text("\n".join(lines) + "\n")
        elif fault == "empty_gene_selection":
            (study / "genes.txt").write_text("# no genes selected\n")
        elif fault.startswith("repeated_"):  # gene_0002 in place of gene_0003
            text = study / ("columns.txt" if fault == "repeated_column" else "genes.txt")
            text.write_text(text.read_text().replace("gene_0003\n", "gene_0002\n"))
        else:
            key = fault.rsplit("_", 1)[1]
            manifest.write_text(manifest.read_text().replace(f"{key} = {key}.txt\n", ""))
        code = run_on_study(command, study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        if fault == "empty_gene_selection":
            assert f"{study / 'genes.txt'}: selects no genes" in err, err
        if fault.startswith("repeated_"):
            assert f"{text}: repeated name 'gene_0002'" in err, err
        assert not (study_dir / "run").exists()  # train wrote nothing
        assert not (study_dir / "p").exists()  # predict wrote nothing

    def test_one_spot_sample_exits_3_when_scored(self, tmp_path, capsys):
        spec = tmp_path / "synth.ini"
        spec.write_text(SYNTH_SPEC.replace("n_spots = 40\n", "n_spots = 1\n"))
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "study")]) == 0
        capsys.readouterr()
        assert run_on_study("predict", tmp_path) == 0  # predicting needs no second spot
        predictions = tmp_path / "p" / "predictions.gdml"
        assert data_io.read_container(predictions)["pred:S00"].shape == (1, 10)
        for command in ("train", "eval", "eval-predictions"):
            if command == "eval-predictions":
                code = main(["eval", "--predictions", str(predictions), "--manifest",
                             str(tmp_path / "study" / "manifest.ini"), "--out", str(tmp_path / "e")])
            else:
                code = run_on_study(command, tmp_path)
            err = capsys.readouterr().err
            assert_one_data_error(code, err)
            assert "sample S00 has 1 spot(s)" in err, err
        assert not (tmp_path / "run").exists()  # train stopped before any fold trained
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_sample_with_no_spots_exits_3(self, study_dir, capsys, command):
        # every spot of S01 has a zero total, so loading drops them all
        expression = study_dir / "study" / "S01_expression.gdml"
        counts = data_io.read_container(expression)["counts"]
        data_io.write_container(expression, {"counts": np.zeros_like(counts)})
        with pytest.warns(UserWarning, match="S01: dropped 40 zero-total"):
            code = run_on_study(command, study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert "sample S01 has 0 spot(s)" in err, err
        assert not (study_dir / "run").exists() and not (study_dir / "p").exists()

    def test_sample_id_too_long_for_an_entry_name_exits_3(self, study_dir, capsys):
        manifest = study_dir / "study" / "manifest.ini"
        sid = "S" * 70_000
        manifest.write_text(manifest.read_text().replace("[sample:S01]", f"[sample:{sid}]"))
        code = run_on_study("predict", study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert f"{manifest}: entry 'pred:{sid[:35]}'" in err, err[:200]
        assert not (study_dir / "p").exists()  # predict wrote nothing

    # 65,530 bytes fit in a pred: entry name but not in a coords: one
    @pytest.mark.parametrize("length,entry", [(70_000, "pred"), (65_530, "coords")])
    def test_sample_id_too_long_exits_3_before_inference(self, study_dir, capsys, monkeypatch,
                                                         length, entry):
        calls = spy(monkeypatch, trainer, "infer")
        manifest = study_dir / "study" / "manifest.ini"
        sid = "S" * length  # sorts after S00, which would be inferred first
        manifest.write_text(manifest.read_text().replace("[sample:S01]", f"[sample:{sid}]"))
        code = run_on_study("predict", study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        name = f"{entry}:{sid}"
        assert f"{manifest}: entry {name[:40]!r}... has a {len(name)}-byte name" in err, err[:200]
        assert calls == []
        assert not (study_dir / "p").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_neighbor_token_mismatch_names_the_sample(self, study_dir, capsys, command):
        for sid in ("S00", "S01"):  # 9 tokens where run_on_study's checkpoint expects 25
            path = study_dir / "study" / f"{sid}_neighbor.gdml"
            data_io.write_container(path, {"neighbor": data_io.read_container(path)["neighbor"][:, :9]})
        code = run_on_study(command, study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert "sample S00 has 9 neighbor tokens, model expects 25" in err, err
        assert not (study_dir / "p").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("out,code", [("p", errno.EEXIST), ("p/out", errno.ENOTDIR)],
                             ids=["file", "under_file"])
    def test_out_naming_a_file_exits_5_before_inference(self, study_dir, capsys, monkeypatch,
                                                        command, out, code):
        calls = spy(monkeypatch, trainer, "infer")
        loads = spy(monkeypatch, data_io, "load_study")
        (study_dir / "p").write_text("not a directory\n")
        assert run_on_study(command, study_dir, out) == 5
        err = capsys.readouterr().err
        assert err == f"error: io: [Errno {code}] {os.strerror(code)}: '{study_dir / out}'\n", err
        assert calls == [] and loads == []
        assert (study_dir / "p").read_text() == "not a directory\n"

    @pytest.mark.parametrize("flag", ["--checkpoint", "--predictions"])
    def test_eval_opens_its_model_before_the_study(self, study_dir, capsys, monkeypatch, flag):
        loads = spy(monkeypatch, data_io, "load_study")
        missing = study_dir / "missing.gdml"
        code = main(["eval", flag, str(missing), "--manifest", str(study_dir / "study" / "manifest.ini"),
                     "--out", str(study_dir / "e")])
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert f"cannot read container {missing}" in err, err
        assert loads == []
        assert not (study_dir / "e").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_coordinate_outside_int32_exits_3(self, study_dir, capsys, command):
        coords = study_dir / "study" / "S00_coords.tsv"
        lines = coords.read_text().splitlines()
        lines[2] = lines[2].rsplit("\t", 1)[0] + "\t3000000000"
        coords.write_text("\n".join(lines) + "\n")
        code = run_on_study(command, study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert f"{coords}: line 3: " in err, err

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    @pytest.mark.parametrize("fault,file", [
        ("nan_local", "S01_local.gdml"),
        ("inf_neighbor", "S01_neighbor.gdml"),
        ("d_in", "S01_local.gdml"),
        ("tokens", "S01_neighbor.gdml"),
        ("zero_d_in", "S00_local.gdml"),
        ("zero_tokens", "S00_neighbor.gdml"),
        ("nan_counts", "S01_expression.gdml"),
        ("inf_counts", "S01_expression.gdml"),
        ("negative_count", "S01_expression.gdml"),
        ("negative_zero_total", "S01_expression.gdml"),
        ("huge_count", "S01_expression.gdml"),
    ])
    def test_bad_image_features_exit_3_naming_the_file(
        self, study_dir, capsys, command, fault, file
    ):
        study = study_dir / "study"

        def rewrite(entry, change, name=None, sid="S01"):
            path = study / f"{sid}_{entry}.gdml"
            name = name or entry
            data_io.write_container(path, {name: change(data_io.read_container(path)[name])})

        if fault == "nan_local":
            rewrite("local", lambda a: np.where(a == a.flat[7], np.nan, a))
        elif fault == "inf_neighbor":
            rewrite("neighbor", lambda a: np.where(a == a.flat[7], np.inf, a))
        elif fault == "d_in":
            rewrite("local", lambda a: a[:, :-1])
            rewrite("neighbor", lambda a: a[:, :, :-1])
        elif fault == "tokens":
            rewrite("neighbor", lambda a: a[:, :-1])
        elif fault.startswith("zero_"):  # every sample, so all match the first one's shapes
            for sid in ("S00", "S01"):
                if fault == "zero_d_in":
                    rewrite("local", lambda a: a[:, :0], sid=sid)
                rewrite("neighbor", lambda a: a[..., :0] if fault == "zero_d_in" else a[:, :0], sid=sid)
        else:
            # one NaN, one inf, a negative count in a spot with a positive total, and a
            # spot of (-4, 4, 0, ...) whose zero total preprocessing would have dropped
            def spot3(a):
                a = a.astype(np.float64)
                if fault == "negative_zero_total":
                    a[3] = 0.0
                a[3, :2] = {"nan_counts": (np.nan, 1.0), "inf_counts": (np.inf, 1.0),
                            "negative_count": (-1.0, 5.0), "negative_zero_total": (-4.0, 4.0),
                            "huge_count": (1e305, 1.0)}[fault]
                return a

            rewrite("expression", spot3, name="counts")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_on_study(command, study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert file in err
        assert not (study_dir / "run").exists() and not (study_dir / "p").exists()


class TestTextInputs:
    """Every text input that cannot be read or is not UTF-8 ends in one error
    line: study files exit 3, the run config and the synth spec exit 2."""

    @pytest.mark.parametrize("fault", ["non_utf8", "missing"])
    @pytest.mark.parametrize("name,want", [
        ("manifest", 3), ("genes", 3), ("columns", 3), ("coords", 3), ("render_genes", 3),
        ("run_config", 2), ("synth_spec", 2),
    ])
    def test_unreadable_text_input(self, study_dir, capsys, name, want, fault):
        study = study_dir / "study"
        (study_dir / "run.ini").write_text(RUN_CONFIG)
        batches = data_io.load_study(study / "manifest.ini")
        fixture = study_dir / "p.gdml"
        data_io.write_container(fixture, {"pred:S00": batches[0].expression,
                                          "coords:S00": batches[0].coords})
        data_io.write_gene_list(study_dir / "genes.txt", [f"gene_{i:04d}" for i in range(10)])
        path = {
            "manifest": study / "manifest.ini", "genes": study / "genes.txt",
            "columns": study / "columns.txt", "coords": study / "S01_coords.tsv",
            "render_genes": study_dir / "genes.txt", "run_config": study_dir / "run.ini",
            "synth_spec": study_dir / "synth.ini",
        }[name]
        if fault == "missing":
            path.unlink()
        elif name == "coords":  # spot ids are free text: only the decoding can fail
            path.write_bytes(path.read_bytes().replace(b"_spot0001", b"_spot\xff001"))
        else:  # a comment line: only the decoding can fail
            path.write_bytes(path.read_bytes() + b"# \xff\n")
        if name == "render_genes":
            code = main(["render", "--predictions", str(fixture), "--gene", "gene_0000",
                         "--genes", str(path), "--out", str(study_dir / "x.svg")])
        elif name == "synth_spec":
            code = main(["simulate", "--spec", str(path), "--out", str(study_dir / "again")])
        elif name == "run_config":
            code = main(["train", "--config", str(path)])
        else:
            code = run_on_study("predict", study_dir)
        assert_one_error(code, capsys.readouterr().err, want)


class TestNonFinitePredictions:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_eval_exits_3(self, study_dir, capsys, value):
        manifest = study_dir / "study" / "manifest.ini"
        entries = {f"pred:{b.sample_id}": b.expression for b in data_io.load_study(manifest)}
        entries["pred:S01"] = entries["pred:S01"].copy()
        entries["pred:S01"].flat[7] = value  # one entry of one sample
        fixture = study_dir / "bad.gdml"
        data_io.write_container(fixture, entries)
        code = main(["eval", "--predictions", str(fixture),
                     "--manifest", str(manifest), "--out", str(study_dir / "e")])
        assert_one_data_error(code, capsys.readouterr().err)
        assert not (study_dir / "e" / "report.csv").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_render_exits_3(self, tmp_path, capsys, value):
        fixture = tmp_path / "p.gdml"
        data_io.write_container(fixture, {
            "pred:T": np.full((2, 1), value),
            "coords:T": np.array([[0, 0], [0, 1]], dtype=np.int32),
        })
        data_io.write_gene_list(tmp_path / "genes.txt", ["g0"])
        out = tmp_path / "x.svg"
        code = main(["render", "--predictions", str(fixture), "--gene", "g0", "--out", str(out)])
        assert_one_data_error(code, capsys.readouterr().err)
        assert not out.exists()


class TestRenderFixture:
    def test_three_spot_fixture_fills_match_normalized_values(self, tmp_path):
        from spotalign.render import value_to_color

        fixture = tmp_path / "p.gdml"
        data_io.write_container(
            fixture,
            {
                "pred:T": np.array([[1.0], [3.0], [5.0]]),
                "coords:T": np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int32),
            },
        )
        data_io.write_gene_list(tmp_path / "genes.txt", ["g0"])
        out = tmp_path / "three.svg"
        assert main([
            "render", "--predictions", str(fixture), "--gene", "g0", "--out", str(out),
        ]) == 0
        root = ET.fromstring(out.read_text())
        polys = [el for el in root.iter() if el.tag.endswith("polygon")]
        assert len(polys) == 3
        assert [p.get("fill") for p in polys] == [value_to_color(t) for t in (0.0, 0.5, 1.0)]

    def test_negative_coordinates_stay_on_the_canvas(self, tmp_path):
        fixture = tmp_path / "p.gdml"
        coords = np.array([[-3, -4], [0, 0], [2, 5], [-1, 2]], dtype=np.int32)
        data_io.write_container(fixture, {"pred:T": np.arange(4.0)[:, None], "coords:T": coords})
        data_io.write_gene_list(tmp_path / "genes.txt", ["g0"])
        out = tmp_path / "neg.svg"
        assert main(["render", "--predictions", str(fixture), "--gene", "g0", "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        width, height = float(root.get("width")), float(root.get("height"))
        polys = [el for el in root.iter() if el.tag.endswith("polygon")]
        assert len(polys) == 4
        for poly in polys:
            for point in poly.get("points").split():
                x, y = map(float, point.split(","))
                assert 0 <= x <= width and 0 <= y <= height, (point, width, height)


class TestRenderErrors:
    def test_unknown_gene_exits_3(self, study_dir, capsys):
        manifest = study_dir / "study" / "manifest.ini"
        batches = data_io.load_study(manifest)
        fixture = study_dir / "p.gdml"
        data_io.write_container(
            fixture,
            {
                "pred:S00": batches[0].expression,
                "coords:S00": batches[0].coords,
            },
        )
        data_io.write_gene_list(study_dir / "genes.txt", [f"gene_{i:04d}" for i in range(10)])
        code = main([
            "render", "--predictions", str(fixture),
            "--gene", "NOPE", "--out", str(study_dir / "x.svg"),
        ])
        assert code == 3
        assert "error: data" in capsys.readouterr().err

    def test_prediction_without_coords_exits_3(self, tmp_path, capsys):
        fixture = tmp_path / "p.gdml"
        data_io.write_container(fixture, {"pred:T": np.ones((2, 3))})
        data_io.write_gene_list(tmp_path / "genes.txt", ["g0", "g1", "g2"])
        code = main([
            "render", "--predictions", str(fixture), "--gene", "g0", "--out", str(tmp_path / "x.svg"),
        ])
        assert_one_data_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize("coords", [
        np.zeros((0, 2), dtype=np.int32),
        np.array([[0.0, 0.0], [0.0, np.nan]]),
        np.array([[0.5, 0.0], [0.0, 1.0]]),
        np.array([0, 1], dtype=np.int32),
        np.zeros((2, 3), dtype=np.int32),
    ], ids=["no_rows", "nan", "float", "one_dim", "three_columns"])
    def test_coords_it_cannot_draw_exits_3(self, tmp_path, capsys, coords):
        fixture = tmp_path / "p.gdml"
        data_io.write_container(fixture, {"pred:S": np.ones((len(coords), 3)), "coords:S": coords})
        data_io.write_gene_list(tmp_path / "genes.txt", ["g0", "g1", "g2"])
        code = main([
            "render", "--predictions", str(fixture), "--gene", "g0", "--out", str(tmp_path / "x.svg"),
        ])
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert "coords:S " in err, err
        assert not (tmp_path / "x.svg").exists()

    def test_fewer_prediction_columns_than_genes_exits_3(self, tmp_path, capsys):
        fixture = tmp_path / "p.gdml"
        data_io.write_container(fixture, {
            "pred:T": np.ones((2, 2)),
            "coords:T": np.array([[0, 0], [0, 1]], dtype=np.int32),
        })
        data_io.write_gene_list(tmp_path / "genes.txt", ["g0", "g1", "g2"])
        code = main([
            "render", "--predictions", str(fixture), "--gene", "g2", "--out", str(tmp_path / "x.svg"),
        ])
        assert_one_data_error(code, capsys.readouterr().err)


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["simulate", "train", "eval", "predict", "render"]
    )
    def test_help_lists_flags_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default" in out


# A run config for the fuzz: one epoch, so each mutated train run is short.
FUZZ_RUN_CONFIG = RUN_CONFIG.replace("epochs = 3\n", "epochs = 1\n")
FUZZ_TOKENS = [b"", b"0", b"-1", b"2", b"1.5", b"nan", b"inf", b"1e400", b"x", b"=", b"[x]",
               b"\xff", b"\xc3", b"\xed\xa0\x80"]  # the last three are not UTF-8
FUZZ_TEXT = ["study/manifest.ini", "study/genes.txt", "study/columns.txt", "study/S00_coords.tsv",
             "study/S01_coords.tsv", "run.ini", "pred/genes.txt"]
FUZZ_CONTAINERS = ["study/S00_local.gdml", "study/S00_neighbor.gdml", "study/S01_expression.gdml",
                   "run/fold0_final.gdml", "pred/predictions.gdml"]
STUDY_COMMANDS = ["train", "eval", "eval-predictions", "predict"]


def fuzz_commands(target):
    """The commands that read ``target``."""
    if target == "run.ini":
        return ["train"]
    if target == "run/fold0_final.gdml":
        return ["eval", "predict"]
    if target.startswith("pred/"):
        return ["eval-predictions", "render"] if target.endswith(".gdml") else ["render"]
    return STUDY_COMMANDS


def mutate_text(rng, blob):
    """One line delete, duplicate or swap, or one token substituted by a
    nasty token or by another token of the same file."""
    lines = blob.split(b"\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(["delete", "duplicate", "swap", "token"])
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        tokens = re.split(rb"([\s=]+)", lines[i])
        own = [t for t in re.split(rb"[\s=]+", blob) if t]
        pool = FUZZ_TOKENS if rng.random() < 0.5 or not own else own
        tokens[2 * rng.randrange((len(tokens) + 1) // 2)] = rng.choice(pool)
        lines[i] = b"".join(tokens)
    return b"\n".join(lines)


def trains_at_default_size(config):
    """A run config that parses but has lost its `d` or `epochs` key would
    train a 512-wide model for 200 epochs: too long for the fuzz."""
    try:
        _, _, model_kwargs, train_kwargs = cli._load_run_config(config)
    except cli.ConfigError:
        return False
    return "d" not in model_kwargs or "epochs" not in train_kwargs


def fuzz_argv(command, root):
    """``command`` on the study, run config, checkpoint and predictions under ``root``."""
    manifest = ["--manifest", str(root / "study" / "manifest.ini")]
    checkpoint = ["--checkpoint", str(root / "run" / "fold0_final.gdml")]
    predictions = ["--predictions", str(root / "pred" / "predictions.gdml")]
    return {
        "train": ["train", "--config", str(root / "run.ini")],
        "eval": ["eval", *checkpoint, *manifest, "--out", str(root / "e")],
        "eval-predictions": ["eval", *predictions, *manifest, "--out", str(root / "e")],
        "predict": ["predict", *checkpoint, *manifest, "--out", str(root / "pred")],
        "render": ["render", *predictions, "--gene", "gene_0003", "--out", str(root / "g.svg")],
    }[command]


class TestFuzz:
    def test_seeded_mutations_exit_with_documented_codes(self, tmp_path, capsys):
        # one study, checkpoint and predictions; each round copies them,
        # mutates one text file or flips one container header byte, and runs
        # one command that reads it, in process
        base, work = tmp_path / "base", tmp_path / "work"
        base.mkdir()
        (base / "synth.ini").write_text(SYNTH_SPEC)
        (base / "run.ini").write_text(FUZZ_RUN_CONFIG)
        assert main(["simulate", "--spec", str(base / "synth.ini"), "--out", str(base / "study")]) == 0
        assert main(fuzz_argv("train", base)) == 0
        assert main(fuzz_argv("predict", base)) == 0
        rng = random.Random(20261019)
        codes, rounds = {}, 0
        while rounds < 400:
            shutil.copytree(base, work)
            target = rng.choice(FUZZ_TEXT + FUZZ_CONTAINERS)
            blob = (work / target).read_bytes()
            if target in FUZZ_TEXT:
                blob = mutate_text(rng, blob)
            else:
                at = rng.choice([i for span in container_layout(blob)[0].values() for i in span])
                blob = blob[:at] + bytes([rng.choice([0x00, 0x7F, 0xFF, blob[at] ^ 1])]) + blob[at + 1 :]
            (work / target).write_bytes(blob)
            command = rng.choice(fuzz_commands(target))
            if not (command == "train" and trains_at_default_size(work / "run.ini")):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # dropped zero-total spots
                    code = main(fuzz_argv(command, work))
                assert code in (0, 2, 3, 4, 5), (target, blob, command, capsys.readouterr().err)
                codes[code] = codes.get(code, 0) + 1
                rounds += 1
            shutil.rmtree(work)
        capsys.readouterr()
        assert {0, 2, 3} <= set(codes), codes
