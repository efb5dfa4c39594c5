"""End-to-end CLI tests: pipeline smoke, exit codes, idempotency."""

import configparser
import csv
import re
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spotalign import cli, data_io, model
from spotalign.cli import main
from spotalign.data_io import SynthSpec
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


# Short INI names of five fields; every other key is its field name.
ALIASES = {
    "latent_dim": "latent",
    "n_genes": "genes",
    "lam": "lambda",
    "batch_size": "batch",
    "n_folds": "folds",
}
LOSS_FIELDS = ("tau", "tau_ig", "lam", "k", "target_mode")

# A valid value for every settable field, each different from its default.
SYNTH_VALUES = dict(
    n_spots=30, n_slides=3, latent_dim=5, n_genes=7, rho=0.5, sigma=0.1, seed=4, d_in=9,
    neighbor_grid=3, count_scale=10.0, n_clusters=8, cluster_strength=0.85,
)
MODEL_VALUES = dict(
    d_in=9, d=12, heads=3, neighbor_blocks=1, global_blocks=2, fusion_blocks=2, d_ff=20,
    dropout=0.2, neighbor_tokens=9, fusion_mode="concat",
)
TRAIN_VALUES = dict(
    lr=0.01, decay=0.5, decay_every=3, batch_size=16, epochs=2, seed=8, k=3, lam=0.3,
    tau=0.2, tau_ig=0.3, target_mode="soft", multi_ins_weight=0.5, n_folds=3,
    cluster_refresh="epoch", kmeans_n_init=2, kmeans_max_iter=7, kmeans_tol=0.001,
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
        assert set(MODEL_VALUES) == {f.name for f in fields(ModelConfig)} - {"n_genes"}
        assert all(MODEL_VALUES[f.name] != f.default for f in fields(ModelConfig) if f.name != "n_genes")
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
        "section, line",
        [
            ("data", "bananas = 1"),
            ("model", "n_genes = 10"),
            ("model", "genes = 10"),
            ("model", "bananas = 1"),
            ("loss", "batch = 10"),
            ("train", "lambda = 0.5"),
            ("train", "batch_size = 10"),
            ("out", "bananas = 1"),
        ],
    )
    def test_unknown_run_key_exits_2(self, tmp_path, capsys, section, line):
        config = tmp_path / "run.ini"
        config.write_text(RUN_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert main(["train", "--config", str(config)]) == 2
        key = line.split(" =")[0]
        assert f"error: config: unknown key {key!r} in section [{section}]" in capsys.readouterr().err


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
    def test_full_pipeline(self, study_dir):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG)
        assert main(["train", "--config", str(config)]) == 0

        run = study_dir / "run"
        assert (run / "effective_config.ini").exists()
        assert (run / "fold0_best.gdml").exists()
        assert (run / "fold1_final.gdml").exists()
        assert (run / "report.csv").exists()
        assert (run / "fold0_train.log").read_text().startswith("step=")

        manifest = study_dir / "study" / "manifest.ini"
        out_eval = study_dir / "eval"
        assert main([
            "eval", "--checkpoint", str(run / "fold0_best.gdml"),
            "--manifest", str(manifest), "--out", str(out_eval),
        ]) == 0
        assert (out_eval / "report.csv").exists()

        out_pred = study_dir / "pred"
        assert main([
            "predict", "--checkpoint", str(run / "fold0_best.gdml"),
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
        assert main(["train", "--config", str(config)]) == 0
        sequential = (study_dir / "run" / "fold1_final.gdml").read_bytes()
        assert main(["train", "--config", str(config), "--jobs", "2"]) == 0
        assert (study_dir / "run" / "fold1_final.gdml").read_bytes() == sequential

    def test_effective_config_retrains_bit_identically(self, study_dir):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG)
        assert main(["train", "--config", str(config)]) == 0
        run = study_dir / "run"

        echoed = configparser.ConfigParser(interpolation=None)
        echoed.optionxform = str
        echoed.read(run / "effective_config.ini")
        assert "kmeans_tol" in echoed["train"] and "n_genes" not in echoed["model"]
        echoed["out"]["dir"] = "again"
        rerun = study_dir / "rerun.ini"
        with open(rerun, "w") as f:
            echoed.write(f)
        assert main(["train", "--config", str(rerun)]) == 0

        checkpoints = sorted(p.name for p in run.glob("*.gdml"))
        assert len(checkpoints) == 4
        for name in checkpoints:
            assert (study_dir / "again" / name).read_bytes() == (run / name).read_bytes()

    def test_unknown_train_key_exits_2(self, study_dir, capsys):
        config = study_dir / "run.ini"
        config.write_text(RUN_CONFIG + "\n[train]\nwarp_speed = 9\n")
        code = main(["train", "--config", str(config)])
        assert code == 2
        assert "error: config" in capsys.readouterr().err

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


def assert_one_data_error(code, err):
    assert code == 3
    assert err.startswith("error: data: ") and err.count("\n") == 1, err


def run_on_study(command, study_dir):
    """Exit code of ``command`` on the study under ``study_dir``."""
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
        "--manifest", str(manifest), "--out", str(study_dir / "p"),
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

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("fault", ["non_integer_coord", "no_study_genes", "no_study_columns"])
    def test_malformed_study_exits_3(self, study_dir, capsys, command, fault):
        study = study_dir / "study"
        manifest = study / "manifest.ini"
        if fault == "non_integer_coord":
            coords = study / "S00_coords.tsv"
            lines = coords.read_text().splitlines()
            lines[1] = lines[1].rsplit("\t", 1)[0] + "\t1.5"
            coords.write_text("\n".join(lines) + "\n")
        else:
            key = fault.rsplit("_", 1)[1]
            manifest.write_text(manifest.read_text().replace(f"{key} = {key}.txt\n", ""))
        assert_one_data_error(run_on_study(command, study_dir), capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    @pytest.mark.parametrize("fault,file", [
        ("nan_local", "S01_local.gdml"),
        ("inf_neighbor", "S01_neighbor.gdml"),
        ("d_in", "S01_local.gdml"),
        ("tokens", "S01_neighbor.gdml"),
    ])
    def test_bad_image_features_exit_3_naming_the_file(
        self, study_dir, capsys, command, fault, file
    ):
        study = study_dir / "study"

        def rewrite(entry, change):
            path = study / f"S01_{entry}.gdml"
            data_io.write_container(path, {entry: change(data_io.read_container(path)[entry])})

        if fault == "nan_local":
            rewrite("local", lambda a: np.where(a == a.flat[7], np.nan, a))
        elif fault == "inf_neighbor":
            rewrite("neighbor", lambda a: np.where(a == a.flat[7], np.inf, a))
        elif fault == "d_in":
            rewrite("local", lambda a: a[:, :-1])
            rewrite("neighbor", lambda a: a[:, :, :-1])
        else:
            rewrite("neighbor", lambda a: a[:, :-1])
        code = run_on_study(command, study_dir)
        err = capsys.readouterr().err
        assert_one_data_error(code, err)
        assert file in err


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
