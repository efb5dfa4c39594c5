"""Recorded bits: the final parameters of the determinism config, in batch
and in epoch refresh mode, and the files of a tiny two-epoch ``train`` ->
``predict`` run, hashed and compared with constants.

Seeded runs repeat bitwise, so any change to these hashes is a change to
what the program computes.  A change that moves bits on purpose updates the
constants here and records old -> new in CHANGES.md, with the acceptance
``ABLATION`` lines.
"""

import hashlib

import numpy as np

from spotalign import data_io, model, trainer
from spotalign.cli import main

# sha256 of the determinism config's final parameters (``params_hash``)
PARAMS_FINGERPRINT = "6100a6f3a2eceea810972a78b742845c2e67faea2056f6774e7f001dd4818c21"
# the same with ``cluster_refresh="epoch"``
EPOCH_PARAMS_FINGERPRINT = "0b1e3a951751976c3dea82d08720001be33f90bcc46a9ecc99d4fa5b9a98bc76"
# sha256 of each file of the tiny train -> predict run
RUN_FILES = {
    "run/fold0_final.gdml": "d2823b13c7deca4abcc73ad50126e42e8bdbdecbe22858a5e3f4e0a1b3972ae8",
    "run/report.csv": "d181511a2914ee24bca94039ddaa033bde2c5d79ef965c25ddf60014fea91344",
    "pred/predictions.gdml": "20e5c14def2db3ae07cc0b2fa354b08405910514ef042ef2f156b2f768db4c97",
}

SYNTH_SPEC = """\
[synth]
n_spots = 40
n_slides = 2
latent = 4
genes = 10
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

[loss]
k = 4

[train]
lr = 0.002
batch = 20
epochs = 2
seed = 5
folds = 2
kmeans_n_init = 2

[out]
dir = run
"""


def params_hash(params: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def moved(what: str, got: str, want: str) -> str:
    """The failure message: what moved, and the versions the recorded bits hold for."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"{what} moved: got {got}, recorded {want}, under numpy {np.__version__} and BLAS {blas}. "
            "A change that moves bits on purpose updates the recorded constant in this file and records "
            "old -> new in CHANGES.md, with the ABLATION lines.")


def determinism_config_hash(refresh: str) -> str:
    spec = data_io.SynthSpec(
        n_spots=60, n_slides=2, latent_dim=4, n_genes=8, d_in=12, seed=21, n_clusters=3,
    )
    batches = data_io.batches_from_study(data_io.synth_generate(spec))
    mcfg = model.ModelConfig(n_genes=8, d_in=12, d=8, heads=2, neighbor_blocks=1, d_ff=16, dropout=0.1)
    tcfg = trainer.TrainConfig(
        lr=1e-3, batch_size=30, epochs=3, seed=13, k=4, lam=0.8,
        multi_ins_weight=1.0, n_folds=2, kmeans_n_init=2, cluster_refresh=refresh,
    )
    plan = trainer.make_folds([(b.sample_id, b.patient_id) for b in batches], 2, 13)
    return params_hash(trainer.train_fold(0, plan, batches, mcfg, tcfg).params_final)


def test_determinism_config_parameters():
    got = determinism_config_hash("batch")
    assert got == PARAMS_FINGERPRINT, moved("the determinism config's parameters", got, PARAMS_FINGERPRINT)


def test_determinism_config_parameters_in_epoch_mode():
    got = determinism_config_hash("epoch")
    assert got == EPOCH_PARAMS_FINGERPRINT, moved(
        "the determinism config's parameters in epoch mode", got, EPOCH_PARAMS_FINGERPRINT)


def test_train_predict_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "synth.ini").write_text(SYNTH_SPEC)
    (tmp_path / "run.ini").write_text(RUN_CONFIG)
    assert main(["simulate", "--spec", "synth.ini", "--out", "study"]) == 0
    assert main(["train", "--config", "run.ini"]) == 0
    assert main(["predict", "--checkpoint", "run/fold0_final.gdml",
                 "--manifest", "study/manifest.ini", "--out", "pred"]) == 0
    for name, want in RUN_FILES.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want, moved(name, got, want)
