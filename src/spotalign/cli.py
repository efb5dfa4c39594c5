"""Command-line surface: simulate, train, eval, predict, render.

Run configs are INI files with [data]/[model]/[loss]/[train]/[out] sections
and simulate specs have one [synth] section.  A key is the name of a field of
``ModelConfig``, ``TrainConfig`` or ``SynthSpec`` (five fields keep a short
name, see ``_INI_NAMES``); unknown sections or keys are hard errors; ``n_genes``,
``d_in`` and ``neighbor_tokens`` come from the study and have no key.  Only
training passes the model an rng (eval mode has none).  Every training run
echoes its fully-defaulted config to ``effective_config.ini`` in its output
directory, and that file is itself a valid run config.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure, 5 I/O
error.  Errors print one line to stderr: ``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import contextlib
import multiprocessing
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import data_io, evaluation, model, render, trainer
from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError

# Every dataclass field is one INI key named after the field, except these
# short names that configs written before the derivation already use.
_INI_NAMES = {
    "latent_dim": "latent",
    "n_genes": "genes",
    "lam": "lambda",
    "batch_size": "batch",
    "n_folds": "folds",
}

# TrainConfig fields read from [loss]; the rest of TrainConfig is [train].
_LOSS_FIELDS = ("tau", "tau_ig", "lam", "k")

_CASTS = {"int": int, "float": float, "str": str}


def _keys(cls, keep=lambda name: True) -> dict:
    """INI key -> (field, cast) for the kept fields of a config dataclass."""
    return {
        _INI_NAMES.get(f.name, f.name): (f.name, _CASTS[f.type])
        for f in fields(cls)
        if keep(f.name)
    }


_SYNTH_SECTION = _keys(data_io.SynthSpec)

# Run-config layout, shared by the reader and the effective-config echo.
_STUDY_SHAPES = ("n_genes", "d_in", "neighbor_tokens")  # [model] fields the study sets
_RUN_SECTIONS = {
    "data": {"manifest": ("manifest", str)},
    "model": _keys(model.ModelConfig, lambda name: name not in _STUDY_SHAPES),
    "loss": _keys(trainer.TrainConfig, lambda name: name in _LOSS_FIELDS),
    "train": _keys(trainer.TrainConfig, lambda name: name not in _LOSS_FIELDS),
    "out": {"dir": ("dir", str)},
}


def _read_sections(parser, layout: dict[str, dict]) -> dict[str, dict]:
    """Typed extraction of each section of ``layout`` (empty when absent).
    Unknown sections or keys are hard errors; one error names every unknown key."""
    unknown = set(parser.sections()) - set(layout)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    stray = [f"unknown key {key!r} in section [{name}]"
             for name in parser.sections() for key in parser[name] if key not in layout[name]]
    if stray:
        raise ConfigError("; ".join(stray))
    out: dict[str, dict] = {name: {} for name in layout}
    for name in parser.sections():
        for key, value in parser[name].items():
            field, cast = layout[name][key]
            try:
                out[name][field] = cast(value)
            except ValueError as exc:
                raise ConfigError(f"bad value for {name}.{key}: {value!r}") from exc
    return out


def _echo_config(path, values: dict[str, dict]) -> None:
    """Write section -> {field: value} under the keys the reader accepts."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for name, keymap in _RUN_SECTIONS.items():
        parser[name] = {key: str(values[name][field]) for key, (field, _) in keymap.items()}
    with open(path, "w") as f:
        parser.write(f)


# ---------------------------------------------------------------------------
# commands


def _load_synth_spec(path) -> data_io.SynthSpec:
    parser = data_io.read_ini(path, ConfigError)
    synth = _read_sections(parser, {"synth": _SYNTH_SECTION})["synth"]
    if "synth" not in parser:
        raise ConfigError("simulate spec needs a [synth] section")
    return data_io.SynthSpec(**synth)


def cmd_simulate(args) -> int:
    study = data_io.synth_generate(_load_synth_spec(args.spec))
    manifest = data_io.write_study(study, args.out)
    print(f"manifest={manifest}")
    return 0


def _load_run_config(path):
    """Returns the manifest path, the output directory, and the [model]
    and [loss]+[train] keyword arguments."""
    parser = data_io.read_ini(path, ConfigError)
    sections = _read_sections(parser, _RUN_SECTIONS)
    if "manifest" not in sections["data"]:
        raise ConfigError("config needs [data] manifest = <path>")
    if "dir" not in sections["out"]:
        raise ConfigError("config needs [out] dir = <path>")

    manifest = (Path(path).parent / sections["data"]["manifest"]).resolve()
    out_dir = Path(sections["out"]["dir"])
    if not out_dir.is_absolute():
        out_dir = (Path(path).parent / out_dir).resolve()
    return manifest, out_dir, sections["model"], {**sections["loss"], **sections["train"]}


def _train_one_fold(payload):
    fold_id, plan, batches, model_cfg, train_cfg = payload
    return fold_id, trainer.train_fold(fold_id, plan, batches, model_cfg, train_cfg)


@contextlib.contextmanager
def _fold_pool(jobs: int):
    """``jobs`` spawned workers, each started with one BLAS thread so they do not
    oversubscribe the cores (a forked worker keeps this process's BLAS threads)."""
    saved = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    os.environ.update(dict.fromkeys(saved, "1"))
    try:
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(jobs, mp_context=spawn) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def cmd_train(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    manifest, out_dir, model_kwargs, train_kwargs = _load_run_config(args.config)
    batches = _load_samples(manifest, scored=True)  # every sample is in some test fold
    first = batches[0]
    try:
        model_cfg = model.ModelConfig(n_genes=first.n_genes, d_in=first.local_feat.shape[1],
                                      neighbor_tokens=first.neighbor_feat.shape[1], **model_kwargs)
        train_cfg = trainer.TrainConfig(**train_kwargs)
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc

    plan = trainer.make_folds(
        [(b.sample_id, b.patient_id) for b in batches], train_cfg.n_folds, train_cfg.seed
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(
        out_dir / "effective_config.ini",
        {
            "data": {"manifest": manifest},
            "model": asdict(model_cfg),
            "loss": asdict(train_cfg),
            "train": asdict(train_cfg),
            "out": {"dir": out_dir},
        },
    )

    fold_ids = sorted(plan.folds)
    payloads = [(f, plan, batches, model_cfg, train_cfg) for f in fold_ids]
    if args.jobs > 1:
        with _fold_pool(args.jobs) as pool:
            results = dict(pool.map(_train_one_fold, payloads))
    else:
        results = dict(map(_train_one_fold, payloads))

    for fold_id in fold_ids:
        result = results[fold_id]
        model.save_checkpoint(out_dir / f"fold{fold_id}_final.gdml", result.params_final, model_cfg)
        (out_dir / f"fold{fold_id}_train.log").write_text(
            "".join(line + "\n" for line in result.log_lines)
        )

    reports = [results[f].report for f in fold_ids if results[f].report is not None]
    if reports:
        _write_reports(out_dir, reports)
    return 0


def _write_reports(out_dir: Path, reports: list[evaluation.FoldReport]) -> None:
    """Score the fold reports on their shared HPG set; write report.csv and
    summary.txt to ``out_dir`` and print the summary."""
    hpg = evaluation.select_hpg(reports, top=min(50, reports[0].n_genes))
    summary = evaluation.aggregate(reports, hpg)
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluation.write_report_csv(out_dir / "report.csv", reports, summary)
    text = evaluation.format_report_text(reports, summary)
    (out_dir / "summary.txt").write_text(text)
    print(text, end="")


def _load_samples(manifest_path, scored: bool) -> list[data_io.SpotBatch]:
    """The manifest's samples, each with a spot; samples to be ``scored`` need 2 for a PCC."""
    batches = data_io.load_study(manifest_path)
    if not batches:
        raise DataError(f"manifest {manifest_path} lists no samples")
    short = [b for b in batches if b.n_spots < (2 if scored else 1)]
    if short:
        need = "scoring needs at least 2 for a per-gene PCC" if scored else "predicting needs 1"
        raise DataError(f"sample {short[0].sample_id} has {short[0].n_spots} spot(s); {need}")
    return batches


def _prediction(entries, path, sid: str, shape: tuple) -> np.ndarray:
    """Entry ``pred:<sid>`` of a predictions container: a finite matrix of ``shape``."""
    pred = entries.get(f"pred:{sid}")
    if pred is None or pred.ndim != 2 or pred.shape != shape:
        got = "is missing" if pred is None else f"has shape {pred.shape}"
        raise DataError(f"{path}: pred:{sid} {got}, expected {shape}")
    if not np.isfinite(pred).all():
        raise DataError(f"{path}: pred:{sid} has non-finite values")
    return pred


def cmd_eval(args) -> int:
    if (args.checkpoint is None) == (args.predictions is None):
        raise ConfigError("eval needs exactly one of --checkpoint or --predictions")
    samples = sorted(_load_samples(args.manifest, scored=True), key=lambda b: b.sample_id)
    if args.checkpoint is not None:
        params, model_cfg = model.load_checkpoint(args.checkpoint)
        report = trainer.evaluate_fold(0, params, model_cfg, samples)
    else:
        entries = data_io.read_container(args.predictions)
        report = evaluation.build_fold_report(0, [
            (b.expression, _prediction(entries, args.predictions, b.sample_id, b.expression.shape))
            for b in samples
        ])
    _write_reports(Path(args.out), [report])
    return 0


def cmd_predict(args) -> int:
    params, model_cfg = model.load_checkpoint(args.checkpoint)
    samples = sorted(_load_samples(args.manifest, scored=False), key=lambda b: b.sample_id)
    entries: dict[str, np.ndarray] = {}
    for b in samples:
        entries[f"pred:{b.sample_id}"] = trainer.infer(params, model_cfg, b)
        entries[f"coords:{b.sample_id}"] = b.coords
    try:
        data_io.pack_entries(entries)
    except ContractError as exc:  # a sample id is data: one too long for an entry name
        raise DataError(f"{args.manifest}: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_io.write_container(out_dir / "predictions.gdml", entries)

    gene_file = Path(args.manifest).parent / data_io.read_ini(args.manifest)["study"]["genes"]
    data_io.write_gene_list(out_dir / "genes.txt", data_io.read_gene_list(gene_file))
    print(f"predictions={out_dir / 'predictions.gdml'}")
    return 0


def cmd_render(args) -> int:
    entries = data_io.read_container(args.predictions)
    sample_ids = sorted(k.split(":", 1)[1] for k in entries if k.startswith("pred:"))
    if not sample_ids:
        raise DataError(f"{args.predictions}: no prediction entries")
    sid = args.sample or sample_ids[0]
    coords = entries.get(f"coords:{sid}")
    if coords is None or coords.dtype.kind != "i" or coords.ndim != 2 or coords.shape[1] != 2 or not len(coords):
        got = "is missing" if coords is None else f"is {coords.dtype} of shape {coords.shape}"
        raise DataError(f"{args.predictions}: coords:{sid} {got}, expected a non-empty N x 2 integer matrix")

    genes_path = Path(args.genes) if args.genes else Path(args.predictions).parent / "genes.txt"
    gene_names = data_io.read_gene_list(genes_path)
    if args.gene not in gene_names:
        raise DataError(f"gene {args.gene!r} not in {genes_path}")
    gi = gene_names.index(args.gene)

    pred = _prediction(entries, args.predictions, sid, coords.shape[:1] + (len(gene_names),))
    render.render_hex_svg(coords, pred[:, gi], args.out, title=f"{sid} {args.gene}")
    print(f"svg={args.out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotalign",
        description="Bimodal spot-image/expression alignment: simulate, train, evaluate, predict, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic study from a [synth] spec file")
    p.add_argument("--spec", required=True, help="INI file with a [synth] section")
    p.add_argument("--out", required=True, help="output directory (default: none)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="run patient-grouped cross-validation training")
    p.add_argument("--config", required=True, help="run config INI (default: none)")
    p.add_argument("--jobs", type=int, default=1, help="parallel fold processes (default: 1)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint or precomputed predictions")
    p.add_argument("--checkpoint", help="model checkpoint container (default: none)")
    p.add_argument("--predictions", help="predictions container (default: none)")
    p.add_argument("--manifest", required=True, help="study manifest (default: none)")
    p.add_argument("--out", required=True, help="output directory (default: none)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="write a predictions container for a study")
    p.add_argument("--checkpoint", required=True, help="model checkpoint (default: none)")
    p.add_argument("--manifest", required=True, help="study manifest (default: none)")
    p.add_argument("--out", required=True, help="output directory (default: none)")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("render", help="render one (sample, gene) hex heatmap SVG")
    p.add_argument("--predictions", required=True, help="predictions container (default: none)")
    p.add_argument("--gene", required=True, help="gene name to render (default: none)")
    p.add_argument("--sample", help="sample id (default: first in container)")
    p.add_argument("--genes", help="gene list path (default: genes.txt beside predictions)")
    p.add_argument("--out", required=True, help="output SVG path (default: none)")
    p.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (DataError, ShapeError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
