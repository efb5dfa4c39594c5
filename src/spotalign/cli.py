"""Command-line surface: simulate, train, eval, predict, render.

Run configs are INI files with [data]/[model]/[loss]/[train]/[out] sections
and simulate specs have one [synth] section.  A key is the name of a field of
``ModelConfig``, ``TrainConfig`` or ``SynthSpec`` (five fields keep a short
name, see ``_INI_NAMES``); unknown sections or keys are hard errors.  Every
training run echoes its fully-defaulted config to ``effective_config.ini`` in
its output directory, and that file is itself a valid run config.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure, 5 I/O
error.  Errors print one line to stderr: ``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
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
_LOSS_FIELDS = ("tau", "tau_ig", "lam", "k", "target_mode")

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
# [model] n_genes comes from the study, so no config sets it.
_RUN_SECTIONS = {
    "data": {"manifest": ("manifest", str)},
    "model": _keys(model.ModelConfig, lambda name: name != "n_genes"),
    "loss": _keys(trainer.TrainConfig, lambda name: name in _LOSS_FIELDS),
    "train": _keys(trainer.TrainConfig, lambda name: name not in _LOSS_FIELDS),
    "out": {"dir": ("dir", str)},
}


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return parser


def _section(parser, name, keymap) -> dict:
    """Typed extraction of one section; unknown keys are hard errors."""
    if name not in parser:
        return {}
    out = {}
    for key, value in parser[name].items():
        if key not in keymap:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        field, cast = keymap[key]
        try:
            out[field] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name}.{key}: {value!r}") from exc
    return out


def _reject_unknown_sections(parser, allowed) -> None:
    unknown = set(parser.sections()) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")


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
    parser = _read_ini(path)
    _reject_unknown_sections(parser, {"synth"})
    if "synth" not in parser:
        raise ConfigError("simulate spec needs a [synth] section")
    return data_io.SynthSpec(**_section(parser, "synth", _SYNTH_SECTION))


def cmd_simulate(args) -> int:
    study = data_io.synth_generate(_load_synth_spec(args.spec))
    manifest = data_io.write_study(study, args.out)
    print(f"manifest={manifest}")
    return 0


def _load_run_config(path):
    """Returns the manifest path, the output directory, and the [model]
    and [loss]+[train] keyword arguments."""
    parser = _read_ini(path)
    _reject_unknown_sections(parser, _RUN_SECTIONS)
    sections = {name: _section(parser, name, keymap) for name, keymap in _RUN_SECTIONS.items()}
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


def cmd_train(args) -> int:
    manifest, out_dir, model_kwargs, train_kwargs = _load_run_config(args.config)
    batches = data_io.load_study(manifest)
    if not batches:
        raise DataError(f"manifest {manifest} lists no samples")
    n_genes = batches[0].n_genes
    d_in = batches[0].local_feat.shape[1]
    tokens = batches[0].neighbor_feat.shape[1]

    model_kwargs.setdefault("d_in", d_in)
    model_kwargs.setdefault("neighbor_tokens", tokens)
    try:
        model_cfg = model.ModelConfig(n_genes=n_genes, **model_kwargs)
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
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = dict(pool.map(_train_one_fold, payloads))
    else:
        results = dict(map(_train_one_fold, payloads))

    reports = []
    for fold_id in fold_ids:
        result = results[fold_id]
        model.save_checkpoint(out_dir / f"fold{fold_id}_best.gdml", result.params_best, model_cfg)
        model.save_checkpoint(out_dir / f"fold{fold_id}_final.gdml", result.params_final, model_cfg)
        (out_dir / f"fold{fold_id}_train.log").write_text(
            "".join(line + "\n" for line in result.log_lines)
        )
        test_batches = [b for b in batches if b.sample_id in set(plan.folds[fold_id])]
        if test_batches:
            reports.append(
                trainer.evaluate_fold(fold_id, result.params_best, model_cfg, test_batches)
            )

    if reports:
        hpg = evaluation.select_hpg(reports, top=min(50, n_genes))
        summary = evaluation.aggregate(reports, hpg)
        evaluation.write_report_csv(out_dir / "report.csv", reports, summary)
        text = evaluation.format_report_text(reports, summary)
        (out_dir / "summary.txt").write_text(text)
        print(text, end="")
    return 0


def _batches_by_id(manifest_path):
    batches = data_io.load_study(manifest_path)
    if not batches:
        raise DataError(f"manifest {manifest_path} lists no samples")
    return {b.sample_id: b for b in batches}


def cmd_eval(args) -> int:
    if (args.checkpoint is None) == (args.predictions is None):
        raise ConfigError("eval needs exactly one of --checkpoint or --predictions")
    by_id = _batches_by_id(args.manifest)
    pairs = []
    if args.checkpoint is not None:
        params, model_cfg = model.load_checkpoint(args.checkpoint)
        for sid in sorted(by_id):
            b = by_id[sid]
            pairs.append((b.expression, trainer.infer(params, model_cfg, b)))
    else:
        entries = data_io.read_container(args.predictions)
        for sid in sorted(by_id):
            key = f"pred:{sid}"
            if key not in entries:
                raise DataError(f"{args.predictions}: missing entry {key!r}")
            pred = entries[key]
            if pred.shape != by_id[sid].expression.shape:
                raise DataError(
                    f"{args.predictions}: {key} has shape {pred.shape}, "
                    f"expected {by_id[sid].expression.shape}"
                )
            pairs.append((by_id[sid].expression, pred))

    report = evaluation.build_fold_report(0, pairs)
    hpg = evaluation.select_hpg([report], top=min(50, report.n_genes))
    summary = evaluation.aggregate([report], hpg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluation.write_report_csv(out_dir / "report.csv", [report], summary)
    text = evaluation.format_report_text([report], summary)
    (out_dir / "summary.txt").write_text(text)
    print(text, end="")
    return 0


def cmd_predict(args) -> int:
    params, model_cfg = model.load_checkpoint(args.checkpoint)
    by_id = _batches_by_id(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: dict[str, np.ndarray] = {}
    for sid in sorted(by_id):
        b = by_id[sid]
        entries[f"pred:{sid}"] = trainer.infer(params, model_cfg, b)
        entries[f"coords:{sid}"] = b.coords
    data_io.write_container(out_dir / "predictions.gdml", entries)

    manifest_dir = Path(args.manifest).parent
    parser = data_io.read_manifest(args.manifest)
    gene_file = manifest_dir / parser["study"]["genes"]
    data_io.write_gene_list(out_dir / "genes.txt", data_io.read_gene_list(gene_file))
    print(f"predictions={out_dir / 'predictions.gdml'}")
    return 0


def cmd_render(args) -> int:
    entries = data_io.read_container(args.predictions)
    sample_ids = sorted(k.split(":", 1)[1] for k in entries if k.startswith("pred:"))
    if not sample_ids:
        raise DataError(f"{args.predictions}: no prediction entries")
    sid = args.sample or sample_ids[0]
    if f"pred:{sid}" not in entries or f"coords:{sid}" not in entries:
        raise DataError(f"{args.predictions}: sample {sid!r} needs a pred and a coords entry")

    genes_path = Path(args.genes) if args.genes else Path(args.predictions).parent / "genes.txt"
    gene_names = data_io.read_gene_list(genes_path)
    if args.gene not in gene_names:
        raise DataError(f"gene {args.gene!r} not in {genes_path}")
    gi = gene_names.index(args.gene)

    pred = entries[f"pred:{sid}"]
    if pred.ndim != 2 or pred.shape[1] != len(gene_names):
        raise DataError(f"{args.predictions}: pred:{sid} has shape {pred.shape}, not N x "
                        f"{len(gene_names)} as {genes_path} names")
    coords = entries[f"coords:{sid}"]
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
