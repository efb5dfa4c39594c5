"""spotalign benchmark: one command per workload, seeded, self-checking.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are described in ``workloads.py``.  A run repeats "set the
workload up, run one unit of work" while another round still fits in
``--seconds`` (and at least as many times as the workload asks, for a
median ``setup_s``), checks every output and trains the determinism config
twice for the parity fingerprint.  All load
comes from this one process, pinned to one CPU, with BLAS pinned to one
thread.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced units, reports per-layer metrics from the
traced ones plus the tracing overhead (the difference in unit wall time),
runs the layer probes, and writes the spans out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the run's ``ops_failed_frac``.  Lines before it are a
readable report, and the full record goes to ``.bench_out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("train-ablation", "train-quickstart", "slide-inference")

# sha256 of the determinism config's final parameters when the benchmark was
# added (single-threaded OpenBLAS, x86-64); a run reports whether it still matches
RECORDED_FINGERPRINT = "00b7b394f20f09ab02c5044b8d90aa0c4ae8b777fb6627f0333632210589ba55"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_spots_per_s": "spots/s",
    "epoch_train_ms.p50": "ms",
    "epoch_train_ms.p80": "ms",
    "epoch_val_ms.p50": "ms",
    "infer_spots_per_s": "spots/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics keep only values defined on every workload: self time
# for functions every unit runs, call counts (zero when a workload bypasses
# the function) for the rest, and layer probes for forward/backward times.
TIMED_FUNCTIONS = (
    "autodiff.matmul", "autodiff.gelu", "autodiff.softmax_rows", "autodiff.layer_norm",
    "model.project_scale", "model.neighbor_encode", "model.global_encode",
    "model.scale_fusion", "model.predict_expression",
    "trainer.infer", "evaluation.build_fold_report", "evaluation.per_gene_pcc",
)
INCLUSIVE_FUNCTIONS = ("model.neighbor_encode", "model.global_encode", "model.scale_fusion", "trainer.infer")
COUNTED_FUNCTIONS = (
    "autodiff.Tape.backward", "autodiff.log_softmax_rows", "model.gene_encode", "model.load_checkpoint",
    "grouping.kmeans", "grouping.group_project", "grouping.assign_cross",
    "losses.multi_scale_instance_loss", "losses.cross_level_loss", "losses.prediction_loss",
    "trainer.train_fold", "trainer.adam_step", "trainer.evaluate_fold", "evaluation.aggregate",
    "data_io.load_study", "data_io.preprocess_expression",
    "data_io.read_container", "data_io.write_container",
)
TIMED_LAYERS = ("autodiff", "model", "trainer", "evaluation")
COUNTERS = {
    "autodiff.tape_nodes": "count",
    "model.global_encode.score_mb": "MB",
    "grouping.kmeans.points": "count",
    "grouping.kmeans.n_iter": "count",
    "data_io.read_bytes": "B",
    "data_io.write_bytes": "B",
}


def per_layer_units() -> dict[str, str]:
    from probes import PROBE_METRICS

    units = {}
    for fn in TIMED_FUNCTIONS:
        units[f"{fn}.self_ms"] = "ms"
        units[f"{fn}.calls"] = "count"
    for fn in INCLUSIVE_FUNCTIONS:
        units[f"{fn}.incl_ms"] = "ms"
    for fn in COUNTED_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
    for layer in TIMED_LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    units.update(COUNTERS)
    units.update({"python.gc.ms": "ms", "python.gc.collections": "count"})
    units.update({name: "ms" for name in PROBE_METRICS})
    units.update({
        "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
        "trace.spans": "count", "evaluation.pcc_a": "pcc",
    })
    return units


# ---------------------------------------------------------------------------
# environment record


def blas_info() -> tuple[str, int | None]:
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    # wheels bundle OpenBLAS beside the package; loading it again returns the
    # handle numpy already uses
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def environment(seed: int, tape_nodes: list[int]) -> dict:
    import numpy as np

    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "tape_nodes_per_step": statistics.median(tape_nodes) if tape_nodes else None,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one run


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    import spotalign
    from probes import run_probes
    from tracing import TapeNodeCounter, Tracer
    from workloads import FULL, WORKLOADS, Epochs, Ops, fingerprint

    sizes = sizes or FULL
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    counter = TapeNodeCounter(spotalign.autodiff.Tape)
    try:
        ops, epochs = Ops(), Epochs()
        wl = WORKLOADS[workload](sizes, seed, workdir)

        setup_s, units, traced, spans = [], [], [], []
        tracer = Tracer(spotalign) if trace else None
        start = time.perf_counter()

        def timed_setup():
            gc.collect()
            t0 = time.perf_counter()
            wl.setup(epochs, ops)
            setup_s.append(time.perf_counter() - t0)

        if tracer is not None:
            timed_setup()
            # warm-up, so the first untraced unit does not pay first-call costs
            # that the traced unit after it would not, biasing the overhead
            gc.collect()
            wl.check(wl.unit(Epochs(), ops), ops)
        while True:
            if tracer is None:
                # set-ups interleave with units, so both sample the whole run
                timed_setup()
            gc.collect()  # each unit starts without the previous unit's tape cycles
            out = wl.unit(epochs, ops)
            units.append(out)
            wl.check(out, ops)
            if tracer is not None:
                gc.collect()
                tracer.reset()
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    tout = wl.unit(Epochs(), ops)
                    wall = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                traced.append((wall, tracer.summary()))
                spans.append(tracer.spans)
                wl.check(tout, ops)
            elapsed = time.perf_counter() - start
            enough_setups = trace or len(setup_s) >= wl.setups
            if enough_setups and elapsed * (len(units) + 1) / len(units) > seconds:
                break

        probe_values = run_probes(sizes, seed, workdir) if trace else {}
        digest = fingerprint(ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        env = environment(seed, counter.nodes)
    finally:
        counter.close()
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "units": len(units), "env": env, "fingerprint": digest,
        "fingerprint_matches_recorded": digest == RECORDED_FINGERPRINT,
        "attempted": ops.attempted, "failed": ops.failed, "failures": ops.failures,
        "ops_failed_frac": ops.failed / max(ops.attempted, 1),
        "pcc_a": wl.pcc_a,
    }
    if not trace:
        values = end_to_end(wl, setup_s, units, epochs, peak_rss_mb)
        units_of = END_TO_END
        record["epochs_sampled"] = len(epochs.train_ms)
    else:
        values = per_layer(traced, units, probe_values, wl.pcc_a)
        units_of = per_layer_units()
        record["functions"] = traced[0][1]["functions"]
        record["self_check"] = self_time_check(traced, units)
        record["spans"] = spans
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units_of.items()}
    return record


def end_to_end(wl, setup_s, units, epochs, peak_rss_mb) -> dict[str, float]:
    train_s = sum(epochs.train_ms) / 1e3
    val_s = sum(epochs.val_ms) / 1e3
    if wl.name == "slide-inference":
        infer = units[0]["spots"] / statistics.median(u["predict_s"] for u in units)
    else:
        infer = epochs.val_spots / val_s
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "train_spots_per_s": epochs.train_spots / train_s,
        "epoch_train_ms.p50": percentile(epochs.train_ms, 50),
        "epoch_train_ms.p80": percentile(epochs.train_ms, 80),
        "epoch_val_ms.p50": percentile(epochs.val_ms, 50),
        "infer_spots_per_s": infer,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traced, units, probe_values, pcc_a) -> dict[str, float]:
    """Medians over the traced units of each per-layer value."""

    def med(get) -> float:
        return statistics.median(get(summary) for _, summary in traced)

    def fn(name, key):
        return lambda s: s["functions"].get(name, {}).get(key, 0)

    def tape_nodes(s):
        steps = s["counters"].get("autodiff.tape_nodes.steps", 0)
        return s["counters"]["autodiff.tape_nodes.sum"] / steps if steps else 0

    values = {}
    for name in TIMED_FUNCTIONS:
        values[f"{name}.self_ms"] = med(fn(name, "self_ms"))
        values[f"{name}.calls"] = med(fn(name, "calls"))
    for name in INCLUSIVE_FUNCTIONS:
        values[f"{name}.incl_ms"] = med(fn(name, "incl_ms"))
    for name in COUNTED_FUNCTIONS:
        values[f"{name}.calls"] = med(fn(name, "calls"))
    for layer in TIMED_LAYERS:
        values[f"{layer}.self_ms"] = med(lambda s, layer=layer: s["layers"][layer])
    for name in COUNTERS:
        values[name] = med(tape_nodes if name == "autodiff.tape_nodes"
                           else lambda s, name=name: s["counters"].get(name, 0))
    values["python.gc.ms"] = med(lambda s: s["gc_ms"])
    values["python.gc.collections"] = med(lambda s: s["gc_collections"])
    values.update(probe_values)
    traced_wall = statistics.median(wall for wall, _ in traced)
    untraced_wall = statistics.median(u["wall_s"] for u in units)
    values.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": med(lambda s: s["spans"]),
        "evaluation.pcc_a": pcc_a,
    })
    return values


def self_time_check(traced, units) -> dict:
    """Self times of one traced unit add up to its wall time, to within the
    measured tracing overhead (the gap is the benchmark's own loop code)."""
    wall, summary = traced[0]
    overhead = statistics.median(w for w, _ in traced) - statistics.median(u["wall_s"] for u in units)
    gap = wall - summary["self_ms_total"] / 1e3
    return {"wall_s": wall, "self_s_total": summary["self_ms_total"] / 1e3, "gap_s": gap,
            "overhead_s": overhead, "ok": abs(gap) <= max(abs(overhead), 1e-3 * wall)}


# ---------------------------------------------------------------------------
# reporting


def report(record: dict) -> None:
    print(f"# spotalign benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} units={record['units']}")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# fingerprint {record['fingerprint']} "
          f"matches_recorded={record['fingerprint_matches_recorded']}")
    print(f"# ops attempted={record['attempted']} failed={record['failed']} "
          f"ops_failed_frac={record['ops_failed_frac']:.6g} failures={record['failures']}")
    print(f"# pcc_a {record['pcc_a']!r}")
    if "epochs_sampled" in record:
        print(f"# epochs_sampled {record['epochs_sampled']}")
    if "self_check" in record:
        print(f"# self_time_check {json.dumps(record['self_check'])}")
        rows = sorted(record["functions"].items(), key=lambda kv: -kv[1]["self_ms"])
        for name, row in rows[:25]:
            print(f"#   {name:40s} self={row['self_ms']:10.2f} ms  incl={row['incl_ms']:10.2f} ms"
                  f"  calls={row['calls']}")
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")


def write_record(record: dict) -> Path:
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}-spans.json", "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "units": spans}, f)
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spotalign" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'spotalign'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one fixed CPU: runs that land on different cores would otherwise see
    # different neighbours' load
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    write_record(record)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
