"""Self-test of the benchmark at toy sizes (a few seconds):

    python3 benchmark/selftest.py

It checks that
1. the metric tables in run.py match BENCHMARK.json, and every metric is
   printed with its unit for every workload, traced and untraced, with no
   failed operation;
2. a deliberately corrupted prediction raises ``ops_failed_frac``;
3. the traced run's self times add up to its wall time within the measured
   tracing overhead.

Exits 0 when every check passes and prints one line per problem otherwise.
"""

import contextlib
import io
import json
import math
import sys

import run  # pins BLAS threads before numpy loads


def printed_metrics(record: dict) -> dict[str, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(record)
    out = {}
    for line in buf.getvalue().splitlines():
        if not line.startswith("#") and " = " in line:
            name, rest = line.split(" = ", 1)
            out[name] = rest.rsplit(" ", 1)[1]
    return out


def main() -> int:
    if not (run.SRC / "spotalign" / "__init__.py").is_file():
        print(f"error: program source not found at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    from spotalign import trainer

    from workloads import TOY

    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")

    for workload in run.WORKLOAD_NAMES:
        for trace, expected in ((False, run.END_TO_END), (True, run.per_layer_units())):
            record = run.run(workload, seed=3, seconds=0.01, trace=trace, sizes=TOY)
            tag = f"{workload} trace={int(trace)}"
            if printed_metrics(record) != expected:
                problems.append(f"{tag}: printed metrics or units differ from the table")
            if record["failed"]:
                problems.append(f"{tag}: failed ops {record['failures']}")
            for name, metric in record["metrics"].items():
                if not math.isfinite(metric["value"]):
                    problems.append(f"{tag}: {name} is not finite")
                elif not trace and metric["value"] <= 0:
                    problems.append(f"{tag}: {name} is not positive")
            if trace and not record["self_check"]["ok"]:
                problems.append(f"{tag}: self times miss wall time: {record['self_check']}")

    # corrupt the first spot of every prediction the program makes
    infer = trainer.infer
    trainer.infer = lambda *args: np.where(np.arange(len(args[2].expression))[:, None] == 0,
                                           np.nan, infer(*args))
    try:
        corrupted = run.run("slide-inference", seed=3, seconds=0.01, trace=False, sizes=TOY)
    finally:
        trainer.infer = infer
    if not corrupted["ops_failed_frac"] > 0:
        problems.append("a corrupted prediction did not raise ops_failed_frac")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
