"""Run one benchmark workload against the virso_kit sources of this checkout.

    python3 perfbench/run.py --workload train-n400 --seed 1 --seconds 5 --trace 0

--trace 0 times the pipeline stages from outside the program and reports the
end-to-end metrics; --trace 1 runs the same workload with timing wrappers
around virso_kit's public functions and reports the per-layer metrics. The
metric names and units come from BENCHMARK.json at the checkout root. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics. Exit status is 0 when a result was printed and non-zero when the
run could not start or a stage raised.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the batch-1 request stream")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "virso_kit" / "__init__.py").is_file():
        print(f"perfbench: no virso_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds, work_dir)
        tracer = tracing.Tracer()
        installed = tracing.Installed(tracer) if args.trace else None
        t0 = time.perf_counter()
        try:
            run.stages()
        finally:
            if installed is not None:
                installed.remove()
        wall = time.perf_counter() - t0

        if args.trace:
            metrics = tracing.per_layer(tracer, tracing.autodiff_ops())
            metrics.update({
                "graphs.edges": run.graph.edge_count,
                "graphs.directed_edges": int(run.arts.src.size),
                "model.flops_per_sample": run.flops_per_sample(),
                "trace.overhead_pct": run.tracing_overhead_pct(tracing.Tracer()),
            })
        else:
            metrics = run.metrics
        correct = True
        lines = []
        for name, check in run.checks():
            t1 = time.perf_counter()
            failures, perturbed = check()
            correct &= not failures and bool(perturbed)
            status = "ok" if not failures else "FAILED: " + "; ".join(failures)
            lines.append(f"check {name}: {status} | self-test "
                         f"{'fails as it must' if perturbed else 'DID NOT FAIL'} "
                         f"| {time.perf_counter() - t1:.2f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2

    env = tracing.environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"stages {wall:.2f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for line in run.log + lines:
        print(line)
    for msg in sorted(run.fail_messages):
        print(f"failed operation: {msg}")
    result_metrics = {}
    for m in declared:
        value = float(metrics[m["name"]])
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value!r} {m['unit']}")
    print(f"operations attempted {run.attempted}, failed {run.failed}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "checks": lines, "log": run.log,
              "attempted": run.attempted, "failed": run.failed, "metrics": result_metrics}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.json")
    print(json.dumps({"correct": bool(correct), "attempted": run.attempted,
                      "failed": run.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
