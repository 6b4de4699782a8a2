"""Benchmark of the measure -> analyze -> store -> serve pipeline.

Run from the checkout root::

    python3 pipebench/run.py --workload campaign --seed 1 --seconds 24 --trace 0

``--workload`` is ``campaign``, ``epochs`` or ``serve`` (see README.md
beside this file). With ``--trace 0`` the last stdout line is a JSON
object with every end-to-end metric; with ``--trace 1`` the layers'
public functions are wrapped and the metrics are the per-layer ones.
The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits non-zero before measuring anything.
The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics measured outside the span wrappers, and their units.
FACT_UNITS = {
    "dnssim.cache_hit_ratio": "ratio",
    "engine.measured_share": "ratio",
    "query.lru_hit_ratio": "ratio",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: no program at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(
            f"pipebench: imported repro from {repro.__file__}, not {src}"
        )


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    from tracing import BYTE_METRICS, COUNT_METRICS, TIME_METRICS

    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "B" for name in BYTE_METRICS})
    units.update(FACT_UNITS)
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


def main(argv: Optional[list[str]] = None, sizes: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import tracing

    # The benchmark keeps to one vCPU, so the host-speed samples are taken
    # where the work runs. See README.md.
    cpus = os.sched_getaffinity(0)
    tracer = None
    os.sched_setaffinity(0, {max(cpus)})
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        return _run(args, parser, tracer, sizes)
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.sched_setaffinity(0, cpus)


def _run(args: argparse.Namespace, parser: argparse.ArgumentParser,
         tracer: Any, sizes: Any) -> int:
    import hostspeed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / ".pipebench_out"
    out_dir.mkdir(exist_ok=True)
    run = workloads.Run(
        seed=args.seed, seconds=args.seconds,
        sizes=sizes if sizes is not None else workloads.Sizes(),
        out_dir=out_dir, tracer=tracer,
        clock=hostspeed.HostClock(enabled=tracer is None),
    )
    outcome = workloads.WORKLOADS[args.workload](run)

    for line in outcome.report:
        print(line)
    if run.clock.samples:
        kernel_ms = sorted(ns / 1e6 for ns in run.clock.samples)
        print(f"host speed: {len(kernel_ms)} kernel samples, fastest "
              f"{kernel_ms[0]:.3f} ms, median "
              f"{kernel_ms[len(kernel_ms) // 2]:.3f} ms, slowest "
              f"{kernel_ms[-1]:.3f} ms; timings count at the reference "
              f"{hostspeed.REFERENCE_KERNEL_NS / 1e6:.3f} ms")
    if tracer is None:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    else:
        tracer.on = False
        summary = tracer.summary()
        tracer.dump(out_dir / f"spans-{args.workload}")
        for line in tracing.layer_table(summary, args.workload):
            print(line)
        values = tracing.layer_metrics(summary)
        values.update(outcome.layer_facts)
        bench_ns = sum(ns for name, ns in summary["self_ns"].items()
                       if name.startswith(tracing.BENCH_LAYER + "."))
        values["trace.wall_s"] = summary["wall_ns"] / 1e9
        values["trace.unattributed_s"] = bench_ns / 1e9
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_units().items()}
    print(f"ops attempted {outcome.attempted}, failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
