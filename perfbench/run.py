"""The repository benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {cold_align,ingest,fleet_read} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` measures the workload's
end-to-end metrics with tracing off and keeps them in
``.perfbench-results/``.  ``--trace 1`` runs the workload with span
recording installed in every process of the program and reports the
per-layer metrics plus, as ``overhead.<metric>``, its end-to-end
metrics minus the median of the untraced runs kept so far (it makes
one untraced run first when there is none).  A table with units and
sample counts goes to standard output first; the last line is the JSON
result.  ``perfbench/README.md`` says why the workloads and metrics
are what they are.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Untraced results of this checkout, one JSON line per run and
#: workload: the baseline a traced run's overhead is taken against.
RESULTS = ROOT / ".perfbench-results"

#: Every end-to-end metric and its unit, in ``BENCHMARK.json`` order.
#: Every workload reports each of them; ``op_ms`` and ``ops_per_s``
#: count the workload's own operation (``Outcome.operation``).
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _terminate(signum, _frame):
    # Unwind through every ``finally``: the fleets' teardown stops the
    # roles this run started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from roles import LOADGEN_CPU, pin_self
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    signal.signal(signal.SIGTERM, _terminate)
    pin_self(LOADGEN_CPU)
    scratch = ROOT / ".perfbench-tmp" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    history = RESULTS / f"{args.workload}-{args.seconds:g}s.jsonl"
    recorded = untraced_runs(history)
    runs = [(False, "plain")] if not args.trace or not recorded else []
    runs += [(True, "traced")] if args.trace else []
    outcomes = []
    try:
        for traced, label in runs:
            run = Run(ROOT, scratch / label, args.seed, args.seconds, traced)
            outcomes.append(measure(args.workload, run))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    plain = None
    if not runs[0][0]:
        plain = end_to_end(outcomes[0])
        if outcomes[0].correct and not outcomes[0].failed:
            RESULTS.mkdir(exist_ok=True)
            with history.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(plain) + "\n")
    result_metrics = plain
    if args.trace:
        if recorded:
            baseline = {
                name: statistics.median(run[name]["value"] for run in recorded)
                for name, _unit in END_TO_END
            }
        else:
            baseline = {name: metric["value"] for name, metric in plain.items()}
        result_metrics = traced_metrics(outcomes[-1], baseline)
    result = {
        "correct": all(outcome.correct for outcome in outcomes),
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": result_metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def measure(name: str, run):
    from workloads import WORKLOADS

    run.workdir.mkdir(parents=True)
    outcome = WORKLOADS[name](run)
    report(name, run, outcome)
    return outcome


def end_to_end(outcome) -> dict:
    return {
        name: {"value": outcome.metrics[name].value, "unit": unit} for name, unit in END_TO_END
    }


def untraced_runs(history: Path) -> list:
    """The untraced runs this checkout has recorded that carry every
    end-to-end metric."""
    if not history.exists():
        return []
    runs = [json.loads(line) for line in history.read_text(encoding="utf-8").splitlines()]
    return [run for run in runs if all(name in run for name, _unit in END_TO_END)]


def traced_metrics(traced, baseline: dict) -> dict:
    """Per-layer metrics (the workload's own measurements where it
    made one under a per-layer name, 0 for a layer it does not
    exercise), plus traced minus untraced for each end-to-end metric."""
    from layers import LAYER_METRICS

    values = {**traced.layers, **{name: metric.value for name, metric in traced.metrics.items()}}
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in LAYER_METRICS}
    for name, unit in END_TO_END:
        value = traced.metrics[name].value - baseline[name]
        metrics[f"overhead.{name}"] = {"value": value, "unit": unit}
    return metrics


def report(name: str, run, outcome) -> None:
    """The human-readable table printed before the JSON line."""
    label = "traced" if run.traced else "untraced"
    print(
        f"== {name} ({label}): {outcome.attempted} attempted, {outcome.failed} failed, "
        f"correct={outcome.correct}"
    )
    print(f"  operation: {outcome.operation}")
    for name, metric in outcome.metrics.items():
        print(f"  {name:<20} {metric.value:14.4f} {metric.unit:<6} n={metric.samples}")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    for line in outcome.notes:
        print(f"  {line}")
    for name, value in outcome.layers.items():
        if value:
            print(f"  layer {name:<28} {value:14.4f}")
    sys.stdout.flush()


if __name__ == "__main__":
    raise SystemExit(main())
