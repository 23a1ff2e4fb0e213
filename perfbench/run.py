"""The repository benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-eager --seed 1 --seconds 25 --trace 0

Workloads: ``train-eager``, ``train-lazy``, ``serve-open`` and
``online-drift`` (see ``perfbench/README.md`` for why each exists and
which layer metric should move which end-to-end metric).  Every
workload runs the library with its defaults; the seed only generates
the inputs.

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json``.  ``--trace 1`` is a separate run that records spans
around the calls into each layer and reports the per-layer metrics;
its spans are written to ``.perfbench/spans-<workload>-<seed>.jsonl``,
which ``python -m repro trace summarize --span-log <file>`` renders.

The report lines come first: the environment stamp, every figure with
its unit and sample count, and the output checks.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, stamp included, is also
written to ``.perfbench/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import OUT, ROOT, declared_metrics, environment, workload_names


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result dict before printing."""
    import workload_online
    import workload_serve
    import workload_train
    from spans import SpanRecorder

    if workload.startswith("train-"):
        params = workload_train.params(workload, seed)
        module = workload_train
        args = (workload, seed, seconds)
    elif workload == "serve-open":
        params = workload_serve.params(seed, seconds)
        module, args = workload_serve, (seed, seconds)
    else:
        params = workload_online.params(seed)
        module, args = workload_online, (seed, seconds)
    if not trace:
        return {"params": params, **module.measure(*args)}
    recorder = SpanRecorder()
    result = module.traced(*args, recorder)
    declared = declared_metrics(trace=True)
    values = {name: float(result["values"].get(name, 0.0)) for name in declared}
    unknown = sorted(set(result["values"]) - set(declared))
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
    OUT.mkdir(parents=True, exist_ok=True)
    span_log = OUT / f"spans-{workload}-{seed}.jsonl"
    recorder.write_jsonl(str(span_log))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    return {"params": params, "metrics": metrics, "report": result["report"],
            "attempted": result["attempted"], "failed": result["failed"],
            "problems": result["problems"], "span_log": str(span_log),
            "span_summary": recorder.summary()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.telemetry.summarize import format_summary_table

    started = time.perf_counter()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["wall_s"] = time.perf_counter() - started
    result["env"] = environment(args.seed, result["params"])
    result["workload"] = args.workload
    result["trace"] = args.trace

    declared = declared_metrics(bool(args.trace))
    if set(result["metrics"]) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(result['metrics'])} differ from the declared "
            f"{sorted(declared)}")
    for name, unit in declared.items():
        if result["metrics"][name]["unit"] != unit:
            raise RuntimeError(f"{name}: unit {result['metrics'][name]['unit']}"
                               f" is not the declared {unit}")

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"wall={result['wall_s']:.1f}s")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, fig in {**result["metrics"], **result["report"]}.items():
        if isinstance(fig, dict) and "n" in fig:
            print(f"  {name:28s} {fig['value']:14.6g} {fig['unit']:9s} "
                  f"n={fig['n']:<6d} {fig['definition']}")
        elif isinstance(fig, dict) and "value" in fig:
            print(f"  {name:28s} {fig['value']:14.6g} {fig['unit']}")
        else:
            print(f"  {name:28s} {json.dumps(fig, sort_keys=True)}")
    print(f"  {'failed_ratio':28s} {failed / max(attempted, 1):14.6g} "
          f"{'ratio':9s} n={attempted:<6d} failed / attempted operations")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if args.trace:
        print(format_summary_table(list(result["span_summary"].values())))
        print(f"spans: {result['span_log']}")
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result.pop("span_summary", None)
    out.write_text(json.dumps(result, indent=2, sort_keys=True, default=str),
                   encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": fig["value"], "unit": fig["unit"]}
                    for name, fig in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
