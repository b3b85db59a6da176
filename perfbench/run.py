"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Human-readable summary lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (see
``BENCHMARK.json``); with ``--trace 1`` the run wraps each layer's
public functions in spans and the metrics are the per-layer ones.
See ``perfbench/DESIGN.md`` for what each workload stresses.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("paper", "sharded", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        common.require_checkout()
    except common.NoResult as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import importlib

    workload = importlib.import_module(f"workload_{args.workload}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        outcome = workload.run(args.seed, args.seconds, tracer)
    except common.NoResult as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        common.cleanup_work()

    names = common.PER_LAYER if args.trace else common.END_TO_END
    metrics = common.finish_layers(outcome.metrics) if args.trace else outcome.metrics
    for line in outcome.lines:
        print(line)
    print(
        f"  error_rate                 {outcome.failed}/{outcome.attempted} "
        f"= {outcome.failed / outcome.attempted:.4g}"
    )
    for what in outcome.mismatches[:20]:
        print(f"  FAILED: {what}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
