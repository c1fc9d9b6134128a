"""marginlab benchmark: desk-scale and 784-d training plus large-batch
BETA/PGD evaluation, with an outside-in layer trace.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones plus the tracing
overhead.  ``--workload all`` runs each workload in its own process (so
``peak_rss_mb`` is its own) and prints every metric with its unit.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run metadata.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One Python thread and one BLAS thread: a closed loop with a single caller.
# These must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-train", "synth784-train", "synth784-eval")
# a single workload run stays well inside this; "all" waits this long per child
CHILD_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _declared(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _import_marginlab():
    if not (SRC / "marginlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no marginlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import marginlab
    from marginlab import (attacks, cli, data, models, objectives, optim,
                           reports, tensor, training)
    if Path(marginlab.__file__).resolve().parent != (SRC / "marginlab").resolve():
        raise SystemExit(f"error: marginlab imported from {marginlab.__file__}")
    return argparse.Namespace(attacks=attacks, cli=cli, data=data, models=models,
                              objectives=objectives, optim=optim,
                              reports=reports, tensor=tensor, training=training)


def _run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    import subprocess

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        print(lines[-2])
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
            merged["metrics"][f"{name}/{metric}"] = entry
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    ml = _import_marginlab()
    if args.workload == "all":
        return _run_all(args)
    declared = _declared(args.trace)

    import harness  # beside this file; loaded once the package check passed

    result, meta = harness.run(ml, args.workload, args.seed, args.seconds,
                               args.trace, ROOT)
    if set(result["metrics"]) != set(declared):
        raise SystemExit("error: measured metrics do not match BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ set(declared))}")
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in declared.items()}
    for failure in result.pop("failures"):
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
