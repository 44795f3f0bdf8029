"""ghmc benchmark: run one workload and print its metrics.

Usage, from the root of a ghmc checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The engine is imported from ``src/`` of the checkout this file sits in and
driven only through its public API.  BLAS is pinned to one thread.  Load is
closed-loop: one process runs its operations (``run_chain`` calls, or
``ghmc sample`` invocations for ``explicit_mvn``) back to back, each starting
when the previous one ends; every chain seed derives from ``--seed``.

``--trace 0`` measures the end-to-end metrics, untraced.  Operations run
until ``--seconds`` have passed (at least the workload's fixed unit).
Throughputs are per *reference second*: the sampling wall time scaled by the
machine speed that a fixed reference kernel (``probes.reference_kernel_s``)
measures between the operations, because the speed of a shared machine
drifts by 10-30% within a run.  ``setup_s`` is the median of several set-up
timings, each in a fresh process, spread over the run, and each scaled in the
same way by a reference timed in that process (see ``setup_probe.py``).

``--trace 1`` runs the fixed unit untraced, then again traced, and reports
the per-layer metrics; its call counts repeat exactly for a given seed.

Every run checks the output: pooled moments against the analytic ones, the
diagnostics JSON against the shipped schema, traced samples against untraced
ones (same SHA-256).  A failed check prints ``"correct": false``.  Every run
also replays the graph x constraint crash (``sampler.escaped_errors``).

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result JSON; the line before it, prefixed ``detail:``,
holds hashes, raw wall times, raw counts and failure messages.  Spans of a
traced run go to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ghmc" / "__init__.py").is_file():
        print(f"perfbench: no ghmc sources at {SRC}; run from a ghmc checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    # numpy reads the thread settings when it is first imported, so import late.
    import ghmc
    from bench import measure
    from workloads import WORKLOADS

    if Path(ghmc.__file__).resolve().parent != (SRC / "ghmc").resolve():
        print(f"perfbench: imported ghmc from {ghmc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        values, correct, attempted, failed, detail = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, Path(tmp),
            OUT / f"spans-{args.workload}-seed{args.seed}.npz",
        )

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind]}
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']!r} {m['unit']}")
    for msg in detail["failures"]:
        print(f"FAILED: {msg}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
