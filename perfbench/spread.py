"""Run the benchmark over many seeds and report how much every metric spreads.

Usage, from the root of a ghmc checkout:

    python3 perfbench/spread.py [--out FILE]

For each workload of BENCHMARK.json it makes, one after another:

- one untraced run for each seed 1..SEEDS: the seed-to-seed spread;
- REPEATS untraced runs of seed 1: the run-to-run spread;
- TRACED traced runs of seed 1, whose call counts must agree exactly.

The spread of a metric is (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``.  The report flags every end-to-end
spread that is not below a third of the metric's bound in BENCHMARK.json.
It also checks that one seed gives one SHA-256 of the samples, gathers
``integrator.generalized_step_exponent`` over all traced runs (it does not
depend on the workload), and records the machine: CPU, cores, Python, NumPy,
BLAS and its thread settings.  The JSON report goes to ``--out``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import BLAS_THREAD_VARS, ROOT

RUN = Path(__file__).resolve().with_name("run.py")
SEEDS = 10
REPEATS = 3
TRACED = 2
EXPONENT = "integrator.generalized_step_exponent"
EXACT_SUFFIXES = ("_calls_per_transition", "_calls_per_step", "steps_per_transition",
                  "reflections_per_transition")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail: "))
    return json.loads(lines[-1]), detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def machine():
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


def measure_workload(name, declared):
    seconds = declared["run_seconds"]
    runs = [run_once(name, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
    repeats = [runs[0]] + [run_once(name, 1, seconds, 0) for _ in range(REPEATS - 1)]
    traced = [run_once(name, 1, seconds, 1) for _ in range(TRACED)]
    report = {"seed_to_seed": {}, "run_to_run": {}}
    for metric in declared["end_to_end"]:
        key = metric["name"]
        report["seed_to_seed"][key] = dict(
            spread([r["metrics"][key]["value"] for r, _ in runs]),
            unit=metric["unit"], bound=metric["bound"],
        )
        report["run_to_run"][key] = spread([r["metrics"][key]["value"] for r, _ in repeats])
    first = traced[0][0]["metrics"]
    report["per_layer"] = {k: [v["value"], v["unit"]] for k, v in first.items()}
    exact = [k for k in first if k.endswith(EXACT_SUFFIXES)]
    report["counts_repeat_exactly"] = all(
        t["metrics"][k] == first[k] for t, _ in traced for k in exact
    ) and all(d["counts"] == traced[0][1]["counts"] for _, d in traced)
    hashes = {d["samples_sha256"] for _, d in repeats + traced}
    report["samples_sha256_seed1"] = sorted(hashes)
    report["sha256_repeats"] = len(hashes) == 1
    every = runs + repeats[1:] + traced
    report["all_correct"] = all(r["correct"] for r, _ in every)
    report["failures"] = sorted({m for _, d in every for m in d["failures"]})
    report["failed_operations"] = sum(r["failed"] for r, _ in every)
    report["escaped_errors"] = sorted({d["escaped_errors"] for _, d in every})
    report["counts_seed1"] = traced[0][1]["counts"]
    report["step_exponents"] = [t["metrics"][EXPONENT]["value"] for t, _ in traced]
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out" / "spread.json"))
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    result = {"machine": machine(), "run_seconds": declared["run_seconds"],
              "seeds": SEEDS, "repeats": REPEATS, "workloads": {}}
    for name in (w["name"] for w in declared["workloads"]):
        rep = measure_workload(name, declared)
        result["workloads"][name] = rep
        print(f"== {name}: correct={rep['all_correct']} counts_exact={rep['counts_repeat_exactly']} "
              f"sha_repeats={rep['sha256_repeats']} escaped_errors={rep['escaped_errors']}")
        for key, s in rep["seed_to_seed"].items():
            limit = s["bound"] / 3
            flag = "ok" if (s["spread"] or 0) < limit else "WIDE"
            print(f"  {key:20s} median {s['median']:<12.6g} seed spread {s['spread']:.4f} "
                  f"run spread {rep['run_to_run'][key]['spread']:.4f} bound {s['bound']} {flag}")
        sys.stdout.flush()
    exponents = [e for rep in result["workloads"].values() for e in rep["step_exponents"]]
    result["step_exponent"] = {"median": statistics.median(exponents),
                               "range": max(exponents) - min(exponents), "values": exponents}
    print(f"== {EXPONENT}: median {result['step_exponent']['median']:.4f} "
          f"range {result['step_exponent']['range']:.4f} over {len(exponents)} traced runs")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
