"""Operations, metrics and checks of one benchmark run (see run.py)."""

import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Optional
from pathlib import Path

import numpy as np

import ghmc
import ghmc.cli
import probes
from checks import ChainSums, moment_failures, schema_failures
from tracing import Tracer
from workloads import SPEC_PATH, op_seed

HERE = Path(__file__).resolve().parent
SCHEMA = HERE.parent / "src" / "ghmc" / "diagnostics_schema_v1.json"
SETUP_REPEATS = 15
# Reference time of setup_probe.py at nominal machine speed: setup_s is the
# set-up wall time scaled to it, in seconds at that speed.
NOMINAL_SETUP_REFERENCE_S = 0.04


@dataclass
class Op:
    """Outcome of one operation: wall time, transition counts, sample sums."""

    wall: float
    transitions: int
    retained: int
    accepted: int = 0
    divergences: int = 0
    sums: Optional[ChainSums] = None  # None: the operation failed
    # What the SHA-256 covers, sample bytes or CSV bytes; kept for unit ops only.
    raw: bytes = b""
    csv_bytes: int = 0
    failures: list = field(default_factory=list)


class Bench:
    """Runs the operations of one workload in this process."""

    def __init__(self, wl, seed, tmp):
        self.wl = wl
        self.seed = seed
        self.tmp = tmp
        self.built = wl.setup()
        self.run_chain = ghmc.run_chain
        self.cli_main = ghmc.cli.main

    def op(self, index, tag="u"):
        """Run operation ``index``; the samples are reduced once the clock stops."""
        if self.wl.through_cli:
            return self._cli_op(index, tag)
        return self._chain_op(index)

    def _chain_op(self, index):
        model, kinetic, icfg = self.built
        cfg = self.wl.chain_config(icfg, self.seed, index)
        initial = self.wl.initial_point(self.seed, index)
        transitions = cfg.warmup + cfg.num_samples
        t0 = time.perf_counter()
        try:
            res = self.run_chain(model, kinetic, cfg, initial)
        except Exception:
            return Op(time.perf_counter() - t0, transitions, cfg.num_samples,
                      failures=[f"op {index}: {traceback.format_exc(limit=2)}"])
        wall = time.perf_counter() - t0
        return Op(
            wall,
            transitions,
            cfg.num_samples,
            accepted=int(res.accepted.sum()),
            divergences=res.divergence_count,
            sums=ChainSums.of([res.samples], [res.ess], self.wl.mean),
            raw=res.samples.tobytes() if index < self.wl.unit_ops else b"",
        )

    def _cli_op(self, index, tag):
        spec = self.built
        out = self.tmp / f"{tag}{index}"
        out.mkdir()
        argv = ["sample", str(SPEC_PATH), "--seed", str(op_seed(self.seed, self.wl.index, index)),
                "--out-dir", str(out)]
        transitions = spec.chains * (spec.warmup + spec.num_samples)
        retained = spec.chains * spec.num_samples
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = self.cli_main(argv)
        except Exception:
            return Op(time.perf_counter() - t0, transitions, retained,
                      failures=[f"op {index}: {traceback.format_exc(limit=2)}"])
        wall = time.perf_counter() - t0
        if code != 0:
            return Op(wall, transitions, retained, failures=[f"op {index}: ghmc sample exited {code}"])
        diag_path = out / spec.diagnostics_path
        result = Op(wall, transitions, retained, failures=schema_failures(diag_path, SCHEMA))
        diag = json.loads(diag_path.read_text(encoding="utf-8"))
        result.divergences = diag["divergence_count"]
        chains, ess = [], []
        for chain in diag["per_chain"]:
            data = (out / chain["samples_file"]).read_bytes()
            if index < self.wl.unit_ops:
                result.raw += data
            result.csv_bytes += len(data)
            chains.append(np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2))
            ess.append(np.asarray(chain["ess"], dtype=float))
            result.accepted += round(chain["accept_rate"] * spec.num_samples)
        result.sums = ChainSums.of(chains, ess, self.wl.mean)
        return result


def digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(op.raw)
    return h.hexdigest()


def check_ops(wl, ops):
    """Failure messages for the ops: their own, then the pooled moments."""
    failures = [msg for op in ops for msg in op.failures]
    sums = [op.sums for op in ops if op.sums is not None]
    if not sums:
        return failures + ["no operation completed"], None
    moment, max_z = moment_failures(sum(sums[1:], sums[0]), wl.mean, wl.var, wl.var_sq)
    return failures + moment, max_z


def setup_seconds(workload):
    """Set-up time of the workload, timed in a fresh process: (wall, reference) in s."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    wall, reference = map(float, proc.stdout.split())
    return wall, reference


def reference_seconds(ops, kernel_s):
    """Sampling time in reference seconds.

    Wall time is scaled by the machine speed the reference kernel measured
    between the operations, so drift in the speed of the machine cancels
    while a change in the engine's speed does not.  On a shared 2-core VM
    the speed varies within seconds, so the run's mean kernel time is used
    rather than the samples next to each operation.
    """
    return sum(op.wall for op in ops) * probes.NOMINAL_KERNEL_S / statistics.mean(kernel_s)


def end_to_end(ops, ref_s, setup_s, rss_mb):
    retained = sum(op.retained for op in ops)
    ess = np.sum([op.sums.ess_x for op in ops if op.sums is not None], axis=0)
    return {
        "transitions_per_s": sum(op.transitions for op in ops) / ref_s,
        "min_ess_per_s": float(np.min(ess)) / ref_s,
        "accept_rate": sum(op.accepted for op in ops) / retained,
        "nondivergent_frac": 1.0 - sum(op.divergences for op in ops) / retained,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def per_layer(tracer, traced, untraced, escaped, exponent):
    """Per-layer metrics of the traced unit, plus the raw counts behind them."""
    transitions = sum(op.transitions for op in traced)
    steps = sum(tracer.integrate_steps)
    calls = {name: tracer.calls(name) for name in tracer.names}
    layers, root_ns = tracer.layer_self_ns()

    def per(name, base=transitions):
        return calls.get(name, 0) / base

    def share(layer):
        return layers.get(layer, 0.0) / root_ns

    state_us = tracer.durations("metric.state_at") / 1e3
    step_us = tracer.durations("integrator.integrate") / 1e3 / np.array(tracer.integrate_steps)
    ess_ms = tracer.durations("sampler.effective_sample_size") / 1e6
    metrics = {
        "model.gradient_calls_per_transition": per("model.gradient"),
        "model.hessian_calls_per_transition": per("model.hessian"),
        "model.potential_calls_per_transition": per("model.potential"),
        "model.constraint_calls_per_transition":
            per("model.constraint_value") + per("model.constraint_grad"),
        "model.self_share": share("model"),
        "metric.state_at_calls_per_transition": per("metric.state_at"),
        "metric.state_at_us_p50": float(np.percentile(state_us, 50)),
        "metric.state_at_us_p90": float(np.percentile(state_us, 90)),
        "metric.state_at_samples": int(state_us.size),
        "metric.self_share": share("metric"),
        "kinetic.energy_calls_per_transition": per("kinetic.energy"),
        "kinetic.grad_p_calls_per_step": per("kinetic.grad_p", steps),
        "kinetic.grad_q_calls_per_step": per("kinetic.grad_q", steps),
        "kinetic.lambda_at_calls_per_transition": per("kinetic.lambda_at"),
        "kinetic.self_share": share("kinetic"),
        "integrator.steps_per_transition": steps / transitions,
        "integrator.reflections_per_transition": tracer.reflections / transitions,
        "integrator.step_us_p50": float(np.percentile(step_us, 50)),
        "integrator.step_us_p90": float(np.percentile(step_us, 90)),
        "integrator.self_share": share("integrator"),
        "integrator.generalized_step_exponent": exponent,
        "sampler.hamiltonian_calls_per_transition": per("sampler.hamiltonian"),
        "sampler.ess_ms": float(np.percentile(ess_ms, 50)),
        "sampler.self_share": share("sampler"),
        "sampler.escaped_errors": escaped,
        "runspec.self_s": layers.get("runspec", 0.0) / 1e9,
        "runspec.csv_bytes": sum(op.csv_bytes for op in traced),
        "trace.overhead_frac":
            sum(op.wall for op in traced) / sum(op.wall for op in untraced) - 1.0,
    }
    counts = dict(calls, transitions=transitions, steps=steps, reflections=tracer.reflections)
    return metrics, counts


def measure(wl, seed, seconds, trace, tmp, spans_path):
    """Run the workload; returns (metrics, correct, attempted, failed, detail)."""
    detail = {"workload": wl.name, "seed": seed, "trace": trace}
    bench = Bench(wl, seed, tmp)
    ops = []
    kernel_s = [probes.reference_kernel_s()]
    setup_s = []
    t_start = time.perf_counter()
    while len(ops) < wl.unit_ops or (
        trace == 0 and time.perf_counter() - t_start < seconds
    ):
        ops.append(bench.op(len(ops)))
        kernel_s.append(probes.reference_kernel_s())
        # Spread the set-up probes over the run: the machine's speed drifts.
        elapsed = time.perf_counter() - t_start
        if trace == 0 and len(setup_s) < SETUP_REPEATS * elapsed / seconds:
            setup_s.append(setup_seconds(wl.name))
    while trace == 0 and len(setup_s) < SETUP_REPEATS:
        setup_s.append(setup_seconds(wl.name))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unit = ops[: wl.unit_ops]
    failures, detail["max_z"] = check_ops(wl, ops)
    detail["samples_sha256"] = digest(unit)

    if trace == 1:
        tracer = Tracer()
        with tracer.patched():
            bench.run_chain = tracer.traced_run_chain(ghmc.run_chain)
            bench.cli_main = tracer.wrap("runspec.sample", bench.cli_main)
            traced = [bench.op(i, tag="t") for i in range(wl.unit_ops)]
        failures += [msg for op in traced for msg in op.failures]
        if digest(traced) != detail["samples_sha256"]:
            failures.append("traced samples differ from untraced samples")
        tracer.dump(spans_path)

    escaped, detail["escaped_error_messages"] = probes.escaped_errors()
    ref_s = reference_seconds(ops, kernel_s)
    if trace == 0:
        detail["setup_wall_s"], detail["setup_reference_s"] = map(list, zip(*setup_s))
        scaled = [wall * NOMINAL_SETUP_REFERENCE_S / ref for wall, ref in setup_s]
        metrics = end_to_end(ops, ref_s, statistics.median(scaled), rss_mb)
    else:
        exponent, detail["generalized_step_s"] = probes.generalized_step_exponent()
        metrics, detail["counts"] = per_layer(tracer, traced, unit, escaped, exponent)
    detail.update(
        ops=len(ops),
        transitions=sum(op.transitions for op in ops),
        sampling_wall_s=sum(op.wall for op in ops),
        sampling_ref_s=ref_s,
        kernel_s_median=statistics.median(kernel_s),
        divergence_frac=sum(op.divergences for op in ops) / sum(op.retained for op in ops),
        escaped_errors=escaped,
        failures=failures,
    )
    attempted = sum(op.retained for op in ops)
    # An operation that raised has no chains: all of its transitions failed.
    failed = sum(op.retained if op.sums is None else op.divergences for op in ops)
    return metrics, not failures, attempted, failed, detail


