"""Run-specification files: parsing, validation, and execution.

A run spec is a flat key-value text file with [target], [kinetic], [metric],
[chain], and [output] sections.  Parsing is strict: unknown sections, unknown
keys, duplicates, and malformed values are all rejected with the offending
line number, since silent misconfiguration is the usual failure mode of
sampler tooling.  Matrix-valued keys accept ``identity``, ``scale:c``,
``diag:v1,v2,...``, or explicit rows ``a,b;c,d``.

Execution writes one CSV of samples per chain (header q1..qn, full-precision
floats, byte-reproducible for a fixed seed) and a merged diagnostics JSON
that validates against the schema shipped with the package.
"""

import csv
import difflib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import UsageError
from .integrator import IntegratorConfig
from .kinetic import Kinetic
from .metric import BackgroundMetric, ConstantMetric, GraphMetric
from .model import builtin_target, catalog_entries
from .sampler import ChainConfig, run_chain

__all__ = ["SpecError", "RunSpec", "parse_run_spec", "load_run_spec", "execute"]

SCHEMA_VERSION = "v1"


class SpecError(UsageError):
    """Spec-file problem, anchored to a line when one is known."""

    def __init__(self, message, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


_SECTION_KEYS = {
    "target": {"name"},  # plus per-target parameter keys
    "kinetic": {"variant", "lambda", "nu"},
    "metric": {"variant", "lambda", "sigma"},
    "chain": {
        "seed",
        "num_samples",
        "warmup",
        "step_size",
        "num_steps",
        "jitter_steps",
        "chains",
        "fp_tol",
        "fp_max_iter",
        "reflection_tol",
        "reflection_max_events",
    },
    "output": {"samples", "diagnostics"},
}


@dataclass
class RunSpec:
    """Validated run configuration, still symbolic (matrices unmaterialized)."""

    target_name: str
    target_params: dict
    kinetic_variant: str
    kinetic_lambda: Optional[str]
    nu: float  # math.inf for the Gaussian variants
    metric_variant: Optional[str]
    metric_lambda: Optional[str]
    metric_sigma: Optional[str]
    seed: int
    num_samples: int
    warmup: int
    step_size: float
    num_steps: int
    jitter_steps: bool
    chains: int
    integrator_extra: dict = field(default_factory=dict)
    samples_path: str = "samples.csv"
    diagnostics_path: str = "diagnostics.json"


def _parse_bool(raw, line):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise SpecError(f"expected a boolean, got {raw!r}", line)


def _parse_int(raw, line):
    try:
        return int(raw.strip())
    except ValueError:
        raise SpecError(f"expected an integer, got {raw!r}", line) from None


def _parse_float(raw, line):
    try:
        return float(raw.strip())
    except ValueError:
        raise SpecError(f"expected a number, got {raw!r}", line) from None


def _parse_vector(raw, line):
    try:
        return np.array([float(tok) for tok in raw.split(",")])
    except ValueError:
        raise SpecError(f"expected comma-separated numbers, got {raw!r}", line) from None


def _parse_matrix_spec(raw, line):
    """Validate the grammar and finite entries; materialization waits for the dimension."""
    text = raw.strip()
    if text == "identity":
        return text
    if text.startswith("scale:"):
        entries = [_parse_float(text.split(":", 1)[1], line)]
    elif text.startswith("diag:"):
        entries = _parse_vector(text.split(":", 1)[1], line)
    else:
        entries = np.concatenate([_parse_vector(row, line) for row in text.split(";")])
    if not np.all(np.isfinite(entries)):
        raise SpecError(f"matrix entries must be finite, got {text!r}", line)
    return text


def materialize_matrix(spec_text: str, n: int) -> np.ndarray:
    """Turn a matrix spec string into an (n, n) array."""
    text = spec_text.strip()
    if text == "identity":
        return np.eye(n)
    if text.startswith("scale:"):
        return float(text.split(":", 1)[1]) * np.eye(n)
    if text.startswith("diag:"):
        vals = np.array([float(tok) for tok in text.split(":", 1)[1].split(",")])
        if vals.size != n:
            raise UsageError(f"diag spec has {vals.size} entries, expected {n}")
        return np.diag(vals)
    rows = [np.array([float(tok) for tok in row.split(",")]) for row in text.split(";")]
    mat = np.vstack(rows)
    if mat.shape != (n, n):
        raise UsageError(f"matrix spec has shape {mat.shape}, expected ({n}, {n})")
    return mat


_PARAM_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "vector": _parse_vector,
    "matrix": _parse_matrix_spec,
}


def _unknown_key_error(key, section, allowed, line):
    hint = difflib.get_close_matches(key, sorted(allowed), n=1)
    suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
    return SpecError(f"unknown key {key!r} in [{section}]{suffix}", line)


def parse_run_spec(text: str) -> RunSpec:
    """Parse and validate a run spec; raises SpecError with a line number."""
    section = None
    entries = {}  # (section, key) -> (raw value, line number)
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise SpecError(
                    f"unknown section [{section}]; known: "
                    + ", ".join(sorted(_SECTION_KEYS)),
                    lineno,
                )
            continue
        if "=" not in line:
            raise SpecError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise SpecError("key outside of any [section]", lineno)
        key, raw = (part.strip() for part in line.split("=", 1))
        if (section, key) in entries:
            raise SpecError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[(section, key)] = (raw, lineno)

    # validate keys section by section
    if ("target", "name") not in entries:
        raise SpecError("missing required key 'name' in [target]")
    target_name, name_line = entries[("target", "name")]
    targets = {e.name: e.params for e in catalog_entries()}
    if target_name not in targets:
        raise SpecError(
            f"unknown target {target_name!r}; known: " + ", ".join(sorted(targets)),
            name_line,
        )
    for (section, key), (raw, lineno) in entries.items():
        allowed = set(_SECTION_KEYS[section])
        if section == "target":
            allowed |= set(targets[target_name])
        if key not in allowed:
            raise _unknown_key_error(key, section, allowed, lineno)

    def need(section, key):
        if (section, key) not in entries:
            raise SpecError(f"missing required key {key!r} in [{section}]")
        return entries[(section, key)]

    def get(section, key, default=None):
        return entries.get((section, key), (default, None))

    target_params = {}
    for key, (kind, _) in targets[target_name].items():
        if ("target", key) in entries:
            raw, lineno = entries[("target", key)]
            if kind is None:
                raise SpecError(
                    f"{key!r} can be passed only to builtin_target: a custom value "
                    f"leaves {target_name!r} without the initial point a spec run needs",
                    lineno,
                )
            target_params[key] = _PARAM_PARSERS[kind](raw, lineno)

    raw, line = need("kinetic", "variant")
    kinetic_variant = raw
    if kinetic_variant not in ("euclidean", "riemannian", "student_t"):
        raise SpecError(
            f"unknown kinetic variant {kinetic_variant!r}; "
            "known: euclidean, riemannian, student_t",
            line,
        )
    kinetic_lambda = None
    if ("kinetic", "lambda") in entries:
        raw, lineno = entries[("kinetic", "lambda")]
        if kinetic_variant == "riemannian":
            raise SpecError(
                "the riemannian kinetic takes its metric from [metric]; "
                "remove 'lambda' from [kinetic]",
                lineno,
            )
        kinetic_lambda = _parse_matrix_spec(raw, lineno)
    nu = 5.0 if kinetic_variant == "student_t" else math.inf
    if ("kinetic", "nu") in entries:
        raw, lineno = entries[("kinetic", "nu")]
        if kinetic_variant != "student_t":
            raise SpecError("'nu' applies to the student_t kinetic only", lineno)
        nu = _parse_float(raw, lineno)

    has_metric = any(section == "metric" for section, _ in entries)
    metric_variant = metric_lambda = metric_sigma = None
    if has_metric:
        if kinetic_variant == "euclidean":
            raise SpecError(
                "the euclidean kinetic uses [kinetic] lambda; remove the [metric] section"
            )
        if kinetic_variant == "student_t" and kinetic_lambda is not None:
            raise SpecError(
                "give the student_t kinetic either a [metric] section or a "
                "[kinetic] lambda, not both"
            )
        raw, line = need("metric", "variant")
        metric_variant = raw
        if metric_variant not in ("constant", "graph"):
            raise SpecError(
                f"unknown metric variant {metric_variant!r}; known: constant, graph", line
            )
        if metric_variant == "constant":
            raw, line = need("metric", "lambda")
            metric_lambda = _parse_matrix_spec(raw, line)
            if ("metric", "sigma") in entries:
                raise SpecError(
                    "'sigma' applies to the graph metric only",
                    entries[("metric", "sigma")][1],
                )
        else:
            if ("metric", "lambda") in entries:
                raise SpecError(
                    "'lambda' applies to the constant metric only",
                    entries[("metric", "lambda")][1],
                )
            if ("metric", "sigma") in entries:
                raw, line = entries[("metric", "sigma")]
                metric_sigma = _parse_matrix_spec(raw, line)
    elif kinetic_variant == "riemannian":
        raise SpecError("the riemannian kinetic requires a [metric] section")

    raw, line = need("chain", "seed")
    seed = _parse_int(raw, line)
    raw, line = need("chain", "num_samples")
    num_samples = _parse_int(raw, line)
    raw, line = need("chain", "step_size")
    step_size = _parse_float(raw, line)
    raw, line = need("chain", "num_steps")
    num_steps = _parse_int(raw, line)
    raw, line = get("chain", "warmup", "0")
    warmup = _parse_int(raw, line)
    raw, line = get("chain", "jitter_steps", "false")
    jitter_steps = _parse_bool(raw, line)
    raw, line = get("chain", "chains", "1")
    chains = _parse_int(raw, line)
    if chains < 1:
        raise SpecError("chains must be at least 1", line)

    integrator_extra = {}
    for key, parser in (
        ("fp_tol", _parse_float),
        ("fp_max_iter", _parse_int),
        ("reflection_tol", _parse_float),
        ("reflection_max_events", _parse_int),
    ):
        if ("chain", key) in entries:
            raw, lineno = entries[("chain", key)]
            integrator_extra[key] = parser(raw, lineno)

    samples_path = get("output", "samples", "samples.csv")[0]
    diagnostics_path = get("output", "diagnostics", "diagnostics.json")[0]

    return RunSpec(
        target_name=target_name,
        target_params=target_params,
        kinetic_variant=kinetic_variant,
        kinetic_lambda=kinetic_lambda,
        nu=nu,
        metric_variant=metric_variant,
        metric_lambda=metric_lambda,
        metric_sigma=metric_sigma,
        seed=seed,
        num_samples=num_samples,
        warmup=warmup,
        step_size=step_size,
        num_steps=num_steps,
        jitter_steps=jitter_steps,
        chains=chains,
        integrator_extra=integrator_extra,
        samples_path=samples_path,
        diagnostics_path=diagnostics_path,
    )


def load_run_spec(path) -> RunSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_spec(fh.read())


def build_model(spec: RunSpec):
    params = dict(spec.target_params)
    if spec.target_name == "mvn":
        if "mean" not in params or "cov" not in params:
            raise SpecError("target mvn requires both 'mean' and 'cov'")
        mean = params["mean"]
        params["cov"] = materialize_matrix(params["cov"], mean.size)
    return builtin_target(spec.target_name, **params)


def build_kinetic(spec: RunSpec, model) -> Kinetic:
    n = model.n
    if spec.metric_variant == "graph":
        sigma = materialize_matrix(spec.metric_sigma or "identity", n)
        field_obj = GraphMetric(model, BackgroundMetric.from_matrix(sigma))
    else:  # the parser admits at most one of the two lambdas
        lam = spec.metric_lambda or spec.kinetic_lambda or "identity"
        field_obj = ConstantMetric(materialize_matrix(lam, n))
    return Kinetic(field_obj, spec.nu)


def _chain_config(spec: RunSpec, seed: int) -> ChainConfig:
    icfg = IntegratorConfig(
        step_size=spec.step_size, num_steps=spec.num_steps, **spec.integrator_extra
    )
    return ChainConfig(
        seed=seed,
        num_samples=spec.num_samples,
        warmup=spec.warmup,
        integrator=icfg,
        jitter_steps=spec.jitter_steps,
    )


def _write_samples_csv(path, samples):
    n = samples.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"q{i + 1}" for i in range(n)])
        for row in samples:
            writer.writerow([repr(float(x)) for x in row])


def _chain_paths(base: str, chains: int):
    if chains == 1:
        return [base]
    stem, suffix = os.path.splitext(base)
    return [f"{stem}_chain{i}{suffix or '.csv'}" for i in range(chains)]


def _finite_stats(values):
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {"mean_abs": None, "max_abs": None, "finite_count": 0}
    return {
        "mean_abs": float(np.mean(np.abs(finite))),
        "max_abs": float(np.max(np.abs(finite))),
        "finite_count": int(finite.size),
    }


def _jsonable_params(params):
    out = {}
    for key, value in params.items():
        out[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


@dataclass
class RunReport:
    """Everything the CLI needs after an execution."""

    diagnostics: dict
    samples_files: list
    diagnostics_file: str
    divergence_fraction: float


def execute(spec: RunSpec, out_dir=None, seed_override=None) -> RunReport:
    """Run every chain, write samples CSVs and the diagnostics JSON."""
    model = build_model(spec)
    kinetic = build_kinetic(spec, model)
    seed = spec.seed if seed_override is None else int(seed_override)
    if spec.chains == 1:
        seeds = [seed]
    else:
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(spec.chains)]

    def resolve(path):
        return os.path.join(out_dir, path) if out_dir else path

    sample_paths = [resolve(p) for p in _chain_paths(spec.samples_path, spec.chains)]
    t_start = time.perf_counter()
    per_chain = []
    all_samples = []
    total_transitions = 0
    total_divergences = 0
    total_accepted = 0
    ess_total = np.zeros(model.n)
    ess_defined = True
    for i, chain_seed in enumerate(seeds):
        t0 = time.perf_counter()
        result = run_chain(model, kinetic, _chain_config(spec, chain_seed))
        wall = time.perf_counter() - t0
        _write_samples_csv(sample_paths[i], result.samples)
        all_samples.append(result.samples)
        total_transitions += spec.num_samples
        total_divergences += result.divergence_count
        total_accepted += int(np.sum(result.accepted))
        if np.all(np.isfinite(result.ess)):
            ess_total += result.ess
        else:
            ess_defined = False
        per_chain.append(
            {
                "seed": chain_seed,
                "samples_file": os.path.basename(sample_paths[i]),
                "accept_rate": result.accept_rate,
                "divergence_count": result.divergence_count,
                "mean": result.mean.tolist(),
                "ess": result.ess.tolist() if np.all(np.isfinite(result.ess)) else None,
                "delta_h": _finite_stats(result.delta_h),
                "wall_time_s": wall,
            }
        )

    pooled = np.vstack(all_samples)
    covariance = (
        np.atleast_2d(np.cov(pooled, rowvar=False)).tolist() if pooled.shape[0] > 1 else None
    )
    diagnostics = {
        "schema_version": SCHEMA_VERSION,
        "target": {"name": spec.target_name, "params": _jsonable_params(spec.target_params)},
        "kinetic": {
            "variant": spec.kinetic_variant,
            "nu": kinetic.nu if math.isfinite(kinetic.nu) else None,
        },
        "metric": {"variant": spec.metric_variant} if spec.metric_variant else None,
        "seed": seed,
        "chains": spec.chains,
        "num_samples": spec.num_samples,
        "warmup": spec.warmup,
        "accept_rate": total_accepted / max(total_transitions, 1),
        "divergence_count": total_divergences,
        "divergence_fraction": total_divergences / max(total_transitions, 1),
        "delta_h": _merge_delta_h(per_chain),
        "mean": pooled.mean(axis=0).tolist(),
        "covariance": covariance,
        "ess": ess_total.tolist() if ess_defined else None,
        "wall_time_s": time.perf_counter() - t_start,
        "per_chain": per_chain,
    }
    diagnostics_file = resolve(spec.diagnostics_path)
    with open(diagnostics_file, "w", encoding="utf-8") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return RunReport(
        diagnostics=diagnostics,
        samples_files=sample_paths,
        diagnostics_file=diagnostics_file,
        divergence_fraction=diagnostics["divergence_fraction"],
    )


def _merge_delta_h(per_chain):
    counts = [c["delta_h"]["finite_count"] for c in per_chain]
    total = sum(counts)
    if total == 0:
        return {"mean_abs": None, "max_abs": None, "finite_count": 0}
    mean_abs = (
        sum(c["delta_h"]["mean_abs"] * n for c, n in zip(per_chain, counts) if n) / total
    )
    max_abs = max(c["delta_h"]["max_abs"] for c in per_chain if c["delta_h"]["max_abs"] is not None)
    return {"mean_abs": mean_abs, "max_abs": max_abs, "finite_count": total}
