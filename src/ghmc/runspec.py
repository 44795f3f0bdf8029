"""Run-specification files: parsing, validation, and execution.

A run spec is a flat key-value text file with [target], [kinetic], [metric],
[chain], and [output] sections.  One table, ``_KEYS``, maps each section to
its keys and each key to its parser and default (or ``_REQUIRED``); the
[chain] keys are the scalar fields of ChainConfig and IntegratorConfig, by
name, plus ``chains``, and [target] also takes the catalog parameters of the
named target.  Parsing is strict: unknown sections, unknown keys, duplicates,
missing keys, and malformed values are all rejected with the offending line
number, since silent misconfiguration is the usual failure mode of sampler
tooling.  Matrix-valued keys have one grammar and one parser, ``identity``,
``scale:c``, ``diag:v1,v2,...`` or rows ``a,b;c,d`` of equal length with
finite entries; the spec keeps the text, shaped at the target's dimension
when the run is built.

Execution checks the chain settings and the output directories before any
chain runs, writes one CSV of samples per chain (header q1..qn, full-precision
floats, byte-reproducible for a fixed seed), and pools the chain results into
a diagnostics JSON that validates against the schema shipped with the package.
"""

import csv
import difflib
import json
import math
import os
import time
from dataclasses import MISSING, dataclass, fields, replace
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


@dataclass
class RunSpec:
    """Validated run configuration, still symbolic (matrices unmaterialized).

    ``integrator`` maps every IntegratorConfig field to its value.
    """

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
    jitter_steps: bool
    chains: int
    integrator: dict
    samples_path: str
    diagnostics_path: str


def _parse_bool(raw, line):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise SpecError(f"expected a boolean, got {raw!r}", line)


def _converter(convert, expected):
    # a parser that refuses, with its line, a value ``convert`` cannot read
    def parse(raw, line):
        try:
            return convert(raw.strip())
        except ValueError:
            raise SpecError(f"expected {expected}, got {raw!r}", line) from None

    return parse


_parse_int = _converter(int, "an integer")
_parse_float = _converter(float, "a number")
_parse_vector = _converter(
    lambda raw: np.array([float(tok) for tok in raw.split(",")]), "comma-separated numbers"
)


def _matrix(text, line=None):
    # (form, entries) of a matrix spec: ("scale", c) for identity and scale:c,
    # ("diag", vector) or ("rows", 2-d array)
    text = text.strip()
    if text == "identity":
        return "scale", 1.0
    if text.startswith("scale:"):
        form, entries = "scale", _parse_float(text[len("scale:") :], line)
    elif text.startswith("diag:"):
        form, entries = "diag", _parse_vector(text[len("diag:") :], line)
    else:
        rows = [_parse_vector(row, line) for row in text.split(";")]
        if len({row.size for row in rows}) > 1:
            raise SpecError(f"matrix rows must have equal length, got {text!r}", line)
        form, entries = "rows", np.vstack(rows)
    if not np.all(np.isfinite(entries)):
        raise SpecError(f"matrix entries must be finite, got {text!r}", line)
    return form, entries


def _parse_matrix_spec(raw, line):
    """Check a matrix spec and keep its text; materialization waits for the dimension."""
    _matrix(raw, line)
    return raw.strip()


def materialize_matrix(spec_text: str, n: int) -> np.ndarray:
    """Turn a matrix spec string into an (n, n) array."""
    form, entries = _matrix(spec_text)
    if form == "scale":
        return entries * np.eye(n)
    if form == "diag":
        if entries.size != n:
            raise UsageError(f"diag spec has {entries.size} entries, expected {n}")
        return np.diag(entries)
    if entries.shape != (n, n):
        raise UsageError(f"matrix spec has shape {entries.shape}, expected ({n}, {n})")
    return entries


def _choice(what, options):
    def parse(raw, line):
        if raw not in options:
            raise SpecError(f"unknown {what} {raw!r}; known: " + ", ".join(options), line)
        return raw

    return parse


def _text(raw, line):
    return raw


_PARSERS = {
    "bool": _parse_bool,
    "int": _parse_int,
    "float": _parse_float,
    "vector": _parse_vector,
    "matrix": _parse_matrix_spec,
}
_REQUIRED = object()


def _config_keys(cls):
    # the int, float and bool fields of a config dataclass, as spec keys with
    # the fields' defaults
    return {
        f.name: (_PARSERS[f.type.__name__], _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
        if f.type in (bool, int, float)
    }


_TARGET_PARAMS = {entry.name: entry.params for entry in catalog_entries()}

# section -> key -> (parser of (raw value, line), default or _REQUIRED)
_KEYS = {
    "target": {"name": (_choice("target", sorted(_TARGET_PARAMS)), _REQUIRED)},
    "kinetic": {
        "variant": (
            _choice("kinetic variant", ("euclidean", "riemannian", "student_t")),
            _REQUIRED,
        ),
        "lambda": (_parse_matrix_spec, None),
        "nu": (_parse_float, None),
    },
    "metric": {  # the variant is required when the section is present
        "variant": (_choice("metric variant", ("constant", "graph")), None),
        "lambda": (_parse_matrix_spec, None),
        "sigma": (_parse_matrix_spec, None),
    },
    "chain": {
        **_config_keys(ChainConfig),
        **_config_keys(IntegratorConfig),
        "chains": (_parse_int, 1),
    },
    "output": {"samples": (_text, "samples.csv"), "diagnostics": (_text, "diagnostics.json")},
}


def _missing(section, key):
    return SpecError(f"missing required key {key!r} in [{section}]")


def _value(entries, section, key, parse, default):
    if (section, key) in entries:
        return parse(*entries[(section, key)])
    if default is _REQUIRED:
        raise _missing(section, key)
    return default


def _read_entries(text):
    # (section, key) -> (raw value, line number) of every key line
    section = None
    entries = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise SpecError(
                    f"unknown section [{section}]; known: " + ", ".join(sorted(_KEYS)),
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
    return entries


def parse_run_spec(text: str) -> RunSpec:
    """Parse and validate a run spec; raises SpecError with a line number."""
    entries = _read_entries(text)
    name = _value(entries, "target", "name", *_KEYS["target"]["name"])
    allowed = {section: set(keys) for section, keys in _KEYS.items()}
    allowed["target"] |= set(_TARGET_PARAMS[name])
    for (section, key), (_, line) in entries.items():
        if key not in allowed[section]:
            hint = difflib.get_close_matches(key, sorted(allowed[section]), n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise SpecError(f"unknown key {key!r} in [{section}]{suffix}", line)
    target_params = {}
    for key, (kind, _) in _TARGET_PARAMS[name].items():
        if ("target", key) in entries:
            raw, line = entries[("target", key)]
            if kind is None:
                raise SpecError(
                    f"{key!r} can be passed only to builtin_target: a custom value "
                    f"leaves {name!r} without the initial point a spec run needs",
                    line,
                )
            target_params[key] = _PARSERS[kind](raw, line)
    kinetic, metric, chain, output = (
        {key: _value(entries, section, key, *entry) for key, entry in _KEYS[section].items()}
        for section in ("kinetic", "metric", "chain", "output")
    )

    variant, kinetic_lambda = kinetic["variant"], kinetic["lambda"]
    if kinetic_lambda is not None and variant == "riemannian":
        raise SpecError(
            "the riemannian kinetic takes its metric from [metric]; "
            "remove 'lambda' from [kinetic]",
            entries[("kinetic", "lambda")][1],
        )
    if kinetic["nu"] is not None and variant != "student_t":
        raise SpecError(
            "'nu' applies to the student_t kinetic only", entries[("kinetic", "nu")][1]
        )
    if any(section == "metric" for section, _ in entries):
        if variant == "euclidean":
            raise SpecError(
                "the euclidean kinetic uses [kinetic] lambda; remove the [metric] section"
            )
        if variant == "student_t" and kinetic_lambda is not None:
            raise SpecError(
                "give the student_t kinetic either a [metric] section or a "
                "[kinetic] lambda, not both"
            )
        if metric["variant"] is None:
            raise _missing("metric", "variant")
        if metric["variant"] == "constant":
            if metric["lambda"] is None:
                raise _missing("metric", "lambda")
            if metric["sigma"] is not None:
                raise SpecError(
                    "'sigma' applies to the graph metric only", entries[("metric", "sigma")][1]
                )
        elif metric["lambda"] is not None:
            raise SpecError(
                "'lambda' applies to the constant metric only", entries[("metric", "lambda")][1]
            )
    elif variant == "riemannian":
        raise SpecError("the riemannian kinetic requires a [metric] section")
    nu = kinetic["nu"]
    if nu is None:
        nu = 5.0 if variant == "student_t" else math.inf
    if chain["chains"] < 1:
        raise SpecError("chains must be at least 1", entries[("chain", "chains")][1])

    # what is left of [chain] after the integrator keys are RunSpec fields
    integrator = {f.name: chain.pop(f.name) for f in fields(IntegratorConfig)}
    return RunSpec(
        target_name=name,
        target_params=target_params,
        kinetic_variant=variant,
        kinetic_lambda=kinetic_lambda,
        nu=nu,
        metric_variant=metric["variant"],
        metric_lambda=metric["lambda"],
        metric_sigma=metric["sigma"],
        integrator=integrator,
        samples_path=output["samples"],
        diagnostics_path=output["diagnostics"],
        **chain,
    )


def load_run_spec(path) -> RunSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read it: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SpecError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_run_spec(text)


def build_model(spec: RunSpec):
    params = dict(spec.target_params)
    if "mean" in params and "cov" in params:  # mvn's cov is a matrix spec
        params["cov"] = materialize_matrix(params["cov"], params["mean"].size)
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
    """Run every chain, write samples CSVs and the diagnostics JSON.

    The chain settings, the model, the kinetic and the output directories are
    checked before the first chain runs; the pooled figures are computed from
    the chain results once every chain has run.
    """
    seed = spec.seed if seed_override is None else int(seed_override)
    config = ChainConfig(  # refuses a negative seed before SeedSequence sees it
        seed=seed,
        num_samples=spec.num_samples,
        warmup=spec.warmup,
        integrator=IntegratorConfig(**spec.integrator),
        jitter_steps=spec.jitter_steps,
    )
    model = build_model(spec)
    kinetic = build_kinetic(spec, model)
    sample_paths = [
        os.path.join(out_dir or "", p) for p in _chain_paths(spec.samples_path, spec.chains)
    ]
    diagnostics_file = os.path.join(out_dir or "", spec.diagnostics_path)
    for path in sample_paths + [diagnostics_file]:
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise UsageError(f"output directory {folder!r} does not exist")
    if spec.chains == 1:
        seeds = [seed]
    else:
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(spec.chains)]

    t_start = time.perf_counter()
    results, walls = [], []
    for chain_seed, path in zip(seeds, sample_paths):
        t0 = time.perf_counter()
        results.append(run_chain(model, kinetic, replace(config, seed=chain_seed)))
        walls.append(time.perf_counter() - t0)
        _write_samples_csv(path, results[-1].samples)

    per_chain = [
        {
            "seed": chain_seed,
            "samples_file": os.path.basename(path),
            "accept_rate": result.accept_rate,
            "divergence_count": result.divergence_count,
            "mean": result.mean.tolist(),
            "ess": result.ess.tolist() if np.all(np.isfinite(result.ess)) else None,
            "delta_h": _finite_stats(result.delta_h),
            "wall_time_s": wall,
        }
        for chain_seed, path, result, wall in zip(seeds, sample_paths, results, walls)
    ]
    pooled = np.vstack([result.samples for result in results])
    transitions = pooled.shape[0]
    divergences = sum(result.divergence_count for result in results)
    ess = sum(result.ess for result in results)
    covariance = (
        np.atleast_2d(np.cov(pooled, rowvar=False)).tolist() if transitions > 1 else None
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
        "accept_rate": sum(int(np.sum(result.accepted)) for result in results) / transitions,
        "divergence_count": divergences,
        "divergence_fraction": divergences / transitions,
        "delta_h": _finite_stats(np.concatenate([result.delta_h for result in results])),
        "mean": pooled.mean(axis=0).tolist(),
        "covariance": covariance,
        "ess": ess.tolist() if np.all(np.isfinite(ess)) else None,
        "wall_time_s": time.perf_counter() - t_start,
        "per_chain": per_chain,
    }
    with open(diagnostics_file, "w", encoding="utf-8") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return RunReport(
        diagnostics=diagnostics,
        samples_files=sample_paths,
        diagnostics_file=diagnostics_file,
        divergence_fraction=diagnostics["divergence_fraction"],
    )
