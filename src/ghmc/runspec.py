"""Run-specification files: parsing, validation, and execution.

A run spec is a flat key-value text file with [target], [kinetic], [metric],
[chain], and [output] sections.  One table, ``_KEYS``, maps each section to
its keys and each key to its parser and default (or ``_REQUIRED``); the
[chain] keys are the scalar fields of ChainConfig and IntegratorConfig, by
name, plus ``chains``, and [target] also takes the catalog parameters of the
named target.  Parsing is strict: unknown sections, unknown keys, duplicates,
missing keys, and malformed or non-finite values are all rejected with the
offending line number, since silent misconfiguration is the usual failure mode
of sampler tooling.  Parsing also builds the run: the target, the kinetic and
the chain config, with each matrix (``identity``, ``scale:c``,
``diag:v1,v2,...`` or rows ``a,b;c,d``) read once at the target's dimension,
so that a matrix its builder refuses is cited at its line too.

Execution checks the output paths before any chain runs, writes one CSV of
samples per chain (header q1..qn, full-precision floats, byte-reproducible for
a fixed seed), and pools the chain results into a diagnostics JSON that
validates against the schema shipped with the package.
"""

import difflib
import json
import math
import os
import time
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import UsageError, ValidationError
from .integrator import IntegratorConfig
from .kinetic import Kinetic
from .metric import ConstantMetric, GraphMetric
from .model import TargetModel, builtin_target, catalog_entries
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
    """A run built from its spec; ``target_params`` are kept as parsed for the
    diagnostics JSON, mvn's covariance as its spec text."""

    target_params: dict
    model: TargetModel
    kinetic_variant: str
    metric_variant: Optional[str]
    kinetic: Kinetic
    config: ChainConfig
    chains: int
    samples_path: str
    diagnostics_path: str

    @property
    def num_samples(self) -> int:
        return self.config.num_samples

    @property
    def warmup(self) -> int:
        return self.config.warmup


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


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


_parse_int = _converter(int, "an integer")
_parse_float = _converter(float, "a number")
_parse_finite = _converter(_finite, "a finite number")
_parse_vector = _converter(
    lambda raw: np.array([_finite(tok) for tok in raw.split(",")]),
    "finite comma-separated numbers",
)


def _matrix(raw, line, n):
    """The (n, n) matrix of a spec value; every refusal cites ``line``."""
    if raw == "identity":
        return np.eye(n)
    if raw.startswith("scale:"):
        mat = _parse_finite(raw[len("scale:") :], line) * np.eye(n)
    elif raw.startswith("diag:"):
        mat = np.diag(_parse_vector(raw[len("diag:") :], line))
    else:
        rows = [_parse_vector(row, line) for row in raw.split(";")]
        if len({row.size for row in rows}) > 1:
            raise SpecError(f"matrix rows must have equal length, got {raw!r}", line)
        mat = np.vstack(rows)
    if mat.shape != (n, n):
        raise SpecError(f"expected a {n}x{n} matrix, got {raw!r}", line)
    return mat


def _built(line, build, *args, **kwargs):
    # build(*args, **kwargs), its refusal of a spec value cited at the value's line
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise SpecError(str(exc), line) from None


def _choice(what, options):
    def parse(raw, line):
        if raw not in options:
            raise SpecError(f"unknown {what} {raw!r}; known: " + ", ".join(options), line)
        return raw

    return parse


def _text(raw, line):
    if not raw:
        raise SpecError("expected a value, got nothing", line)
    return raw


_PARSERS = {
    "bool": _parse_bool,
    "int": _parse_int,
    "float": _parse_float,
    "vector": _parse_vector,
    "matrix": _text,  # read by _matrix once the target's dimension is known
}
# a target's float parameters must be finite; the [chain] floats are checked
# by the config that names the field
_TARGET_PARSERS = {**_PARSERS, "float": _parse_finite}
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
        "lambda": (_text, None),
        "nu": (_parse_float, None),
    },
    "metric": {  # the variant is required when the section is present
        "variant": (_choice("metric variant", ("constant", "graph")), None),
        "lambda": (_text, None),
        "sigma": (_text, None),
    },
    "chain": {
        **_config_keys(ChainConfig),
        **_config_keys(IntegratorConfig),
        "chains": (_parse_int, 1),
    },
    "output": {"samples": (_text, "samples.csv"), "diagnostics": (_text, "diagnostics.json")},
}

# the keys of the kinetic's field matrix; the section checks admit at most one
_FIELD_MATRICES = (("kinetic", "lambda"), ("metric", "lambda"), ("metric", "sigma"))


def _missing(section, key):
    return SpecError(f"missing required key {key!r} in [{section}]")


def _value(entries, section, key, parse, default):
    if (section, key) in entries:
        return parse(*entries[(section, key)])
    if default is _REQUIRED:
        raise _missing(section, key)
    return default


def _read_entries(text):
    # ((section, key) -> (raw value, line number) of every key line, the
    # sections whose header appears)
    section = None
    entries, sections = {}, set()
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
            sections.add(section)
            continue
        if "=" not in line:
            raise SpecError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise SpecError("key outside of any [section]", lineno)
        key, raw = (part.strip() for part in line.split("=", 1))
        if (section, key) in entries:
            raise SpecError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[(section, key)] = (raw, lineno)
    return entries, sections


def parse_run_spec(text: str) -> RunSpec:
    """Parse a run spec and build its run; raises SpecError with a line number."""
    entries, sections = _read_entries(text)
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
            target_params[key] = _TARGET_PARSERS[kind](raw, line)
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
    if "metric" in sections:
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
    chains = chain.pop("chains")
    if chains < 1:
        raise SpecError("chains must be at least 1", entries[("chain", "chains")][1])

    # what is left of [chain] after the integrator keys are ChainConfig fields
    try:
        integrator = IntegratorConfig(**{f.name: chain.pop(f.name) for f in fields(IntegratorConfig)})
        config = ChainConfig(integrator=integrator, **chain)
    except UsageError as exc:
        # each config refusal begins with the name of the field it refuses
        key = ("chain", str(exc).split(" ", 1)[0])
        raise SpecError(str(exc), entries.get(key, (None, None))[1]) from None

    params, line = dict(target_params), entries[("target", "name")][1]
    if "mean" in params and "cov" in params:  # mvn's covariance, at the mean's size
        line = entries[("target", "cov")][1]
        params["cov"] = _matrix(params["cov"], line, params["mean"].size)
    model = _built(line, builtin_target, name, **params)

    given = [entries[key] for key in _FIELD_MATRICES if key in entries]
    raw, line = given[0] if given else ("identity", None)  # identity when none is given
    mat = _matrix(raw, line, model.n)
    if metric["variant"] == "graph":
        field = GraphMetric(model, _built(line, ConstantMetric.from_sigma, mat))
    else:
        field = _built(line, ConstantMetric, mat)
    return RunSpec(
        target_params=target_params,
        model=model,
        kinetic_variant=variant,
        metric_variant=metric["variant"],
        kinetic=_built(entries.get(("kinetic", "nu"), (None, None))[1], Kinetic, field, nu),
        config=config,
        chains=chains,
        samples_path=output["samples"],
        diagnostics_path=output["diagnostics"],
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


def _write_samples_csv(path, samples):
    # the bytes of csv.writer's default dialect: no float's repr holds a
    # character that it would quote, and each row ends in \r\n
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(f"q{i + 1}" for i in range(samples.shape[1])) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in samples.tolist())


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


def execute(spec: RunSpec, out_dir=None, seed_override=None) -> RunReport:
    """Run every chain, write samples CSVs and the diagnostics JSON.

    The output paths are checked before the first chain runs; the pooled
    figures are computed from the chain results once every chain has run.
    """
    config = spec.config
    if seed_override is not None:  # refuses a negative seed before SeedSequence sees it
        config = replace(config, seed=int(seed_override))
    sample_paths = [
        os.path.join(out_dir or "", p) for p in _chain_paths(spec.samples_path, spec.chains)
    ]
    diagnostics_file = os.path.join(out_dir or "", spec.diagnostics_path)
    for path in sample_paths + [diagnostics_file]:
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise UsageError(f"output directory {folder!r} does not exist")
        if os.path.isdir(path):
            raise UsageError(f"output {path!r} is a directory, not a file")
    if os.path.abspath(diagnostics_file) in {os.path.abspath(p) for p in sample_paths}:
        raise UsageError(f"diagnostics {diagnostics_file!r} would overwrite a samples file")
    if spec.chains == 1:
        seeds = [config.seed]
    else:
        seeds = [int(s) for s in np.random.SeedSequence(config.seed).generate_state(spec.chains)]

    t_start = time.perf_counter()
    results, walls = [], []
    for chain_seed, path in zip(seeds, sample_paths):
        t0 = time.perf_counter()
        results.append(run_chain(spec.model, spec.kinetic, replace(config, seed=chain_seed)))
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
        "target": {"name": spec.model.name, "params": _jsonable_params(spec.target_params)},
        "kinetic": {
            "variant": spec.kinetic_variant,
            "nu": spec.kinetic.nu if math.isfinite(spec.kinetic.nu) else None,
        },
        "metric": {"variant": spec.metric_variant} if spec.metric_variant else None,
        "seed": config.seed,
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
    )
