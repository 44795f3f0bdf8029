"""Correctness checks on a run's output: moments, diagnostics schema, hashes."""

import json
from dataclasses import dataclass

import numpy as np

from ghmc import effective_sample_size

# Per-coordinate bound on |estimate - analytic| / standard error.  The standard
# error comes from an estimated ESS, so the statistic has heavier tails than a
# normal one; 6 keeps false alarms rare over all coordinates of many runs.
Z_BOUND = 6.0


@dataclass
class ChainSums:
    """What the moment check needs of some chains, summed over them.

    A run keeps these instead of the samples, so its memory does not grow with
    the number of operations it fits in.  Deviations are taken from the
    analytic mean.
    """

    n: int  # draws
    s1: np.ndarray  # sum of x - mean, per coordinate
    s2: np.ndarray  # sum of (x - mean)^2
    ess_x: np.ndarray  # ESS of x the engine reported, summed over chains
    ess_sq: np.ndarray  # ESS of (x - mean)^2, summed over chains

    @classmethod
    def of(cls, chains, ess, mean):
        """Sums over ``chains`` (sample arrays) with their per-chain ESS arrays."""
        dev = [c - mean for c in chains]
        return cls(
            n=sum(d.shape[0] for d in dev),
            s1=np.sum([d.sum(axis=0) for d in dev], axis=0),
            s2=np.sum([(d**2).sum(axis=0) for d in dev], axis=0),
            ess_x=np.sum(ess, axis=0),
            ess_sq=np.sum(
                [[effective_sample_size(d[:, j] ** 2) for j in range(d.shape[1])] for d in dev],
                axis=0,
            ),
        )

    def __add__(self, other):
        return ChainSums(self.n + other.n, self.s1 + other.s1, self.s2 + other.s2,
                         self.ess_x + other.ess_x, self.ess_sq + other.ess_sq)


def moment_failures(sums, mean, var, var_sq):
    """Messages for every coordinate whose pooled moments miss the analytic ones.

    The standard error of the mean uses the pooled ESS of x, that of the
    variance the pooled ESS of (x - mean)^2.
    """
    pooled_mean = mean + sums.s1 / sums.n
    pooled_var = (sums.s2 - sums.s1**2 / sums.n) / (sums.n - 1)
    z_mean = np.abs(pooled_mean - mean) / np.sqrt(var / sums.ess_x)
    z_var = np.abs(pooled_var - var) / np.sqrt(var_sq / sums.ess_sq)
    failures = []
    for what, z in (("mean", z_mean), ("variance", z_var)):
        for j in np.flatnonzero(~(z <= Z_BOUND)):
            failures.append(f"q{j + 1} {what} is {z[j]:.2f} standard errors off")
    return failures, float(max(z_mean.max(), z_var.max()))


def schema_failures(diagnostics_path, schema_path):
    """Messages for every way a diagnostics JSON breaks the shipped schema."""
    import jsonschema

    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    with open(diagnostics_path, encoding="utf-8") as fh:
        diagnostics = json.load(fh)
    validator = jsonschema.Draft7Validator(schema)
    return [f"{diagnostics_path.name}: {e.message}" for e in validator.iter_errors(diagnostics)]
