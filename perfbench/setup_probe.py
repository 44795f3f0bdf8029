"""Time one workload set-up in a fresh process.

NumPy and the standard-library modules ``workloads`` needs are imported
before the clock starts, so their import jitter stays out of the figure.  The
clock covers ``import ghmc`` (through ``workloads``) and stops when the
workload's model, kinetic and integrator config (or, for the CLI workload,
the parsed spec) are built.

Set-up is compiling and running module bodies, and on a shared 2-core VM the
speed of that work drifted by up to 1.5x over minutes.  So the probe also times
a reference of the same kind, which shares no code with ghmc, just before and
just after the set-up.  It prints two numbers: the set-up wall time and the
mean reference time, both in seconds.  ``run.py`` starts it several times.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import dataclasses
import math  # noqa: F401
import sys
import time
import typing
from pathlib import Path

import numpy  # noqa: F401

REFERENCE_SOURCE = "\n".join(
    f"""
@dataclasses.dataclass(frozen=True)
class C{i}:
    a: int = 0
    b: float = 1.0
    c: typing.Optional[str] = None

    def f(self, x):
        return [self.a + x * k for k in range(3)]
"""
    for i in range(12)
)


def reference_s():
    """Wall time to compile and run a fixed module of dataclasses three times."""
    t0 = time.perf_counter()
    for _ in range(3):
        code = compile(REFERENCE_SOURCE, "<reference>", "exec")
        exec(code, {"dataclasses": dataclasses, "typing": typing})
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    before = reference_s()
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup()
    wall = time.perf_counter() - t0
    print(repr(wall), repr((before + reference_s()) / 2))
