"""Per-element cost of the public scalar kernels, untraced.

    python perfbench/kernel_bench.py

Uses the argument sets of benchmarks/bench_kernels.py (5000 Airy points on
[-30, 30); 1500 Gamma(s, z) cases) through ``htaspec.special``, so the figure
survives the removal of a kernel lane, one call per element.  Prints one
JSON object: metric name -> microseconds per element, the median of three
passes.
"""

from __future__ import annotations

import json
import statistics
import time

from htaspec import special

AIRY_X = [-30.0 + 0.012 * i for i in range(5000)]
GAMMA_CASES = [(3.37 - 0.4j, complex(2.0 + 0.03 * i, 1.5 - 0.05 * i)) for i in range(1500)]
PASSES = 3


def _pass(fn, columns) -> float:
    """Seconds for one pass over the argument columns."""
    start = time.perf_counter()
    for args in zip(*columns):
        fn(*args)
    return time.perf_counter() - start


def us_per_elem(fn, columns) -> float:
    count = len(columns[0])
    return statistics.median(_pass(fn, columns) for _ in range(PASSES)) / count * 1e6


def main():
    s, z = zip(*GAMMA_CASES)
    print(json.dumps({
        "special.airy_ai.us_per_elem": us_per_elem(special.airy_ai, [AIRY_X]),
        "special.upper_incomplete_gamma.us_per_elem": us_per_elem(special.upper_incomplete_gamma, [list(s), list(z)]),
    }))


if __name__ == "__main__":
    main()
