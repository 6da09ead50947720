"""Acceptance suite: one test per entry of the check registry.

Every check lives in `hydrobench.checks`; this file only asserts each
measurement, applies the wall-clock budgets and prints one
`ACCEPTANCE n PASS` line per paper criterion.  Run with
`pytest tests/test_acceptance.py -v -rA` (or -s) to see those lines.
"""

import time

import numpy as np

from hydrobench import checks
from hydrobench.hydro_spectral import riemann_join, riemann_split

#: Wall-clock budget in seconds per criterion number; the others have none.
BUDGET_S = {1: 1.0, 2: 1.0, 3: 1.0, 4: 5.0, 5: 10.0, 6: 30.0}


def _registry_test(check: checks.Check):
    def test():
        start = time.perf_counter()
        measurements = check.measure()
        elapsed = time.perf_counter() - start
        assert measurements
        for measurement in measurements:
            assert measurement.passed, str(measurement)
        assert elapsed < BUDGET_S.get(check.number, float("inf"))
        if check.number <= checks.PAPER_CRITERIA:
            detail = "; ".join(map(str, measurements))
            print(f"ACCEPTANCE {check.number} PASS: {check.description} ({detail}, {elapsed:.3f}s)")

    return test


# One named test per registry entry, so each criterion keeps its own test id
# (test_criterion_<n>_<name>) where a parametrized test would not.
for _check in checks.REGISTRY:
    _kind = "criterion" if _check.number <= checks.PAPER_CRITERIA else "invariant"
    globals()[f"test_{_kind}_{_check.number}_{_check.name}"] = _registry_test(_check)


def test_sanity_riemann_round_trip():
    # Supporting check for the decoupling machinery used by the registry.
    rng = np.random.default_rng(5)
    u = rng.normal(size=16)
    p = rng.normal(size=16)
    u2, p2 = riemann_join(*riemann_split(u, p))
    assert np.max(np.abs(u2 - u)) <= 1e-14
    assert np.max(np.abs(p2 - p)) <= 1e-14
