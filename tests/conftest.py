"""Fixtures shared across the test modules."""

import functools

import pytest

from kerrsense.harness import evaluate_point


@pytest.fixture(scope="session")
def auto_dim_point():
    """evaluate_point with every figure on (with_k2, with_k3), memoised for
    the session.  The lossy K = 0 oracle point (0, 0.5, 0, 0.2, 1.0) climbs
    five rungs at auto dim, and two tests read it; each first evaluation
    runs inside a test, under the suite's warning filters."""
    return functools.lru_cache(maxsize=None)(
        functools.partial(evaluate_point, with_k2=True, with_k3=True)
    )
