"""Tests for numeric helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import ceil_log2, geometric


@given(st.integers(min_value=1, max_value=10**9))
def test_ceil_log2_definition(x):
    k = ceil_log2(x)
    assert 2**k >= x
    assert k == 0 or 2 ** (k - 1) < x


def test_log_helpers_reject_nonpositive():
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_geometric_support_and_mean():
    rng = random.Random(7)
    samples = [geometric(rng, 0.5) for _ in range(4000)]
    assert min(samples) >= 1
    assert 1.8 < sum(samples) / len(samples) < 2.2


def test_geometric_p_one():
    rng = random.Random(0)
    assert all(geometric(rng, 1.0) == 1 for _ in range(10))


def test_geometric_rejects_bad_p():
    with pytest.raises(ValueError):
        geometric(random.Random(0), 0.0)
    with pytest.raises(ValueError):
        geometric(random.Random(0), 1.5)
