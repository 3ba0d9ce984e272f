"""Property tests of the discrete model's numerical kernels (needs hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import special

from bets import bayes

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _finite(scale: float):
    return st.floats(-scale, scale, allow_nan=False, allow_infinity=False)


@st.composite
def vectors(draw):
    """A float vector of length 1-60 at one of several scales, half of the
    time with a random subset of its entries set to its maximum."""
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 700.0, 1e6]))
    x = np.array(draw(st.lists(_finite(scale), min_size=1, max_size=60)))
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, len(x) - 1), min_size=1, max_size=len(x)))
        x[picks] = x.max()
    return x


@settings(max_examples=800, deadline=None)
@given(vectors())
def test_logsumexp_is_scipys_bit_for_bit(x):
    assert bayes._logsumexp(x) == float(special.logsumexp(x))
