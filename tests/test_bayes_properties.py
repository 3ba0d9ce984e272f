"""Property tests of the discrete model's numerical kernels (needs hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import special

from bets import bayes
from helpers import random_selected_records, reference_target

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


_CONFIGS = [bayes.DiscreteConfig(growth=g, departure=d, strata=s)
            for g in bayes.GROWTH for d in bayes.DEPARTURE for s in bayes.STRATA]
_RECORDS = random_selected_records(40, np.random.default_rng(12), strata=True)


@settings(max_examples=300, deadline=None)
@given(config=st.sampled_from(_CONFIGS), prior_only=st.booleans(),
       seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.0, 0.5, 3.0]),
       n_chains=st.integers(1, 4), n_moves=st.integers(1, 3))
def test_a_move_reuses_only_the_parts_its_group_does_not_read(config, prior_only, seed, spread,
                                                               n_chains, n_moves):
    """From random starts, a batch of chains evaluated from scratch, and each
    move of one random group evaluated with the batch's parts, equal the
    per-chain reference from scratch bit for bit, chain by chain, whichever
    chains took their moves; -inf chains sit beside finite ones."""
    coords = bayes._Coords(config)
    data = None if prior_only else bayes.DiscreteData.from_records(_RECORDS, config)
    target = bayes._make_target(coords, data, config)
    reference = reference_target(data, config)
    rng = np.random.default_rng(seed)
    u = np.array([bayes._init_state(coords, config, rng, prior_only)
                  + spread * rng.standard_normal(coords.size) for _ in range(n_chains)])
    lp, parts = target(u)
    assert np.array_equal(lp, [reference(x)[0] for x in u])
    for _ in range(n_moves):
        group = int(rng.integers(1 + coords.S))
        sl = slice(0, coords.n_scalars) if group == 0 else coords.h_slices[group - 1]
        moved = parts.u.copy()
        moved[:, sl] += rng.exponential(1.0) * rng.standard_normal((n_chains, sl.stop - sl.start))
        lp_moved, moved_parts = target(moved, parts, group)
        assert np.array_equal(lp_moved, [reference(x)[0] for x in moved])
        taken = np.flatnonzero(rng.random(n_chains) < 0.5)
        lp[taken] = lp_moved[taken]
        parts.merge(moved_parts, taken, taken)
        assert np.array_equal(lp, [reference(x)[0] for x in parts.u])
