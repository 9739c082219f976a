"""Property tests of construction, run derandomized so that tier-1 stays
deterministic."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from goldbachnet import build_many

ALPHAS = (-math.inf, -2.5, -1.0, 0.0, 0.7, 2.0, math.inf)
SEEDS = (1, 7, 9, 42, 2**63 + 5)

stops = st.one_of(
    st.builds(lambda n: {"max_even": 2 * n}, st.integers(4, 1000)),
    st.builds(lambda n: {"target_nodes": n, "on_exhaust": "partial"},
              st.integers(2, 320)),
)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(
    alphas=st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=4, unique=True),
    seeds=st.lists(st.sampled_from(SEEDS), min_size=1, max_size=4),
    stop=stops,
    data=st.data(),
)
def test_row_independent_of_call_companions(table_2k, alphas, seeds, stop, data):
    """A (alpha, seed) row is the same whatever other rows share the call."""
    a = data.draw(st.integers(0, len(alphas) - 1), label="alpha index")
    i = data.draw(st.integers(0, len(seeds) - 1), label="seed index")
    joint = build_many(table_2k, alphas, seeds, **stop)[a * len(seeds) + i]
    alone = build_many(table_2k, alphas[a], [seeds[i]], **stop)[0]
    assert np.array_equal(joint.edge_p, alone.edge_p)
    assert np.array_equal(joint.edge_q, alone.edge_q)
    assert np.array_equal(joint.node_count_history, alone.node_count_history)
    assert (joint.alpha, joint.seed, joint.exhausted) == (
        alone.alpha, alone.seed, alone.exhausted)
