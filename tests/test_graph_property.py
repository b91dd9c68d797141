"""Property tests of the learned graph: top-k by partition keeps what a stable
descending argsort keeps, and a NaN embedding still stops the forward at
mix-hop propagation.

The argsort reference stays here, since graph._topk_mask does not sort.
Examples are derandomized with a fixed count, so the suite stays
deterministic.
"""

import numpy as np
import pytest

from ensograph.adiff import Tensor
from ensograph.errors import NumericalError
from ensograph.graph import GraphLearnConfig, _topk_mask
from ensograph.stgnn import forward, init_params
from helpers import tiny_config

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def _topk_by_stable_argsort(a, k):
    """Reference selection: the first k columns of each row's stable descending argsort."""
    mask = np.zeros(a.shape, dtype=bool)
    mask[np.arange(a.shape[0])[:, None], np.argsort(-a, axis=1, kind="stable")[:, :k]] = True
    return mask


@st.composite
def _tied_matrices(draw):
    """Square matrices of float32 or float64 with many ties: entries on a coarse
    lattice or at the largest float below 1, whole rows saturated there, some
    rows NaN, and k drawn toward 1 and n - 1."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(2, 9))
    k = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    top = float(np.nextafter(dtype(1), dtype(0)))
    entry = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, top, -0.5]) | st.floats(-2, 2, width=32)
    a = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)), dtype=dtype).reshape(n, n)
    a[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = top
    nan_rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    a[nan_rows] = np.nan
    return a, k, ~nan_rows


@PROFILE
@given(_tied_matrices())
# row 1 ties in every column; a total count would pair its excess of 2 with
# the NaN row's shortfall of 2 and keep all four of its entries
@example((np.array([[np.nan] * 4, [0.5] * 4, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]]), 2,
          np.array([False, True, True, True])))
def test_topk_selection_matches_a_stable_argsort(case):
    # every finite row keeps what the argsort keeps, whatever NaN rows sit beside it
    a, k, finite = case
    mask, want = _topk_mask(a, k), _topk_by_stable_argsort(a, k)
    assert mask.dtype == a.dtype
    np.testing.assert_array_equal(mask[finite] != 0, want[finite])
    # the kept adjacency is a times the mask, with a's bytes on every kept entry
    np.testing.assert_array_equal(np.multiply(a, mask)[finite].view(np.uint8), (a * want)[finite].view(np.uint8))


@settings(PROFILE, max_examples=60)
@given(n=st.integers(2, 8), data=st.data())
def test_a_nan_embedding_still_stops_forward_at_mix_hop(n, data):
    topk = data.draw(st.sampled_from([1, n - 1, n]))
    cfg = tiny_config(n_nodes=n, graph=GraphLearnConfig(embed_dim=3, alpha=3.0, topk=topk))
    params = init_params(cfg, seed=data.draw(st.integers(0, 3)))
    table = params[data.draw(st.sampled_from(["e1", "e2"]))].data
    table[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))] = np.nan
    x = np.random.default_rng(n).standard_normal((2, 1, n, cfg.window)).astype(np.float32)
    with pytest.raises(NumericalError) as err:
        forward(params, cfg, Tensor(x))
    assert str(err.value) == "non-finite adjacency row sum entering mix-hop propagation"
