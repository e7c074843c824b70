"""Names in cpdkit that perfbench/tracing.py reads.

The benchmark's tracer binds traced calls to their signatures and reads
arguments by parameter name, and it reads module constants with a fallback
default; a rename would not fail a benchmark run but would silently blank or
skew its per-layer metrics.
"""

import inspect

import pytest

from cpdkit import penlik, wbs2

BOUND_PARAMETERS = [
    (penlik.segment_rss_table, ("series", "m_max")),
    (penlik.ga_optimize, ("ga_params",)),
    (penlik.hybrid_refine, ("candidates", "ga_params")),
    (wbs2.sdll_select, ("candidates", "lam", "sigma_hat", "floor_mult")),
]


@pytest.mark.parametrize(
    "fn, names", BOUND_PARAMETERS, ids=[fn.__name__ for fn, _ in BOUND_PARAMETERS]
)
def test_traced_parameters_keep_their_names(fn, names):
    assert set(names) <= set(inspect.signature(fn).parameters)


def test_traced_constants_exist():
    assert isinstance(penlik.EXHAUSTIVE_CANDIDATE_LIMIT, int)
    params = penlik.GaParams()
    assert params.population >= 1 and params.generations >= 0
