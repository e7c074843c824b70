"""Names in cpdkit that the benchmark under perfbench/ reads.

The benchmark's tracer binds traced calls to their signatures and reads
arguments by parameter name, and it reads module constants with a fallback
default; a rename would not fail a benchmark run but would silently blank or
skew its per-layer metrics. The workload passes every detector parameter by
keyword and every detector flag on the command line; a dropped one would fail
every benchmark operation.
"""

import ast
import inspect
from pathlib import Path

import pytest

from cpdkit import penlik, wbs2
from cpdkit.bench import METHODS
from cpdkit.cli import _method_params, build_parser

WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"

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
    params = penlik.GaParams()
    assert params.population >= 1 and params.generations >= 0


def workload_constant(name):
    """A literal module-level constant of perfbench/workload.py, read without
    importing it."""
    for node in ast.parse(WORKLOAD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not a constant of {WORKLOAD}")


def test_workload_params_are_detector_parameters():
    params = workload_constant("PARAMS")
    assert set(params) == set(METHODS)
    for method, kwargs in params.items():
        assert set(kwargs) <= set(inspect.signature(METHODS[method]).parameters)


def test_workload_cli_flags_parse_to_the_workload_params():
    flags = workload_constant("CLI_FLAGS")
    args = build_parser().parse_args(["detect", "x.csv", "--method", "binseg", *flags])
    assert _method_params(args) == workload_constant("PARAMS")
