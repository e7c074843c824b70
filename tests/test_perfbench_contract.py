"""Names in cpdkit that the benchmark under perfbench/ reads.

The benchmark's tracer binds traced calls to their signatures and reads
arguments by parameter name, and it reads module constants with a fallback
default; a rename would not fail a benchmark run but would silently blank or
skew its per-layer metrics. The workload passes every detector parameter by
keyword and every detector flag on the command line; a dropped one would fail
every benchmark operation.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from cpdkit import penlik, wbs2
from cpdkit.bench import METHODS
from cpdkit.cli import _method_params, build_parser

WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"
TRACING = WORKLOAD.with_name("tracing.py")

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


def resolves(module, name):
    return hasattr(importlib.import_module(module), name)


def test_unresolved_tracing_names_are_pinned(monkeypatch):
    # the tracer skips a site it cannot find and _module_const falls back to
    # a default, so a rename would blank or skew a per-layer metric without
    # failing the run; this pins the names that already fail to resolve
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    missing_sites = {site.key for site in tracing.SITES if not resolves(site.module, site.name)}
    assert missing_sites == {
        "cpdkit.wbs2.mad_sigma",
        "cpdkit.cli.mad_sigma",
        "cpdkit.wbs.prefix_sums",
        "cpdkit.wbs2.prefix_sums",
        "cpdkit.binseg.prefix_sums",
        "cpdkit.wbs.max_cusum_from_sums",
        "cpdkit.binseg.max_cusum_from_sums",
        "cpdkit.cli.select_bic",
        "cpdkit.cli.select_mbic",
        "cpdkit.distance.min_assignment",
    }

    consts = [
        tuple(ast.literal_eval(arg) for arg in node.args[:2])
        for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_module_const"
    ]
    assert len(consts) == 5
    assert {f"{m}.{n}" for m, n in consts if not resolves(m, n)} == {
        "cpdkit.cusum._BATCH_FLAT_LIMIT",
        "cpdkit.penlik._FULL_COST_MAX_N",
        "cpdkit.penlik.EXHAUSTIVE_CANDIDATE_LIMIT",
    }
