"""Census of reported numbers: every float under `results` of every
subcommand's JSON summary is classified, and the list of numbers that carry
no bound may only shrink.

A path names a float inside `results`, with "*" for a list index and for a
key that is data rather than a name (a digit, "q=1,N=10").  Kinds:

- EXACT: the number is the stated quantity itself, up to the last float
  rounding: an echoed input, a ratio of integer counts, a certified bound,
  or a statistic of numbers the same output reports (the decay fit of the
  band sups);
- bounded(field): an estimate whose error bound is the sibling `field`,
  which must be present and finite;
- UNBOUNDED: an estimate that carries no bound yet.
"""

import argparse
import json
import math

import pytest

from normality_lab import cantor_system, make_system, save_system
from normality_lab.cli import build_parser, main

EXACT = "exact"
UNBOUNDED = "unbounded"


def bounded(field: str) -> tuple:
    return ("bounded", field)


CENSUS = {
    "validate": {},
    "classify": {},
    "fourier": {
        ("re",): bounded("error_bound"),
        ("im",): bounded("error_bound"),
        ("modulus",): bounded("error_bound"),
        ("error_bound",): EXACT,
    },
    "decay": {
        ("bands", "*", "sup_modulus"): UNBOUNDED,
        ("fit", "alpha"): EXACT,
        ("fit", "alpha_ci", "*"): EXACT,
        ("fit", "r_squared"): EXACT,
    },
    "orbit": {
        ("accuracy",): EXACT,
        ("discrepancy", "*"): UNBOUNDED,
    },
    "digits": {
        ("digit_frequencies", "*"): EXACT,
    },
    "beta-orbit": {
        ("discrepancy",): UNBOUNDED,
    },
    "power-orbit": {
        ("discrepancy",): UNBOUNDED,
    },
    "normality": {
        ("per_sample", "*", "digit_freqs", "*"): EXACT,
        ("per_sample", "*", "discrepancy"): UNBOUNDED,
        ("per_sample", "*", "max_weyl_modulus"): UNBOUNDED,
        ("thresholds", "discrepancy"): EXACT,
        ("thresholds", "weyl"): EXACT,
    },
    "correlations": {
        ("integral",): EXACT,
        ("values", "*"): UNBOUNDED,
        ("mean_value",): UNBOUNDED,
    },
    "spacings": {
        ("sup_distances", "*"): UNBOUNDED,
    },
    "martingale": {
        ("median_gaps", "*"): UNBOUNDED,
    },
}

# the numbers without a bound when the census was first taken; each bound
# added takes its entry out, and no entry may be added
UNBOUNDED_AT_MOST = {
    ("decay", ("bands", "*", "sup_modulus")),
    ("orbit", ("discrepancy", "*")),
    ("beta-orbit", ("discrepancy",)),
    ("power-orbit", ("discrepancy",)),
    ("normality", ("per_sample", "*", "discrepancy")),
    ("normality", ("per_sample", "*", "max_weyl_modulus")),
    ("correlations", ("values", "*")),
    ("correlations", ("mean_value",)),
    ("spacings", ("sup_distances", "*")),
    ("martingale", ("median_gaps", "*")),
}

# one small run per subcommand; decay runs on an inhomogeneous system so
# that its fit is available
RUNS = {
    "validate": ["--system", "{cantor}"],
    "classify": ["--system", "{cantor}", "--base", "3"],
    "fourier": ["--system", "{cantor}", "--q", "3/2"],
    "decay": ["--system", "{mixed}", "--j-max", "10", "--per-band", "8"],
    "orbit": ["--system", "{cantor}", "--base", "2", "--length", "50",
              "--samples", "2"],
    "digits": ["--system", "{cantor}", "--base", "2", "--count", "50"],
    "beta-orbit": ["--beta", "5/2", "--x", "1/3", "--length", "20"],
    "power-orbit": ["--x", "3/2", "--length", "20"],
    "normality": ["--system", "{cantor}", "--base", "2", "--length", "200",
                  "--samples", "2"],
    "correlations": ["--source", "uniform", "--length", "200",
                     "--samples", "2"],
    "spacings": ["--source", "uniform", "--length", "200",
                 "--s-grid", "0:2:0.5"],
    "martingale": ["--system", "{cantor}", "--base", "2", "--q", "1,2",
                   "--N-list", "10,20", "--samples", "2"],
}


@pytest.fixture(scope="module")
def system_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("census")
    systems = {"cantor": cantor_system(),
               "mixed": make_system([("1/2", "0"), ("1/4", "3/4")],
                                    ["2/3", "1/3"])}
    paths = {}
    for name, system in systems.items():
        paths[name] = str(root / f"{name}.json")
        save_system(system, paths[name])
    return paths


def _floats(value, path=(), parent=None):
    """(path, parent dict) of every float under `value`."""
    if isinstance(value, float):
        yield path, parent
    elif isinstance(value, dict):
        for key, item in value.items():
            step = key if key.isidentifier() else "*"
            yield from _floats(item, path + (step,), value)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item, path + ("*",), parent)


def _results(subcommand, system_files, capsys) -> dict:
    argv = [a.format(**system_files) for a in RUNS[subcommand]]
    assert main([subcommand] + argv + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_every_subcommand_is_counted():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(CENSUS) == set(RUNS) == set(sub.choices)


@pytest.mark.parametrize("subcommand", sorted(RUNS))
def test_every_float_is_classified(subcommand, system_files, capsys):
    table = CENSUS[subcommand]
    seen = set()
    for path, parent in _floats(_results(subcommand, system_files,
                                            capsys)):
        assert path in table, f"{subcommand} {path} is not in the census"
        seen.add(path)
        kind = table[path]
        if isinstance(kind, tuple):
            bound = parent.get(kind[1])
            assert isinstance(bound, float) and math.isfinite(bound), (
                f"{subcommand} {path} lacks a finite {kind[1]}")
    # an entry that no run reports is stale
    assert seen == set(table)


def test_the_unbounded_list_does_not_grow():
    unbounded = {(sub, path) for sub, table in CENSUS.items()
                 for path, kind in table.items() if kind == UNBOUNDED}
    assert unbounded <= UNBOUNDED_AT_MOST
