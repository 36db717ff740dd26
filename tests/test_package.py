"""The package's import surface: the scalar chain loads no numpy.

Only the mu' search (decoy_hsps.optimizer) evaluates numpy arrays, so the
package loads it, and numpy with it, on first use of one of its names.
"""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import decoy_hsps
from decoy_hsps import optimizer

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
SEARCH_NAMES = ("distance_grid", "key_rate_point", "max_secure_distance", "sweep_distances")

# The modules the bench's counts workload imports, then one count set per
# source through statistics_from_counts -> compute_bounds -> key_rate.
CHAIN = """
import json, sys
import decoy_hsps as dh
from decoy_hsps import bounds, channel, config, observables, sources
cfg = config.resolve_config()
C = observables.IntensityCounts
stats = observables.statistics_from_counts(
    C(1e6, 1e6, 2), C(1e6, 1e5, 100, 3), C(1e6, 3e5, 600, 20))
rates = []
for src in (sources.triggered_source(cfg.eta_a, cfg.d_a), sources.COHERENT):
    b = bounds.compute_bounds(src, stats, 0.1, 0.5, cfg.channel.e_0)
    rates.append(bounds.key_rate(stats, b, cfg.f_ec))
"""
SCALAR_CHAIN = CHAIN + """
undir = [name for name in dh.__all__ if name not in dir(dh)]
before = sorted(m for m in ("numpy", "decoy_hsps.optimizer") if m in sys.modules)
lazy = [getattr(dh, name) is getattr(sys.modules["decoy_hsps.optimizer"], name)
        for name in %r]
print(json.dumps({"undir": undir, "before": before, "rates": rates, "lazy": lazy,
                  "numpy": "numpy" in sys.modules}))
""" % (SEARCH_NAMES,)


def test_scalar_chain_imports_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", SCALAR_CHAIN], env=env, capture_output=True,
                         text=True, check=True).stdout
    result = json.loads(out)
    # dir() lists every exported name, the search's too, and loads no numpy for them
    assert result["undir"] == [] and result["before"] == []
    expected: dict = {}
    exec(CHAIN, expected)
    assert result["rates"] == expected["rates"] and max(expected["rates"]) > 0.0
    # a search name's first use loads the optimizer, numpy with it, and binds its own object
    assert result["lazy"] == [True] * 4 and result["numpy"]


@pytest.mark.parametrize("name", SEARCH_NAMES)
def test_search_names_are_the_optimizers(name):
    assert getattr(decoy_hsps, name) is getattr(optimizer, name)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from decoy_hsps import *", namespace)
    assert len(decoy_hsps.__all__) == 22
    for name in decoy_hsps.__all__:
        assert namespace[name] is getattr(decoy_hsps, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        decoy_hsps.no_such_name
    assert not hasattr(decoy_hsps, "sweep")
    with pytest.raises(ImportError):
        exec("from decoy_hsps import no_such_name", {})


def _private_definitions(path):
    """The private names a module defines at its top level, imports not counted."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _names_in(path):
    """Every name a module uses: identifiers but its own, attributes, imports and words of its strings."""
    names, own = set(), _private_definitions(path)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id not in own:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))  # monkeypatch.setattr("pkg.module._name", ...)
    return names


def test_tests_name_few_private_optimizer_names():
    # the mu' search is tested through its public outputs and tests/oracles.py's
    # reference searches, so a search change need not rewrite its tests; at most
    # three private levers stay (such as _BLOCK_CELLS, which shrinks chunks)
    private = _private_definitions(SRC / "decoy_hsps" / "optimizer.py")
    assert private
    named = sorted(set().union(*(private & _names_in(path) for path in TESTS.glob("*.py"))))
    assert len(named) <= 3, named


def test_only_the_equivalence_test_names_the_per_source_entry_points():
    # the tests call compute_bounds, key_rate and forecast with a source object; the
    # benchmark's six per-source entry points are checked once, against them
    entry_points = {"compute_hsps_bounds", "compute_wcs_bounds", "key_rate_hsps", "key_rate_wcs",
                    "forecast_observables", "forecast_wcs_observables"}
    named = {path.name: sorted(entry_points & _names_in(path))
             for path in TESTS.rglob("*.py") if path.name != Path(__file__).name}
    assert {name: found for name, found in named.items() if found} == {
        "test_entry_points.py": sorted(entry_points)}
