"""The public API surface: everything in __all__ exists and is importable."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.noise",
    "repro.spikes",
    "repro.backend",
    "repro.orthogonator",
    "repro.hyperspace",
    "repro.logic",
    "repro.simulator",
    "repro.baselines",
    "repro.energy",
    "repro.analysis",
    "repro.experiments",
    "repro.pipeline",
    "repro.serving",
    "repro.search",
    "repro.viz",
    "repro.testing",
    "repro.cli",
    "repro.units",
    "repro.errors",
]


class TestRootPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example_runs(self):
        basis = repro.build_demux_basis(4, rng=42)
        wire = basis.encode(2)
        result = repro.CoincidenceCorrelator(basis).identify(wire)
        assert result.element == 2


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", ["repro"] + SUBPACKAGES)
def test_dir_lists_every_export(module_name):
    """Lazy exports still show up in dir() before anything resolves them."""
    module = importlib.import_module(module_name)
    missing = set(getattr(module, "__all__", [])) - set(dir(module))
    assert not missing, f"{module_name}: {sorted(missing)}"


@pytest.mark.parametrize("module_name", ["repro"] + SUBPACKAGES)
def test_star_import_binds_every_export(module_name):
    module = importlib.import_module(module_name)
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    missing = set(getattr(module, "__all__", [])) - set(namespace)
    assert not missing, f"{module_name}: {sorted(missing)}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()


def test_exceptions_form_one_hierarchy():
    from repro import errors

    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError) or exc is errors.ReproError
