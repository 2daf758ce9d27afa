"""repro._exports: lazy PEP 562 package exports."""

import importlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest


@pytest.fixture
def lazypkg(tmp_path, monkeypatch):
    """A throwaway package exporting ``VALUE`` from ``data`` lazily."""
    package = tmp_path / "lazypkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        textwrap.dedent(
            """
            from repro._exports import lazy_exports

            __all__, __getattr__, __dir__ = lazy_exports(
                globals(), {"data": ("VALUE",)}, modules=("extra",)
            )
            """
        )
    )
    (package / "data.py").write_text("VALUE = 42\n")
    (package / "extra.py").write_text("")
    (package / "other.py").write_text("")
    (package / "broken.py").write_text("import repro_no_such_module\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("lazypkg")
    for name in [m for m in sys.modules if m.split(".")[0] == "lazypkg"]:
        del sys.modules[name]


def test_names_resolve_on_first_access_and_are_cached(lazypkg):
    assert lazypkg.__all__ == ["VALUE", "extra"]
    assert "lazypkg.data" not in sys.modules
    assert lazypkg.VALUE == 42
    assert "lazypkg.data" in sys.modules
    assert vars(lazypkg)["VALUE"] == 42  # later lookups skip __getattr__


def test_submodules_resolve_as_attributes(lazypkg):
    assert lazypkg.extra.__name__ == "lazypkg.extra"
    assert lazypkg.other.__name__ == "lazypkg.other"  # not exported, still reachable


def test_unknown_names_raise_attribute_error(lazypkg):
    assert not hasattr(lazypkg, "missing")
    assert not hasattr(lazypkg, "_private")
    with pytest.raises(AttributeError, match="lazypkg.*missing"):
        lazypkg.missing


def test_failing_import_inside_a_submodule_is_not_masked(lazypkg):
    with pytest.raises(ModuleNotFoundError, match="repro_no_such_module"):
        lazypkg.broken


def test_dir_lists_unresolved_exports(lazypkg):
    assert {"VALUE", "extra"} <= set(dir(lazypkg))
    assert "lazypkg.data" not in sys.modules


def test_bare_repro_resolves_subpackages_as_attributes():
    """``import repro; repro.logic...`` works in a fresh interpreter."""
    code = (
        "import repro; "
        "print(repro.logic.CoincidenceCorrelator.__name__, "
        "repro.hyperspace.codec.NeuroBitCodec.__name__)"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["CoincidenceCorrelator", "NeuroBitCodec"]
