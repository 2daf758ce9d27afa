"""Tests for benchmarks/compare_artifacts.py (the value-drift gate)."""

import importlib.util
import json
import pathlib

import pytest

_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "compare_artifacts.py"
)
_spec = importlib.util.spec_from_file_location("compare_artifacts", _PATH)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)


def _artifact(result, experiment="table1"):
    return {
        "schema": 1,
        "experiment": experiment,
        "status": "ok",
        "config": {"seed": 2016},
        "wall_seconds": 1.23,
        "result": result,
    }


def _write_dir(root, artifacts):
    root.mkdir(exist_ok=True)
    for name, result in artifacts.items():
        (root / f"{name}.json").write_text(
            json.dumps(_artifact(result, experiment=name))
        )
    return root


class TestLoadResults:
    def test_single_file(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(_artifact({"x": 1})))
        assert compare_artifacts.load_results(path) == {"table1": {"x": 1}}

    def test_directory_skips_manifest(self, tmp_path):
        _write_dir(tmp_path / "run", {"a": {"x": 1}, "b": {"y": 2}})
        (tmp_path / "run" / "manifest.json").write_text(
            json.dumps({"schema": 1})
        )
        results = compare_artifacts.load_results(tmp_path / "run")
        assert set(results) == {"a", "b"}

    def test_non_artifact_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"not": "an artifact"}))
        with pytest.raises(ValueError):
            compare_artifacts.load_results(path)

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError):
            compare_artifacts.load_results(tmp_path / "empty")


class TestCompareArtifacts:
    def test_identical_trees_pass(self, tmp_path):
        result = {"accuracy": 0.5, "points": [{"n": 2, "rate": 1.5}]}
        old = _write_dir(tmp_path / "old", {"a": result})
        new = _write_dir(tmp_path / "new", {"a": result})
        assert compare_artifacts.main([str(old), str(new)]) == 0

    def test_value_drift_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"accuracy": 0.5}})
        new = _write_dir(tmp_path / "new", {"a": {"accuracy": 0.5001}})
        assert compare_artifacts.main([str(old), str(new)]) == 1

    def test_drift_within_rtol_passes(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"accuracy": 0.5}})
        new = _write_dir(tmp_path / "new", {"a": {"accuracy": 0.5001}})
        assert (
            compare_artifacts.main([str(old), str(new), "--rtol", "1e-3"])
            == 0
        )

    def test_atol_covers_near_zero(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"rate": 0.0}})
        new = _write_dir(tmp_path / "new", {"a": {"rate": 1e-15}})
        assert compare_artifacts.main([str(old), str(new)]) == 1
        assert (
            compare_artifacts.main([str(old), str(new), "--atol", "1e-12"])
            == 0
        )

    def test_missing_experiment_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"x": 1}, "b": {"y": 2}})
        new = _write_dir(tmp_path / "new", {"a": {"x": 1}})
        assert compare_artifacts.main([str(old), str(new)]) == 1

    def test_new_experiment_never_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"x": 1}})
        new = _write_dir(tmp_path / "new", {"a": {"x": 1}, "b": {"y": 2}})
        assert compare_artifacts.main([str(old), str(new)]) == 0

    def test_missing_key_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"x": 1, "y": 2}})
        new = _write_dir(tmp_path / "new", {"a": {"x": 1}})
        assert compare_artifacts.main([str(old), str(new)]) == 1

    def test_extra_key_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"x": 1}})
        new = _write_dir(tmp_path / "new", {"a": {"x": 1, "y": 2}})
        assert compare_artifacts.main([str(old), str(new)]) == 1

    def test_list_length_change_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"points": [1, 2, 3]}})
        new = _write_dir(tmp_path / "new", {"a": {"points": [1, 2]}})
        assert compare_artifacts.main([str(old), str(new)]) == 1

    def test_nested_list_drift_fails(self, tmp_path):
        old = _write_dir(
            tmp_path / "old", {"a": {"points": [{"rate": 1.0}, {"rate": 2.0}]}}
        )
        new = _write_dir(
            tmp_path / "new", {"a": {"points": [{"rate": 1.0}, {"rate": 2.1}]}}
        )
        assert compare_artifacts.main([str(old), str(new)]) == 1

    def test_volatile_wall_fields_ignored(self, tmp_path):
        old = _write_dir(
            tmp_path / "old",
            {"a": {"x": 1, "points": [{"n": 2, "build_seconds": 0.5}]}},
        )
        new = _write_dir(
            tmp_path / "new",
            {"a": {"x": 1, "points": [{"n": 2, "build_seconds": 9.9}]}},
        )
        assert compare_artifacts.main([str(old), str(new)]) == 0

    def test_nan_on_both_sides_passes(self, tmp_path):
        # json writes NaN for a mean over no samples; two identical runs
        # must not read as drift.
        result = {"sweep": [{"mean": 1.5}, {"mean": float("nan")}]}
        old = _write_dir(tmp_path / "old", {"a": result})
        new = _write_dir(tmp_path / "new", {"a": result})
        assert compare_artifacts.main([str(old), str(new)]) == 0

    @pytest.mark.parametrize("old_value, new_value", [
        (float("nan"), 1.5),
        (1.5, float("nan")),
        (float("nan"), 0),
        (0, float("nan")),
    ])
    def test_nan_against_a_number_fails(self, tmp_path, old_value, new_value):
        old = _write_dir(tmp_path / "old", {"a": {"mean": old_value}})
        new = _write_dir(tmp_path / "new", {"a": {"mean": new_value}})
        assert compare_artifacts.main([str(old), str(new)]) == 1
        assert compare_artifacts.main(
            [str(old), str(new), "--rtol", "1", "--atol", "1e9"]
        ) == 1

    def test_bool_compared_exactly_not_numerically(self, tmp_path):
        # bool is an int subclass; True must not match 1.0000001-style
        # tolerance, nor False match 0 silently changing type.
        old = _write_dir(tmp_path / "old", {"a": {"aliased": True}})
        new = _write_dir(tmp_path / "new", {"a": {"aliased": False}})
        assert compare_artifacts.main([str(old), str(new)]) == 1

    def test_string_drift_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"label": "white"}})
        new = _write_dir(tmp_path / "new", {"a": {"label": "pink"}})
        assert compare_artifacts.main([str(old), str(new)]) == 1

    def test_require_missing_from_both_sides_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"x": 1}})
        new = _write_dir(tmp_path / "new", {"a": {"x": 1}})
        assert (
            compare_artifacts.main(
                [str(old), str(new), "--require", "logicnet"]
            )
            == 1
        )

    def test_require_missing_from_one_side_fails(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"x": 1}})
        new = _write_dir(tmp_path / "new", {"a": {"x": 1}, "b": {"y": 2}})
        # Without --require, "b" rides through as a new artifact ...
        assert compare_artifacts.main([str(old), str(new)]) == 0
        # ... with it, the baseline's silence is a failure.
        assert (
            compare_artifacts.main([str(old), str(new), "--require", "b"])
            == 1
        )

    def test_require_present_on_both_sides_passes(self, tmp_path):
        old = _write_dir(tmp_path / "old", {"a": {"x": 1}, "b": {"y": 2}})
        new = _write_dir(tmp_path / "new", {"a": {"x": 1}, "b": {"y": 2}})
        assert (
            compare_artifacts.main(
                [str(old), str(new), "--require", "a", "--require", "b"]
            )
            == 0
        )

    def test_single_files_compare(self, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(_artifact({"x": 1.0})))
        new.write_text(json.dumps(_artifact({"x": 1.0})))
        assert compare_artifacts.main([str(old), str(new)]) == 0


class TestRealArtifacts:
    def test_run_artifacts_self_compare(self, tmp_path):
        """A real `repro run --output-dir` tree passes against itself."""
        from repro.cli import main as cli_main
        import io

        out_dir = tmp_path / "run"
        code = cli_main(
            [
                "run",
                "table2",
                "--output-dir",
                str(out_dir),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        assert compare_artifacts.main([str(out_dir), str(out_dir)]) == 0
