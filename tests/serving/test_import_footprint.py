"""The serving process tree loads only the serving code.

SciPy is needed only by the thermal-energy models, and it is by far
the heaviest import in the package; the
experiment modules and the layers only they use (simulator, search,
baselines, energy, viz) are most of the rest.  Whatever a process has
loaded when the serving pool forks, every worker inherits.  The
runner forks its own workers and shared arenas are anonymous memfds,
so no serving process loads ``multiprocessing`` or ``_posixshmem``,
pool or no pool.  Nor ``numpy.ma``, which the first ``np.unique`` or
``np.quantile`` call imports: the basis build and STATS use neither.
These guards run fresh
interpreters through the whole serving surface — the CLI module, the
basis build, one identify, one logicnet and one corpus query and a
STATS request, served in-process and through a two-worker pool — and
fail if any of those modules got loaded in the server or in a pool
worker.
``repro serve`` forks its pool right after importing
:mod:`repro.serving.dispatch`, so that module must load no front-end
code.  A bare ``import repro`` must load nothing but the root package
and its export helper.
"""

import json
import os
import pathlib
import subprocess
import sys

_SCRIPT = """
import sys

import numpy as np

import repro.cli
from repro.pipeline.corpus import CorpusStore
from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, ServerThread, build_serving_basis

small = dict(n_samples=4096, basis_size=8)
basis = build_serving_basis(ServerConfig(**small))
batch = basis.as_batch()
store = CorpusStore.create(sys.argv[1], batch.grid)
with store.writer() as writer:
    writer.append(batch)
config = ServerConfig(jobs=1, corpus=sys.argv[1], **small)
with ServerThread(config) as handle:
    with ServingClient(handle.host, handle.port) as client:
        served = client.identify(batch)
        np.testing.assert_array_equal(served.elements, np.arange(8))
        nets = client.logicnet(3, 0, 4, n_gates=6, depth=3)
        assert nets.popcounts.shape == (4, 6)
        rows = client.corpus_identify("library", 0, 8)
        np.testing.assert_array_equal(rows.elements, np.arange(8))
        assert client.stats()["latency_p99_seconds"] > 0
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "multiprocessing")
    or name == "numpy.ma" or name.startswith("numpy.ma.")
)
print("\\n".join(loaded))
"""


_POOL_SCRIPT = """
import json
import sys

import numpy as np

import repro.cli
from repro.pipeline.corpus import CorpusStore
from repro.pipeline.runner import Runner
from repro.serving.client import ServingClient
from repro.serving.server import ServerConfig, ServerThread, build_serving_basis


def loaded(_payload=None):
    return sorted(sys.modules)


small = dict(n_samples=4096, basis_size=8)
basis = build_serving_basis(ServerConfig(**small))
batch = basis.as_batch()
store = CorpusStore.create(sys.argv[1], batch.grid)
with store.writer() as writer:
    writer.append(batch)
# No fast path: every identify and logicnet request shards over the pool,
# shard 0 in the server and shard 1 in the worker.
config = ServerConfig(jobs=2, corpus=sys.argv[1], fast_path_bytes=0, **small)
with Runner(jobs=2) as runner:
    with ServerThread(config, runner) as handle:
        with ServingClient(handle.host, handle.port) as client:
            served = client.identify(batch, n_shards=2)
            np.testing.assert_array_equal(served.elements, np.arange(8))
            assert served.summary["transport"] == "shared-arena"
            nets = client.logicnet(3, 0, 4, n_gates=6, depth=3, n_shards=2)
            assert nets.summary["transport"] == "seed-rebuild"
            rows = client.corpus_identify("library", 0, 8)
            np.testing.assert_array_equal(rows.elements, np.arange(8))
            assert client.stats()["latency_p99_seconds"] > 0
        # One task per worker: the caller keeps the first.
        workers = [get() for get in runner.gather(loaded, [None] * 2)][1:]
print(json.dumps({"server": loaded(), "workers": workers}))
"""

#: Packages only the experiments need, the process pool the runner's
#: own forked workers replaced, the named-segment machinery that memfd
#: arenas replaced, and the masked arrays that ``np.unique`` and
#: ``np.quantile`` import on their first call; none may load when
#: serving.  (``numpy.matrixlib``, which ``import numpy`` loads, is not
#: ``numpy.ma``: the match is on whole dotted names.)
_NOT_SERVING = (
    "repro.analysis",
    "repro.experiments",
    "repro.simulator",
    "repro.search",
    "repro.baselines",
    "repro.energy",
    "repro.viz",
    "scipy",
    "multiprocessing",
    "_posixshmem",
    "numpy.ma",
)


def _run(*args):
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )


def test_serving_never_imports_scipy(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "library")],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert not loaded, f"a --jobs 1 server loaded {loaded[:10]}"


def test_pool_server_and_workers_load_only_serving_code(tmp_path):
    result = _run("-c", _POOL_SCRIPT, str(tmp_path / "library"))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert len(report["workers"]) == 1
    for where, modules in [("server", report["server"])] + [
        (f"worker {i}", worker) for i, worker in enumerate(report["workers"])
    ]:
        assert "repro.serving.dispatch" in modules, where
        stray = [
            name
            for name in modules
            if any(name == p or name.startswith(p + ".") for p in _NOT_SERVING)
        ]
        assert not stray, f"{where} loaded {stray[:10]}"


def test_bare_import_loads_only_the_root_package():
    result = _run(
        "-c",
        "import sys, repro; print(' '.join(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'repro')))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["repro", "repro._exports"]


def test_compute_layer_loads_no_front_end():
    """The pool forks with this module loaded: no asyncio, no wire code."""
    result = _run(
        "-c",
        "import sys, repro.serving.dispatch; print(' '.join(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'asyncio'"
        " or m.startswith('repro.serving.'))))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["repro.serving.dispatch"]


def test_compute_layer_error_code_matches_the_wire():
    from repro.serving import dispatch, protocol

    assert dispatch.ERR_INTERNAL == protocol.ERR_INTERNAL
