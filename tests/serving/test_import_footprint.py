"""The serving process tree never imports SciPy.

SciPy is needed only by the IIR noise stream and the thermal-energy
models, and it is by far the heaviest import in the package.  The
serving pool forks after module imports, so anything ``repro serve``
loads at import time is inherited by every worker.  This guard runs a
fresh interpreter through the whole serving surface — the CLI module,
the basis build, and one identify, one logicnet and one corpus query
served in-process — and fails if any ``scipy`` module got loaded.
"""

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
loaded = sorted(
    name for name in sys.modules
    if name == "scipy" or name.startswith("scipy.")
)
print("\\n".join(loaded))
"""


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
    assert not loaded, f"serving loaded SciPy: {loaded[:10]}"
