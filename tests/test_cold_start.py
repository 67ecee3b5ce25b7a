"""Import guard: the API, a healthy-wafer run and faulty-mesh routing need neither
networkx nor numpy.

Each check runs in a fresh interpreter so that modules other tests already imported
cannot hide a heavy import that comes back.  ``sys.modules[name] = None`` makes any
``import name`` raise ``ImportError``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

WITHOUT_HEAVY_MODULES = """
import sys
sys.modules["networkx"] = None
sys.modules["numpy"] = None

import repro.api
import repro.fabric
from repro.api import ExperimentSpec, Session
from repro.hardware.faults import FaultModel
from repro.interconnect.routing import fault_aware_path
from repro.interconnect.topology import MeshTopology

with Session() as session:
    run = session.run(ExperimentSpec(kind="scheduler", wafer="tiny", workload="tiny"))
assert run.result.throughput > 0

faults = FaultModel()
faults.add_die_fault((1, 0), 0.0)
mesh = MeshTopology(5, 5, 1e12, faults=faults)
path = fault_aware_path(mesh, (0, 0), (2, 0))
assert (1, 0) not in path and path[0] == (0, 0) and path[-1] == (2, 0)
assert "repro.fabric.server" not in sys.modules
assert "repro.fabric.client" not in sys.modules
print("ok")
"""

DNN_LOADS_NUMPY = """
import sys
import repro.predictor.dnn
assert "numpy" in sys.modules
print("ok")
"""


def _run(code: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC_DIR + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.perf_smoke
def test_api_run_and_routing_without_networkx_or_numpy():
    proc = _run(WITHOUT_HEAVY_MODULES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.perf_smoke
def test_dnn_predictor_still_loads_numpy():
    pytest.importorskip("numpy")
    proc = _run(DNN_LOADS_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
