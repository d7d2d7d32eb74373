import importlib.util
import os
import sys
from pathlib import Path

import pytest

# one BLAS thread, set before anything imports numpy, so OpenBLAS thread
# hand-offs do not add outliers to the timing budgets of the acceptance tests
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# make the shared oracles/generators helpers importable from every test module
sys.path.insert(0, str(Path(__file__).resolve().parent))

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden.py"


@pytest.fixture(scope="module")
def golden():
    """tools/golden.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("golden", GOLDEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def walk_runs(monkeypatch) -> list:
    """Each glwalk.cospectral._closed_walks run of the test: one per pair whose walks are counted."""
    import glwalk.cospectral

    runs = []
    closed_walks = glwalk.cospectral._closed_walks

    def counted_walks(*args):
        runs.append(args)
        return closed_walks(*args)

    monkeypatch.setattr(glwalk.cospectral, "_closed_walks", counted_walks)
    return runs


@pytest.fixture
def eigh_shapes(monkeypatch) -> list:
    """The shape of each array np.linalg.eigh is called on during the test."""
    import numpy as np

    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes
