import os
import sys
from pathlib import Path

# one BLAS thread, set before anything imports numpy, so OpenBLAS thread
# hand-offs do not add outliers to the timing budgets of the acceptance tests
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# make the shared oracles/generators helpers importable from every test module
sys.path.insert(0, str(Path(__file__).resolve().parent))
