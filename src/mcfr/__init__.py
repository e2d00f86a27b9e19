"""Frame + event multi-domain visual tracking lab.

A numpy-only library: synthesize or load frame sequences, simulate an
event camera over them, stack events into count/timestamp grids, and run
the fusion network (spiking event branch, convolutional frame branch,
shared common branch, multi-domain heads) forward, backward and through
SGD training, with checkpoints on disk. There is no online tracker,
evaluation harness, service or command-line entry point yet.

MCFR_THREADS caps BLAS parallelism (0 or unset = library default). It must
take effect before numpy spins up its thread pools, hence the env fiddling
at import time.
"""

import os as _os

_threads = _os.environ.get("MCFR_THREADS", "0")
if _threads.isdigit() and int(_threads) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
