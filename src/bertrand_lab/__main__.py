"""Entry point of ``python -m bertrand_lab`` and of the ``bertrand-lab`` script.

OpenBLAS is held to one thread before ``cli`` imports numpy. The CLI has no
BLAS call that a second thread speeds up, the pool costs every cold command
its start-up CPU, and a threaded dgemv may sum in another order, so the
output bytes would depend on the host's cores or the caller's environment.
The setting is unconditional for that reason. The package ``__init__`` does
not touch it: a library user's process keeps its own BLAS threads.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402  (after the setting: cli imports numpy)

if __name__ == "__main__":
    raise SystemExit(main())
