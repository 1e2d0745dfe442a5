"""Entry point of ``python -m bertrand_lab`` and of the ``bertrand-lab`` script.

OpenBLAS is held to one thread before ``cli`` imports numpy. The CLI makes
no BLAS call, so the setting only spares every cold command the start-up CPU
of a thread pool it would never use; the output bytes do not depend on it.
The package ``__init__`` does not touch it: a library user's process keeps
its own BLAS threads.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402  (after the setting: cli imports numpy)

if __name__ == "__main__":
    raise SystemExit(main())
