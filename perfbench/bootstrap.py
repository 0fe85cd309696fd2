"""Process set-up shared by the benchmark's entry scripts.

`pin()` must run before numpy is imported: OpenBLAS reads its thread count
once, at load. On a small box a second BLAS thread competing with another
process made 129x129 inverses inside branch-and-bound up to 100x slower,
so every run uses one thread and records that it did.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> None:
    """Pin BLAS threads and import the package from this checkout's src/.

    Exits with code 2 when the checkout has no package sources, so the
    benchmark never measures some other installed copy.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # bytecode caches would make the first run's import slower than the rest
    sys.dont_write_bytecode = True
    if not (SRC / "impsched" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
