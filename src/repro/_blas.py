"""One BLAS thread, whatever the import order.

Every matmul here is (rows x hidden) @ (hidden x hidden) with hidden
~32: too small for OpenBLAS's thread fan-out to pay, and a second
thread changes the bytes a fit saves (the summation order of a
threaded GEMM differs).  ``OPENBLAS_NUM_THREADS`` only takes effect
when set before numpy loads, so this module also calls the
``set_num_threads`` entry point of the OpenBLAS that numpy's wheel
bundles, which works after numpy is imported too.  When no such
library or symbol exists (another BLAS vendor), the environment
default stands.  :data:`BLAS` says which case applied; every saved
manifest records it.

Only the thread count is pinned: OpenBLAS's per-CPU kernel choice
may still differ between hosts.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

#: The setter of the OpenBLAS numpy 2.x wheels bundle, then numpy 1.x's.
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_")


def _bundled_libraries():
    root = os.path.dirname(np.__file__)  # Linux wheels: numpy.libs; macOS: numpy/.dylibs
    return sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                  + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))


def _pin() -> str:
    for path in _bundled_libraries():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter(1)
                return f"{os.path.basename(path)}:{name}(1)"
    return f"env:OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


#: How this process's BLAS thread count was set: ``"<library>:<setter>(1)"``,
#: or ``"env:OPENBLAS_NUM_THREADS=<value>"`` when no bundled setter exists.
BLAS = _pin()
