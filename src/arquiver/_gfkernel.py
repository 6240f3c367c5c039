"""Backend selection for the GF(p) kernel: the compiled extension when it
imports, the numpy implementation otherwise.
"""

from __future__ import annotations

try:
    from . import _gfcore as _impl

    BACKEND = "c"
except ImportError:
    from . import _gfcore_py as _impl  # type: ignore[no-redef]

    BACKEND = "python"

rref = _impl.rref
matmul = _impl.matmul
# the compiled kernel has no forward-elimination loop; its rref gives the same pivots
pivots = _impl.pivots if BACKEND == "python" else lambda a, p: _impl.rref(a, p)[1]
