"""Backend selection for the GF(p) kernel.

Prefers the compiled extension, falls back to the numpy implementation.
ARQUIVER_BACKEND=py forces the fallback; ARQUIVER_BACKEND=c requires the
extension and raises if it is missing.
"""

from __future__ import annotations

import os

_requested = os.environ.get("ARQUIVER_BACKEND", "").lower()

if _requested in ("py", "python", "pure"):
    from . import _gfcore_py as _impl

    BACKEND = "python"
elif _requested in ("c", "compiled", "ext"):
    from . import _gfcore as _impl  # type: ignore[no-redef]

    BACKEND = "c"
else:
    try:
        from . import _gfcore as _impl  # type: ignore[no-redef]

        BACKEND = "c"
    except ImportError:
        from . import _gfcore_py as _impl

        BACKEND = "python"

rref = _impl.rref
matmul = _impl.matmul
# the compiled kernel has no forward-elimination loop; its rref gives the same pivots
pivots = _impl.pivots if BACKEND == "python" else lambda a, p: _impl.rref(a, p)[1]
