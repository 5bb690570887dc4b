"""Kernel backend selection for the scalar Airy and complex gamma kernels.

The compiled extension (``_kernels_cy``) is preferred when it imports; the
pure-Python module is the fallback.  ``HTA_BACKEND=python`` or
``HTA_BACKEND=compiled`` forces a lane (the latter raises if the extension is
unavailable, so benchmarks cannot silently compare a lane against itself).
"""

from __future__ import annotations

import os

from . import _kernels_py

_forced = os.environ.get("HTA_BACKEND", "").strip().lower()

if _forced == "python":
    _impl = _kernels_py
    BACKEND = "python"
elif _forced == "compiled":
    from . import _kernels_cy as _impl  # noqa: F401  (ImportError is the point)

    BACKEND = "compiled"
else:
    try:
        from . import _kernels_cy as _impl

        BACKEND = "compiled"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "python"

airy_ai = _impl.airy_ai
airy_ai_prime = _impl.airy_ai_prime
airy_bi = _impl.airy_bi
airy_bi_prime = _impl.airy_bi_prime
gamma_cx = _impl.gamma_cx


def kernel_lanes():
    """Return {lane_name: module} for every importable kernel lane."""
    lanes = {"python": _kernels_py}
    try:
        from . import _kernels_cy

        lanes["compiled"] = _kernels_cy
    except ImportError:
        pass
    return lanes
