"""Kernel backend selection.

The compiled kernels (_core, built from _kernels.c on first use) run the
hot loops; the pure-Python twin with identical semantics is used when
they cannot be built or loaded, or when COPERM_PURE_PYTHON=1 is set in
the environment. REASON says why the backend in use was chosen; a
fallback that was not asked for is also reported on stderr.
"""

import os
import sys

# each module is imported only when selected: with the compiled kernels in
# use, a run of well-formed input never loads _purepy, which their codecs
# call only for input they refuse
if os.environ.get("COPERM_PURE_PYTHON"):
    from . import _purepy as _impl
    REASON = "COPERM_PURE_PYTHON set"
else:
    try:
        from . import _core as _impl  # type: ignore[no-redef]
        REASON = _impl.REASON
    except ImportError as exc:
        from . import _purepy as _impl  # type: ignore[no-redef]
        REASON = str(exc)
        print(f"coperm: compiled kernels unavailable ({REASON}); "
              "using the pure-Python kernels", file=sys.stderr)

BACKEND = _impl.BACKEND_NAME
MAX_VERTICES = _impl.MAX_VERTICES  # the most vertices of a graph or run

graph_poly = _impl.graph_poly
canonical_form = _impl.canonical_form
canonical_children = _impl.canonical_children
decode_graph6 = _impl.decode_graph6
encode_graph6 = _impl.encode_graph6
fingerprint = _impl.fingerprint
scan_records = _impl.scan_records
render = _impl.render


def available_backends():
    """Importable kernel modules keyed by their backend name."""
    from . import _purepy
    out = {_purepy.BACKEND_NAME: _purepy}
    try:
        from . import _core
        out[_core.BACKEND_NAME] = _core
    except ImportError:
        pass
    return out
