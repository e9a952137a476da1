"""repro.kernels — swappable multi-backend kernel layer.

The hot numerical loops of the stack (gather/scatter, batched elemental
applies, the traversal MATVEC, assembly, Krylov axpy/dot) execute
through the :mod:`~repro.kernels.api` facade, dispatching to a
registered backend:

* ``numpy`` (default) — map-based ops bit-identical to the historical
  inline paths, plus the flat plan-compiled traversal every backend runs;
* ``einsum`` — einsum elemental applies/dots, vectorized assembly;
* ``numba`` — jitted slot/CSR loops, gracefully unavailable when
  numba is not installed.

Select a backend with the ``REPRO_KERNELS_BACKEND`` environment
variable, the ``--backend`` CLI flag (:func:`set_default_backend`), a
scoped :func:`use_backend` context, or per-request via
``SolveRequest.backend`` in :mod:`repro.serve`.  Every facade call
publishes ``kernels.{calls,flops,bytes,seconds}`` counters to
:mod:`repro.obs` when tracing is on, which
:func:`repro.analysis.roofline.measured_kernel_points` converts into
measured fraction-of-peak per kernel per backend.
"""

from . import api
from .einsum_backend import EinsumKernels
from .numba_backend import NUMBA_AVAILABLE, NumbaKernels
from .numpy_backend import NumpyKernels
from .registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    BackendUnavailable,
    UnknownBackend,
    available_backends,
    backend_names,
    default_backend,
    get_backend,
    register_backend,
    resolve_backend_name,
    set_default_backend,
    use_backend,
)

__all__ = [
    "api",
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "NUMBA_AVAILABLE",
    "UnknownBackend",
    "BackendUnavailable",
    "NumpyKernels",
    "EinsumKernels",
    "NumbaKernels",
    "register_backend",
    "backend_names",
    "available_backends",
    "resolve_backend_name",
    "get_backend",
    "set_default_backend",
    "default_backend",
    "use_backend",
]

register_backend("numpy", NumpyKernels())
register_backend("einsum", EinsumKernels())
register_backend("numba", NumbaKernels())
