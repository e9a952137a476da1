"""repro.kernels — the hot numerical loops, behind a counted facade.

Gather/scatter, batched elemental applies, the traversal MATVEC,
assembly and the Krylov axpy/dot execute through :mod:`~repro.kernels.api`.
The kernel bodies live in :mod:`~repro.kernels.numpy_backend` (one set,
one instance); the facade adds nothing with tracing off and publishes
``kernels.{calls,flops,bytes,seconds}`` counters with tracing on, which
:func:`repro.analysis.roofline.measured_kernel_points` converts into
measured fraction-of-peak per kernel.

There is no selector.  The ``einsum`` set lost to ``numpy`` on every op
it overrode on every bench mesh and the jitted set never ran
(EXPERIMENTS.md); a second implementation returns from git history
together with the workload that separates it.
"""

from contextlib import contextmanager

from . import api
from .numpy_backend import KERNELS

__all__ = ["api", "available_backends", "use_backend"]


def available_backends() -> dict[str, bool]:
    """``{"numpy": True}``.  Kept only because ``benchmarks/e2e/worker.py``
    enumerates it for its ``s_per_call.<backend>`` columns and that
    directory is frozen; ROADMAP item 1(b) removes ``backend_slice`` and
    then this function."""
    return {KERNELS.name: True}


@contextmanager
def use_backend(name: str | None):
    """A no-op scope that accepts ``None`` / ``"numpy"`` and raises
    ``ValueError`` otherwise.  Kept only because
    ``benchmarks/e2e/workloads.py`` (``backend_slice``) enters it and
    that directory is frozen; ROADMAP item 1(b) removes both."""
    if name not in (None, KERNELS.name):
        raise ValueError(
            f"unknown kernel backend {name!r}; the only kernel set is "
            f"{KERNELS.name!r}")
    yield
