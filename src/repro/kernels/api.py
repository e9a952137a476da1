"""Instrumented ops facade — the single entry point to kernel backends.

Call sites (:mod:`repro.core.matvec`, :mod:`repro.core.assembly`,
:mod:`repro.fem.elemental`, :mod:`repro.parallel.dist_matvec`,
:mod:`repro.solvers.krylov`) invoke these functions instead of inlining
numpy expressions; each call dispatches to the active backend (see
:mod:`repro.kernels.registry` for the selection precedence) and — when
:mod:`repro.obs` tracing is enabled — publishes achieved-work counters::

    kernels.calls{backend="einsum",kernel="elem_apply"}
    kernels.flops{...}     # modelled double-precision FLOPs executed
    kernels.bytes{...}     # modelled bytes moved
    kernels.seconds{...}   # measured wall time

:func:`repro.analysis.roofline.measured_kernel_points` turns these four
counters into measured arithmetic intensity and fraction-of-peak per
kernel per backend, from a live registry or any ``run.v1``/``bench.v1``
artifact.  With tracing disabled every facade call costs one attribute
check on top of the op itself.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp

from ..obs.counters import REGISTRY
from ..obs.trace import TRACER, span
from .registry import get_backend

__all__ = [
    "gather",
    "scatter",
    "elem_apply",
    "dot",
    "axpy",
    "traversal_apply",
    "traversal_cost",
    "assemble",
]


def _timed(be, kernel: str, fn, cost, *args):
    """The tracing-on half of every facade call: time ``fn(*args)`` and
    publish the ``kernels.*`` counters, work and traffic modelled by
    ``cost(out, *args) -> (flops, bytes)``."""
    t0 = perf_counter()
    out = fn(*args)
    dt = perf_counter() - t0
    flops, nbytes = cost(out, *args)
    labels = {"kernel": kernel, "backend": be.name}
    REGISTRY.add("kernels.calls", 1, **labels)
    REGISTRY.add("kernels.flops", float(flops), **labels)
    REGISTRY.add("kernels.bytes", float(nbytes), **labels)
    REGISTRY.add("kernels.seconds", float(dt), **labels)
    return out


def _csr_cost(out, A: sp.csr_matrix, x: np.ndarray):
    """One CSR product: 2 flops per stored weight and column; bytes of
    the matrix arrays plus both vectors."""
    ncols = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
    return 2.0 * A.nnz * ncols, (
        A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        + getattr(x, "nbytes", 8 * A.shape[1] * ncols)
        + 8.0 * A.shape[0] * ncols
    )


def _elem_apply_cost(out, u_loc, M, scale):
    ne, npe_in = u_loc.shape
    npe_out = M.shape[0]
    return (
        2.0 * ne * npe_out * npe_in + ne * npe_out,
        u_loc.nbytes + scale.nbytes + 8.0 * ne * npe_out,
    )


def _dot_cost(out, x, y):
    return 2.0 * len(x), 16.0 * len(x)


def _axpy_cost(out, alpha, x, y):
    return 2.0 * len(x), 24.0 * len(x)


def traversal_cost(prog, pw: int, n_nodes: int) -> tuple[int, int]:
    """``(flops, bytes)`` of one run of a compiled apply program
    (:class:`repro.core.plan.ApplyProgram`) as executed.  Work: 2 flops
    per stored weight of the hanging interpolation and of the
    accumulation, ``2·npe²`` per element; there is no scale pass.
    Traffic: the identity index table and the two CSRs read once each,
    the global in/out vectors, the two element-local temporaries."""
    csrs = (prog.hanging.interp, prog.scatter(pw))
    n_loc = prog.n_elem * prog.npe
    tables = prog.identity.gid.nbytes + sum(
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in csrs
    )
    return (
        2 * sum(m.nnz for m in csrs) + 2 * n_loc * prog.npe,
        tables + 8 * (2 * n_nodes + 2 * n_loc),
    )


def _traversal_cost(out, plan, u, ker, pw, e_lo, e_hi):
    return traversal_cost(plan.apply_tables(e_lo, e_hi), pw, len(u))


def _assemble_cost(A, ctx, blocks):
    ne, npe, _ = blocks.shape
    g = ctx.gather
    return 2.0 * ne * npe * npe, (
        blocks.nbytes + g.data.nbytes + g.indices.nbytes + 12.0 * A.nnz
    )


def gather(G: sp.csr_matrix, u: np.ndarray, backend: str | None = None):
    """Hanging-aware element gather ``G @ u`` through the active backend."""
    be = get_backend(backend)
    if not TRACER.enabled:
        return be.gather(G, u)
    return _timed(be, "gather", be.gather, _csr_cost, G, u)


def scatter(S: sp.csr_matrix, w: np.ndarray, backend: str | None = None):
    """Bottom-up accumulation ``S @ w`` through the active backend."""
    be = get_backend(backend)
    if not TRACER.enabled:
        return be.scatter(S, w)
    return _timed(be, "scatter", be.scatter, _csr_cost, S, w)


def elem_apply(u_loc: np.ndarray, M: np.ndarray, scale: np.ndarray,
               backend: str | None = None) -> np.ndarray:
    """Batched elemental apply ``(u_loc @ M.T) * scale[:, None]``."""
    be = get_backend(backend)
    if not TRACER.enabled:
        return be.elem_apply(u_loc, M, scale)
    return _timed(be, "elem_apply", be.elem_apply, _elem_apply_cost,
                  u_loc, M, scale)


def dot(x: np.ndarray, y: np.ndarray, backend: str | None = None) -> float:
    """Krylov inner product ⟨x, y⟩."""
    be = get_backend(backend)
    if not TRACER.enabled:
        return be.dot(x, y)
    return _timed(be, "dot", be.dot, _dot_cost, x, y)


def axpy(alpha: float, x: np.ndarray, y: np.ndarray,
         backend: str | None = None) -> np.ndarray:
    """In-place ``y += alpha * x``; returns ``y``."""
    be = get_backend(backend)
    if not TRACER.enabled:
        return be.axpy(alpha, x, y)
    return _timed(be, "axpy", be.axpy, _axpy_cost, alpha, x, y)


def traversal_apply(plan, u: np.ndarray, ker: np.ndarray, pw: int,
                    e_lo: int, e_hi: int,
                    backend: str | None = None) -> np.ndarray:
    """Flat traversal MATVEC over elements ``[e_lo, e_hi)`` of ``plan``;
    when tracing, under a ``matvec.traversal`` span that holds the
    backend's phase spans."""
    be = get_backend(backend)
    if not TRACER.enabled:
        return be.traversal_matvec(plan, u, ker, pw, e_lo, e_hi)
    with span("matvec.traversal", backend=be.name) as osp:
        osp.add("elements", e_hi - e_lo)
        return _timed(be, "traversal", be.traversal_matvec, _traversal_cost,
                      plan, u, ker, pw, e_lo, e_hi)


def assemble(ctx, blocks: np.ndarray,
             backend: str | None = None) -> sp.csr_matrix:
    """Global sparse assembly ``Σ_e P_eᵀ K_e P_e`` through the backend."""
    be = get_backend(backend)
    if not TRACER.enabled:
        return be.assemble(ctx, blocks)
    return _timed(be, "assemble", be.assemble, _assemble_cost, ctx, blocks)
