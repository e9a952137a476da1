"""Instrumented ops facade — the counted entry point to the kernels.

Call sites (:mod:`repro.core.matvec`, :mod:`repro.core.assembly`,
:mod:`repro.fem.elemental`, :mod:`repro.solvers.krylov`) invoke these
functions instead of inlining numpy expressions.  With tracing off a
call is a passthrough to the one kernel set
(:data:`repro.kernels.numpy_backend.KERNELS`) behind one attribute
check; with :mod:`repro.obs` tracing on it also publishes
achieved-work counters::

    kernels.calls{backend="numpy",kernel="elem_apply"}
    kernels.flops{...}     # modelled double-precision FLOPs executed
    kernels.bytes{...}     # modelled bytes moved
    kernels.seconds{...}   # measured wall time

:func:`repro.analysis.roofline.measured_kernel_points` turns these four
counters into measured arithmetic intensity and fraction-of-peak per
kernel, from a live registry or any ``run.v1``/``bench.v1`` artifact.
The ``backend="numpy"`` label is constant: it is part of that artifact
format, not a selection.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp

from ..obs.counters import REGISTRY
from ..obs.trace import TRACER, span
from .numpy_backend import KERNELS as _K
from .numpy_backend import block_size

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


def _timed(kernel: str, fn, cost, *args):
    """The tracing-on half of every facade call: time ``fn(*args)`` and
    publish the ``kernels.*`` counters, work and traffic modelled by
    ``cost(out, *args) -> (flops, bytes)``."""
    t0 = perf_counter()
    out = fn(*args)
    dt = perf_counter() - t0
    flops, nbytes = cost(out, *args)
    labels = {"kernel": kernel, "backend": _K.name}
    REGISTRY.add("kernels.calls", 1, **labels)
    REGISTRY.add("kernels.flops", float(flops), **labels)
    REGISTRY.add("kernels.bytes", float(nbytes), **labels)
    REGISTRY.add("kernels.seconds", float(dt), **labels)
    return out


def _csr_cost(out, A: sp.csr_matrix, x: np.ndarray):
    """One CSR × vector product: 2 flops per stored weight; bytes of
    the matrix arrays plus both vectors."""
    return 2.0 * A.nnz, (
        A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        + x.nbytes + 8.0 * A.shape[0]
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


def _traversal_cost(out, prog, u, ker, pw):
    return traversal_cost(prog, pw, len(u))


def _assemble_cost(A, gather, scatter, blocks, elems=None):
    """Every element block formed and applied once, chunked or not."""
    bs = block_size(blocks)
    ne = gather.shape[0] // bs if elems is None else len(elems)
    return 2.0 * ne * bs * bs, (
        8.0 * ne * bs * bs + gather.data.nbytes + gather.indices.nbytes
        + 12.0 * A.nnz
    )


def gather(G: sp.csr_matrix, u: np.ndarray):
    """Hanging-aware element gather ``G @ u``."""
    if not TRACER.enabled:
        return _K.csr_matvec(G, u)
    return _timed("gather", _K.csr_matvec, _csr_cost, G, u)


def scatter(S: sp.csr_matrix, w: np.ndarray):
    """Bottom-up accumulation ``S @ w``."""
    if not TRACER.enabled:
        return _K.csr_matvec(S, w)
    return _timed("scatter", _K.csr_matvec, _csr_cost, S, w)


def elem_apply(u_loc: np.ndarray, M: np.ndarray,
               scale: np.ndarray) -> np.ndarray:
    """Batched elemental apply ``(u_loc @ M.T) * scale[:, None]``."""
    if not TRACER.enabled:
        return _K.elem_apply(u_loc, M, scale)
    return _timed("elem_apply", _K.elem_apply, _elem_apply_cost,
                  u_loc, M, scale)


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """Krylov inner product ⟨x, y⟩."""
    if not TRACER.enabled:
        return _K.dot(x, y)
    return _timed("dot", _K.dot, _dot_cost, x, y)


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """In-place ``y += alpha * x``; returns ``y``."""
    if not TRACER.enabled:
        return _K.axpy(alpha, x, y)
    return _timed("axpy", _K.axpy, _axpy_cost, alpha, x, y)


def traversal_apply(prog, u: np.ndarray, ker: np.ndarray,
                    pw: int) -> np.ndarray:
    """Flat traversal MATVEC: one run of the compiled apply program
    ``prog``; when tracing, under a ``matvec.traversal`` span that holds
    the phase spans."""
    if not TRACER.enabled:
        return _K.traversal_matvec(prog, u, ker, pw)
    with span("matvec.traversal", backend=_K.name) as osp:
        osp.add("elements", prog.n_elem)
        return _timed("traversal", _K.traversal_matvec, _traversal_cost,
                      prog, u, ker, pw)


def assemble(gather: sp.csr_matrix, scatter: sp.csr_matrix,
             blocks, elems: np.ndarray | None = None) -> sp.csr_matrix:
    """Global sparse assembly ``Σ_e P_eᵀ K_e P_e`` over a gather/scatter
    pair, the blocks formed by ``blocks(e) -> (len(e), bs, bs)`` for
    ascending element ids ``e``; over the elements ``elems`` only when
    given."""
    if not TRACER.enabled:
        return _K.assemble(gather, scatter, blocks, elems)
    return _timed("assemble", _K.assemble, _assemble_cost,
                  gather, scatter, blocks, elems)
