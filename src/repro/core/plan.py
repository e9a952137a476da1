"""Unified operator-plan layer: the per-mesh :class:`OperatorContext`.

The paper's carved incomplete octrees make the *operator* cheap enough
to rebuild and apply at scale — but only if the per-mesh artifacts the
operator needs (gather/scatter CSR, element sizes, reference-element
handles, traversal slot tables, the compiled apply program) are
derived **once** per mesh rather than once per consumer or, worse, once
per apply.  This module is the single mesh ↔ operator contract shared
by every discretization in the stack:

* :func:`operator_context` returns the mesh's :class:`OperatorContext`,
  computing it on first request and caching it on the mesh behind a
  **content fingerprint** (SFC octant keys + levels + p + curve).  Any
  change of the leaf set — e.g. :mod:`repro.core.adapt` refinement or
  coarsening producing a new mesh — yields a new fingerprint, so stale
  plans are never reused.
* :class:`TraversalPlan` holds the flattened CSR-style traversal slot
  table (``slot_ptr`` / ``slot_idx`` / ``slot_gid`` / ``slot_w`` arrays
  instead of per-element Python lists), the ``identity_elem`` mask of
  non-hanging elements, the SFC key/level arrays, and — compiled on
  first use, once per plan — the one :class:`ApplyProgram` every §3.5
  traversal MATVEC executes (:meth:`TraversalPlan.apply_tables`).

Consumers (:class:`repro.core.matvec.MapBasedMatVec`,
:func:`repro.core.matvec.traversal_matvec`,
:func:`repro.core.assembly.assemble`, the Poisson/SBM/transport/NS
operators, multigrid prolongation, and — via
:class:`repro.parallel.ghost.ExchangePlan` — the distributed MATVEC)
all obtain these artifacts here instead of re-deriving them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ..fem.elemental import ReferenceElement, reference_element
from ..obs import span
from .octant import OctantSet
from .sfc import cached_keys, get_curve
from .treesort import block_ends

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .mesh import IncompleteMesh

__all__ = [
    "OperatorContext",
    "TraversalPlan",
    "PlanDelta",
    "diff_leaves",
    "operator_context",
    "mesh_fingerprint",
]


def mesh_fingerprint(mesh: IncompleteMesh) -> str:
    """Content fingerprint of the mesh's operator-relevant state.

    Hashes the SFC octant keys, the leaf levels, the element order p and
    the curve name — exactly the inputs every operator artifact is a
    function of.  Refining or coarsening the leaf set (or changing p /
    the curve) changes the fingerprint; relabelling or re-wrapping the
    same leaves does not.
    """
    keys = cached_keys(mesh.leaves, mesh.curve)
    h = hashlib.sha1()
    h.update(np.ascontiguousarray(keys).tobytes())
    h.update(np.ascontiguousarray(mesh.leaves.levels).tobytes())
    h.update(f"|dim={mesh.dim}|p={mesh.p}|curve={mesh.curve}".encode())
    return h.hexdigest()


@dataclass(frozen=True)
class PlanDelta:
    """Positional diff between two SFC-sorted leaf arrays.

    The longest common prefix (``prefix`` leaves) and suffix
    (``suffix`` leaves) over the sorted ``(key, level)`` sequences are
    *unchanged*: element ``i`` of the old mesh is element
    ``old_to_new(i)`` of the new mesh with identical geometry.  The
    windows ``changed_old`` / ``changed_new`` in between are the leaves
    an incremental plan update must treat as removed / added (a leaf
    that merely shifted position inside the window is conservatively
    counted as changed).
    """

    n_old: int
    n_new: int
    prefix: int
    suffix: int
    #: True when the update that produced this delta took the
    #: incremental path (False: full rebuild fallback).
    incremental: bool = False

    @property
    def n_changed_old(self) -> int:
        return self.n_old - self.prefix - self.suffix

    @property
    def n_changed_new(self) -> int:
        return self.n_new - self.prefix - self.suffix

    @property
    def churn(self) -> float:
        """Fraction of the *new* mesh's leaves that are changed."""
        return self.n_changed_new / max(self.n_new, 1)

    @property
    def identical(self) -> bool:
        return self.n_changed_old == 0 and self.n_changed_new == 0

    def changed_old(self) -> np.ndarray:
        return np.arange(self.prefix, self.n_old - self.suffix)

    def changed_new(self) -> np.ndarray:
        return np.arange(self.prefix, self.n_new - self.suffix)

    def old_to_new(self, idx: np.ndarray) -> np.ndarray:
        """Map old element indices to new ones (``-1`` for changed)."""
        idx = np.asarray(idx, np.int64)
        shift = self.n_new - self.n_old
        out = np.where(idx < self.prefix, idx, idx + shift)
        out = np.where(
            (idx >= self.prefix) & (idx < self.n_old - self.suffix), -1, out
        )
        return out


def diff_leaves(
    old_leaves: OctantSet, new_leaves: OctantSet, curve: str = "morton"
) -> PlanDelta:
    """Diff two SFC-sorted linear octrees into a :class:`PlanDelta`.

    Longest-common-prefix/suffix; ``prefix + suffix`` never exceeds the
    shorter array, so the changed windows are well defined.  Equality is
    tested on ``(anchor, level)`` directly — for SFC-sorted arrays of
    the same curve that coincides with ``(key, level)`` equality and
    avoids recomputing keys.
    """
    a1, l1 = old_leaves.anchors, old_leaves.levels
    a2, l2 = new_leaves.anchors, new_leaves.levels
    n1, n2 = len(old_leaves), len(new_leaves)
    n = min(n1, n2)
    eq = np.all(a1[:n] == a2[:n], axis=1) & (l1[:n] == l2[:n])
    prefix = int(np.argmin(eq)) if not eq.all() else n
    rem = n - prefix
    if rem == 0:
        suffix = 0
    else:
        eq_s = np.all(a1[n1 - rem :] == a2[n2 - rem :], axis=1) & (
            l1[n1 - rem :] == l2[n2 - rem :]
        )
        rev = eq_s[::-1]
        suffix = int(np.argmin(rev)) if not rev.all() else rem
    return PlanDelta(n_old=n1, n_new=n2, prefix=prefix, suffix=suffix)


@dataclass(frozen=True)
class IdentityBlock:
    """The non-hanging elements, every refinement level at once: their
    top-down pass is the pure index read ``u[gid]``."""

    elems: np.ndarray  #: (n,) element ids, ascending
    gid: np.ndarray  #: (n, npe) global node id of every slot

    def gather(self, u: np.ndarray) -> np.ndarray:
        """Element-local values ``(n, npe)`` of the nodal vector ``u``."""
        return u[self.gid]


@dataclass(frozen=True)
class HangingBlock:
    """The elements with hanging slots: their top-down pass is one CSR
    product interpolating every slot row from its donors."""

    elems: np.ndarray  #: (m,) element ids, ascending
    interp: sp.csr_matrix  #: (m * npe, n_nodes) slot rows, donors weighted

    def gather(self, u: np.ndarray) -> np.ndarray:
        return (self.interp @ u).reshape(len(self.elems), -1)


class ApplyProgram:
    """One compiled §3.5 apply over the elements ``[e_lo, e_hi)`` of a plan.

    Leaf rows are in *program order* — identity elements, then hanging
    ones; iterating yields the non-empty blocks in that order.  Top-down
    is one index read plus one CSR product over the hanging rows only;
    bottom-up is **one** CSR product (:meth:`scatter`) whose weights
    already carry ``h**pw`` — exact for the power-of-two sizes of an
    octree, within 1 ulp otherwise — so no apply pays a scale pass.
    """

    def __init__(self, plan: TraversalPlan, e_lo: int, e_hi: int):
        self.npe = npe = plan.mesh.npe
        elems = np.arange(e_lo, e_hi)
        ident = plan.identity_elem[elems]
        id_el, hg_el = elems[ident], elems[~ident]
        order = np.concatenate([id_el, hg_el])
        self.n_elem = len(order)  #: leaf rows
        slots = np.arange(npe)
        # the element-to-node interpolation, slot rows in program order
        self._gather = plan.gather[(order[:, None] * npe + slots).ravel()]
        self._h = plan.h[order]
        self._scatter: dict[int, sp.csr_matrix] = {}
        self.identity = IdentityBlock(
            id_el, plan.slot_gid[plan.slot_ptr[id_el][:, None] + slots]
        )
        self.hanging = HangingBlock(hg_el, self._gather[len(id_el) * npe :])

    def __iter__(self):
        return (b for b in (self.identity, self.hanging) if len(b.elems))

    def scatter(self, pw: int) -> sp.csr_matrix:
        """``(n_nodes, n_elem * npe)`` bottom-up accumulation, column
        ``c`` = slot ``c % npe`` of leaf row ``c // npe``, ``h**pw``
        folded into the weights; built once per exponent."""
        if pw not in self._scatter:
            scale = sp.diags(np.repeat(self._h**pw, self.npe))
            self._scatter[pw] = (scale @ self._gather).T.tocsr()
        return self._scatter[pw]


class TraversalPlan:
    """Flattened slot tables for the traversal MATVEC / assembly (§3.5–3.6).

    For each element, the (slot, gid, weight) triples of its local
    interpolation rows — identity entries for ordinary slots, coarse
    donor weights for hanging slots — extracted once from the gather
    operator and stored CSR-style:

    ``slot_ptr``
        ``(n_elem + 1,)`` int64; element ``e`` owns the triple range
        ``slot_ptr[e]:slot_ptr[e+1]``.
    ``slot_idx`` / ``slot_gid`` / ``slot_w``
        flat local-slot index, global node id, interpolation weight.
    ``identity_elem``
        ``(n_elem,)`` bool; True where the element's rows are the pure
        identity (no hanging slots).

    :meth:`apply_tables` compiles these, once per plan, into the
    :class:`ApplyProgram` every traversal apply executes.  The plan
    belongs to the :class:`OperatorContext` that built it, so the
    program is dropped and rebuilt exactly when the context is.
    """

    def __init__(self, mesh: IncompleteMesh, ctx: OperatorContext | None = None):
        self.mesh = mesh
        #: the mesh's reference element, so an apply on an explicit
        #: plan needs no operator-context lookup (and no re-hash)
        self.ref = reference_element(mesh.p, mesh.dim)
        #: element-to-node interpolation, CSR
        self.gather = g = ctx.gather if ctx is not None else mesh.nodes.gather.tocsr()
        npe = mesh.npe
        n_elem = mesh.n_elem
        indptr, indices, data = g.indptr, g.indices, g.data
        counts = np.diff(indptr)
        self.slot_ptr = indptr[::npe].astype(np.int64)
        self.slot_idx = np.repeat(
            np.arange(n_elem * npe, dtype=np.int64) % npe, counts
        )
        self.slot_gid = indices.astype(np.int64)
        self.slot_w = np.asarray(data, np.float64)
        # identity elements: one unit-weight entry per slot row
        simple_rows = (counts == 1).reshape(n_elem, npe).all(axis=1)
        wdev = np.abs(self.slot_w - 1.0)
        dev_per_elem = np.add.reduceat(wdev, self.slot_ptr[:-1])
        self.identity_elem = simple_rows & (dev_per_elem == 0.0)
        oracle = get_curve(mesh.curve)
        self.keys = cached_keys(mesh.leaves, oracle)
        self.ends = block_ends(self.keys, mesh.leaves.levels, mesh.dim)
        self.coords = mesh.nodes.coords  # 2p-scaled units
        self.levels = mesh.leaves.levels.astype(np.int64)
        self.h = ctx.h if ctx is not None else mesh.element_sizes()
        self.oracle = oracle
        # Fortran order: the leaf apply multiplies by the transpose, and
        # a contiguous right operand is 2.5x faster through matmul
        self._kernels = {
            "stiffness": (np.asfortranarray(self.ref.K_ref), mesh.dim - 2),
            "mass": (np.asfortranarray(self.ref.M_ref), mesh.dim),
        }
        self._program: ApplyProgram | None = None

    def rows(self, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slot, gid, weight) triples of element ``e``."""
        lo, hi = self.slot_ptr[e], self.slot_ptr[e + 1]
        return self.slot_idx[lo:hi], self.slot_gid[lo:hi], self.slot_w[lo:hi]

    def kernel(self, kind: str) -> tuple[np.ndarray, int]:
        """Reference elemental matrix and ``h`` exponent of a scalar
        term (``"stiffness"`` or ``"mass"``)."""
        try:
            return self._kernels[kind]
        except KeyError:
            raise ValueError(f"unknown kind {kind!r}") from None

    def apply_tables(self, e_lo: int = 0, e_hi: int | None = None) -> ApplyProgram:
        """The compiled apply program of the elements ``[e_lo, e_hi)``.

        The whole-mesh program is built on first use and kept for the
        life of the plan; a proper sub-range (the distributed-memory
        ``owned_range``) compiles its own program per call.
        """
        n_elem = self.mesh.n_elem
        e_lo, e_hi = max(e_lo, 0), n_elem if e_hi is None else min(e_hi, n_elem)
        if e_lo > 0 or e_hi < n_elem:
            return ApplyProgram(self, e_lo, e_hi)
        if self._program is None:
            self._program = ApplyProgram(self, 0, n_elem)
        return self._program


class OperatorContext:
    """Per-mesh bundle of operator artifacts, computed once per fingerprint.

    Eagerly holds the cheap, universally needed pieces (gather CSR,
    element sizes, levels); derives the rest lazily on first use
    (scatter CSR, traversal plan, multi-field gathers, the solve
    tables: unit load, Jacobi diagonal) and keeps them for the lifetime
    of the mesh.
    """

    def __init__(self, mesh: IncompleteMesh, fingerprint: str | None = None):
        self.mesh = mesh
        #: the exact MeshNodes the context was derived from — checked by
        #: identity in :func:`operator_context` so an in-place swap of
        #: ``mesh.nodes`` (same leaves, hence same fingerprint) rebuilds
        #: instead of silently aliasing stale gather/scatter arrays
        self.nodes = mesh.nodes
        self.fingerprint = (
            fingerprint if fingerprint is not None else mesh_fingerprint(mesh)
        )
        #: element → local-node interpolation operator, CSR
        self.gather: sp.csr_matrix = mesh.nodes.gather.tocsr()
        #: physical element side lengths, (n_elem,)
        self.h: np.ndarray = mesh.element_sizes()
        #: leaf refinement levels, (n_elem,) int64
        self.levels: np.ndarray = mesh.leaves.levels.astype(np.int64)
        self._scatter: sp.csr_matrix | None = None
        self._traversal: TraversalPlan | None = None
        self._big_gathers: dict[int, sp.csr_matrix] = {}
        self._solve_tables: dict[tuple, np.ndarray] = {}

    # -- quadrature / reference-element handles -------------------------

    def ref(self, nquad: int | None = None) -> ReferenceElement:
        """The mesh's reference element (shared lru cache per (p, dim))."""
        return reference_element(self.mesh.p, self.mesh.dim, nquad)

    # -- lazily derived artifacts ---------------------------------------

    @property
    def scatter(self) -> sp.csr_matrix:
        """gatherᵀ in CSR — the bottom-up accumulation operator."""
        if self._scatter is None:
            self._scatter = self.gather.T.tocsr()
        return self._scatter

    @property
    def traversal(self) -> TraversalPlan:
        """Flattened traversal slot table (built once per mesh)."""
        if self._traversal is None:
            with span("plan.traversal_build") as sp_:
                self._traversal = TraversalPlan(self.mesh, ctx=self)
                sp_.add("elements", self.mesh.n_elem)
        return self._traversal

    # -- per-mesh solve tables (shared between callers, hence read-only) --

    def _solve_table(self, key: tuple, build) -> np.ndarray:
        table = self._solve_tables.get(key)
        if table is None:
            table = self._solve_tables[key] = build()
            table.flags.writeable = False
        return table

    def unit_load(self, nquad: int | None = None) -> np.ndarray:
        """Consistent load vector of the unit source, ``∫ φ_i`` over
        the retained domain; a constant source ``f`` loads ``f`` times
        this."""

        def build():
            ref = self.ref(nquad)
            w = ref.qwts[None, :] * (self.h**self.mesh.dim)[:, None]
            b_loc = np.einsum("eq,qi,eq->ei", np.full(w.shape, 1.0), ref.N, w)
            return self.scatter @ b_loc.reshape(-1)

        return self._solve_table(("unit_load", nquad), build)

    def jacobi_diagonal(self, kind: str = "stiffness") -> np.ndarray:
        """``diag(A)`` of a scalar term without assembly: the elemental
        diagonals through the squared interpolation weights,
        ``Σ w_ig² K_ii`` per node."""

        def build():
            ker, pw = self.traversal.kernel(kind)
            dloc = (np.diag(ker)[None, :] * (self.h**pw)[:, None]).reshape(-1)
            g = self.gather
            return np.asarray(g.T.multiply(g.T) @ dloc).ravel()

        return self._solve_table(("jacobi_diagonal", kind), build)

    def big_gather(self, nfields: int) -> sp.csr_matrix:
        """Multi-field gather: global ``[f0 | f1 | ...]`` vectors to
        element-local field-major slot vectors (hanging-aware)."""
        got = self._big_gathers.get(nfields)
        if got is not None:
            return got
        g = self.gather.tocoo()
        npe = self.mesh.npe
        n = self.mesh.n_nodes
        ndof = nfields * npe
        e = g.row // npe
        i = g.row % npe
        rows, cols, data = [], [], []
        for f in range(nfields):
            rows.append(e * ndof + f * npe + i)
            cols.append(g.col + f * n)
            data.append(g.data)
        big = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.mesh.n_elem * ndof, nfields * n),
        )
        self._big_gathers[nfields] = big
        return big


def operator_context(mesh: IncompleteMesh) -> OperatorContext:
    """The mesh's cached :class:`OperatorContext`.

    The context is stored on the mesh object; it is rebuilt whenever the
    stored fingerprint no longer matches the mesh content (e.g. after
    the leaf set was swapped by refinement/coarsening), so operator
    consumers can never observe a stale plan.
    """
    fp = mesh_fingerprint(mesh)
    ctx = getattr(mesh, "_operator_context", None)
    if (
        ctx is not None
        and ctx.fingerprint == fp
        and ctx.mesh is mesh
        and ctx.nodes is mesh.nodes
    ):
        return ctx
    with span("plan.context_build") as sp_:
        ctx = OperatorContext(mesh, fingerprint=fp)
        sp_.add("elements", mesh.n_elem)
        sp_.add("nodes", mesh.n_nodes)
    mesh._operator_context = ctx
    return ctx
