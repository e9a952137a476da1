"""Unified operator-plan layer: the per-mesh :class:`OperatorContext`.

The paper's carved incomplete octrees make the *operator* cheap enough
to rebuild and apply at scale — but only if the per-mesh artifacts the
operator needs (gather/scatter CSR, element sizes, reference-element
handles, traversal slot tables, level-grouped element batches) are
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
  first use, once per plan — the per-level batches and hanging-element
  block one §3.5 traversal MATVEC executes
  (:meth:`TraversalPlan.apply_tables`).

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

    def new_to_old(self, idx: np.ndarray) -> np.ndarray:
        """Map new element indices to old ones (``-1`` for changed)."""
        idx = np.asarray(idx, np.int64)
        shift = self.n_new - self.n_old
        out = np.where(idx < self.prefix, idx, idx - shift)
        out = np.where(
            (idx >= self.prefix) & (idx < self.n_new - self.suffix), -1, out
        )
        return out

    def unchanged_new_mask(self) -> np.ndarray:
        mask = np.ones(self.n_new, bool)
        mask[self.prefix : self.n_new - self.suffix] = False
        return mask


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
class LevelBatch:
    """Identity (non-hanging) elements of one refinement level.

    Their gather is the pure index read ``u[gid]`` and, the level being
    uniform, their ``h**pw`` scale is one number — kept as a length-1
    array so it broadcasts through ``elem_apply``'s per-element scale.
    """

    elems: np.ndarray  #: (n,) element ids, ascending
    gid: np.ndarray  #: (n, npe) global node id of every slot
    h: np.ndarray  #: (1,) element side length

    def gather(self, u: np.ndarray) -> np.ndarray:
        """Element-local values ``(n, npe)`` of the nodal vector ``u``."""
        return u[self.gid]

    def scatter(self, w_loc: np.ndarray, n_nodes: int) -> np.ndarray:
        """Element-local values accumulated onto the global nodes."""
        return np.bincount(
            self.gid.ravel(), weights=w_loc.ravel(), minlength=n_nodes
        )

    def restrict(self, e_lo: int, e_hi: int) -> LevelBatch:
        a, b = np.searchsorted(self.elems, (e_lo, e_hi))
        return LevelBatch(self.elems[a:b], self.gid[a:b], self.h)


@dataclass(frozen=True)
class HangingBlock:
    """All elements with hanging slots, as one CSR block of
    (local slot, global donor, weight) triples; same interface as
    :class:`LevelBatch`, with the donor interpolation in both legs."""

    elems: np.ndarray  #: (m,) element ids, ascending
    loc: np.ndarray  #: ``row * npe + slot`` of every triple, ascending
    gid: np.ndarray  #: global donor node id of every triple
    w: np.ndarray  #: interpolation weight of every triple
    h: np.ndarray  #: (m,) element side lengths
    npe: int

    def gather(self, u: np.ndarray) -> np.ndarray:
        m = len(self.elems)
        return np.bincount(
            self.loc, weights=self.w * u[self.gid], minlength=m * self.npe
        ).reshape(m, self.npe)

    def scatter(self, w_loc: np.ndarray, n_nodes: int) -> np.ndarray:
        return np.bincount(
            self.gid, weights=self.w * w_loc.ravel()[self.loc],
            minlength=n_nodes,
        )

    def restrict(self, e_lo: int, e_hi: int) -> HangingBlock:
        a, b = np.searchsorted(self.elems, (e_lo, e_hi))
        s, t = np.searchsorted(self.loc, (a * self.npe, b * self.npe))
        return HangingBlock(
            self.elems[a:b], self.loc[s:t] - a * self.npe,
            self.gid[s:t], self.w[s:t], self.h[a:b], self.npe,
        )


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

    :meth:`apply_tables` compiles these, once per plan, into the index
    tables one traversal apply executes: a :class:`LevelBatch` per
    refinement level plus, where there are any, one :class:`HangingBlock`.  The plan belongs
    to the :class:`OperatorContext` that built it, so the tables are
    dropped and rebuilt exactly when the context is.
    """

    def __init__(self, mesh: IncompleteMesh, ctx: OperatorContext | None = None):
        self.mesh = mesh
        #: the mesh's reference element, so an apply on an explicit
        #: plan needs no operator-context lookup (and no re-hash)
        self.ref = reference_element(mesh.p, mesh.dim)
        g = ctx.gather if ctx is not None else mesh.nodes.gather.tocsr()
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
        self._tables: list[LevelBatch | HangingBlock] | None = None

    def rows(self, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slot, gid, weight) triples of element ``e``."""
        lo, hi = self.slot_ptr[e], self.slot_ptr[e + 1]
        return self.slot_idx[lo:hi], self.slot_gid[lo:hi], self.slot_w[lo:hi]

    def kernel(self, kind: str) -> tuple[np.ndarray, int]:
        """Reference elemental matrix and ``h`` exponent of a scalar
        term (``"stiffness"`` or ``"mass"``)."""
        if kind == "stiffness":
            return self.ref.K_ref, self.mesh.dim - 2
        if kind == "mass":
            return self.ref.M_ref, self.mesh.dim
        raise ValueError(f"unknown kind {kind!r}")

    def apply_tables(
        self, e_lo: int = 0, e_hi: int | None = None
    ) -> list[LevelBatch | HangingBlock]:
        """Compiled index tables of the elements ``[e_lo, e_hi)``.

        Built on first use and kept for the life of the plan; a proper
        sub-range (the distributed-memory ``owned_range``) restricts
        every table to its elements in range, empty ones dropped.
        """
        if self._tables is None:
            self._tables = self._compile()
        if e_lo <= 0 and (e_hi is None or e_hi >= self.mesh.n_elem):
            return self._tables
        tables = [t.restrict(e_lo, e_hi) for t in self._tables]
        return [t for t in tables if len(t.elems)]

    def _compile(self) -> list[LevelBatch | HangingBlock]:
        npe = self.mesh.npe
        slots = np.arange(npe, dtype=np.int64)
        ident = np.flatnonzero(self.identity_elem)
        lv = self.levels[ident]
        tables: list[LevelBatch | HangingBlock] = []
        for level in np.unique(lv):
            elems = ident[lv == level]
            tables.append(LevelBatch(
                elems,
                self.slot_gid[self.slot_ptr[elems][:, None] + slots],
                self.h[elems[:1]],
            ))
        hanging = ~self.identity_elem
        if hanging.any():
            elem_of = np.repeat(  # owning element of every slot triple
                np.arange(len(hanging), dtype=np.int64), np.diff(self.slot_ptr)
            )
            flat = np.flatnonzero(hanging[elem_of])
            row = np.cumsum(hanging)[elem_of[flat]] - 1
            elems = np.flatnonzero(hanging)
            tables.append(HangingBlock(
                elems, row * npe + self.slot_idx[flat],
                self.slot_gid[flat], self.slot_w[flat], self.h[elems], npe,
            ))
        return tables


class OperatorContext:
    """Per-mesh bundle of operator artifacts, computed once per fingerprint.

    Eagerly holds the cheap, universally needed pieces (gather CSR,
    element sizes, levels); derives the rest lazily on first use
    (scatter CSR, traversal plan, level batches, multi-field gathers)
    and keeps them for the lifetime of the mesh.
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
        self._level_batches: list[tuple[int, np.ndarray]] | None = None
        self._big_gathers: dict[int, sp.csr_matrix] = {}

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

    @property
    def level_batches(self) -> list[tuple[int, np.ndarray]]:
        """Element index batches grouped by refinement level.

        Returns ``[(level, indices), ...]`` sorted by level; the union
        of the index arrays is ``arange(n_elem)``.  Uniform-kernel
        consumers use these to apply per-level scalings without
        per-element broadcasting.
        """
        if self._level_batches is None:
            lv = self.levels
            self._level_batches = [
                (int(level), np.flatnonzero(lv == level))
                for level in np.unique(lv)
            ]
        return self._level_batches

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
