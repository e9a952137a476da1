"""Recursive traversal MATVEC (§3.5) — the test oracle.

The literal tree walk of the paper: a top-down pass buckets nodal
values to child subtrees (duplicating nodes incident on several
children) until each leaf holds its elemental nodes contiguously;
hanging slots are interpolated from the coarser-level nodes present in
the leaf's bucket or an ancestor's; after the elemental apply, a
bottom-up pass accumulates duplicated node instances back to a single
value.  The walk is restricted to existing octants, which is what makes
it work on incomplete trees.

Production code runs the flat slot-table form of the same algorithm
(:func:`repro.core.matvec.traversal_matvec`); this module exists so
tests and ``benchmarks/bench_ablation_matvec.py`` can hold that form to
the walk it was derived from.  Nothing else imports it.
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from .mesh import IncompleteMesh
from .octant import max_level
from .plan import TraversalPlan, operator_context

__all__ = ["recursive_traversal_matvec"]


def recursive_traversal_matvec(
    mesh: IncompleteMesh,
    u: np.ndarray,
    kind: str = "stiffness",
    plan: TraversalPlan | None = None,
    owned_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Same contract as :func:`repro.core.matvec.traversal_matvec`,
    executed by recursion over the tree, one Python frame per octant."""
    if plan is None:
        plan = operator_context(mesh).traversal
    ker, pw = plan.kernel(kind)
    dim = mesh.dim
    m = max_level(dim)
    e_lo, e_hi = owned_range if owned_range is not None else (0, mesh.n_elem)
    # prefix sums make "is the block [a, b) all-identity?" O(1)
    ident_cum = np.concatenate(
        [[0], np.cumsum(plan.identity_elem, dtype=np.int64)]
    )

    out = np.zeros_like(u)
    two_p = 2 * mesh.p

    coords = plan.coords
    keys, levels, h = plan.keys, plan.levels, plan.h

    # the traversal carries a stack of (ids, vals, out_vals) bucket
    # frames, one per tree level on the current path; hanging-slot
    # donors missing from a leaf's own bucket are interpolated from the
    # nearest ancestor bucket that holds them ("interpolated from the
    # immediate parent" in the paper — ancestors, for hanging chains)
    frames: list[list] = []

    def _leaf_apply(e: int) -> None:
        with span("matvec.leaf", merge=True) as lsp:
            sidx, gid, sw = plan.rows(e)
            # locate each needed node in the deepest frame that carries it
            val_in = np.empty(len(gid))
            frame_of = np.empty(len(gid), np.int64)
            pos_of = np.empty(len(gid), np.int64)
            todo = np.arange(len(gid))
            for fi in range(len(frames) - 1, -1, -1):
                if len(todo) == 0:
                    break
                ids_f = frames[fi][0]
                pos = np.searchsorted(ids_f, gid[todo])
                posc = np.clip(pos, 0, max(len(ids_f) - 1, 0))
                hit = (
                    (pos < len(ids_f)) & (ids_f[posc] == gid[todo])
                    if len(ids_f)
                    else np.zeros(len(todo), bool)
                )
                sel = todo[hit]
                frame_of[sel] = fi
                pos_of[sel] = posc[hit]
                val_in[sel] = frames[fi][1][posc[hit]]
                todo = todo[~hit]
            if len(todo):
                raise RuntimeError("traversal path missing elemental nodes")
            u_loc = np.zeros(mesh.npe)
            np.add.at(u_loc, sidx, sw * val_in)
            w_loc = (h[e] ** pw) * (ker @ u_loc)
            contrib = sw * w_loc[sidx]
            for fi in np.unique(frame_of):
                sel = frame_of == fi
                np.add.at(frames[fi][2], pos_of[sel], contrib[sel])
            lsp.add("elements", 1)

    def _leaf_apply_batch(a: int, b: int) -> None:
        """Apply an SFC-contiguous block of identity (non-hanging)
        elements as one batched matmul against the current bucket."""
        with span("matvec.leaf", merge=True) as lsp:
            ids_f, vals_f, out_f = frames[-1]
            gid = plan.slot_gid[plan.slot_ptr[a] : plan.slot_ptr[b]].reshape(
                b - a, mesh.npe
            )
            pos = np.searchsorted(ids_f, gid)
            posc = np.clip(pos, 0, max(len(ids_f) - 1, 0))
            if len(ids_f) == 0 or not np.all(ids_f[posc] == gid):
                raise RuntimeError("traversal path missing elemental nodes")
            u_loc = vals_f[posc]
            w_loc = (h[a:b] ** pw)[:, None] * (u_loc @ ker.T)
            np.add.at(out_f, posc, w_loc)
            lsp.add("elements", b - a)

    def recurse(lo: int, hi: int, box_lo: np.ndarray, level: int) -> None:
        a_own, b_own = max(lo, e_lo), min(hi, e_hi)
        if a_own < b_own and ident_cum[b_own] - ident_cum[a_own] == b_own - a_own:
            _leaf_apply_batch(a_own, b_own)
            return
        if hi - lo == 1 and levels[lo] == level:
            _leaf_apply(lo)
            return
        half = np.int64(1) << np.int64(m - level - 1)
        for c in range(1 << dim):
            empty = False
            with span("matvec.top_down", merge=True) as tsp:
                off = np.array([(c >> j) & 1 for j in range(dim)], np.int64)
                c_lo = box_lo + off * half
                ck = plan.oracle.keys_from_coords(
                    c_lo.astype(np.uint32)[None, :], dim
                )[0]
                kspan = np.uint64(1) << np.uint64(dim * (m - level - 1))
                a = int(np.searchsorted(keys, ck, side="left"))
                b = int(np.searchsorted(keys, ck + kspan, side="left"))
                a, b = max(a, lo), min(b, hi)
                if a >= b or b <= e_lo or a >= e_hi:
                    empty = True
                else:
                    # bucket: nodes incident on the closed child box
                    # (2p units)
                    ids, vals, out_vals = frames[-1]
                    nlo = two_p * c_lo
                    nhi = two_p * (c_lo + half)
                    pts = coords[ids]
                    sel = np.flatnonzero(
                        np.all((pts >= nlo) & (pts <= nhi), axis=1)
                    )
                    frames.append([ids[sel], vals[sel], np.zeros(len(sel))])
                    tsp.add("bucketed_nodes", len(sel))
            if empty:
                continue
            recurse(a, b, c_lo, level + 1)
            with span("matvec.bottom_up", merge=True) as bsp:
                child = frames.pop()
                np.add.at(out_vals, sel, child[2])
                bsp.add("merged_nodes", len(sel))

    ids0 = np.arange(mesh.n_nodes, dtype=np.int64)
    with span("matvec.traversal"):
        frames.append([ids0, np.asarray(u, float), np.zeros(mesh.n_nodes)])
        recurse(0, mesh.n_elem, np.zeros(dim, np.int64), 0)
    out[:] = frames[0][2]
    return out
