"""On-the-fly refinement and coarsening of incomplete octrees.

The paper advertises "on-the-fly refinement and coarsening that matches
the arbitrary function within the refinement tolerance" and lists the
point-cloud criterion ("containing more than a maximal number of points
from an initial point cloud") among the §3.2 refinement drivers.  This
module supplies both directions:

* :func:`refine_leaves` — split marked leaves into their children
  (pruning any carved child);
* :func:`coarsen_leaves` — replace complete sibling groups whose
  members are all marked (and whose parent is not carved) by their
  parent; carved siblings count as implicitly present, so carving never
  blocks coarsening at the boundary;
* :func:`construct_from_points` — Algorithm-1-style construction where
  a leaf splits while it holds more than ``max_points`` cloud points.

All three return SFC-sorted linear octrees; callers re-balance with
:func:`repro.core.balance.balance_2to1` before building nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.predicate import RegionLabel
from .domain import Domain
from .octant import OctantSet, children, max_level, parent
from .sfc import cached_keys, get_curve
from .treesort import block_ends, remove_duplicates, tree_sort

__all__ = [
    "AdaptMap",
    "refine_leaves",
    "coarsen_leaves",
    "leaf_correspondence",
    "construct_from_points",
]


@dataclass(frozen=True)
class AdaptMap:
    """Old ↔ new leaf correspondence across a refine/coarsen step.

    Stored as a CSR new→old map: new leaf ``i`` derives from old leaves
    ``src_idx[src_ptr[i]:src_ptr[i+1]]`` — exactly one entry when the
    leaf is unchanged or a refinement child, the full sibling group when
    it is a coarsening parent.  The map is total (every new leaf has at
    least one source) and the images are disjoint except for coarsening
    parents sharing their sibling sources.
    """

    n_old: int
    n_new: int
    src_ptr: np.ndarray
    src_idx: np.ndarray

    def sources(self, i: int) -> np.ndarray:
        """Old leaf indices that new leaf ``i`` derives from."""
        return self.src_idx[self.src_ptr[i] : self.src_ptr[i + 1]]

    def single_source(self) -> np.ndarray:
        """Per-new-leaf old index where unique, else -1 (coarsened)."""
        cnt = np.diff(self.src_ptr)
        out = np.full(self.n_new, -1, np.int64)
        one = cnt == 1
        out[one] = self.src_idx[self.src_ptr[:-1][one]]
        return out

    def old_to_new(self) -> tuple[np.ndarray, np.ndarray]:
        """Inverse CSR: per-old-leaf list of derived new leaves."""
        order = np.argsort(self.src_idx, kind="stable")
        cnt = np.bincount(self.src_idx, minlength=self.n_old)
        ptr = np.zeros(self.n_old + 1, np.int64)
        np.cumsum(cnt, out=ptr[1:])
        rows = np.repeat(
            np.arange(self.n_new, dtype=np.int64), np.diff(self.src_ptr)
        )
        return ptr, rows[order]

    def is_total(self) -> bool:
        """Every new leaf has at least one old source."""
        return bool((np.diff(self.src_ptr) >= 1).all())


def leaf_correspondence(
    old_leaves: OctantSet, new_leaves: OctantSet, curve: str = "morton"
) -> AdaptMap:
    """Match two SFC-sorted linear octrees of the same domain leaf-wise.

    Each new leaf is equal to, a descendant of, or an ancestor of the
    old leaves covering its SFC block, so its sources are either the
    single containing old leaf or the contiguous run of old descendants
    inside its block.  Works across any refine/coarsen/balance
    combination, including carved-child pruning.
    """
    dim = old_leaves.dim
    oracle = get_curve(curve)
    ok = cached_keys(old_leaves, oracle)
    oe = block_ends(ok, old_leaves.levels, dim)
    nk = cached_keys(new_leaves, oracle)
    ne = block_ends(nk, new_leaves.levels, dim)
    n_new = len(new_leaves)
    j = np.searchsorted(ok, nk, side="right") - 1
    jc = np.clip(j, 0, max(len(old_leaves) - 1, 0))
    contained = (j >= 0) & (nk >= ok[jc]) & (ne <= oe[jc])
    lo = np.searchsorted(ok, nk, side="left")
    hi = np.searchsorted(ok, ne, side="left")
    cnt = np.where(contained, 1, hi - lo)
    ptr = np.zeros(n_new + 1, np.int64)
    np.cumsum(cnt, out=ptr[1:])
    idx = np.empty(int(ptr[-1]), np.int64)
    ci = np.flatnonzero(contained)
    idx[ptr[:-1][ci]] = jc[ci]
    di = np.flatnonzero(~contained)
    if len(di):
        total = int((hi[di] - lo[di]).sum())
        rep = np.repeat(lo[di], hi[di] - lo[di])
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(hi[di] - lo[di])[:-1]]).astype(
                np.int64
            ),
            hi[di] - lo[di],
        )
        dest = np.repeat(ptr[:-1][di], hi[di] - lo[di]) + offs
        idx[dest] = rep + offs
    amap = AdaptMap(
        n_old=len(old_leaves), n_new=n_new, src_ptr=ptr, src_idx=idx
    )
    if not amap.is_total():
        raise RuntimeError(
            "leaf correspondence is not total — are both octrees "
            "linearizations of the same domain?"
        )
    return amap


def refine_leaves(
    domain: Domain,
    leaves: OctantSet,
    marks: np.ndarray,
    curve: str = "morton",
) -> OctantSet:
    """Split marked leaves; carved children are pruned immediately."""
    marks = np.asarray(marks, bool)
    if len(marks) != len(leaves):
        raise ValueError("one mark per leaf required")
    m = max_level(leaves.dim)
    splittable = marks & (leaves.levels < m)
    keep = leaves[np.flatnonzero(~splittable)]
    kids = children(leaves[np.flatnonzero(splittable)])
    if len(kids):
        lab = domain.classify_octants(kids)
        kids = kids[np.flatnonzero(lab != RegionLabel.CARVED)]
    out = OctantSet.concatenate([keep, kids]) if len(kids) else keep
    return tree_sort(out, curve)[0]


def coarsen_leaves(
    domain: Domain,
    leaves: OctantSet,
    marks: np.ndarray,
    min_level: int = 0,
    curve: str = "morton",
) -> OctantSet:
    """Merge sibling groups into parents where permitted.

    A parent replaces its children when (a) every *retained* child is a
    marked leaf of the group — children missing because they were
    carved do not block the merge — (b) the parent is itself not
    carved, and (c) the parent level is >= ``min_level``.
    """
    marks = np.asarray(marks, bool)
    if len(marks) != len(leaves):
        raise ValueError("one mark per leaf required")
    dim = leaves.dim
    oracle = get_curve(curve)
    cand = np.flatnonzero(marks & (leaves.levels > min_level))
    if len(cand) == 0:
        return tree_sort(leaves, curve)[0]
    pars = parent(leaves[cand])
    pkeys = cached_keys(pars, oracle)
    plev = pars.levels
    # group candidate children by (parent key, parent level)
    order = np.lexsort((plev, pkeys))
    pk, pl = pkeys[order], plev[order]
    new = np.ones(len(order), bool)
    new[1:] = (pk[1:] != pk[:-1]) | (pl[1:] != pl[:-1])
    gid = np.cumsum(new) - 1
    # count retained children of each parent among ALL leaves (not just
    # marked): a parent group is mergeable only if every retained child
    # in the mesh is a marked candidate
    all_pars = parent(leaves)
    apk = cached_keys(all_pars, oracle)
    apl = all_pars.levels
    merge_parents = []
    drop = np.zeros(len(leaves), bool)
    reps = order[new]  # representative candidate per group
    for g, rep in enumerate(reps):
        members = cand[order[gid == g]]
        key, lev = pkeys[rep], plev[rep]
        in_mesh = np.flatnonzero(
            (apk == key) & (apl == lev) & (leaves.levels == leaves.levels[cand[order[gid == g]][0]])
        )
        # all same-level retained siblings must be marked candidates
        if not np.isin(in_mesh, members).all() or len(in_mesh) != len(members):
            continue
        pgroup = pars[int(np.flatnonzero(cand == members[0])[0])]
        lab = domain.classify_octants(pgroup)[0]
        if lab == RegionLabel.CARVED:
            continue
        merge_parents.append(pgroup)
        drop[members] = True
    keep = leaves[np.flatnonzero(~drop)]
    if merge_parents:
        merged = OctantSet.concatenate([keep] + merge_parents)
    else:
        merged = keep
    merged = remove_duplicates(merged, oracle)
    return tree_sort(merged, curve)[0]


def construct_from_points(
    domain: Domain,
    points: np.ndarray,
    max_points: int,
    max_depth: int | None = None,
    curve: str = "morton",
) -> OctantSet:
    """Point-cloud-driven construction (§3.2's third criterion).

    Retained leaves split while they contain more than ``max_points``
    of the cloud (points in carved regions never force refinement —
    they are discarded with their octants).
    """
    pts = np.asarray(points, float)
    dim = domain.dim
    m = max_level(dim)
    cap = max_depth if max_depth is not None else m
    if max_points < 1:
        raise ValueError("max_points must be >= 1")
    oracle = get_curve(curve)
    # integer cell coords of each point at the finest level
    ipts = np.clip(
        (pts / domain.scale * (1 << m)).astype(np.int64), 0, (1 << m) - 1
    ).astype(np.uint32)
    pkeys = np.sort(oracle.keys_from_coords(ipts, dim))

    from .treesort import block_ends

    frontier = OctantSet.root(dim)
    out = []
    while len(frontier):
        lab = domain.classify_octants(frontier)
        retained = np.flatnonzero(lab != RegionLabel.CARVED)
        frontier = frontier[retained]
        if not len(frontier):
            break
        keys = cached_keys(frontier, oracle)
        ends = block_ends(keys, frontier.levels, dim)
        counts = np.searchsorted(pkeys, ends) - np.searchsorted(pkeys, keys)
        split = (counts > max_points) & (frontier.levels < min(cap, m))
        out.append(frontier[np.flatnonzero(~split)])
        frontier = children(frontier[np.flatnonzero(split)])
    leaves = OctantSet.concatenate(out)
    return tree_sort(leaves, curve)[0]
