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

import numpy as np

from ..geometry.predicate import RegionLabel
from .domain import Domain
from .octant import OctantSet, children, max_level, parent
from .sfc import cached_keys, get_curve
from .treesort import block_ends, remove_duplicates, tree_sort

__all__ = ["refine_leaves", "coarsen_leaves", "construct_from_points"]


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
