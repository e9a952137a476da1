"""One Dirichlet elimination, pinned against the code it replaced.

Every consumer of a strong constraint goes through
:class:`repro.fem.dirichlet.Dirichlet`.  The references below are the
eliminations each consumer wrote for itself before that, kept verbatim,
so "no bit moved" is checked here and not only by the digest smokes:
the serve factors of all four pde kinds on the ``cold_solve`` sphere
(bytes held and unit responses), ``TransportProblem.A`` against the
per-row ``lil`` loop, and the direct / CG Poisson solves.  The
matrix-free solve iterates on the compiled free-node operator; it is
checked against the masked form it replaced, kept here as a test-local
copy (``_masked_apply`` / ``_masked_system``): the apply bit for bit on
the free rows, the solve to 1e-12 in as many iterations.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import Domain, build_mesh
from repro.core.assembly import assemble
from repro.core.matvec import TraversalMatVec
from repro.core.mesh import IncompleteMesh, build_uniform_mesh
from repro.core.plan import operator_context
from repro.fem import poisson
from repro.fem.dirichlet import Dirichlet
from repro.fem.poisson import PoissonProblem
from repro.fem.sbm import sbm_terms
from repro.fem.transport import SupgForm, element_velocity
from repro.geometry import SphereCarve
from repro.serve import SolveRequest
from repro.serve.batcher import build_entry, ensure_factor, solve_batch
from repro.solvers import system
from repro.solvers.krylov import cg
from repro.solvers.precond import jacobi

from .test_pipeline_properties import _random_domain

#: the sphere ``cold_solve`` warms up on
SPHERE = {"shape": "sphere", "center": (0.5, 0.5, 0.5), "radius": 0.3}


def _req(pde, f=1.0, g=0.0):
    kw = {"amr_cycles": 1} if pde == "amr" else {}
    if pde == "transport":
        kw = {"steps": 3}
    return SolveRequest(geometry=SPHERE, pde=pde, base_level=3,
                        boundary_level=4, f=f, g=g, **kw)


def _built(pde):
    """A factor with every unit response its kind has, stored."""
    terms = [_req(pde)] + ([_req(pde, 0.0, 1.0)] if pde in ("poisson", "sbm")
                          else [])
    factor, _ = ensure_factor(build_entry(terms[0]), terms[0])
    solve_batch(factor, terms)
    return factor


def _csr_nbytes(A):
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


# -- the slicing the serve factors did for themselves ------------------------


def _sliced(A, fixed):
    free = np.flatnonzero(~fixed)
    fixed_idx = np.flatnonzero(fixed)
    Aff = A[np.ix_(free, free)].tocsr()
    lift = np.asarray(
        A[np.ix_(free, fixed_idx)] @ np.ones(len(fixed_idx))).ravel()
    return free, Aff, lift


def _unit(fixed, free, term, x):
    u = np.zeros(len(fixed))
    u[fixed] = float(term == "g")
    u[free] = x
    return u


def _poisson_reference(mesh, rtol):
    A = assemble(mesh, kind="stiffness")
    fixed = mesh.dirichlet_mask.copy()
    free, Aff, lift = _sliced(A, fixed)
    b_unit = operator_context(mesh).unit_load()
    M = jacobi(Aff)
    units = {}
    for term, b in (("f", b_unit[free]), ("g", -lift)):
        res = cg(Aff, b, M=M, rtol=rtol, atol=1e-14, maxiter=20 * len(free))
        units[term] = _unit(fixed, free, term, res.x)
    return _csr_nbytes(Aff) + b_unit.nbytes + lift.nbytes, units


def _sbm_reference(mesh):
    A = assemble(mesh, kind="stiffness")
    A_s, bs_unit = sbm_terms(mesh, lambda pts: np.ones(len(pts)))
    A = (A + A_s).tocsr()
    fixed = mesh.nodes.domain_boundary & ~mesh.nodes.carved_node
    free, Aff, lift = _sliced(A, fixed)
    lu = spla.splu(Aff.tocsc())
    b_unit = operator_context(mesh).unit_load()
    units = {t: _unit(fixed, free, t, lu.solve(b))
             for t, b in (("f", b_unit[free]), ("g", bs_unit[free] - lift))}
    nbytes = (_csr_nbytes(Aff) + 16 * int(lu.nnz) + b_unit.nbytes
              + bs_unit.nbytes + lift.nbytes)
    return nbytes, units


def _lil_rows(A, fixed):
    """``TransportProblem``'s row replacement before it was vectorised."""
    A = A.tolil()
    for i in np.flatnonzero(fixed):
        A.rows[i] = [i]
        A.data[i] = [1.0]
    return A.tocsc()


def _transport_reference(factor, steps):
    prob = factor.problem
    mesh = prob.mesh
    ne, npe = mesh.n_elem, mesh.npe
    ctx = operator_context(mesh)
    g = ctx.gather
    blocks = SupgForm(ctx.ref(), element_velocity(mesh, prob.vel_nodes),
                      prob.kappa, ctx.h, prob.dt).lhs_blocks(np.arange(ne))
    B = sp.bsr_matrix((blocks, np.arange(ne), np.arange(ne + 1)),
                      shape=(ne * npe, ne * npe))
    A = _lil_rows((g.T @ (B @ g)).tocsr(), mesh.dirichlet_mask)
    lu = spla.splu(A)
    b_unit = operator_context(mesh).unit_load()
    c = np.zeros(mesh.n_nodes)
    for _ in range(steps):
        rhs = prob.M_old @ c + b_unit
        rhs[mesh.dirichlet_mask] = 0.0
        c = lu.solve(rhs)
    nbytes = _csr_nbytes(A) + 16 * int(lu.nnz) + b_unit.nbytes
    return A, nbytes, {"f": c}


def _parent_solve(self, rtol=1e-10, solver="auto", x0=None):
    """``PoissonProblem.solve``'s assembled path before the module."""
    A, b, fixed = self.system()
    u = np.zeros(self.mesh.n_nodes)
    u[fixed] = self._g_at(self.mesh.node_coords()[fixed])
    free = np.flatnonzero(~fixed)
    Aff = A[np.ix_(free, free)].tocsr()
    rhs = b[free] - A[np.ix_(free, np.flatnonzero(fixed))] @ u[fixed]
    if solver == "direct" or (solver == "auto" and self.method == "sbm"):
        u[free] = spla.spsolve(Aff.tocsc(), rhs)
        return u
    start = None if x0 is None else np.asarray(x0, float)[free]
    res = cg(Aff, rhs, x0=start, M=jacobi(Aff), rtol=rtol,
             maxiter=20 * len(free))
    u[free] = res.x
    return u


@pytest.mark.parametrize("pde", ["poisson", "sbm", "transport", "amr"])
def test_factors_keep_their_bytes_and_bits(pde, monkeypatch):
    factor = _built(pde)
    mesh = build_entry(_req(pde)).mesh
    if pde == "poisson":
        nbytes, units = _poisson_reference(mesh, min(_req(pde).tol, 1e-2))
    elif pde == "sbm":
        nbytes, units = _sbm_reference(mesh)
    elif pde == "transport":
        A, nbytes, units = _transport_reference(factor, _req(pde).steps)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(factor.problem.A, part),
                                  getattr(A, part))
    else:  # the trajectory's solves, through the parent's slicing
        monkeypatch.setattr(PoissonProblem, "solve", _parent_solve)
        ref = _built(pde)
        nbytes, units = ref.nbytes - 8 * ref.n_nodes, {"f": ref.units["f"].u}
    # + the stored unit responses, counted from build
    assert factor.nbytes == nbytes + 8 * factor.n_nodes * len(units)
    assert sorted(factor.units) == sorted(units)
    for term, u in units.items():
        assert factor.units[term].u.tobytes() == u.tobytes(), term


# -- the standalone solves ----------------------------------------------------


@pytest.fixture(scope="module")
def carved():
    return build_mesh(Domain(SphereCarve([0.5, 0.5], 0.25)), 3, 5, p=1)


@pytest.mark.parametrize("method,solver", [("nodal", "auto"), ("sbm", "auto")])
def test_assembled_solves_keep_their_bits(carved, method, solver):
    g = lambda pts: 1.0 + pts[:, 0] - 2.0 * pts[:, 1]  # noqa: E731
    prob = PoissonProblem(carved, f=2.5, dirichlet=g, method=method)
    x0 = np.linspace(0.0, 1.0, carved.n_nodes)
    for start in (None, x0):
        got = prob.solve(solver=solver, x0=start)
        assert got.tobytes() == _parent_solve(prob, solver=solver,
                                              x0=start).tobytes()


def _carve(dim, p, levels):
    """A generated carve union, one seed per (dim, p)."""
    rng = np.random.default_rng(29 + dim + 10 * p)
    return build_mesh(_random_domain(rng, dim), *levels, p=p)


_CONSTRAINED_MESHES = {
    "carve-2d-p1": lambda: _carve(2, 1, (2, 5)),
    "carve-2d-p2": lambda: _carve(2, 2, (2, 4)),
    "carve-3d-p1": lambda: _carve(3, 1, (2, 4)),
    "carve-3d-p2": lambda: _carve(3, 2, (2, 3)),
    "no-hanging-slot": lambda: build_uniform_mesh(
        Domain(SphereCarve([0.5, 0.5], 0.25)), 3),
    # with the mask below, every node is free
    "no-fixed-node": lambda: build_mesh(
        Domain(SphereCarve([0.5, 0.5], 0.3)), 2, 4, p=2),
}


@pytest.mark.parametrize("case", list(_CONSTRAINED_MESHES))
def test_constrained_apply_is_the_masked_apply_on_the_free_rows(case, monkeypatch):
    """The compiled free-node operator against the masked whole-mesh
    apply, bit for bit, on every free row."""
    if case == "no-fixed-node":
        monkeypatch.setattr(IncompleteMesh, "dirichlet_mask",
                            property(lambda m: np.zeros(m.n_nodes, bool)))
    mesh = _CONSTRAINED_MESHES[case]()
    plan = operator_context(mesh).traversal
    assert plan.identity_elem.all() == (case == "no-hanging-slot")
    fixed = mesh.dirichlet_mask
    assert fixed.any() != (case == "no-fixed-node")
    op = operator_context(mesh).constrained_stiffness()
    assert np.array_equal(op.free_idx, np.flatnonzero(~fixed))
    masked = _masked_apply(fixed, TraversalMatVec(mesh))
    rng = np.random.default_rng(0)
    for _ in range(3):
        u = rng.standard_normal(mesh.n_nodes)
        assert np.array_equal(op(u[op.free_idx]), masked(u)[op.free_idx])
    # the solve tables are the full-length ones on the free rows, shared
    ctx = operator_context(mesh)
    assert np.array_equal(op.unit_load, ctx.unit_load()[op.free_idx])
    assert np.array_equal(op.diag, ctx.jacobi_diagonal()[op.free_idx])
    assert ctx.constrained_stiffness() is op
    for table in (op.free_idx, op.diag, op.unit_load):
        assert not table.flags.writeable


def _masked_apply(fixed, apply):
    """``apply`` with identity on the fixed rows and columns — the masked
    form ``Dirichlet.masked_apply`` had, before every matrix-free solve
    iterated on the free nodes."""
    fixed = np.flatnonzero(fixed)

    def op(u):
        v = np.array(u, float)
        v[fixed] = 0.0
        w = apply(v)
        w[fixed] = u[fixed]
        return w

    return op


def _masked_system(prob):
    """``PoissonProblem.masked_system`` as it was: ``(bc, op, b, diag)``
    on full-length vectors, the lifted load 0 and the diagonal 1 where
    fixed."""
    mesh = prob.mesh
    ctx = operator_context(mesh)
    bc = Dirichlet(mesh.dirichlet_mask, prob._g_nodes())
    apply = TraversalMatVec(mesh, plan=ctx.traversal)
    b = poisson.load_vector(mesh, prob.f)
    if bc.u_fix.any():
        b = b - apply(bc.u_fix)
    b = np.where(bc.free, b, 0.0)
    diag = ctx.jacobi_diagonal()
    diag = np.where(bc.free & (diag > 0), diag, 1.0)
    return bc, _masked_apply(bc.fixed, apply), b, diag


def _masked_solve(prob, rtol, x0):
    """The matrix-free solve on full-length vectors: the masked system."""
    bc, op, b, diag = _masked_system(prob)
    start = None if x0 is None else np.where(bc.free, x0, 0.0)
    res = cg(op, b, x0=start, M=lambda r: r / diag, rtol=rtol,
             maxiter=20 * prob.mesh.n_nodes)
    return bc.expand(res.x[bc.free_idx]), res.iterations


@pytest.fixture(scope="module")
def carved_3d_p2():
    return build_mesh(Domain(SphereCarve([0.5, 0.5, 0.5], 0.3)), 2, 3, p=2)


@pytest.mark.parametrize("with_x0", [False, True], ids=["cold", "x0"])
@pytest.mark.parametrize("g", ["zero", "constant", "callable"])
@pytest.mark.parametrize("fixture", ["carved", "carved_3d_p2"])
def test_matrix_free_solve_is_the_masked_solve(fixture, g, with_x0, request,
                                               monkeypatch):
    """CG on the free nodes takes the masked solve's iterations and lands
    within 1e-12 of it (its dot products run over fewer entries)."""
    mesh = request.getfixturevalue(fixture)
    data = {"zero": 0.0, "constant": 0.75,
            "callable": lambda pts: 1.0 + pts[:, 0] - 2.0 * pts[:, 1]}[g]
    prob = PoissonProblem(mesh, f=2.5, dirichlet=data)
    x0 = np.linspace(-1.0, 1.0, mesh.n_nodes) if with_x0 else None
    iterations = []

    def counted_cg(*args, **kwargs):
        res = cg(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(system, "cg", counted_cg)
    for rtol in (1e-2, 1e-10):
        got = prob.solve(solver="matrix-free", rtol=rtol, x0=x0)
        want, its = _masked_solve(prob, rtol, x0)
        assert iterations.pop() == its
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        fixed = mesh.dirichlet_mask
        assert got[fixed].tobytes() == want[fixed].tobytes()


# -- the three forms against their literal expressions ------------------------


def test_forms_match_their_literal_expressions(carved):
    A = assemble(carved)
    fixed = carved.dirichlet_mask
    vals = np.where(fixed, carved.node_coords()[:, 0] - 0.5, 0.0)
    bc = Dirichlet(fixed, vals)
    b = np.linspace(-1.0, 1.0, carved.n_nodes)
    keep = sp.diags((~fixed).astype(float))
    ident = sp.diags(fixed.astype(float))
    A_bc, b_bc = bc.masked(A, b)
    want = (keep @ A @ keep + ident).tocsr()
    assert (A_bc != want).nnz == 0
    assert b_bc.tobytes() == (keep @ (b - A @ vals) + vals).tobytes()
    assert (bc.replace_rows(A).tocsc() != _lil_rows(A, fixed)).nnz == 0
    rhs = bc.replace_values(b.copy())
    assert np.array_equal(rhs[fixed], vals[fixed])
    assert np.array_equal(rhs[~fixed], b[~fixed])
    # sliced: solving the free block and expanding solves the masked system
    x = spla.spsolve(bc.A_ff(A).tocsc(), bc.rhs(A, b))
    u = bc.expand(x)
    assert np.abs(A_bc @ u - b_bc).max() < 1e-10
    assert np.array_equal(bc.expand(x, 0.0)[fixed], np.zeros(fixed.sum()))


@pytest.mark.parametrize("fixed,values,match", [
    (np.zeros(5, int), 0.0, "dirichlet_mask"),
    (np.zeros((5, 1), bool), 0.0, "dirichlet_mask"),
    (np.zeros(5, bool), np.zeros(4), "dirichlet values"),
    (np.ones(5, bool), np.nan, "dirichlet"),
])
def test_bad_constraints_are_named(fixed, values, match):
    with pytest.raises(ValueError, match=match):
        Dirichlet(fixed, values)


def test_mask_length_is_checked_against_the_nodes():
    with pytest.raises(ValueError, match=r"dirichlet_mask .*\(6,\)"):
        Dirichlet(np.zeros(5, bool), n=6)
    # non-finite data on a free node is never read
    bc = Dirichlet(np.array([True, False]), np.array([1.0, np.nan]))
    assert np.array_equal(bc.u_fix, [1.0, 0.0])
