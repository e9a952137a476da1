"""Tests for repro.kernels: one numpy kernel set behind a counted facade.

Covers bit-stability of the kernels, production assembly against the
paper's §3.6 traversal assembly, chunked assembly against one product,
the refusal of anything that still tries to select a backend, and the
measured roofline counters the facade publishes.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro import Domain, build_mesh, obs
from repro.analysis import measured_kernel_points
from repro.core.assembly import assemble
from repro.core.matvec import MapBasedMatVec, traversal_matvec
from repro.core.plan import operator_context
from repro.fem.navier_stokes import NavierStokesProblem
from repro.fem.sbm import sbm_terms
from repro.fem.transport import TransportProblem
from repro.geometry import BoxRetain, SphereCarve, SphereRetain
from repro.kernels import available_backends, numpy_backend, use_backend
from repro.serve import SolveRequest

from .oracles.assembly import assemble_traversal

pytestmark = pytest.mark.kernels


@pytest.fixture(scope="module")
def sphere_mesh():
    return build_mesh(Domain(SphereCarve([0.62, 0.38], 0.2)), 3, 5, p=1)


@pytest.fixture(scope="module")
def channel_mesh():
    dom = Domain(
        BoxRetain([0, 0, 0], [4, 1, 1], domain=([0, 0, 0], [4, 4, 4])),
        scale=4.0,
    )
    return build_mesh(dom, 2, 3, p=1)


# -- no selector -----------------------------------------------------------


def test_registered_backends_and_availability():
    assert available_backends() == {"numpy": True}


def test_unknown_backend_raises():
    for name in ("einsum", "nope"):
        with pytest.raises(ValueError, match=name):
            with use_backend(name):
                pass  # pragma: no cover
    # the two values the frozen e2e harness passes
    with use_backend(None), use_backend("numpy"):
        pass


def test_request_backend_validation():
    """``SolveRequest`` has no backend field: a document that still
    names one is refused like any other unknown field."""
    doc = SolveRequest(
        geometry={"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3},
        base_level=2, boundary_level=3,
    ).to_doc()
    assert "backend" not in doc
    SolveRequest.from_doc(doc)
    with pytest.raises(ValueError, match="unknown request fields.*backend"):
        SolveRequest.from_doc({**doc, "backend": "numpy"})


# -- bit-stability and the assembly oracle ---------------------------------


def test_numpy_backend_is_bit_stable(sphere_mesh):
    mesh = sphere_mesh
    u = np.random.default_rng(0).standard_normal(mesh.n_nodes)
    mv = MapBasedMatVec(mesh)
    assert mv(u).tobytes() == mv(u).tobytes()
    y1 = traversal_matvec(mesh, u)
    y2 = traversal_matvec(mesh, u)
    assert y1.tobytes() == y2.tobytes()
    A1, A2 = assemble(mesh), assemble(mesh)
    assert A1.data.tobytes() == A2.data.tobytes()
    assert A1.indices.tobytes() == A2.indices.tobytes()


def _csr_case(case, mesh):
    """A CSR matrix and a vector for one ``csr_matvec`` case."""
    rng = np.random.default_rng(3)
    if case == "padded_program":  # both CSRs of a constrained program
        prog = operator_context(mesh).constrained_stiffness().program
        interp, scatter = prog.hanging.interp, prog.scatter(mesh.dim - 2)
        return [(interp, np.append(rng.standard_normal(prog.n_nodes), 0.0)),
                (scatter, rng.standard_normal(scatter.shape[1]))]
    A = sp.random(40, 30, density=0.15, format="csr", random_state=4)
    x = rng.standard_normal(30)
    if case == "empty_rows":
        dense = A.toarray()
        dense[::3] = 0.0
        A = sp.csr_matrix(dense)
        assert (np.diff(A.indptr) == 0).sum() >= 14
    elif case == "int64":
        A.indices, A.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
    elif case == "signed_zeros":
        A.data[::4] = -0.0
        x[::3] = -0.0
    elif case == "strided_x":
        x = rng.standard_normal(90)[::3]
        assert not x.flags.c_contiguous
    return [(A, x)]


@pytest.mark.parametrize("case", ["empty_rows", "int32", "int64",
                                  "padded_program", "signed_zeros",
                                  "strided_x"])
def test_csr_matvec_is_the_product_to_the_bit(case, sphere_mesh):
    """``NumpyKernels.csr_matvec`` runs the loop ``A @ x`` runs: the same
    dtype and bytes on every input the kernels hand it, and a refusal,
    not a heap read, of a vector or matrix the loop cannot take."""
    K = numpy_backend.KERNELS
    for A, x in _csr_case(case, sphere_mesh):
        assert A.indices.dtype == (np.int64 if case == "int64" else np.int32)
        want, got = A @ x, K.csr_matvec(A, x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for bad in (x[:-1], np.append(x, 1.0), np.ones((len(x), 2))):
            with pytest.raises(ValueError, match="one vector"):
                K.csr_matvec(A, bad)
        with pytest.raises(ValueError, match="csc"):
            K.csr_matvec(A.tocsc(), x)


@pytest.mark.parametrize("case", ["sphere", "channel"])
@pytest.mark.parametrize("kind", ["stiffness", "mass"])
def test_assembly_equivalence(sphere_mesh, channel_mesh, case, kind):
    """Production assembly equals the paper's §3.6 traversal assembly —
    on the channel, the only 3-D check of one against the other."""
    mesh = sphere_mesh if case == "sphere" else channel_mesh
    A = assemble(mesh, kind=kind)
    A_ref = assemble_traversal(mesh, kind=kind)
    assert A.shape == A_ref.shape
    assert abs(A - A_ref).max() < 1e-12


# -- row-chunked assembly --------------------------------------------------

#: small enough that every case below assembles in >= 4 chunks
SMALL_CHUNK_BYTES = 1 << 14


def _sphere(dim, p, base, boundary):
    return build_mesh(Domain(SphereCarve([0.5] * dim, 0.3)), base, boundary, p=p)


def _poisson(dim, p, base, boundary):
    mesh = _sphere(dim, p, base, boundary)
    return [assemble(mesh, kind=kind) for kind in ("stiffness", "mass")]


def _sbm(predicate):
    mesh = build_mesh(Domain(predicate), 2, 4, p=1)
    return [sbm_terms(mesh, lambda x: np.sin(3 * x[:, 0]) + x[:, 1])[0]]


def _transport():
    tp = TransportProblem(_sphere(3, 1, 2, 3),
                          lambda x: np.stack([1 + 0 * x[:, 0], x[:, 2], -x[:, 1]], 1),
                          kappa=1e-3, dt=0.05)
    return [tp.A, tp.M_old]


def _ns(dt):
    mesh = build_mesh(Domain(SphereCarve([0.4, 0.5, 0.5], 0.15)), 2, 4, p=1)
    ns = NavierStokesProblem(
        mesh, nu=0.02, dt=dt,
        velocity_bc=lambda x: (np.isclose(x, 0.0), np.isclose(x, 0.0) * 1.0))
    rng = np.random.default_rng(1)
    x_old = None if dt == np.inf else rng.standard_normal(4 * mesh.n_nodes)
    A, b = ns._assemble(rng.standard_normal((mesh.n_nodes, 3)), x_old)
    return [A, b]


CHUNK_CASES = {
    "poisson-2d-p1": lambda: _poisson(2, 1, 4, 6),
    "poisson-2d-p2": lambda: _poisson(2, 2, 3, 5),
    "poisson-3d-p1": lambda: _poisson(3, 1, 2, 3),
    "poisson-3d-p2": lambda: _poisson(3, 2, 2, 3),
    "sbm-retained-ball": lambda: _sbm(SphereRetain([0.5] * 3, 0.4)),
    "sbm-carved-ball": lambda: _sbm(SphereCarve([0.5] * 3, 0.3)),
    "transport": _transport,
    "ns-steady": lambda: _ns(np.inf),
    "ns-unsteady": lambda: _ns(0.1),
}


def _chunked(monkeypatch, budget, build):
    """``build()`` under a chunk budget, and the chunk sizes of each
    ``kernels.assemble`` call it made."""
    monkeypatch.setattr(numpy_backend, "ASSEMBLY_CHUNK_BYTES", budget)
    calls = []
    real_assemble, real_inner = numpy_backend.KERNELS.assemble, numpy_backend._inner

    def assemble_(*args):
        calls.append([])
        return real_assemble(*args)

    def inner(form, e, gather):
        calls[-1].append(len(e))
        return real_inner(form, e, gather)

    monkeypatch.setattr(numpy_backend.KERNELS, "assemble", assemble_)
    monkeypatch.setattr(numpy_backend, "_inner", inner)
    out = build()
    monkeypatch.undo()
    return out, calls


def _bits(M):
    if isinstance(M, np.ndarray):
        return [M.tobytes()]
    return [M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes()]


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunked_assembly_is_bit_identical(case, monkeypatch):
    """Row-chunked assembly gives the one-chunk product to the bit: every
    entry sums the same products in the order ``scatter`` stores them,
    whichever chunk forms its element blocks."""
    build = CHUNK_CASES[case]
    whole, whole_calls = _chunked(monkeypatch, 1 << 62, build)
    small, small_calls = _chunked(monkeypatch, SMALL_CHUNK_BYTES, build)
    assert whole_calls and all(len(c) == 1 for c in whole_calls)
    assert [sum(c) for c in small_calls] == [sum(c) for c in whole_calls]
    assert all(len(c) >= 4 for c in small_calls), small_calls
    for A, B in zip(whole, small):
        assert _bits(A) == _bits(B)


def test_chunked_assembly_is_one_counted_call(monkeypatch):
    """One assembly is one ``kernels.assemble`` call however many chunks
    it walks, with the modelled work of every block formed once."""
    mesh = _sphere(3, 1, 2, 3)
    monkeypatch.setattr(numpy_backend, "ASSEMBLY_CHUNK_BYTES", SMALL_CHUNK_BYTES)
    obs.reset()
    obs.enable()
    try:
        A = assemble(mesh)
        (cell,) = [m for m in measured_kernel_points() if m.kernel == "assemble"]
    finally:
        obs.disable()
    g, ne, bs = operator_context(mesh).gather, mesh.n_elem, mesh.npe
    assert cell.calls == 1
    assert cell.flops == 2.0 * ne * bs * bs
    assert cell.bytes == (8.0 * ne * bs * bs + g.data.nbytes + g.indices.nbytes
                          + 12.0 * A.nnz)


# -- measured roofline counters -------------------------------------------


def test_counters_published_and_parsed(sphere_mesh, tmp_path):
    mesh = sphere_mesh
    u = np.linspace(0.0, 1.0, mesh.n_nodes)
    obs.reset()
    obs.enable()
    try:
        MapBasedMatVec(mesh)(u)
        traversal_matvec(mesh, u)
        live = measured_kernel_points()
        path = tmp_path / "kernels_artifact.json"
        obs.write_artifact(str(path), "kernels-test")
    finally:
        obs.disable()
    cells = {(m.kernel, m.backend) for m in live}
    assert ("gather", "numpy") in cells
    assert ("elem_apply", "numpy") in cells
    assert ("scatter", "numpy") in cells
    assert ("traversal", "numpy") in cells
    for m in live:
        assert m.calls >= 1 and m.flops > 0 and m.bytes > 0
        assert m.arithmetic_intensity > 0
        assert 0.0 <= m.fraction_of_peak
    # the same points reconstruct from the written run artifact ...
    from_path = measured_kernel_points(str(path))
    assert [m.to_doc() for m in from_path] == [m.to_doc() for m in live]
    # ... and from the loaded document
    doc = json.loads(path.read_text())
    from_doc = measured_kernel_points(doc)
    assert [m.to_doc() for m in from_doc] == [m.to_doc() for m in live]


def test_counters_silent_when_tracing_off(sphere_mesh):
    obs.reset()
    u = np.linspace(0.0, 1.0, sphere_mesh.n_nodes)
    MapBasedMatVec(sphere_mesh)(u)
    assert measured_kernel_points() == []


def test_flops_and_traffic_model_as_executed(sphere_mesh):
    """The cost model matches the batched gather→apply→scatter path as
    executed (the historical model ignored the gather/scatter flops)."""
    mv = MapBasedMatVec(sphere_mesh)
    npe = 2**sphere_mesh.dim
    expected = 4 * mv._gather.nnz + sphere_mesh.n_elem * (2 * npe**2 + npe)
    assert mv.flops() == expected
    g = mv._gather
    csr = 2 * (g.data.nbytes + g.indices.nbytes + g.indptr.nbytes)
    vec = 8 * (
        2 * sphere_mesh.n_nodes
        + 2 * sphere_mesh.n_elem * npe
        + sphere_mesh.n_elem
    )
    assert mv.traffic_bytes() == csr + vec
