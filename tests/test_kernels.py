"""Tests for repro.kernels: the swappable multi-backend kernel layer.

Covers the backend registry (precedence, typed errors), same-backend
bit-identity, cross-backend numerical equivalence of matvec/assembly
on carved and channel meshes, the serve-layer per-request override,
and the measured roofline counters the facade publishes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Domain, build_mesh, build_uniform_mesh, obs
from repro.analysis import measured_kernel_points
from repro.core.assembly import assemble, assemble_traversal
from repro.core.matvec import MapBasedMatVec, TraversalPlan, traversal_matvec
from repro.core.traversal_reference import recursive_traversal_matvec
from repro.fem import TransportProblem
from repro.fem.poisson import PoissonProblem
from repro.geometry import BoxRetain, SphereCarve
from repro.kernels import (
    ENV_VAR,
    NUMBA_AVAILABLE,
    BackendUnavailable,
    NumpyKernels,
    UnknownBackend,
    available_backends,
    backend_names,
    default_backend,
    get_backend,
    register_backend,
    resolve_backend_name,
    set_default_backend,
    use_backend,
)
from repro.kernels.numba_backend import _py_kernels
from repro.serve import SolveRequest, SolverService

pytestmark = pytest.mark.kernels

NUMBA_PARAM = pytest.param(
    "numba",
    marks=pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed"),
)
ALT_BACKENDS = ["einsum", NUMBA_PARAM]


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


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


# -- registry ------------------------------------------------------------


def test_unknown_backend_raises():
    with pytest.raises(UnknownBackend, match="nope"):
        get_backend("nope")
    with pytest.raises(UnknownBackend):
        resolve_backend_name("nope")
    with pytest.raises(UnknownBackend):
        set_default_backend("nope")
    with pytest.raises(UnknownBackend):
        with use_backend("nope"):
            pass  # pragma: no cover


def test_duplicate_registration_requires_replace():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("numpy", NumpyKernels())
    register_backend("numpy", NumpyKernels(), replace=True)


def test_registered_backends_and_availability():
    names = backend_names()
    assert {"numpy", "einsum", "numba"} <= set(names)
    avail = available_backends()
    assert avail["numpy"] and avail["einsum"]
    assert avail["numba"] == NUMBA_AVAILABLE


@pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed here")
def test_unavailable_backend_typed_error():
    with pytest.raises(BackendUnavailable, match="numba"):
        get_backend("numba")
    # selection by name alone is legal; instantiation is what fails
    assert resolve_backend_name("numba") == "numba"


def test_selection_precedence(monkeypatch):
    # 1. hard default
    assert resolve_backend_name() == "numpy"
    # 2. environment variable
    monkeypatch.setenv(ENV_VAR, "einsum")
    assert resolve_backend_name() == "einsum"
    # 3. CLI/session default beats the environment
    set_default_backend("numpy")
    assert default_backend() == "numpy"
    assert resolve_backend_name() == "numpy"
    # 4. scoped context beats the session default (and nests)
    with use_backend("einsum"):
        assert resolve_backend_name() == "einsum"
        with use_backend("numpy"):
            assert resolve_backend_name() == "numpy"
        assert resolve_backend_name() == "einsum"
    assert resolve_backend_name() == "numpy"
    # 5. an explicit argument beats everything
    with use_backend("einsum"):
        assert resolve_backend_name("numpy") == "numpy"
    # use_backend(None) is a passthrough (per-request override absent)
    with use_backend(None):
        assert resolve_backend_name() == "numpy"


# -- same-backend bit-identity -------------------------------------------


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


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_alt_backend_is_bit_stable(sphere_mesh, backend):
    mesh = sphere_mesh
    u = np.random.default_rng(1).standard_normal(mesh.n_nodes)
    with use_backend(backend):
        y1 = traversal_matvec(mesh, u)
        y2 = traversal_matvec(mesh, u)
        A1, A2 = assemble(mesh), assemble(mesh)
    assert y1.tobytes() == y2.tobytes()
    assert A1.data.tobytes() == A2.data.tobytes()


# -- cross-backend equivalence -------------------------------------------


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("case", ["sphere", "channel"])
@pytest.mark.parametrize("kind", ["stiffness", "mass"])
def test_matvec_equivalence(sphere_mesh, channel_mesh, backend, case, kind):
    mesh = sphere_mesh if case == "sphere" else channel_mesh
    u = np.random.default_rng(2).standard_normal(mesh.n_nodes)
    y_ref = MapBasedMatVec(mesh, kind=kind)(u)
    t_ref = traversal_matvec(mesh, u, kind=kind)
    with use_backend(backend):
        y_alt = MapBasedMatVec(mesh, kind=kind)(u)
        t_alt = traversal_matvec(mesh, u, kind=kind)
    assert np.allclose(y_alt, y_ref, atol=1e-10)
    assert np.allclose(t_alt, t_ref, atol=1e-10)
    assert np.allclose(t_alt, y_ref, atol=1e-10)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("case", ["sphere", "channel"])
@pytest.mark.parametrize("kind", ["stiffness", "mass"])
def test_assembly_equivalence(sphere_mesh, channel_mesh, backend, case, kind):
    mesh = sphere_mesh if case == "sphere" else channel_mesh
    A_ref = assemble(mesh, kind=kind)
    with use_backend(backend):
        A_alt = assemble(mesh, kind=kind)
    assert A_alt.shape == A_ref.shape
    assert abs(A_alt - A_ref).max() < 1e-12
    # and both match the paper's §3.6 traversal assembly
    assert abs(A_alt - assemble_traversal(mesh, kind=kind)).max() < 1e-12


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_poisson_sbm_solve_equivalence(backend):
    mesh = build_mesh(Domain(SphereCarve([0.5, 0.5], 0.35)), 3, 4, p=1)
    u_ref = PoissonProblem(mesh, f=1.0, method="sbm").solve()
    with use_backend(backend):
        u_alt = PoissonProblem(mesh, f=1.0, method="sbm").solve()
    assert np.allclose(u_alt, u_ref, atol=1e-8)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_transport_equivalence(backend):
    mesh = build_uniform_mesh(Domain(dim=2), 3, p=1)
    vel = np.tile([1.0, 0.0], (mesh.n_nodes, 1))
    pts = mesh.node_coords()
    c0 = np.exp(-100 * ((pts - 0.5) ** 2).sum(axis=1))
    c_ref = TransportProblem(mesh, vel, kappa=0.01, dt=0.05).run(c0, 2)
    with use_backend(backend):
        c_alt = TransportProblem(mesh, vel, kappa=0.01, dt=0.05).run(c0, 2)
    assert np.allclose(c_alt, c_ref, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_einsum_traversal_property(seed, sphere_mesh):
    """Property: the einsum flat traversal agrees with the recursive
    reference for arbitrary input vectors."""
    mesh = sphere_mesh
    u = np.random.default_rng(seed).standard_normal(mesh.n_nodes)
    plan = TraversalPlan(mesh)
    y_ref = recursive_traversal_matvec(mesh, u, plan=plan)
    with use_backend("einsum"):
        y_alt = traversal_matvec(mesh, u, plan=plan)
    assert np.allclose(y_alt, y_ref, atol=1e-10)


def test_numba_python_bodies_match_numpy():
    """The pre-jit pure-Python kernel bodies compute the same results
    as numpy — verifiable even where numba is not installed."""
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 64))
    assert _py_kernels["dot"](x, y) == pytest.approx(float(x @ y), rel=1e-14)
    y2 = y.copy()
    _py_kernels["axpy"](0.5, x, y2)
    assert np.allclose(y2, y + 0.5 * x, atol=1e-14)


# -- serve integration ----------------------------------------------------


def _req(**kw):
    kw.setdefault(
        "geometry", {"shape": "sphere", "center": (0.5, 0.5), "radius": 0.3}
    )
    kw.setdefault("base_level", 2)
    kw.setdefault("boundary_level", 3)
    return SolveRequest(**kw)


def test_request_backend_digest_stability():
    # None is omitted from the canonical doc: pre-backend digests hold
    r = _req()
    assert "backend" not in r.to_doc()
    assert "backend" not in r.solver_doc()
    r2 = _req(backend="einsum")
    assert r2.to_doc()["backend"] == "einsum"
    assert r2.digest != r.digest
    # backends must not share a solve batch
    assert r2.batch_key != r.batch_key
    # document round trip preserves the digest
    assert SolveRequest.from_doc(r2.to_doc()).digest == r2.digest
    assert SolveRequest.from_doc(r.to_doc()).digest == r.digest


def test_request_backend_validation():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        _req(backend="nope").validate()
    if not NUMBA_AVAILABLE:
        with pytest.raises(ValueError, match="not available"):
            _req(backend="numba").validate()
    _req(backend="einsum").validate()


def test_service_per_request_backend_override():
    svc = SolverService()
    svc.submit(_req(f=1.0))
    svc.submit(_req(f=1.0, backend="einsum"))
    obs.reset()
    obs.enable()
    try:
        done = svc.drain()
    finally:
        obs.disable()
    assert len(done) == 2 and all(r.ok for r in done)
    # different backends ran in separate batches ...
    assert all(r.batch_size == 1 for r in done)
    # ... and both backends' kernels actually executed
    backends = {m.backend for m in measured_kernel_points()}
    assert {"numpy", "einsum"} <= backends
    # same PDE: the two solutions agree to solver tolerance
    by_digest = {r.request_digest: r for r in done}
    assert len(by_digest) == 2


# -- measured roofline counters -------------------------------------------


def test_counters_published_and_parsed(sphere_mesh, tmp_path):
    mesh = sphere_mesh
    u = np.linspace(0.0, 1.0, mesh.n_nodes)
    obs.reset()
    obs.enable()
    try:
        MapBasedMatVec(mesh)(u)
        with use_backend("einsum"):
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
    assert ("traversal", "einsum") in cells
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
