"""Typed, versioned solve requests/responses (``repro.serve/req.v1``).

The service boundary of :mod:`repro.serve`: a :class:`SolveRequest`
names a geometry, a PDE kind, a refinement depth and solve parameters;
a :class:`SolveResponse` carries the outcome plus the serving metadata
(cache hit, batch size, virtual-clock timestamps, retries).  Both are
plain dataclasses with a **canonical sha256 digest** over their
sorted-key JSON document, which is what makes the whole serving layer
checkable end to end: identical request streams must produce
bit-identical response digests, and the CI smoke test asserts exactly
that on the stream digest.

Three digests matter, at three scopes:

``SolveRequest.digest``
    the full request identity (dedup / logging / audit).
``SolveRequest.mesh_digest``
    only the fields the *discretization* depends on (geometry +
    refinement depth + element order + curve).  This is the cache
    lookup key before a mesh exists; after the first build it is
    aliased to the operator-plan fingerprint of
    :func:`repro.core.plan.mesh_fingerprint`.
``SolveRequest.batch_key``
    ``mesh_digest`` + the operator/factor parameters (PDE kind,
    tolerance, transport coefficients).  Requests sharing a batch key
    share the cached factor and are combinations of the same unit
    responses, solved once per batch by :mod:`repro.serve.batcher`.

All three — and the canonical geometry every one of them hashes — are
**computed once per request instance**: a :class:`SolveRequest` is an
immutable value (it snapshots its ``geometry`` and ``velocity`` at
construction), so the scheduler, the services and the fleet read its
identity as often as they like and pay for it once.  This is the
serving layer's counterpart of an octant's cached SFC key
(:class:`repro.core.octant.OctantSet`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "REQ_SCHEMA_ID",
    "RESP_SCHEMA_ID",
    "PDE_KINDS",
    "LINEAR_TERMS",
    "SolveRequest",
    "SolveResponse",
    "Rejected",
    "canonical_geometry",
    "solution_digest",
]

REQ_SCHEMA_ID = "repro.serve/req.v1"
RESP_SCHEMA_ID = "repro.serve/resp.v1"

#: Supported PDE kinds and the request data each one's solution is
#: linear in: strong-Dirichlet Poisson (Jacobi CG on the cached
#: operator), Shifted-Boundary-Method Poisson (cached LU), SUPG transport
#: from c = 0 with boundary value 0 (cached implicit-Euler LU), adaptive
#: Poisson (one cached estimator-driven refinement trajectory per batch
#: key — Dörfler marking is invariant under RHS scaling, so every
#: request in the batch shares the adapted mesh).  A batch solves the
#: unit problem of each term once and every request is a combination of
#: them (:mod:`repro.serve.batcher`); a non-zero coefficient on a term
#: the kind does not have is refused by :meth:`SolveRequest.validate`.
LINEAR_TERMS = {
    "poisson": ("f", "g"),
    "sbm": ("f", "g"),
    "transport": ("f",),
    "amr": ("f",),
}
PDE_KINDS = tuple(LINEAR_TERMS)

_SHAPES = ("sphere", "box")

#: request fields that must be exactly ``int`` (``deadline`` may also be
#: ``None``): a float crashes inside the solve, and a ``bool`` or an
#: integral float solves under a second digest for the same discretisation
_INT_FIELDS = ("base_level", "boundary_level", "p", "steps", "amr_cycles",
               "priority", "deadline")


#: what ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` runs,
#: minus building a new encoder object per call
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _sha256(doc: dict) -> str:
    return hashlib.sha256(_canonical_json(doc).encode()).hexdigest()


def canonical_geometry(spec: dict) -> dict:
    """Validate and canonicalise a geometry spec.

    Two shapes cover the paper's workloads: ``sphere`` (a ball carved
    out of the unit cube/square — the paper's carved-sphere benchmark)
    and ``box`` (a retained box inside a larger cube — the channel).
    All coordinates are coerced to floats so digests never depend on
    int-vs-float spelling.
    """
    if not isinstance(spec, dict):
        raise ValueError("geometry must be a dict")
    shape = spec.get("shape")
    if shape not in _SHAPES:
        raise ValueError(f"geometry shape must be one of {_SHAPES}, got {shape!r}")
    out: dict = {"shape": shape, "scale": float(spec.get("scale", 1.0))}
    if shape == "sphere":
        center = [float(c) for c in spec["center"]]
        if len(center) not in (2, 3):
            raise ValueError("sphere center must be 2-D or 3-D")
        out["center"] = center
        out["radius"] = float(spec["radius"])
        numbers = (out["scale"], out["radius"], *center)
    else:  # box
        lo = [float(c) for c in spec["lo"]]
        hi = [float(c) for c in spec["hi"]]
        if len(lo) != len(hi) or len(lo) not in (2, 3):
            raise ValueError("box lo/hi must both be 2-D or 3-D")
        out["lo"], out["hi"] = lo, hi
        if "domain_hi" in spec:
            out["domain_hi"] = [float(c) for c in spec["domain_hi"]]
        numbers = (out["scale"], *lo, *hi, *out.get("domain_hi", ()))
    # digests call this on every request, so the check is one C-level
    # pass; naming the offending field is the failure path's job
    if not all(map(math.isfinite, numbers)):
        _raise_non_finite(out)
    if shape == "sphere" and out["radius"] <= 0:
        raise ValueError("sphere radius must be positive")
    if shape == "box" and any(map(operator.ge, lo, hi)):
        raise ValueError("box lo must be below hi on every axis")
    return out


def _raise_non_finite(geo: dict) -> None:
    for name, value in geo.items():
        values = value if isinstance(value, list) else [value]
        if name != "shape" and not all(map(math.isfinite, values)):
            raise ValueError(f"geometry {name} must be finite, got {value!r}")


def _copy_geometry(geo: dict) -> dict:
    """A geometry dict nobody else holds: the mapping and the lists
    (or arrays) in it are new, the immutable values are shared."""
    return {k: list(v) if isinstance(v, (list, np.ndarray)) else v
            for k, v in geo.items()}


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def _canonical_domain(geo: dict):
    from ..core.domain import Domain
    from ..geometry import BoxRetain, SphereCarve

    if geo["shape"] == "sphere":
        pred = SphereCarve(geo["center"], geo["radius"])
    else:
        dim = len(geo["lo"])
        dom_hi = geo.get("domain_hi", [geo["scale"]] * dim)
        pred = BoxRetain(geo["lo"], geo["hi"], domain=([0.0] * dim, dom_hi))
    return Domain(pred, scale=geo["scale"])


def _once(fn):
    """Method decorator: compute on the first call, afterwards return the
    value stored in the instance ``__dict__`` (written there directly,
    which a frozen dataclass allows and ``dataclasses.replace`` does not
    carry over).  Not ``functools.cached_property``: the digests stay
    plain ``property`` objects, so a caller that rebinds a property's
    ``fget`` — the e2e benchmark's span shims do — keeps working.
    """
    slot = "_once_" + fn.__name__

    @functools.wraps(fn)
    def get(self):
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = fn(self)
            return value

    return get


@dataclass(frozen=True)
class SolveRequest:
    """One versioned solve request (schema ``repro.serve/req.v1``).

    ``deadline`` and ``priority`` drive the scheduler: a request whose
    dispatch would start later than ``t_submit + deadline`` virtual
    ticks is rejected with ``deadline_exceeded``; lower ``priority``
    values dispatch first (ties broken by request digest, so the
    schedule is independent of arrival interleaving).

    **Immutable value.**  Construction copies ``geometry`` (the dict and
    the lists in it) and freezes ``velocity`` into a tuple, so nothing
    the caller does to its own objects afterwards reaches the request,
    and :meth:`to_doc`, :meth:`mesh_doc` and :meth:`solver_doc` build a
    new document per call that shares no container with it.  That is
    what lets the canonical geometry and the three digests be computed
    at most once per instance.  A changed request is a new instance
    (``dataclasses.replace``, :meth:`from_doc`) with its own identity.
    Constructing an invalid request succeeds; :meth:`validate` is what
    rejects it.
    """

    geometry: dict = field(
        default_factory=lambda: {"shape": "sphere",
                                 "center": (0.5, 0.5), "radius": 0.3}
    )
    pde: str = "poisson"
    base_level: int = 2
    boundary_level: int = 3
    p: int = 1
    #: relative tolerance of each iterative unit solve.  A request that
    #: mixes terms therefore meets ``tol·(|f|‖b_unit‖ + |g|‖lift‖)`` — per
    #: term, not relative to the norm of its (possibly cancelling)
    #: combined right-hand side — and its reported ``residual``,
    #: ``|f|·r_f + |g|·r_g``, is an upper bound on the true one
    tol: float = 1e-10
    deadline: int | None = None
    priority: int = 4
    #: source amplitude: the coefficient on the batch's unit response u_f
    f: float = 1.0
    #: constant Dirichlet boundary value: the coefficient on u_g (must be
    #: 0 for a pde without that term — see :data:`LINEAR_TERMS`)
    g: float = 0.0
    # transport-only coefficients
    velocity: tuple = (1.0, 0.0, 0.0)
    kappa: float = 0.01
    dt: float = 0.1
    steps: int = 1
    # amr-only parameters (see repro.amr.loop.amr_solve)
    amr_cycles: int = 4
    amr_theta: float = 0.5

    def __post_init__(self):
        if isinstance(self.geometry, dict):
            object.__setattr__(self, "geometry",
                               _copy_geometry(self.geometry))
        if not isinstance(self.velocity, tuple):
            try:
                object.__setattr__(self, "velocity", tuple(self.velocity))
            except TypeError:
                pass  # not a sequence: validate() names it

    def validate(self) -> None:
        for name in _INT_FIELDS:
            v = getattr(self, name)
            if type(v) is not int and not (v is None and name == "deadline"):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.pde not in PDE_KINDS:
            raise ValueError(f"pde must be one of {PDE_KINDS}, got {self.pde!r}")
        self._canonical_geometry()
        if not (0 < self.base_level <= self.boundary_level):
            raise ValueError("need 0 < base_level <= boundary_level")
        if self.p not in (1, 2):
            raise ValueError("element order p must be 1 or 2")
        try:
            finite = all(map(math.isfinite, (
                self.f, self.g, self.tol, self.kappa, self.dt,
                *self.velocity)))
        except TypeError:
            finite = False
        if not finite:
            self._raise_non_finite_parameter()
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be non-negative")
        if self.pde == "transport":
            self._validate_transport()
        if self.g != 0.0 and "g" not in LINEAR_TERMS[self.pde]:
            raise ValueError(
                f"{self.pde} requests require g == 0: the solve imposes "
                "boundary value 0 and is linear in f alone"
            )
        if self.pde == "amr":
            if self.amr_cycles < 0:
                raise ValueError("amr_cycles must be non-negative")
            if not (0.0 < self.amr_theta <= 1.0):
                raise ValueError("amr_theta must be in (0, 1]")

    def _validate_transport(self) -> None:
        """The transport coefficients: the element form's bounds on
        ``kappa`` / ``dt``, one velocity component per geometry axis."""
        from ..fem.transport import SupgForm

        if self.steps < 1:
            raise ValueError("transport needs steps >= 1")
        SupgForm.check(self.kappa, self.dt)
        geo = self._canonical_geometry()
        dim = len(geo["center"] if "center" in geo else geo["lo"])
        if len(self.velocity) < dim:
            raise ValueError(
                f"velocity needs >= {dim} components for a {dim}-D "
                f"geometry, got {self.velocity!r}")

    def _raise_non_finite_parameter(self) -> None:
        for name in ("f", "g", "tol", "kappa", "dt"):
            if not _is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, "
                                 f"got {getattr(self, name)!r}")
        raise ValueError("velocity must be a sequence of finite numbers, "
                         f"got {self.velocity!r}")

    # -- canonical documents and digests --------------------------------

    @_once
    def _canonical_geometry(self) -> dict:
        """Private: every document below carries its own copy."""
        return canonical_geometry(self.geometry)

    def to_doc(self) -> dict:
        doc = {"schema": REQ_SCHEMA_ID}
        for name in _REQUEST_FIELDS:
            v = getattr(self, name)
            if name == "geometry":
                v = _copy_geometry(self._canonical_geometry())
            elif name == "velocity":
                v = [float(c) for c in v]
            elif isinstance(v, float):
                v = float(v)
            doc[name] = v
        return doc

    @property
    @_once
    def digest(self) -> str:
        """Canonical sha256 identity of the full request."""
        return _sha256(self.to_doc())

    @classmethod
    def from_doc(cls, doc: dict) -> "SolveRequest":
        """Rebuild a request from its canonical document.

        Digest-stable round trip (``from_doc(r.to_doc()).digest ==
        r.digest``) — the fleet's fail-over checkpoints persist queued
        requests as documents and rehydrate them on a survivor.
        """
        unknown = set(doc) - set(_REQUEST_FIELDS) - {"schema"}
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        kw = {k: v for k, v in doc.items() if k != "schema"}
        if "velocity" in kw:
            kw["velocity"] = tuple(float(c) for c in kw["velocity"])
        req = cls(**kw)
        req.validate()
        return req

    def mesh_doc(self) -> dict:
        """The discretization-determining subset of the request."""
        return {
            "geometry": _copy_geometry(self._canonical_geometry()),
            "base_level": self.base_level,
            "boundary_level": self.boundary_level,
            "p": self.p,
            "curve": "morton",
        }

    @property
    @_once
    def mesh_digest(self) -> str:
        """Cache lookup key before the mesh (and its operator-plan
        fingerprint) exists."""
        return _sha256(self.mesh_doc())

    def solver_doc(self) -> dict:
        doc = {"mesh": self.mesh_doc(), "pde": self.pde, "tol": self.tol}
        if self.pde == "transport":
            doc["velocity"] = [float(c) for c in self.velocity]
            doc["kappa"] = self.kappa
            doc["dt"] = self.dt
            doc["steps"] = self.steps
        elif self.pde == "amr":
            doc["amr_cycles"] = self.amr_cycles
            doc["amr_theta"] = float(self.amr_theta)
        return doc

    @property
    @_once
    def batch_key(self) -> str:
        """Requests with equal batch keys share one cached factor and
        the unit responses one batch solves."""
        return _sha256(self.solver_doc())

    def build_mesh(self):
        """Construct the request's mesh (cold path only — the cache
        makes this a once-per-fingerprint event)."""
        from ..core.mesh import build_mesh

        return build_mesh(
            _canonical_domain(self._canonical_geometry()), self.base_level,
            self.boundary_level, p=self.p, curve="morton",
        )


_REQUEST_FIELDS = tuple(f.name for f in fields(SolveRequest))


def solution_digest(u: np.ndarray) -> str:
    """Content digest of a solution array (dtype/shape-aware)."""
    a = np.ascontiguousarray(u)
    h = hashlib.sha256()
    h.update(f"{a.dtype.str}|{a.shape}|".encode())
    h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class SolveResponse:
    """Outcome of one request (schema ``repro.serve/resp.v1``).

    ``status`` is ``"ok"``, ``"rejected"`` (admission control,
    deadline, or brownout shedding — see :class:`Rejected`) or
    ``"failed"`` (the solver gave up: ``maxiter`` or
    ``retries_exhausted``).  ``degraded`` marks a brownout solve that
    ran at loosened tolerance to protect deadlines under overload.
    Timestamps are virtual scheduler ticks, so they — and therefore
    :attr:`digest` — are bit-reproducible across runs and machines.
    """

    request_digest: str
    status: str
    pde: str = ""
    reason: str = ""
    cache_hit: bool = False
    batch_size: int = 0
    iterations: int = 0
    residual: float = 0.0
    solution_digest: str = ""
    t_submit: int = 0
    t_start: int = 0
    t_done: int = 0
    retries: int = 0
    degraded: bool = False

    def to_doc(self) -> dict:
        doc = {"schema": RESP_SCHEMA_ID}
        for name in _RESPONSE_FIELDS:
            doc[name] = getattr(self, name)
        return doc

    @property
    def digest(self) -> str:
        """Canonical sha256 over the full response document."""
        return _sha256(self.to_doc())

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency(self) -> int:
        """Virtual ticks between submission and completion."""
        return self.t_done - self.t_submit


_RESPONSE_FIELDS = tuple(f.name for f in fields(SolveResponse))


class Rejected(SolveResponse):
    """Typed backpressure response: the request was never solved.

    ``reason`` is ``"queue_full"`` (bounded admission),
    ``"deadline_exceeded"`` (the scheduler could not dispatch the
    request before its deadline) or ``"shed"`` (deadline-aware
    brownout dropped the item under overload).  Being a
    :class:`SolveResponse` subclass, rejections flow through the same
    response stream and stream digest as successful solves.
    """

    def __init__(self, request_digest: str, reason: str, *, pde: str = "",
                 t_submit: int = 0, t_done: int = 0, retries: int = 0):
        super().__init__(
            request_digest=request_digest, status="rejected", pde=pde,
            reason=reason, t_submit=t_submit, t_start=t_done, t_done=t_done,
            retries=retries,
        )
