"""Backend registry for the hot-path kernel layer.

Every numerical hot loop in the stack (slot gather/scatter, batched
elemental applies, the flat traversal MATVEC, global assembly, Krylov
axpy/dot) is reachable through the :mod:`repro.kernels.api` facade,
which dispatches to one of the *backends* registered here:

``numpy``
    the default; map-based ops bit-identical to the historical inline
    code paths, and the flat, plan-compiled traversal MATVEC that every
    backend runs.
``einsum``
    elemental applies and dots through ``np.einsum``, vectorized
    triplet assembly; the traversal is the inherited one.
``numba``
    jitted CSR/slot loops; registered as *unavailable* when numba is
    not installed, so selecting it raises a typed error instead of an
    ImportError deep inside a solve.

Selection precedence (highest wins):

1. an explicit ``backend=`` argument to a facade call,
2. the innermost active :func:`use_backend` context (per-request
   overrides in :mod:`repro.serve` use this),
3. the process default set by :func:`set_default_backend` (the
   ``--backend`` CLI flag),
4. the ``REPRO_KERNELS_BACKEND`` environment variable (read at
   resolution time, not import time),
5. ``"numpy"``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "UnknownBackend",
    "BackendUnavailable",
    "register_backend",
    "backend_names",
    "available_backends",
    "resolve_backend_name",
    "get_backend",
    "set_default_backend",
    "default_backend",
    "use_backend",
]

ENV_VAR = "REPRO_KERNELS_BACKEND"
DEFAULT_BACKEND = "numpy"


class UnknownBackend(KeyError):
    """Raised when a backend name is not in the registry."""

    def __init__(self, name: str, known: tuple[str, ...]):
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:  # KeyError.__str__ would repr() the args
        return (
            f"unknown kernel backend {self.name!r}; "
            f"registered backends: {', '.join(self.known)}"
        )


class BackendUnavailable(RuntimeError):
    """Raised when a registered backend cannot run on this host
    (e.g. ``numba`` selected but numba is not installed)."""


_BACKENDS: dict[str, object] = {}
_DEFAULT: str | None = None
_LOCAL = threading.local()  # per-thread stack of use_backend() overrides
_LOCK = threading.Lock()


def register_backend(name: str, backend, *, replace: bool = False) -> None:
    """Register a backend instance under ``name``.

    ``backend`` must expose ``name``, ``available`` (bool) and the op
    methods the facade calls (see :class:`~repro.kernels.numpy_backend.
    NumpyKernels`, the reference implementation all others subclass).
    """
    with _LOCK:
        if name in _BACKENDS and not replace:
            raise ValueError(f"backend {name!r} already registered")
        _BACKENDS[name] = backend


def backend_names() -> tuple[str, ...]:
    """Sorted names of all registered backends (available or not)."""
    return tuple(sorted(_BACKENDS))


def available_backends() -> dict[str, bool]:
    """``{name: available}`` for every registered backend."""
    return {n: bool(_BACKENDS[n].available) for n in backend_names()}


def _override_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def resolve_backend_name(name: str | None = None) -> str:
    """Apply the selection precedence and return a *registered* name.

    Raises :class:`UnknownBackend` for names (from any source,
    including the environment variable) that are not registered.
    """
    if name is None:
        stack = _override_stack()
        if stack:
            name = stack[-1]
        elif _DEFAULT is not None:
            name = _DEFAULT
        else:
            name = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    if name not in _BACKENDS:
        raise UnknownBackend(name, backend_names())
    return name


def get_backend(name: str | None = None):
    """The backend instance the next facade call would dispatch to.

    Raises :class:`UnknownBackend` for unregistered names and
    :class:`BackendUnavailable` for registered-but-unusable ones.
    """
    resolved = resolve_backend_name(name)
    be = _BACKENDS[resolved]
    if not be.available:
        reason = getattr(be, "unavailable_reason", "not available on this host")
        raise BackendUnavailable(f"kernel backend {resolved!r}: {reason}")
    return be


def set_default_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    Validates eagerly so a bad ``--backend`` flag fails at startup, not
    mid-solve.
    """
    global _DEFAULT
    if name is not None:
        get_backend(name)  # raises UnknownBackend / BackendUnavailable
    _DEFAULT = name


def default_backend() -> str | None:
    """The process-wide default set by :func:`set_default_backend`."""
    return _DEFAULT


@contextmanager
def use_backend(name: str | None):
    """Scoped backend override; ``None`` is a no-op passthrough.

    Nested contexts stack; the innermost wins.  Used by the serving
    layer to honour per-request backend overrides without touching the
    process default.
    """
    if name is None:
        yield
        return
    get_backend(name)  # validate before entering
    stack = _override_stack()
    stack.append(name)
    try:
        yield
    finally:
        stack.pop()
