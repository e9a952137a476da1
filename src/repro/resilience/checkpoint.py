"""Versioned checkpoint/restart snapshots (schema ``repro.resilience/ckpt.v1``).

A checkpoint captures everything a recovery driver needs to resume a
solve after losing ranks or state:

* the mesh's discrete content — SFC octant anchors + levels, dim, p,
  curve (geometry is *code*, not data: restore takes the ``Domain``);
* the partition layout (element-range splits);
* named solver vectors (Krylov state, velocity/pressure fields);
* named scalars and time-stepper state (dt, step index, time);
* the operator-plan fingerprint of :mod:`repro.core.plan` — restore
  rebuilds the mesh and *verifies* the rebuilt fingerprint matches, so
  a checkpoint can never silently resurrect a different operator.

The file format is a single JSON document: arrays are stored as
base64-encoded raw bytes with dtype/shape, and a sha256 digest over
the canonical (sorted-key, no-whitespace) serialisation of everything
else seals the file.  Any tampering — payload or header — surfaces as
a typed :class:`CheckpointCorruption` at load time.  The format is
deliberately dependency-free and bit-deterministic: the same state
always produces byte-identical checkpoint files, which is what the
round-trip tests assert.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.mesh import IncompleteMesh, mesh_from_leaves
from ..core.octant import OctantSet
from ..core.plan import operator_context
from ..obs import add as obs_add
from ..obs import span

__all__ = [
    "CKPT_SCHEMA_ID",
    "STATE_SCHEMA_ID",
    "CheckpointCorruption",
    "Checkpoint",
    "StateCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "save_state_checkpoint",
    "load_state_checkpoint",
    "latest_checkpoint",
    "prune_checkpoints",
]

CKPT_SCHEMA_ID = "repro.resilience/ckpt.v1"
STATE_SCHEMA_ID = "repro.resilience/state.v1"


class CheckpointCorruption(RuntimeError):
    """A checkpoint failed its integrity or compatibility checks."""


def _encode_array(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr)
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    a = np.frombuffer(base64.b64decode(d["data"]), dtype=np.dtype(d["dtype"]))
    return a.reshape(d["shape"]).copy()  # copy: writable, owns its memory


def _digest(doc: dict) -> str:
    """The integrity digest: sha256 over the canonical (sorted-key,
    no-whitespace) serialisation of everything but the digest key."""
    body = {k: v for k, v in doc.items() if k != "sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_sealed(path, span_name: str, build, keep_last: int | None) -> Path:
    """Seal the document ``build()`` returns with its digest and write
    it — the one writer of both schemas; ``keep_last`` prunes its
    ``name`` after the write."""
    path = Path(path)
    with span(span_name) as osp:
        doc = build()
        doc["sha256"] = _digest(doc)
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        osp.add("bytes", len(text))
        obs_add("resilience.ckpt.writes", 1)
        obs_add("resilience.ckpt.bytes_written", len(text))
    if keep_last is not None:
        prune_checkpoints(path.parent, name=doc["name"], keep_last=keep_last)
    return path


def _read_sealed(path, span_name: str, schema: str, cls):
    """Read one sealed document, verify its schema tag and digest, and
    wrap it in ``cls`` — the one reader of both schemas.

    Raises :class:`CheckpointCorruption` on an unreadable file, a
    document that is not a JSON object, a wrong schema tag, a missing
    digest, or any digest mismatch (tampered payload/header).
    """
    path = Path(path)
    with span(span_name) as osp:
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                ValueError) as exc:
            # a torn write can truncate mid-token (JSONDecodeError) or
            # mid-multibyte character (UnicodeDecodeError) — both are
            # corruption, not programming errors
            raise CheckpointCorruption(f"{path}: unreadable checkpoint: {exc}")
        if not isinstance(doc, dict):
            raise CheckpointCorruption(
                f"{path}: a checkpoint is a JSON object, got "
                f"{type(doc).__name__}")
        if doc.get("schema") != schema:
            raise CheckpointCorruption(
                f"{path}: schema tag must be {schema!r}, "
                f"got {doc.get('schema')!r}"
            )
        digest = doc.get("sha256")
        if not digest:
            raise CheckpointCorruption(f"{path}: missing integrity digest")
        actual = _digest(doc)
        if actual != digest:
            raise CheckpointCorruption(
                f"{path}: integrity digest mismatch "
                f"(stored {digest[:12]}…, computed {actual[:12]}…)"
            )
        osp.add("bytes", path.stat().st_size)
        obs_add("resilience.ckpt.loads", 1)
    return cls(doc, path)


def save_checkpoint(
    path,
    mesh: IncompleteMesh,
    *,
    step: int = 0,
    t: float = 0.0,
    dt: float | None = None,
    splits: np.ndarray | None = None,
    vectors: dict[str, np.ndarray] | None = None,
    scalars: dict[str, float] | None = None,
    name: str = "checkpoint",
    meta: dict | None = None,
    keep_last: int | None = None,
) -> Path:
    """Write one ``ckpt.v1`` snapshot; returns the written path.

    Checkpoint volume is published to :mod:`repro.obs` as
    ``resilience.ckpt.writes`` / ``resilience.ckpt.bytes_written`` so
    run artifacts carry the checkpointing cost of a resilient solve.

    ``keep_last=k`` prunes the checkpoint directory after the write so
    only the k newest snapshots of this ``name`` survive — the
    retention policy long-lived workers (e.g. :mod:`repro.serve`
    deployments) use to keep checkpoint directories bounded.
    """
    return _write_sealed(path, "resilience.ckpt.save", lambda: {
        "schema": CKPT_SCHEMA_ID,
        "name": name,
        "step": int(step),
        "time": float(t),
        "dt": None if dt is None else float(dt),
        "fingerprint": operator_context(mesh).fingerprint,
        "mesh": {
            "dim": int(mesh.dim),
            "p": int(mesh.p),
            "curve": mesh.curve,
            "anchors": _encode_array(mesh.leaves.anchors),
            "levels": _encode_array(mesh.leaves.levels),
        },
        "splits": None if splits is None else _encode_array(
            np.asarray(splits, np.int64)
        ),
        "vectors": {
            k: _encode_array(np.asarray(v))
            for k, v in sorted((vectors or {}).items())
        },
        "scalars": {
            k: float(v) for k, v in sorted((scalars or {}).items())
        },
        "meta": dict(meta) if meta else {},
    }, keep_last)


def load_checkpoint(path) -> "Checkpoint":
    """Load and integrity-check one ``ckpt.v1`` file (see
    :func:`_read_sealed` for what raises :class:`CheckpointCorruption`)."""
    return _read_sealed(path, "resilience.ckpt.load", CKPT_SCHEMA_ID,
                        Checkpoint)


def save_state_checkpoint(path, *, name: str, step: int, state: dict,
                          meta: dict | None = None,
                          keep_last: int | None = None) -> Path:
    """Write one sealed ``state.v1`` snapshot of arbitrary JSON state.

    The mesh-centric :func:`save_checkpoint` covers solver restart;
    this is the same sealed-document writer for services whose state
    is a queue, not a field — the fleet layer checkpoints each shard's
    pending requests here so a killed shard replays on a survivor.
    ``state`` must be JSON-serialisable and is stored verbatim.

    Files share the ``<name>_step<k>.ckpt.json`` naming convention, so
    :func:`latest_checkpoint` / :func:`prune_checkpoints` work on state
    checkpoints unchanged (``keep_last`` applies the same retention).
    """
    return _write_sealed(path, "resilience.ckpt.save_state", lambda: {
        "schema": STATE_SCHEMA_ID,
        "name": name,
        "step": int(step),
        "state": state,
        "meta": dict(meta) if meta else {},
    }, keep_last)


def load_state_checkpoint(path) -> "StateCheckpoint":
    """Load and integrity-check one ``state.v1`` checkpoint."""
    return _read_sealed(path, "resilience.ckpt.load_state", STATE_SCHEMA_ID,
                        StateCheckpoint)


@dataclass
class _Sealed:
    """A loaded, integrity-verified document: what both schemas share."""

    doc: dict
    path: Path

    @property
    def name(self) -> str:
        return self.doc["name"]

    @property
    def step(self) -> int:
        return int(self.doc["step"])

    @property
    def meta(self) -> dict:
        return dict(self.doc.get("meta", {}))


class StateCheckpoint(_Sealed):
    """A loaded, integrity-verified ``state.v1`` document."""

    @property
    def state(self) -> dict:
        return self.doc["state"]


def _step_order(path: Path) -> tuple[int, str]:
    """(numeric step, filename) sort key for checkpoint files."""
    m = re.search(r"_step(\d+)\.ckpt\.json$", path.name)
    return (int(m.group(1)) if m else -1, path.name)


def _sorted_checkpoints(directory, name: str | None) -> list[Path]:
    """The checkpoints of ``name`` in ``directory``, oldest first (none
    if the directory does not exist)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    pattern = f"{name}_step*.ckpt.json" if name else "*.ckpt.json"
    return sorted(directory.glob(pattern), key=_step_order)


def latest_checkpoint(directory, name: str | None = None) -> Path | None:
    """Newest ``*.ckpt.json`` in ``directory`` by (step, filename).

    Step order is parsed numerically from the filename suffix written
    by the recovery drivers (``<name>_step<k>.ckpt.json``), so
    ``step10`` sorts after ``step2``; ties and foreign files fall back
    to lexicographic order.
    """
    files = _sorted_checkpoints(directory, name)
    return files[-1] if files else None


def prune_checkpoints(directory, name: str | None = None,
                      keep_last: int = 1) -> list[Path]:
    """Delete all but the ``keep_last`` newest checkpoints of ``name``.

    Ordering matches :func:`latest_checkpoint` (numeric step, then
    filename), so the snapshots a recovery driver would restore from
    are exactly the ones kept.  Returns the removed paths; publishes
    ``resilience.ckpt.pruned`` to :mod:`repro.obs`.
    """
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    files = _sorted_checkpoints(directory, name)
    removed = files[:-keep_last] if len(files) > keep_last else []
    for path in removed:
        path.unlink()
    if removed:
        obs_add("resilience.ckpt.pruned", len(removed))
    return removed


class Checkpoint(_Sealed):
    """A loaded, integrity-verified ``ckpt.v1`` document."""

    @property
    def time(self) -> float:
        return float(self.doc["time"])

    @property
    def dt(self) -> float | None:
        dt = self.doc.get("dt")
        return None if dt is None else float(dt)

    @property
    def fingerprint(self) -> str:
        return self.doc["fingerprint"]

    @property
    def scalars(self) -> dict[str, float]:
        return dict(self.doc.get("scalars", {}))

    def vector(self, key: str) -> np.ndarray:
        return _decode_array(self.doc["vectors"][key])

    def vectors(self) -> dict[str, np.ndarray]:
        return {k: _decode_array(v) for k, v in self.doc["vectors"].items()}

    def splits(self) -> np.ndarray | None:
        enc = self.doc.get("splits")
        return None if enc is None else _decode_array(enc)

    def restore_mesh(self, domain) -> IncompleteMesh:
        """Rebuild the mesh on ``domain`` and verify the operator-plan
        fingerprint matches the one the checkpoint was taken against.

        The leaves were balanced when saved, so no re-balancing runs;
        a fingerprint mismatch (wrong domain discretisation, altered
        leaf data that survived the digest — i.e. a bug) raises
        :class:`CheckpointCorruption` rather than resuming a solve on
        a different operator.
        """
        m = self.doc["mesh"]
        with span("resilience.ckpt.restore_mesh") as osp:
            leaves = OctantSet(_decode_array(m["anchors"]),
                               _decode_array(m["levels"]), int(m["dim"]))
            mesh = mesh_from_leaves(domain, leaves, p=int(m["p"]),
                                    curve=m["curve"], balance=False)
            fp = operator_context(mesh).fingerprint
            if fp != self.fingerprint:
                raise CheckpointCorruption(
                    f"{self.path}: restored mesh fingerprint {fp[:12]}… does "
                    f"not match checkpointed {self.fingerprint[:12]}…"
                )
            osp.add("elements", mesh.n_elem)
        return mesh

    def restore(self, domain):
        """Rebuild (mesh, layout, exchange plan) from the snapshot.

        The exchange plan is re-derived from the fingerprint-verified
        mesh, so the restored distributed operator is guaranteed
        consistent with the checkpointed vectors.
        """
        from ..parallel.ghost import analyze_partition, exchange_plan

        mesh = self.restore_mesh(domain)
        splits = self.splits()
        if splits is None:
            return mesh, None, None
        layout = analyze_partition(mesh, splits)
        plan = exchange_plan(mesh, layout)
        return mesh, layout, plan
