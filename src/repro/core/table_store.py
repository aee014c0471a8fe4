"""Persistent cross-process tabulation store: make every cold run warm.

The array-family engines tabulate the protocol transition function lazily
— ~16 µs of protocol Python per state pair — and keep the result in an
in-memory :class:`~repro.core.array_engine.EngineCache`.  That warmth dies
with the process, so every ``--jobs`` worker, every ``repro worker`` and
every CLI invocation re-pays the full tabulation cost.  This module
persists the compiled artifacts on disk, content-addressed by protocol
identity, so the *second* process to touch a protocol starts at the warm
floor:

* **Pair spills** (``pairs/spill-*``): the packed ``(key, outcome)``
  int64 arrays a run newly tabulated, written on finalize.  Tabulation is
  lazy and trajectory-driven, so warmth accumulates *incrementally*: a
  load unions all spills (later wins per pair — outcomes are
  deterministic, so duplicates agree) and remaps the spill's private
  state codes onto the live codec.
* **Dense tables** (``dense/``): complete ``(S × S)`` transition arrays,
  loaded with ``np.load(mmap_mode="r")``.  A legacy artifact: the array
  engine tabulates every protocol lazily and no longer writes or reads
  it, but :meth:`TableStoreEntry.describe` still reports one left in an
  older store.
* **Group models** (``group/model-*``): the group-count engine's
  productive-transition model (tabulated codes + successor map), so e.g.
  the epidemic preset at n=10⁶ skips re-deriving transitions entirely.

Every artifact is a directory written to a temp sibling and atomically
``os.rename``d into place, so readers never observe a half-written
artifact and concurrent writers race harmlessly (the loser's rename
fails and its temp dir is discarded).  Artifacts are keyed by
``(protocol identity, codec fields, FORMAT_VERSION)``; a corrupt,
truncated or stale-format artifact is warned about, deleted and rebuilt
by ordinary retabulation — the store can change *when* tables are
computed, never *what* they contain.

Store locations are wired through ``EngineCache(persist_dir=...)``; the
study layer and serving workers point every process at a per-study
``tables/`` directory, overridable via the ``REPRO_TABLE_CACHE``
environment variable (see ``docs/engines.md``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import uuid
import warnings
from dataclasses import fields as dataclass_fields, is_dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "ENV_VAR",
    "TableStore",
    "TableStoreEntry",
    "TableStoreError",
    "consume_session_stats",
    "record_loaded_pairs",
    "resolve_store_dir",
    "session_stats",
]

#: Bumping this invalidates every existing artifact: the version is part
#: of the content-address *and* stamped in each manifest, so old stores
#: are simply never read (and deleted on contact if a directory collides).
FORMAT_VERSION = 1

#: Environment variable naming the store root for the current process
#: tree.  ``Study.run`` exports it around the fan-out; serving workers
#: derive it from the study directory; operators may pre-set it to share
#: one store across studies.
ENV_VAR = "REPRO_TABLE_CACHE"

#: Dense-array payload names, in manifest order.
_DENSE_ARRAYS = ("next_initiator", "next_responder", "changed", "rank", "reset")


class TableStoreError(RuntimeError):
    """A store artifact failed validation (treated as corrupt)."""


# ----------------------------------------------------------------------
# Session statistics (per process): the CLI reports "table store hits"
# after a run, and tests assert that a second process actually loaded.
# ----------------------------------------------------------------------
_SESSION_STATS = {
    "pairs_loaded": 0,      # tabulated pairs merged from spills
    "spills_loaded": 0,     # readable spill artifacts merged
    "dense_loaded": 0,      # dense table artifacts mmap-loaded
    "group_loaded": 0,      # group transition models restored
    "pairs_spilled": 0,     # pairs written out by this process
    "spills_written": 0,    # spill artifacts written by this process
    "artifacts_discarded": 0,  # corrupt/stale artifacts deleted
}


def session_stats() -> Dict[str, int]:
    """A copy of this process's cumulative store counters."""
    return dict(_SESSION_STATS)


def consume_session_stats() -> Dict[str, int]:
    """Return and reset this process's store counters."""
    snapshot = dict(_SESSION_STATS)
    for key in _SESSION_STATS:
        _SESSION_STATS[key] = 0
    return snapshot


def record_loaded_pairs(count: int) -> None:
    """Credit ``count`` merged pairs to the session counters."""
    _SESSION_STATS["pairs_loaded"] += int(count)


def resolve_store_dir() -> Optional[Path]:
    """The store root named by :data:`ENV_VAR`, or ``None``."""
    value = os.environ.get(ENV_VAR, "").strip()
    return Path(value) if value else None


# ----------------------------------------------------------------------
# State (de)serialization: manifests carry the codec's interned states so
# a loader can remap a spill's private codes onto any live codec.
# ----------------------------------------------------------------------
def _state_values(state) -> tuple:
    as_tuple = getattr(state, "as_tuple", None)
    if as_tuple is not None:
        return tuple(as_tuple())
    if is_dataclass(state):
        return tuple(
            getattr(state, field.name) for field in dataclass_fields(state)
        )
    raise TableStoreError(
        f"cannot serialize state of type {type(state).__name__}"
    )


def _encode_value(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"f": repr(value)}  # exact round-trip, NaN/inf included
    if isinstance(value, tuple):
        return {"t": [_encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"l": [_encode_value(item) for item in value]}
    if isinstance(value, (np.integer, np.bool_)):
        return int(value)
    raise TableStoreError(
        f"cannot serialize state field of type {type(value).__name__}"
    )


def _decode_value(value):
    if isinstance(value, dict):
        if "t" in value:
            return tuple(_decode_value(item) for item in value["t"])
        if "l" in value:
            return [_decode_value(item) for item in value["l"]]
        if "f" in value:
            return float(value["f"])
    return value


def _encode_states(states: Sequence) -> dict:
    types: List[List[str]] = []
    type_index: Dict[type, int] = {}
    rows = []
    for state in states:
        cls = type(state)
        index = type_index.get(cls)
        if index is None:
            index = type_index[cls] = len(types)
            types.append([cls.__module__, cls.__qualname__])
        rows.append(
            [index, [_encode_value(item) for item in _state_values(state)]]
        )
    return {"types": types, "states": rows}


def _decode_states(payload: dict) -> list:
    classes = []
    for module, qualname in payload["types"]:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        classes.append(obj)
    return [
        classes[index](*[_decode_value(item) for item in values])
        for index, values in payload["states"]
    ]


# ----------------------------------------------------------------------
# Atomic artifact IO
# ----------------------------------------------------------------------
def _write_artifact(
    final_dir: Path, manifest: dict, arrays: Dict[str, np.ndarray]
) -> bool:
    """Write ``manifest.json`` + one ``.npy`` per array, atomically.

    The directory is assembled under a temp sibling and renamed into
    place; a rename that loses a race (target already exists) discards
    the temp dir and reports failure — the winner's artifact is as good.
    """
    final_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = final_dir.parent / f".tmp-{uuid.uuid4().hex}"
    tmp.mkdir()
    try:
        for name, array in arrays.items():
            np.save(str(tmp / name), np.ascontiguousarray(array))
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        os.rename(tmp, final_dir)
        return True
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        return False


def _load_manifest(directory: Path, kind: str) -> dict:
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest.get("format") != FORMAT_VERSION:
        raise TableStoreError(
            f"format {manifest.get('format')!r} != {FORMAT_VERSION}"
        )
    if manifest.get("kind") != kind:
        raise TableStoreError(f"kind {manifest.get('kind')!r} != {kind!r}")
    return manifest


def _discard(directory: Path, error: Exception) -> None:
    """Warn about and delete an unreadable artifact (it will be rebuilt)."""
    _SESSION_STATS["artifacts_discarded"] += 1
    warnings.warn(
        f"discarding unreadable table-store artifact {directory} "
        f"({type(error).__name__}: {error}); it will be rebuilt by "
        f"retabulation"
    )
    shutil.rmtree(directory, ignore_errors=True)


def _load_npy(path: Path) -> np.ndarray:
    """``np.load(mmap_mode="r")`` — truncation surfaces as an exception.

    A torn tail cannot hide: ``mmap`` refuses a mapping longer than the
    file, so a payload shorter than its header claims raises right here
    and the caller discards the artifact.
    """
    return np.load(str(path), mmap_mode="r", allow_pickle=False)


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def protocol_key(protocol) -> Tuple[str, dict]:
    """``(directory name, key payload)`` for a protocol's artifacts.

    The address hashes the protocol's :meth:`describe` dict (type name,
    population size and every constructor parameter subclasses surface),
    its declared codec fields, and :data:`FORMAT_VERSION` — the same
    equal-parameterization contract under which sharing an
    :class:`~repro.core.array_engine.EngineCache` is sound.
    """
    describe = dict(protocol.describe())
    payload = {
        "describe": describe,
        "codec_fields": list(protocol.codec_fields() or ()),
        "format": FORMAT_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    name = str(describe.get("name", "protocol"))
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "-" for ch in name
    ) or "protocol"
    return f"{safe}-{digest}", payload


class TableStoreEntry:
    """All persisted artifacts for one content-addressed protocol key."""

    def __init__(self, directory, key_payload: Optional[dict] = None):
        self.directory = Path(directory)
        self._key_payload = key_payload

    @property
    def name(self) -> str:
        return self.directory.name

    def _ensure_key(self) -> None:
        path = self.directory / "key.json"
        if path.exists():
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        if self._key_payload is None:
            return
        tmp = self.directory / f".key-{uuid.uuid4().hex}"
        tmp.write_text(
            json.dumps(self._key_payload, sort_keys=True, default=str,
                       indent=2)
        )
        os.replace(tmp, path)

    def key_payload(self) -> Optional[dict]:
        """The stored key payload (``None`` if unreadable/absent)."""
        if self._key_payload is not None:
            return self._key_payload
        try:
            return json.loads((self.directory / "key.json").read_text())
        except (OSError, ValueError):
            return None

    # --------------------------------------------------------------- pairs
    def write_pair_spill(
        self, states: Sequence, keys: np.ndarray, vals: np.ndarray
    ) -> bool:
        """Persist newly tabulated pairs as one immutable spill artifact."""
        manifest = {
            "format": FORMAT_VERSION,
            "kind": "pairs",
            "count": int(len(keys)),
            **_encode_states(states),
        }
        self._ensure_key()
        ok = _write_artifact(
            self.directory / "pairs" / f"spill-{uuid.uuid4().hex[:12]}",
            manifest,
            {
                "keys": np.asarray(keys, dtype=np.int64),
                "vals": np.asarray(vals, dtype=np.int64),
            },
        )
        if ok:
            _SESSION_STATS["spills_written"] += 1
            _SESSION_STATS["pairs_spilled"] += int(len(keys))
        return ok

    def load_pair_spills(self) -> List[Tuple[list, np.ndarray, np.ndarray]]:
        """All readable spills as ``(states, keys, vals)``, name order.

        Unreadable spills (truncated payload, stale format, garbage JSON)
        are warned about and deleted; the pairs they held are simply
        retabulated on demand.
        """
        pairs_dir = self.directory / "pairs"
        if not pairs_dir.is_dir():
            return []
        spills = []
        for spill in sorted(pairs_dir.iterdir()):
            if not spill.name.startswith("spill-"):
                continue
            try:
                manifest = _load_manifest(spill, "pairs")
                states = _decode_states(manifest)
                keys = _load_npy(spill / "keys.npy")
                vals = _load_npy(spill / "vals.npy")
                count = int(manifest["count"])
                if keys.shape != (count,) or vals.shape != (count,):
                    raise TableStoreError(
                        f"payload shape {keys.shape}/{vals.shape} != "
                        f"({count},)"
                    )
                if keys.dtype != np.int64 or vals.dtype != np.int64:
                    raise TableStoreError("payload dtype is not int64")
                spills.append((states, keys, vals))
            except Exception as error:
                _discard(spill, error)
        _SESSION_STATS["spills_loaded"] += len(spills)
        return spills

    # --------------------------------------------------------------- dense
    # Legacy artifact: no engine writes or reads it any more.  The pair
    # stays while perfbench/trace/perfbench_trace.py wraps it by name.
    def write_dense(
        self, states: Sequence, arrays: Dict[str, np.ndarray]
    ) -> bool:
        """Persist complete dense tables (first writer wins, then no-op)."""
        if (self.directory / "dense").is_dir():
            return False
        if set(arrays) != set(_DENSE_ARRAYS):
            raise TableStoreError(f"dense arrays {sorted(arrays)} unexpected")
        manifest = {
            "format": FORMAT_VERSION,
            "kind": "dense",
            "size": len(states),
            **_encode_states(states),
        }
        self._ensure_key()
        return _write_artifact(self.directory / "dense", manifest, arrays)

    def load_dense(self) -> Optional[Tuple[list, Dict[str, np.ndarray]]]:
        """``(states, mmapped arrays)`` for the dense artifact, if sound."""
        dense = self.directory / "dense"
        if not dense.is_dir():
            return None
        try:
            manifest = _load_manifest(dense, "dense")
            states = _decode_states(manifest)
            size = int(manifest["size"])
            if size != len(states):
                raise TableStoreError(
                    f"size {size} != {len(states)} states"
                )
            arrays = {
                name: _load_npy(dense / f"{name}.npy")
                for name in _DENSE_ARRAYS
            }
            for name, array in arrays.items():
                if array.shape != (size, size):
                    raise TableStoreError(
                        f"{name} shape {array.shape} != ({size}, {size})"
                    )
        except Exception as error:
            _discard(dense, error)
            return None
        _SESSION_STATS["dense_loaded"] += 1
        return states, arrays

    # --------------------------------------------------------------- group
    def write_group_model(
        self,
        states: Sequence,
        tabulated: np.ndarray,
        pairs: np.ndarray,
    ) -> bool:
        """Persist a group-engine transition-model snapshot.

        ``tabulated`` is the model's code tabulation order; ``pairs`` is
        an ``(P, 4)`` int64 array of ``(x, y, a, b)`` productive
        transitions *in insertion order* — replaying it reproduces the
        model's row/column lists (and therefore its sampling order)
        exactly.  Older/smaller snapshots are pruned after a successful
        write, keeping the entry at one model artifact.
        """
        manifest = {
            "format": FORMAT_VERSION,
            "kind": "group",
            "tabulated_count": int(len(tabulated)),
            **_encode_states(states),
        }
        self._ensure_key()
        target = self.directory / "group" / f"model-{uuid.uuid4().hex[:12]}"
        ok = _write_artifact(
            target,
            manifest,
            {
                "tabulated": np.asarray(tabulated, dtype=np.int64),
                "pairs": np.asarray(pairs, dtype=np.int64).reshape(-1, 4),
            },
        )
        if ok:
            for other in sorted((self.directory / "group").iterdir()):
                if other.name.startswith("model-") and other != target:
                    shutil.rmtree(other, ignore_errors=True)
        return ok

    def load_group_model(
        self,
    ) -> Optional[Tuple[list, np.ndarray, np.ndarray]]:
        """The largest readable model snapshot as ``(states, tabulated,
        pairs)``, or ``None``."""
        group_dir = self.directory / "group"
        if not group_dir.is_dir():
            return None
        best = None
        for model in sorted(group_dir.iterdir()):
            if not model.name.startswith("model-"):
                continue
            try:
                manifest = _load_manifest(model, "group")
                states = _decode_states(manifest)
                tabulated = _load_npy(model / "tabulated.npy")
                pairs = _load_npy(model / "pairs.npy")
                count = int(manifest["tabulated_count"])
                if tabulated.shape != (count,):
                    raise TableStoreError(
                        f"tabulated shape {tabulated.shape} != ({count},)"
                    )
                if pairs.ndim != 2 or pairs.shape[1] != 4:
                    raise TableStoreError(f"pairs shape {pairs.shape}")
            except Exception as error:
                _discard(model, error)
                continue
            if best is None or len(tabulated) > len(best[1]):
                best = (states, tabulated, pairs)
        if best is not None:
            _SESSION_STATS["group_loaded"] += 1
        return best

    # ----------------------------------------------------------- listing
    def describe(self) -> dict:
        """Summary row for ``repro cache list``."""
        spill_count = 0
        pair_count = 0
        pairs_dir = self.directory / "pairs"
        if pairs_dir.is_dir():
            for spill in pairs_dir.iterdir():
                if not spill.name.startswith("spill-"):
                    continue
                spill_count += 1
                try:
                    manifest = json.loads(
                        (spill / "manifest.json").read_text()
                    )
                    pair_count += int(manifest.get("count", 0))
                except (OSError, ValueError):
                    pass
        dense_size = None
        try:
            manifest = json.loads(
                (self.directory / "dense" / "manifest.json").read_text()
            )
            dense_size = int(manifest.get("size", 0))
        except (OSError, ValueError):
            pass
        group_count = None
        group_dir = self.directory / "group"
        if group_dir.is_dir():
            for model in group_dir.iterdir():
                try:
                    manifest = json.loads(
                        (model / "manifest.json").read_text()
                    )
                    count = int(manifest.get("tabulated_count", 0))
                except (OSError, ValueError):
                    continue
                group_count = max(group_count or 0, count)
        bytes_on_disk = sum(
            path.stat().st_size
            for path in self.directory.rglob("*")
            if path.is_file()
        )
        return {
            "name": self.name,
            "spills": spill_count,
            "pairs": pair_count,
            "dense_states": dense_size,
            "group_states": group_count,
            "bytes": bytes_on_disk,
        }

    def clear(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


class TableStore:
    """A root directory of per-protocol :class:`TableStoreEntry` dirs."""

    def __init__(self, root):
        self.root = Path(root)

    def entry_for(self, protocol) -> TableStoreEntry:
        dirname, payload = protocol_key(protocol)
        return TableStoreEntry(self.root / dirname, payload)

    def entries(self) -> List[TableStoreEntry]:
        if not self.root.is_dir():
            return []
        return [
            TableStoreEntry(child)
            for child in sorted(self.root.iterdir())
            if child.is_dir() and not child.name.startswith(".")
        ]

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
