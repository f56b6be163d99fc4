"""Persistent, disk-backed tier under the process-wide model cache.

:class:`~repro.tga.modelcache.ModelCache` removes repeated
``TargetGenerator.prepare`` work *within* one process, but every new
process — every CLI invocation, every cold ParallelExecutor worker on
a machine that cannot fork-share — still rebuilds each frozen model
from scratch.  The store persists those artifacts to disk so a cold
8-TGA grid builds each model once per *machine*, not once per process.

Layout and keying
-----------------
One file per artifact under the store root (``$REPRO_MODEL_STORE`` or
``~/.cache/repro/models``), named::

    <kind>-<digest>.model

where ``digest`` is SHA-256 over ``(kind, seed_fingerprint, params,
package version)``.  Baking :data:`repro.__version__` into the name
means a version bump is an automatic cold start: stale artifacts from
an older code generation are never even looked at (and eventually fall
out via LRU eviction).

Integrity
---------
Every entry is ``MAGIC + sha256(payload) + payload`` with the payload
a pickle of the frozen artifact.  Loads verify magic and digest and
*delete* anything that fails — a corrupt, truncated, or tampered entry
is treated as a miss and rebuilt, never trusted.  Writes go to a
temporary file in the same directory followed by :func:`os.replace`,
so two concurrent writers race benignly: each rename publishes a
complete, self-verifying entry and the last one wins.  A best-effort
``O_EXCL`` build lock lets concurrent cold processes dedupe the build
itself (latecomers poll briefly for the winner's entry before giving
up and building anyway) — correctness never depends on the lock.

Eviction is LRU by file mtime under a byte budget; loads touch the
entry's mtime so hot artifacts survive.

Store traffic is counted under the ``tga.model_store.*`` telemetry
namespace, which is sanctioned to differ between cold/warm runs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ..telemetry import get_telemetry

__all__ = [
    "DEFAULT_STORE_ROOT",
    "ModelStore",
    "StoreStats",
    "get_model_store",
    "resolve_model_store",
    "set_model_store",
    "use_model_store",
]

#: Default on-disk location when ``$REPRO_MODEL_STORE`` is unset.
DEFAULT_STORE_ROOT = Path("~/.cache/repro/models")

#: File preamble: format identifier, bumped on any layout change.
_MAGIC = b"repro-model-store-v3\n"

#: Hex SHA-256 digest length (the integrity line between magic and payload).
_DIGEST_LEN = 64

#: Build locks older than this are presumed abandoned and broken.
_STALE_LOCK_S = 300.0


def _package_version() -> str:
    """The installed ``repro`` version (looked up lazily: the package
    ``__init__`` defines it *after* importing :mod:`repro.tga`)."""
    import repro

    return getattr(repro, "__version__", "0")


@dataclass
class StoreStats:
    """Counters for one :class:`ModelStore` (one process's view)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_dropped: int = 0
    evictions: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for benchmark artifacts and diagnostics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_dropped": self.corrupt_dropped,
            "evictions": self.evictions,
            "errors": self.errors,
        }


class ModelStore:
    """Disk-backed store of frozen TGA model artifacts.

    Safe for concurrent use by unrelated processes: entries are
    self-verifying and atomically published, so readers see either a
    complete valid entry or nothing.  All I/O failures degrade to
    cache misses — the store never raises into a model build.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        max_bytes: int = 512 * 1024 * 1024,
        lock_timeout: float = 5.0,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be at least 1")
        if root is None:
            root = os.environ.get("REPRO_MODEL_STORE") or DEFAULT_STORE_ROOT
        self.root = Path(root).expanduser()
        self.max_bytes = max_bytes
        #: How long a latecomer polls for a concurrent builder's entry
        #: before giving up and building the artifact itself.
        self.lock_timeout = lock_timeout
        self.stats = StoreStats()

    # -- keying ------------------------------------------------------------

    def entry_path(self, kind: str, fingerprint: int, params: tuple) -> Path:
        """The on-disk path for ``(kind, fingerprint, params)`` under the
        current package version."""
        material = repr((kind, fingerprint, params, _package_version()))
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]
        safe_kind = "".join(c if c.isalnum() else "_" for c in kind)
        return self.root / f"{safe_kind}-{digest}.model"

    # -- load / store ------------------------------------------------------

    def load(self, kind: str, fingerprint: int, params: tuple) -> object | None:
        """Return the stored artifact, or ``None`` on a miss.

        Corrupt entries (bad magic, digest mismatch, unpicklable
        payload) are deleted and reported as misses.
        """
        path = self.entry_path(kind, fingerprint, params)
        tel = get_telemetry()
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            if tel.enabled:
                tel.count("tga.model_store.misses")
            return None
        artifact = self._decode(blob)
        if artifact is None:
            self._drop_corrupt(path)
            self.stats.misses += 1
            if tel.enabled:
                tel.count("tga.model_store.misses")
            return None
        self.stats.hits += 1
        if tel.enabled:
            tel.count("tga.model_store.hits")
        self._touch(path)
        return artifact

    def store(
        self, kind: str, fingerprint: int, params: tuple, artifact: object
    ) -> bool:
        """Persist ``artifact``; returns whether the write published.

        Unpicklable artifacts and filesystem errors are swallowed (the
        in-process cache still holds the artifact; only persistence is
        lost).
        """
        path = self.entry_path(kind, fingerprint, params)
        tel = get_telemetry()
        try:
            payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.stats.errors += 1
            if tel.enabled:
                tel.count("tga.model_store.errors")
            return False
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        blob = _MAGIC + digest + b"\n" + payload
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.errors += 1
            if tel.enabled:
                tel.count("tga.model_store.errors")
            return False
        self.stats.stores += 1
        if tel.enabled:
            tel.count("tga.model_store.stores")
        self._evict(keep=path)
        return True

    def get_or_build(
        self,
        kind: str,
        fingerprint: int,
        params: tuple,
        builder: Callable[[], object],
    ) -> object:
        """Load the artifact, or build and persist it on a miss.

        On a miss an ``O_EXCL`` build lock dedupes concurrent cold
        processes: the first process builds while latecomers poll for
        its published entry, falling back to building themselves if it
        never appears (the lock is an optimisation, not a correctness
        mechanism — both outcomes publish identical deterministic
        artifacts).
        """
        artifact = self.load(kind, fingerprint, params)
        if artifact is not None:
            return artifact
        path = self.entry_path(kind, fingerprint, params)
        lock = path.with_name(path.name + ".lock")
        acquired = self._try_lock(lock)
        if not acquired:
            artifact = self._await_entry(kind, fingerprint, params, lock)
            if artifact is not None:
                return artifact
        try:
            artifact = builder()
            self.store(kind, fingerprint, params, artifact)
        finally:
            if acquired:
                try:
                    os.unlink(lock)
                except OSError:
                    pass
        return artifact

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[Path]:
        """All entry files currently in the store root."""
        try:
            return sorted(self.root.glob("*.model"))
        except OSError:
            return []

    def total_bytes(self) -> int:
        """Summed size of all entries (0 if the root is unreadable)."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> None:
        """Delete every entry (statistics are kept)."""
        for path in self.entries():
            try:
                path.unlink()
            except OSError:
                pass

    # -- internals ---------------------------------------------------------

    def _decode(self, blob: bytes) -> object | None:
        """Verify and unpickle one entry blob; ``None`` if invalid."""
        header_len = len(_MAGIC) + _DIGEST_LEN + 1
        if len(blob) <= header_len or not blob.startswith(_MAGIC):
            return None
        digest = blob[len(_MAGIC) : len(_MAGIC) + _DIGEST_LEN]
        if blob[len(_MAGIC) + _DIGEST_LEN : header_len] != b"\n":
            return None
        payload = blob[header_len:]
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            return None

    def _drop_corrupt(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        self.stats.corrupt_dropped += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.count("tga.model_store.corrupt_dropped")

    def _touch(self, path: Path) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass

    def _evict(self, keep: Path) -> None:
        """Drop oldest-mtime entries until the store fits ``max_bytes``.

        ``keep`` — the entry just written — is never dropped, even when
        it alone exceeds the budget (mirroring the in-memory cache's
        never-evict-newest rule) or when coarse timestamps or a clock
        step make it look no newer than the rest.
        """
        stamped = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        stamped.sort()
        evicted = 0
        for _, size, path in stamped:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            self.stats.evictions += evicted
            tel = get_telemetry()
            if tel.enabled:
                tel.count("tga.model_store.evictions", evicted)

    def _try_lock(self, lock: Path) -> bool:
        """Create the build lock; breaks stale locks from dead builders."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                if time.time() - lock.stat().st_mtime > _STALE_LOCK_S:
                    lock.unlink()
            except OSError:
                pass
            return False
        except OSError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
        return True

    def _await_entry(
        self, kind: str, fingerprint: int, params: tuple, lock: Path
    ) -> object | None:
        """Poll for a concurrent builder's entry until ``lock_timeout``."""
        deadline = time.monotonic() + self.lock_timeout
        while time.monotonic() < deadline:
            time.sleep(0.05)
            artifact = self.load(kind, fingerprint, params)
            if artifact is not None:
                return artifact
            if not lock.exists():
                # Builder finished (or died) without publishing; one
                # final look, then build ourselves.
                return self.load(kind, fingerprint, params)
        return None


#: The process-wide active store; ``None`` means persistence is off.
_ACTIVE: ModelStore | None = None


def get_model_store() -> ModelStore | None:
    """The active disk store, or ``None`` when persistence is disabled
    (the default: opt in via :func:`use_model_store` /
    :func:`set_model_store`)."""
    return _ACTIVE


def set_model_store(store: ModelStore | None) -> None:
    """Install ``store`` as the process-wide active store.

    ParallelExecutor workers call this once at chunk entry so every
    model build in the worker shares the machine-wide store; tests and
    the CLI prefer the scoped :func:`use_model_store`.
    """
    global _ACTIVE
    _ACTIVE = store


@contextmanager
def use_model_store(store: ModelStore | None) -> Iterator[ModelStore | None]:
    """Activate ``store`` for the dynamic extent of the block (``None``
    deactivates persistence for the block)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    try:
        yield store
    finally:
        _ACTIVE = previous


def resolve_model_store(
    setting: "str | Path | bool | ModelStore | None",
) -> ModelStore | None:
    """Map an :class:`~repro.experiments.policy.ExecutionPolicy` /CLI
    setting to a store instance.

    ``None``/``False`` → persistence off; ``True`` → the default root
    (``$REPRO_MODEL_STORE`` or ``~/.cache/repro/models``); a path →
    a store rooted there; an existing :class:`ModelStore` passes
    through.
    """
    if setting is None or setting is False:
        return None
    if setting is True:
        return ModelStore()
    if isinstance(setting, ModelStore):
        return setting
    return ModelStore(setting)
