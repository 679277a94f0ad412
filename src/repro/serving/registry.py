"""A named, thread-safe registry of releases.

A serving process holds *many* releases — different datasets, epochs, or
ε budgets — and requests address them by name.  The registry maps names
to either in-process :class:`~repro.core.framework.PublishResult`
objects (just published, never written to disk) or archive-backed
:class:`~repro.io.ResultHandle` entries that stay unloaded until their
first request (so registering fifty archives costs fifty header reads,
not fifty payload loads).

Every entry carries its own re-entrant lock: the server uses it to make
lazy loading, engine construction, and any direct entry access safe
under concurrent traffic without a global serving lock.
"""

from __future__ import annotations

import os
import pathlib
import threading
from dataclasses import dataclass, field

from repro.core.framework import PublishResult
from repro.errors import ServingError
from repro.io import ResultHandle, open_result

__all__ = ["ReleaseRegistry"]


@dataclass
class _Entry:
    """One registered release: in-process result or lazy archive handle."""

    result: PublishResult | None = None
    handle: ResultHandle | None = None
    lock: threading.RLock = field(default_factory=threading.RLock)


class ReleaseRegistry:
    """Name → release mapping with lazy archive loading and per-name locks."""

    def __init__(self):
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def names(self) -> tuple[str, ...]:
        """All registered release names, sorted."""
        with self._lock:
            return tuple(sorted(self._entries))

    def register(self, name: str, result: PublishResult) -> str:
        """Register an in-process published result under ``name``.

        Parameters
        ----------
        name:
            Unique release name requests will address.
        result:
            The published result to serve.

        Returns
        -------
        str
            The registered name (for chaining).  Duplicate names raise
            :class:`~repro.errors.ServingError` — re-publishing under an
            existing name would silently change answers under traffic.
        """
        if not isinstance(result, PublishResult):
            raise ServingError(
                f"can only register a PublishResult, got {type(result).__name__}"
            )
        with self._lock:
            self._check_new_name(name)
            self._entries[name] = _Entry(result=result)
        return name

    def register_archive(self, path, *, name: str | None = None) -> str:
        """Register an archive lazily; the payload loads on first touch.

        The path is pinned to its **absolute** form at registration
        time: lazy loading happens at an arbitrary later moment (the
        first request), and a process that has since changed its working
        directory must still resolve the archive the caller meant.

        Parameters
        ----------
        path:
            A ``.npz`` archive written by :func:`repro.io.save_result`.
            The header is read (and validated) now; arrays are not.
        name:
            Release name; defaults to the file stem (``release.npz`` →
            ``release``).

        Returns
        -------
        str
            The registered name.
        """
        path = os.path.abspath(os.fspath(path))
        if name is None:
            name = pathlib.Path(path).stem
        handle = open_result(path)
        with self._lock:
            self._check_new_name(name)
            self._entries[name] = _Entry(handle=handle)
        return name

    def replace(self, name: str, result: PublishResult) -> None:
        """Swap an existing entry's result in place (atomic per entry).

        Unlike :meth:`register`, the name must already exist — this is
        the deliberate "change answers under traffic" path, used when a
        live stream republishes (the shared-memory worker re-attaches
        its segments through this).  The entry becomes in-memory; a
        previously archive-backed handle is dropped.

        Parameters
        ----------
        name:
            A registered release name.
        result:
            The replacement result to serve from now on.
        """
        if not isinstance(result, PublishResult):
            raise ServingError(
                f"can only register a PublishResult, got {type(result).__name__}"
            )
        entry = self._entry(name)
        with entry.lock:
            entry.result = result
            entry.handle = None

    def refresh(self, name: str) -> bool:
        """Re-resolve an archive-backed entry from its file on disk.

        The swap is atomic under the entry's lock: in-flight requests
        finish against the release they already resolved, and the next
        resolution sees the re-opened archive (for a stream archive,
        its newest release tree).  A loaded stream root hands its
        running prefix to the re-opened root, which continues it when
        every leaf it folded is unchanged in the new file (see
        :meth:`repro.io.ResultHandle.load`), so an append costs one
        leaf read and one slice add instead of a reload.  In-memory
        entries have nothing to re-resolve and return ``False``.

        Parameters
        ----------
        name:
            A registered release name.

        Returns
        -------
        bool
            True when the entry was re-opened.
        """
        entry = self._entry(name)
        with entry.lock:
            if entry.handle is None:
                return False
            previous = entry.result
            entry.handle = open_result(entry.handle.path)
            entry.result = None
            slices = getattr(getattr(previous, "release", None), "slices", None)
            if slices is not None:
                entry.result = entry.handle.load(slices=slices)
            return True

    def stale(self, name: str) -> bool:
        """Whether ``name``'s archive changed on disk since it was opened.

        A pure ``stat`` probe (see :attr:`repro.io.ResultHandle.stale`);
        in-memory entries are never stale.

        Parameters
        ----------
        name:
            A registered release name.
        """
        entry = self._entry(name)
        handle = entry.handle
        return handle is not None and handle.stale

    def get(self, name: str) -> PublishResult:
        """Resolve ``name`` to its result, loading an archive on first touch.

        Returns
        -------
        PublishResult
            The registered (or lazily loaded) result.  Unknown names
            raise :class:`~repro.errors.ServingError` with code
            ``unknown-release``.
        """
        entry = self._entry(name)
        with entry.lock:
            if entry.result is None:
                entry.result = entry.handle.load()
            return entry.result

    def lock_for(self, name: str) -> threading.RLock:
        """The per-release lock guarding ``name``'s entry."""
        return self._entry(name).lock

    def describe(self, name: str) -> dict:
        """Cheap metadata for ``name`` without forcing a payload load.

        Returns
        -------
        dict
            ``name``, ``source`` (``memory`` or the archive path),
            ``loaded``, and — when known without loading — ``epsilon``,
            ``representation``, and the schema ``shape``.
        """
        entry = self._entry(name)
        with entry.lock:
            if entry.result is not None:
                release = entry.result.release
                return {
                    "name": name,
                    "source": entry.handle.path if entry.handle else "memory",
                    "loaded": True,
                    "epsilon": entry.result.epsilon,
                    "representation": entry.result.representation,
                    "shape": list(release.schema.shape),
                }
            return {
                "name": name,
                "source": entry.handle.path,
                "loaded": False,
                "epsilon": entry.handle.epsilon,
                "representation": entry.handle.representation,
                "shape": list(entry.handle.schema().shape),
            }

    # ------------------------------------------------------------------
    def _entry(self, name: str) -> _Entry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ServingError(
                f"unknown release {name!r}; registered: {self.names}",
                code="unknown-release",
            )
        return entry

    def _check_new_name(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ServingError(f"release name must be a non-empty string, got {name!r}")
        if name in self._entries:
            raise ServingError(f"release {name!r} is already registered")

    def __repr__(self) -> str:
        return f"ReleaseRegistry({list(self.names)})"
