"""Content-hash incremental cache for the per-file lint pass.

``repro lint --cache-dir DIR`` persists each file's
:class:`~repro.lint.engine.FileScan` keyed by a SHA-256 of the file's
*bytes* plus a run token (a digest of the analysis source, the
per-file rule ids, the known suppression ids, and whether summaries
are extracted).  A warm run therefore skips parsing and per-file rules
for every unchanged file and is byte-identical to a cold run: the
cache stores the per-file pass's exact product, and everything
downstream (corpus rules, graph, effects, baseline) runs fresh either
way.

Keying by content rather than mtime makes the cache immune to
checkout churn (``git checkout`` rewrites timestamps, not bytes).  The
token's :func:`source_digest` covers every byte of the ``repro.lint``
package plus the ``repro.units`` tables extraction reads, so any change
to what the per-file pass records — a new summary field, a changed
extractor, a new unit suffix — invalidates every entry without a
version to bump, a manifest, or a cleanup pass.

Entries are pickles of frozen dataclasses this package itself
produced; the directory is engine-private (it is in
``EXCLUDED_DIR_NAMES`` spirit — point ``--cache-dir`` outside the
linted tree or at ``.repro-cache``, which the walker skips).  A stale
or corrupt entry deserializing to garbage is treated as a miss, never
an error: the cache is an accelerator, not a source of truth.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Iterable, Optional, Set

from repro.lint.engine import FileScan

__all__ = ["ScanCache", "cache_token", "source_digest"]

#: The ``repro`` package directory (this file is ``repro/lint/cache.py``).
_REPRO = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the source of everything the per-file pass runs.

    Every ``*.py`` file of the ``repro.lint`` package plus
    ``repro/units.py``, whose unit tables the extractors consult — by
    path and bytes, in sorted order.
    """
    digest = hashlib.sha256()
    for path in sorted((_REPRO / "lint").rglob("*.py")) + [_REPRO / "units.py"]:
        digest.update(path.relative_to(_REPRO).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def cache_token(
    rules: Iterable["Rule"],  # noqa: F821 — repro.lint.rules.base
    known_ids: Set[str],
    need_summary: bool,
) -> str:
    """Run token folded into every cache key.

    Everything the per-file pass's output depends on, beyond the file
    bytes themselves: the analysis source (:func:`source_digest`),
    which per-file rules run, which ids suppressions may name, and
    whether a :class:`~repro.lint.graph.summary.ModuleSummary` is
    extracted.
    """
    parts = [
        f"src={source_digest()}",
        ",".join(sorted(rule.id for rule in rules)),
        ",".join(sorted(known_ids)),
        f"summary={int(need_summary)}",
    ]
    return "|".join(parts)


class ScanCache:
    """One ``--cache-dir`` directory of pickled :class:`FileScan` entries."""

    def __init__(self, directory: Path, token: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._token = token
        self.hits = 0
        self.misses = 0

    def key(self, display_path: str, content: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(self._token.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(display_path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(content)
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.scan"

    def load(self, key: str) -> Optional[FileScan]:
        """Return the cached scan for ``key``, or ``None`` on any miss.

        Unreadable or undeserializable entries count as misses — a
        corrupt cache must never be able to fail (or skew) a run.
        """
        try:
            payload = self._entry_path(key).read_bytes()
            scan = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self.misses += 1
            return None
        if not isinstance(scan, FileScan):
            self.misses += 1
            return None
        self.hits += 1
        return scan

    def store(self, key: str, scan: FileScan) -> None:
        """Persist ``scan`` atomically (tmp file + rename).

        Concurrent runs sharing a cache directory therefore never
        observe a half-written entry; best-effort — an unwritable
        cache degrades to cold scans, it does not fail the run.
        """
        target = self._entry_path(key)
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(scan, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, target)
        except OSError:
            pass
