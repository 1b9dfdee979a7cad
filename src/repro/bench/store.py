"""Persistent content-addressed artifact store for the bench harness.

The paper's evaluation reuses the same expensive artifacts — generated
FFT-DG datasets and metered case runs — across many analyses (Table 7
shares runs between Figs. 10–12), and LDBC Graphalytics makes the same
point: a benchmark harness must amortize dataset generation and repeated
runs.  The in-process caches (``datagen.catalog``'s ``lru_cache``,
``bench.runner``'s memo dict) already amortize within one process;
this module extends the amortization **across processes and across
invocations**, which is what makes the pool executor
(:mod:`repro.bench.pool`) profitable — workers share built datasets and
finished :class:`~repro.bench.runner.CaseOutcome`\\ s through the store
instead of rebuilding per process.

Content addressing
------------------
Every artifact is keyed by a SHA-256 digest of a *canonical* rendering
of everything that determines its bytes:

* the artifact kind (``"dataset"`` or ``"case"``),
* the full parameter payload (generator name + params + seed for
  datasets; platform/algorithm/dataset/cluster/params for cases), and
* :data:`STORE_VERSION`, a code-relevant version tag bumped whenever a
  change to generators, engines, or the cost model invalidates stored
  artifacts.

Canonicalization (:func:`canonical_key`) renders dataclasses, dicts,
tuples, enums, and floats deterministically (``repr`` round-trips
floats exactly), so the same logical payload always produces the same
digest regardless of process, dict insertion order, or platform.

Layout and hygiene
------------------
``<root>/<kind>/<digest[:2]>/<digest>.pkl`` — pickled artifacts,
written atomically (temp file + ``os.replace``) so concurrent pool
workers never observe a torn file.  A corrupt or unreadable entry is
treated as a miss and rebuilt, never an error.  The store never
invalidates by itself: stale entries are only skipped because
:data:`STORE_VERSION` moved them to a different digest.  Delete the
cache directory to reclaim space (see ``docs/benchmarking.md``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.obs import STORE_HITS, STORE_MISSES, STORE_PUTS, get_tracer

__all__ = [
    "STORE_VERSION",
    "ArtifactStore",
    "canonical_key",
    "get_artifact_store",
    "set_artifact_store",
]

#: Code-relevant version tag mixed into every content key.  Bump this
#: when generator, engine, or cost-model changes make previously stored
#: datasets or case outcomes stale; old entries then simply stop being
#: addressed (no in-place invalidation logic to get wrong).
STORE_VERSION = "repro-store-v1"


def _canonical(value: object) -> str:
    """Render ``value`` into a deterministic, type-tagged string."""
    if value is None or isinstance(value, (bool, int)):
        return repr(value)
    if isinstance(value, float):
        # repr round-trips doubles exactly; 1.0 and 1 must not collide.
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{value!r}"
    if isinstance(value, enum.Enum):
        return f"e:{type(value).__name__}.{value.name}"
    if isinstance(value, np.ndarray):
        return (f"a:{value.dtype}:{value.shape}:"
                f"{hashlib.sha256(np.ascontiguousarray(value)).hexdigest()}")
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"d:{type(value).__name__}({fields})"
    if isinstance(value, (list, tuple)):
        return f"t:({','.join(_canonical(v) for v in value)})"
    if isinstance(value, (set, frozenset)):
        return f"x:({','.join(sorted(_canonical(v) for v in value))})"
    if isinstance(value, dict):
        items = sorted(
            (_canonical(k), _canonical(v)) for k, v in value.items()
        )
        return f"m:({','.join(f'{k}:{v}' for k, v in items)})"
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for content "
        f"addressing; use primitives, dataclasses, or containers thereof"
    )


def canonical_key(kind: str, payload: object) -> str:
    """SHA-256 content key for ``payload`` under :data:`STORE_VERSION`.

    Two payloads share a key iff their canonical renderings match —
    dict ordering, process identity, and float formatting quirks cannot
    fork the address space.
    """
    text = f"{STORE_VERSION}|{kind}|{_canonical(payload)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ArtifactStore:
    """On-disk pickle store addressed by :func:`canonical_key`.

    Thread- and process-safe for the harness's access pattern: writes
    are atomic renames, reads of missing/corrupt entries are misses.
    Keeps local hit/miss/put tallies (always, even with tracing off) and
    mirrors them into the observability counters when a tracer is
    enabled.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def get(self, kind: str, payload: object) -> object | None:
        """Fetch the artifact for ``payload``; ``None`` on a miss.

        Unreadable entries (torn writes from a killed process, pickle
        format drift) count as misses and are left for the next
        :meth:`put` to overwrite.
        """
        path = self._path(kind, canonical_key(kind, payload))
        tracer = get_tracer()
        try:
            with path.open("rb") as fh:
                artifact = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            if tracer.enabled:
                tracer.add(STORE_MISSES, 1.0)
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, TypeError) as exc:
            # The entry exists but cannot be read — a torn write from a
            # killed process, pickle format drift, or bit rot.  Still a
            # miss (the next put overwrites it), but say so: silent
            # rebuild loops on a corrupt store are miserable to diagnose.
            print(
                f"repro-bench: corrupt store entry treated as miss: "
                f"{path} (kind={kind}): {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            self.misses += 1
            if tracer.enabled:
                tracer.add(STORE_MISSES, 1.0)
            return None
        self.hits += 1
        if tracer.enabled:
            tracer.add(STORE_HITS, 1.0)
        return artifact

    def put(self, kind: str, payload: object, artifact: object) -> None:
        """Store ``artifact`` under ``payload``'s content key, atomically."""
        path = self._path(kind, canonical_key(kind, payload))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(artifact, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add(STORE_PUTS, 1.0)

    def stats(self) -> dict[str, int]:
        """Local hit/miss/put tallies since this store object was made."""
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}

    # -- dataset-persistence protocol (plugged into datagen.catalog) ----

    def load_dataset(self, payload: tuple) -> object | None:
        """Dataset half of the catalog's persistence hooks."""
        return self.get("dataset", payload)

    def store_dataset(self, payload: tuple, instance: object) -> None:
        """Dataset half of the catalog's persistence hooks."""
        self.put("dataset", payload, instance)


_STORE: ArtifactStore | None = None


def get_artifact_store() -> ArtifactStore | None:
    """The process-global store (``None`` = persistence disabled)."""
    return _STORE


def set_artifact_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Install ``store`` globally (pool workers inherit it); returns the
    previous one.  Also plugs/unplugs the dataset-persistence hooks of
    :mod:`repro.datagen.catalog` so built datasets persist too.
    """
    global _STORE
    from repro.datagen import catalog

    previous = _STORE
    _STORE = store
    catalog.set_dataset_persistence(store)
    return previous
