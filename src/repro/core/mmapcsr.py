"""On-disk CSR container with zero-copy ``numpy.memmap`` loading.

This is the out-of-core twin of :class:`repro.core.graph.Graph`: the same
``indptr`` / ``indices`` / optional ``weights`` arrays, laid out in one
flat file so a graph can be *opened* instead of *loaded* — the arrays are
memory-mapped read-only and the OS pages edge blocks in on demand.  The
sharded FFT-DG generator (:mod:`repro.datagen.shards`) streams directly
into this format.

File layout (little-endian, offsets in bytes)
---------------------------------------------
::

    [0, 4096)                      header: magic line + JSON metadata,
                                   padded with spaces to HEADER_BYTES
    [4096, 4096 + 8*(n+1))         indptr   int64[n + 1]
    [...,  ... + 8*slots)          indices  int64[slots]
    [...,  ... + 8*slots)          weights  float64[slots]   (optional)

The JSON header records ``format``, ``num_vertices``, ``slots``,
``num_edges``, ``directed``, ``has_weights``, a SHA-256 ``digest`` over
the raw array bytes (indptr, then indices, then weights), and a free-form
``meta`` dict for provenance (generator parameters, trial counts).

Versioning and invalidation
---------------------------
The magic string carries the format version (:data:`CSR_MAGIC`); readers
reject other versions outright.  Files are written atomically (temp file
+ ``os.replace``) so concurrent pool workers never observe a torn file,
and the content ``digest`` lets callers verify integrity without trusting
the writer.  Like the pickle store, entries are never rewritten in place:
a stale file is simply no longer addressed once the content key moves
(see ``docs/scaling.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.core.graph import Graph
from repro.errors import GraphFormatError

__all__ = [
    "CSR_MAGIC",
    "HEADER_BYTES",
    "CSRStreamWriter",
    "write_graph_csr",
    "open_graph_csr",
    "read_csr_header",
]

#: Format magic; bump the suffix when the layout changes incompatibly.
CSR_MAGIC = "repro-csr-v1"

#: Fixed header size; the JSON metadata must fit in it.
HEADER_BYTES = 4096

_INT64 = np.dtype("<i8")
_FLOAT64 = np.dtype("<f8")


class CSRStreamWriter:
    """Incremental writer: append ``indices`` blocks, finalize with
    ``indptr``.

    The adjacency slots of a large graph arrive bucket by bucket from the
    external CSR build, so the writer seeks past the (fixed-size, known
    up-front) header and indptr sections and streams ``indices`` chunks
    to disk as they are produced, hashing them on the way.  ``finalize``
    back-fills ``indptr`` and the header, then atomically renames the
    temp file into place.  Nothing proportional to the edge count is ever
    held in memory.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        num_vertices: int,
        *,
        directed: bool = False,
        weighted: bool = False,
    ) -> None:
        self.path = Path(path)
        self.num_vertices = int(num_vertices)
        self.directed = bool(directed)
        self.weighted = bool(weighted)
        self._slots = 0
        self._digest = hashlib.sha256()
        self._indices_digest = hashlib.sha256()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".csr.tmp")
        self._tmp = tmp
        self._fh = os.fdopen(fd, "wb+")
        self._indices_start = HEADER_BYTES + _INT64.itemsize * (
            self.num_vertices + 1
        )
        self._fh.seek(self._indices_start)
        self._finalized = False

    def append_indices(self, block: np.ndarray) -> None:
        """Append one chunk of neighbour ids (vertex order, ascending)."""
        data = np.ascontiguousarray(block, dtype=_INT64)
        raw = data.tobytes()
        self._fh.write(raw)
        self._indices_digest.update(raw)
        self._slots += data.shape[0]

    @property
    def slots(self) -> int:
        """Number of indices written so far."""
        return self._slots

    def finalize(
        self,
        indptr: np.ndarray,
        *,
        num_edges: int,
        weights: np.ndarray | None = None,
        meta: dict | None = None,
    ) -> str:
        """Back-fill indptr + header, fsync, atomically rename; returns
        the content digest."""
        if self._finalized:
            raise GraphFormatError("CSRStreamWriter already finalized")
        indptr_arr = np.ascontiguousarray(indptr, dtype=_INT64)
        if indptr_arr.shape[0] != self.num_vertices + 1:
            raise GraphFormatError(
                f"indptr must have {self.num_vertices + 1} entries, "
                f"got {indptr_arr.shape[0]}"
            )
        if int(indptr_arr[-1]) != self._slots:
            raise GraphFormatError(
                f"indptr[-1]={int(indptr_arr[-1])} does not match the "
                f"{self._slots} indices written"
            )
        weights_arr = None
        if weights is not None:
            weights_arr = np.ascontiguousarray(weights, dtype=_FLOAT64)
            if weights_arr.shape[0] != self._slots:
                raise GraphFormatError(
                    f"weights must have {self._slots} entries, "
                    f"got {weights_arr.shape[0]}"
                )
        elif self.weighted:
            raise GraphFormatError("writer declared weighted; pass weights")

        try:
            if weights_arr is not None:
                self._fh.seek(self._indices_start + _INT64.itemsize * self._slots)
                self._fh.write(weights_arr.tobytes())
            self._fh.seek(HEADER_BYTES)
            self._fh.write(indptr_arr.tobytes())
            # Digest order matches read_csr_header's contract:
            # indptr, indices, weights.
            self._digest.update(indptr_arr.tobytes())
            self._digest.update(self._indices_digest.digest())
            if weights_arr is not None:
                self._digest.update(weights_arr.tobytes())
            digest = self._digest.hexdigest()
            header = {
                "format": CSR_MAGIC,
                "num_vertices": self.num_vertices,
                "slots": self._slots,
                "num_edges": int(num_edges),
                "directed": self.directed,
                "has_weights": weights_arr is not None,
                "digest": digest,
                "meta": meta or {},
            }
            raw = (CSR_MAGIC + "\n" + json.dumps(header, sort_keys=True)
                   + "\n").encode("utf-8")
            if len(raw) > HEADER_BYTES:
                raise GraphFormatError(
                    f"CSR header metadata too large: {len(raw)} bytes "
                    f"(limit {HEADER_BYTES})"
                )
            self._fh.seek(0)
            self._fh.write(raw.ljust(HEADER_BYTES, b" "))
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.abort()
            raise
        self._finalized = True
        return digest

    def abort(self) -> None:
        """Discard the temp file (safe to call twice)."""
        if self._finalized:
            return
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass
        self._finalized = True


def write_graph_csr(
    graph: Graph,
    path: str | os.PathLike[str],
    *,
    meta: dict | None = None,
) -> str:
    """Persist an in-memory :class:`Graph` in the mmap-CSR format.

    Returns the content digest.  The single-shot convenience twin of
    :class:`CSRStreamWriter` — the sharded generator never holds a whole
    graph and uses the stream writer directly.
    """
    writer = CSRStreamWriter(
        path,
        graph.num_vertices,
        directed=graph.directed,
        weighted=graph.weights is not None,
    )
    try:
        writer.append_indices(graph.indices)
        return writer.finalize(
            graph.indptr,
            num_edges=graph.num_edges,
            weights=graph.weights,
            meta=meta,
        )
    except BaseException:
        writer.abort()
        raise


def read_csr_header(path: str | os.PathLike[str]) -> dict:
    """Parse and sanity-check the JSON header of a CSR file."""
    path = Path(path)
    try:
        with path.open("rb") as fh:
            raw = fh.read(HEADER_BYTES)
    except OSError as exc:
        raise GraphFormatError(f"cannot read CSR file {path}: {exc}") from exc
    if len(raw) < HEADER_BYTES:
        raise GraphFormatError(f"truncated CSR header in {path}")
    magic, _, rest = raw.partition(b"\n")
    if magic.decode("utf-8", "replace") != CSR_MAGIC:
        raise GraphFormatError(
            f"unrecognized CSR magic in {path}: "
            f"{magic[:32].decode('utf-8', 'replace')!r} "
            f"(expected {CSR_MAGIC!r})"
        )
    try:
        header = json.loads(rest.split(b"\n", 1)[0].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"corrupt CSR header in {path}: {exc}") from exc
    for field in ("num_vertices", "slots", "num_edges", "directed",
                  "has_weights", "digest"):
        if field not in header:
            raise GraphFormatError(
                f"CSR header in {path} missing field {field!r}"
            )
    expected = HEADER_BYTES + _INT64.itemsize * (
        header["num_vertices"] + 1 + header["slots"]
    )
    if header["has_weights"]:
        expected += _FLOAT64.itemsize * header["slots"]
    actual = path.stat().st_size
    if actual < expected:
        raise GraphFormatError(
            f"CSR file {path} truncated: {actual} bytes, header promises "
            f"{expected}"
        )
    return header


def open_graph_csr(
    path: str | os.PathLike[str],
    *,
    verify_digest: bool = False,
) -> tuple[Graph, dict]:
    """Open a CSR file as a memory-mapped, read-only :class:`Graph`.

    Returns ``(graph, header)``; ``header["meta"]`` carries whatever
    provenance the writer stored.  The arrays are ``numpy.memmap`` views
    (mode ``"r"``) — nothing is copied, and the resident set grows only
    with the pages the algorithms actually touch.  ``verify_digest=True``
    re-hashes the arrays against the header digest (reads the whole
    file; off by default for exactly that reason).
    """
    path = Path(path)
    header = read_csr_header(path)
    n = header["num_vertices"]
    slots = header["slots"]
    indptr = np.memmap(path, dtype=_INT64, mode="r",
                       offset=HEADER_BYTES, shape=(n + 1,))
    indices_offset = HEADER_BYTES + _INT64.itemsize * (n + 1)
    indices = np.memmap(path, dtype=_INT64, mode="r",
                        offset=indices_offset, shape=(slots,))
    weights = None
    if header["has_weights"]:
        weights_offset = indices_offset + _INT64.itemsize * slots
        weights = np.memmap(path, dtype=_FLOAT64, mode="r",
                            offset=weights_offset, shape=(slots,))
    if verify_digest:
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(indptr).tobytes())
        inner = hashlib.sha256(np.ascontiguousarray(indices).tobytes())
        digest.update(inner.digest())
        if weights is not None:
            digest.update(np.ascontiguousarray(weights).tobytes())
        if digest.hexdigest() != header["digest"]:
            raise GraphFormatError(
                f"CSR content digest mismatch in {path}: file is corrupt"
            )
    graph = Graph.from_arrays(
        indptr,
        indices,
        weights=weights,
        directed=bool(header["directed"]),
        num_edges=int(header["num_edges"]),
        validate=False,
    )
    return graph, header
