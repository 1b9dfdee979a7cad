"""Execution profiles: one config object for the harness's runtime knobs.

``repro-bench`` grew its execution flags one PR at a time — ``--jobs``,
``--cache-dir``, ``--no-cache``, ``--dataset-cache-size``, ``--trace`` —
and every entry point (CLI, service, benchmarks, CI smoke tools)
re-assembled the same knobs by hand.  :class:`ExecutionProfile`
consolidates them into a single frozen value object with **one**
precedence rule, applied by :func:`resolve_profile`:

    CLI flags  >  profile file  >  defaults

Profile files are TOML (stdlib :mod:`tomllib`), either flat or under an
``[execution]`` table::

    # bench.toml
    [execution]
    jobs = 8
    cache-dir = "benchmarks/cache"
    dataset-cache-size = 8

Keys may use dashes or underscores, and each value must have its
field's native TOML type (``jobs = 4``, not ``jobs = "4"``).  Unknown
keys and mistyped values raise
:class:`~repro.errors.ExecutionProfileError` — a typo'd knob should
fail loudly, not silently fall back to a default.
"""

from __future__ import annotations

import os
import tomllib
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from repro.errors import ExecutionProfileError

__all__ = ["ExecutionProfile", "load_profile", "resolve_profile"]


@dataclass(frozen=True)
class ExecutionProfile:
    """The harness's runtime execution knobs, as one value object.

    Field semantics match the historical CLI flags exactly:

    * ``jobs`` — pool worker processes (1 = in-process sequential).
    * ``cache_dir`` — persistent artifact-store root (``None`` = no
      store unless ``no_cache`` decides otherwise at the entry point).
    * ``no_cache`` — disable the persistent store even if a default
      cache directory exists.
    * ``dataset_cache_size`` — in-process dataset LRU size (``None`` =
      library default).
    * ``trace`` — trace-export path (``None`` = tracing off).
    * ``dynamic_batches`` — incremental windows per dynamic-workload
      stream (``repro-bench dynamic``).
    * ``dynamic_batch_edges`` — edges per incremental window of the
      dynamic workload.
    """

    jobs: int = 1
    cache_dir: str | None = None
    no_cache: bool = False
    dataset_cache_size: int | None = None
    trace: str | None = None
    dynamic_batches: int = 8
    dynamic_batch_edges: int = 50

    def __post_init__(self) -> None:
        """Validate knob ranges (delayed errors are confusing errors)."""
        if self.jobs < 1:
            raise ExecutionProfileError(
                f"jobs must be >= 1, got {self.jobs}"
            )
        if self.dataset_cache_size is not None and self.dataset_cache_size < 1:
            raise ExecutionProfileError(
                "dataset-cache-size must be >= 1, got "
                f"{self.dataset_cache_size}"
            )
        if self.dynamic_batches < 1:
            raise ExecutionProfileError(
                f"dynamic-batches must be >= 1, got {self.dynamic_batches}"
            )
        if self.dynamic_batch_edges < 1:
            raise ExecutionProfileError(
                "dynamic-batch-edges must be >= 1, got "
                f"{self.dynamic_batch_edges}"
            )


_INT_FIELDS = {
    "jobs",
    "dataset_cache_size",
    "dynamic_batches",
    "dynamic_batch_edges",
}
_BOOL_FIELDS = {"no_cache"}
_FIELD_NAMES = tuple(f.name for f in fields(ExecutionProfile))


def _check_type(name: str, value: Any, *, source: str) -> Any:
    """Check one TOML knob value has its field's native type."""
    if name in _BOOL_FIELDS:
        ok, kind = isinstance(value, bool), "a boolean"
    elif name in _INT_FIELDS:
        ok = isinstance(value, int) and not isinstance(value, bool)
        kind = "an integer"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ExecutionProfileError(
            f"{source}: {name} must be {kind}, got {value!r}"
        )
    return value


def _normalize_keys(raw: Mapping[str, Any], *, source: str) -> dict[str, Any]:
    """Map dash/underscore keys onto field names; reject unknowns."""
    out: dict[str, Any] = {}
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in _FIELD_NAMES:
            raise ExecutionProfileError(
                f"{source}: unknown execution knob {key!r} "
                f"(known: {', '.join(_FIELD_NAMES)})"
            )
        out[name] = _check_type(name, value, source=source)
    return out


def load_profile(path: str | os.PathLike[str]) -> ExecutionProfile:
    """Load an :class:`ExecutionProfile` from a TOML file.

    Accepts the knobs either at top level or under an ``[execution]``
    table (other top-level tables are rejected, so a profile cannot
    silently carry dead configuration).
    """
    try:
        with open(path, "rb") as fh:
            data = tomllib.load(fh)
    except FileNotFoundError:
        raise ExecutionProfileError(f"profile file not found: {path}") from None
    except tomllib.TOMLDecodeError as exc:
        raise ExecutionProfileError(f"invalid TOML in {path}: {exc}") from None
    source = str(path)
    if "execution" in data:
        table = data.pop("execution")
        if not isinstance(table, dict):
            raise ExecutionProfileError(
                f"{source}: [execution] must be a table"
            )
        if data:
            raise ExecutionProfileError(
                f"{source}: unexpected top-level keys besides [execution]: "
                f"{', '.join(sorted(data))}"
            )
        data = table
    return ExecutionProfile(**_normalize_keys(data, source=source))


def resolve_profile(
    cli: Mapping[str, Any] | None = None,
    *,
    profile_path: str | os.PathLike[str] | None = None,
) -> ExecutionProfile:
    """Layer the three knob sources into one final profile.

    ``cli`` maps field names to explicitly-given values — pass ``None``
    (or omit the key) for flags the user did not type, so defaults
    never masquerade as choices.  Precedence, lowest to highest:
    dataclass defaults, the profile file, CLI values.
    """
    profile = (
        load_profile(profile_path) if profile_path is not None
        else ExecutionProfile()
    )
    overrides: dict[str, Any] = {}
    if cli:
        for key, value in cli.items():
            name = key.replace("-", "_")
            if name not in _FIELD_NAMES:
                raise ExecutionProfileError(
                    f"CLI: unknown execution knob {key!r}"
                )
            if value is not None and value is not False:
                # argparse store_true gives False for "not typed";
                # None likewise means the flag was absent.
                overrides[name] = value
    return replace(profile, **overrides) if overrides else profile
