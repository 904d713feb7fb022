"""One-stop loading of external trace files of any supported format.

The repo speaks three on-disk trace formats:

* the native binary format (``EPTR`` magic, self-compressed CRC-checked
  payload — :mod:`repro.workloads.trace`),
* the line-oriented text format (:mod:`repro.workloads.convert`),
* headerless ChampSim-format records, raw or gzipped
  (:mod:`repro.workloads.champsim`).

:func:`detect_trace_format` sniffs which one a file is from its *bytes*
(never the extension: ChampSim traces circulate under every imaginable
suffix), and :func:`load_external_trace` dispatches to the right reader.
:func:`file_workload_spec` wraps a file into a
:class:`~repro.workloads.generators.WorkloadSpec` so external traces flow
through suites, sweeps, figures, tuning, and the run cache exactly like
generated workloads.
"""

from __future__ import annotations

import gzip
import os
from typing import List, Optional, Sequence, Union

from repro.check.errors import TraceHeaderError
from repro.workloads.champsim import read_champsim_trace
from repro.workloads.convert import read_text_trace
from repro.workloads.generators import WorkloadSpec
from repro.workloads.trace import Trace, read_trace, read_trace_header

PathLike = Union[str, "os.PathLike[str]"]

FORMATS = ("binary", "text", "champsim")

_GZIP_MAGIC = b"\x1f\x8b"
_BINARY_MAGIC = b"EPTR"

#: Bytes legal in the text trace format (printable ASCII + whitespace).
_TEXT_BYTES = frozenset(range(0x20, 0x7F)) | {0x09, 0x0A, 0x0D}

#: Suffixes stripped when deriving a workload name from a file name.
_NAME_SUFFIXES = (
    ".gz", ".xz", ".trace", ".champsimtrace", ".champsim", ".txt", ".bin"
)


def default_trace_name(path: PathLike) -> str:
    """A workload name for a trace file: base name minus known suffixes."""
    base = os.path.basename(os.fspath(path))
    changed = True
    while changed:
        changed = False
        for suffix in _NAME_SUFFIXES:
            if base.endswith(suffix) and len(base) > len(suffix):
                base = base[: -len(suffix)]
                changed = True
    return base or "imported"


def _head(path: str, n: int = 256) -> bytes:
    """The first ``n`` payload bytes, looking through one gzip layer."""
    with open(path, "rb") as fh:
        raw = fh.read(2)
    if raw == _GZIP_MAGIC:
        try:
            with gzip.open(path, "rb") as zh:
                return zh.read(n)
        except OSError:
            # Corrupt gzip: no head to sniff; champsim's salvage path is
            # the only reader that can make sense of it.
            return b""
    with open(path, "rb") as fh:
        return fh.read(n)


def detect_trace_format(path: PathLike) -> str:
    """Classify a trace file as ``binary``, ``text``, or ``champsim``.

    Detection is content-based: the native format announces itself with
    the ``EPTR`` magic, the text format is pure printable ASCII, and
    anything else (headerless fixed-width records) is ChampSim.  A gzip
    wrapper is looked through first.
    """
    path = os.fspath(path)
    head = _head(path)
    if head.startswith(_BINARY_MAGIC):
        return "binary"
    if head and all(b in _TEXT_BYTES for b in head):
        return "text"
    return "champsim"


def _reject_gzipped_binary(path: str) -> None:
    """Native traces are self-compressed; a gzip layer around one is an error."""
    with open(path, "rb") as fh:
        wrapped = fh.read(2) == _GZIP_MAGIC
    if wrapped:
        raise TraceHeaderError(
            f"{path}: externally gzipped native trace (the binary "
            f"format is already compressed — gunzip the file first)",
            path=path,
            offset=0,
        )


def load_external_trace(
    path: PathLike,
    name: Optional[str] = None,
    category: Optional[str] = None,
    fmt: str = "auto",
    layout: str = "auto",
    limit: Optional[int] = None,
    salvage: bool = False,
) -> Trace:
    """Load a trace file of any supported format.

    Args:
        path: the trace file.
        name: workload name (default: derived from the file name for
            text/champsim, the stored name for binary).
        category: workload category override (default: the format's own
            default — the stored category for binary, ``unknown`` for
            text, ``cloud`` for ChampSim).
        fmt: ``auto`` (sniff the bytes) or one of :data:`FORMATS`.
        layout: ChampSim record layout (``auto``/``legacy``/``v2``);
            ignored for other formats.
        limit: keep at most this many leading records (ChampSim only).
        salvage: recover the longest valid prefix from a damaged binary
            or ChampSim file instead of raising (``trace.salvage``
            reports what was lost).

    Raises:
        TraceError: structured ingestion failure from the format reader.
    """
    path = os.fspath(path)
    if fmt == "auto":
        fmt = detect_trace_format(path)
    if fmt not in FORMATS:
        raise ValueError(f"unknown trace format {fmt!r} (choose from {FORMATS})")
    if fmt == "binary":
        _reject_gzipped_binary(path)
        trace = read_trace(path, salvage=salvage)
        if name is not None:
            trace.name = name
        if category is not None:
            trace.category = category
        return trace
    if fmt == "text":
        trace = read_text_trace(
            path,
            name=name or default_trace_name(path),
            category=category or "unknown",
        )
        return trace
    return read_champsim_trace(
        path,
        name=name or default_trace_name(path),
        category=category or "cloud",
        layout=layout,
        limit=limit,
        salvage=salvage,
    )


def file_workload_spec(
    path: PathLike,
    name: Optional[str] = None,
    category: Optional[str] = None,
    n_instructions: Optional[int] = None,
    seed: int = 0,
) -> WorkloadSpec:
    """Wrap a trace file into a :class:`WorkloadSpec`.

    The spec is sized here (``n_instructions`` drives warmup resolution
    downstream) and the records are decoded on demand by
    ``make_workload`` — suites and parallel workers only pickle the
    lightweight spec.  A native binary file is sized from its header
    alone: its name, category and record count are read and its checksum
    verified, but nothing is decompressed or decoded, so a record that is
    invalid behind a valid checksum fails when ``make_workload`` decodes
    it (``run_suite`` quarantines those pairs).  Text and ChampSim files
    only know their length once decoded, so they are loaded here.  The
    path is stored absolute so workers resolve it regardless of their
    working directory.
    """
    path = os.path.abspath(os.fspath(path))
    fmt = detect_trace_format(path)
    if fmt == "binary":
        _reject_gzipped_binary(path)
        header = read_trace_header(path)
        stored_name, stored_category, length = (
            header.name, header.category, header.count
        )
    else:
        trace = load_external_trace(path, name=name, category=category, fmt=fmt)
        stored_name, stored_category, length = (
            trace.name, trace.category, len(trace)
        )
    if n_instructions is not None:
        length = min(length, n_instructions)
    if length == 0:
        raise TraceHeaderError(
            f"{path}: trace file holds no instructions", path=path, offset=0
        )
    return WorkloadSpec(
        name=name or stored_name,
        category=category or stored_category,
        seed=seed,
        n_instructions=length,
        trace_file=path,
    )


def trace_file_suite(
    paths: Sequence[PathLike],
    category: Optional[str] = None,
    n_instructions: Optional[int] = None,
) -> List[WorkloadSpec]:
    """Specs for a set of external trace files (one workload per file)."""
    return [
        file_workload_spec(p, category=category, n_instructions=n_instructions)
        for p in paths
    ]
