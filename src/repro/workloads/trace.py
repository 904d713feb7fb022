"""Instruction-trace representation and file IO.

A trace is the correct-path, retire-order instruction stream of a program,
the same abstraction ChampSim consumes.  Each record carries the program
counter, the instruction size in bytes, and — for branches — the branch
type, the taken/not-taken outcome, and the target.  Memory instructions
carry an effective data address so the L1D energy model has something to
count.

The binary file format is a small custom fixed-width encoding (no external
dependencies); see :func:`write_trace` / :func:`read_trace`.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.check.artifacts import atomic_write_bytes
from repro.check.errors import (
    TraceCRCError,
    TraceError,
    TraceHeaderError,
    TraceMagicError,
    TracePayloadError,
    TraceRecordError,
    TraceTruncatedError,
    TraceVersionError,
)


class BranchType(enum.IntEnum):
    """Branch classification used by the front end.

    Mirrors ChampSim's branch taxonomy; the front end uses the type to pick
    the prediction structure (BTB, RAS, indirect target cache) and the
    misprediction-detection stage (decode vs. execute).
    """

    NOT_BRANCH = 0
    CONDITIONAL = 1        # direction predicted, target from BTB
    DIRECT_JUMP = 2        # always taken, target from BTB
    INDIRECT_JUMP = 3      # always taken, target from indirect target cache
    DIRECT_CALL = 4        # always taken, pushes RAS
    INDIRECT_CALL = 5      # always taken, pushes RAS, target from ITC
    RETURN = 6             # always taken, target from RAS

    @property
    def is_call(self) -> bool:
        return self in (BranchType.DIRECT_CALL, BranchType.INDIRECT_CALL)

    @property
    def is_indirect(self) -> bool:
        return self in (BranchType.INDIRECT_JUMP, BranchType.INDIRECT_CALL)

    @property
    def is_unconditional(self) -> bool:
        return self not in (BranchType.NOT_BRANCH, BranchType.CONDITIONAL)


class Instruction(NamedTuple):
    """One retire-order trace record.

    An immutable tuple: traces hold hundreds of thousands of these, and a
    tuple is cheap to build and small.  Hot loops unpack it positionally
    (``for pc, size, branch_type, taken, target, is_load, is_store,
    data_addr in trace.instructions``), so the field order is part of the
    interface.

    Attributes:
        pc: virtual address of the instruction.
        size: instruction size in bytes (used to compute the next PC).
        branch_type: :class:`BranchType` classification.
        taken: branch outcome; always False for non-branches.
        target: branch target when taken, else 0.
        is_load: instruction reads data memory.
        is_store: instruction writes data memory.
        data_addr: effective data address for loads/stores, else 0.
    """

    pc: int
    size: int = 4
    branch_type: BranchType = BranchType.NOT_BRANCH
    taken: bool = False
    target: int = 0
    is_load: bool = False
    is_store: bool = False
    data_addr: int = 0

    @property
    def is_branch(self) -> bool:
        return self.branch_type != BranchType.NOT_BRANCH

    @property
    def next_pc(self) -> int:
        """Architectural next PC given the recorded outcome."""
        if self.is_branch and self.taken:
            return self.target
        return self.pc + self.size


class Trace:
    """A materialized instruction trace with identity metadata.

    Attributes:
        name: workload name (e.g. ``srv_02``).
        category: workload category (``crypto``, ``int``, ``fp``, ``srv``,
            or ``cloud``).
        instructions: the retire-order records.
    """

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instruction],
        category: str = "unknown",
    ) -> None:
        self.name = name
        self.category = category
        self.instructions: List[Instruction] = list(instructions)
        #: Set by :func:`read_trace` in salvage mode when the file was
        #: damaged and only a record prefix was recovered; None otherwise.
        self.salvage: Optional["TraceSalvage"] = None

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, category={self.category!r}, "
            f"len={len(self.instructions)})"
        )

    def footprint_lines(self, line_size: int = 64) -> int:
        """Number of distinct instruction-cache lines touched."""
        return len({inst.pc // line_size for inst in self.instructions})

    def branch_fraction(self) -> float:
        """Fraction of instructions that are branches."""
        if not self.instructions:
            return 0.0
        branches = sum(1 for inst in self.instructions if inst.is_branch)
        return branches / len(self.instructions)

    def taken_branch_count(self) -> int:
        return sum(1 for inst in self.instructions if inst.taken)


@dataclass
class TraceSalvage:
    """What salvage-mode loading recovered from a damaged trace file.

    Attached as ``Trace.salvage`` so callers can tell a clean load from a
    partial recovery — salvaged data is never returned silently.
    """

    recovered: int
    expected: int
    reasons: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.recovered == self.expected and not self.reasons

    def describe(self) -> str:
        detail = "; ".join(self.reasons) if self.reasons else "clean"
        return f"salvaged {self.recovered}/{self.expected} records ({detail})"


_MAGIC = b"EPTR"
_VERSION = 3         # written; adds a CRC32 over header tail + payload
_LEGACY_VERSION = 2  # still readable (no checksum)
_RECORD = struct.Struct("<QIBBQQ")  # pc, size, branch_type|flags, pad, target, data_addr

_FLAG_TAKEN = 0x10
_FLAG_LOAD = 0x20
_FLAG_STORE = 0x40
_TYPE_MASK = 0x0F
_FLAG_RESERVED = 0x80

#: Address-space contract for every pc/target/data_addr in a trace: the
#: simulator models a 58-bit line address space (virtual training), so a
#: 62-bit byte address leaves headroom for line arithmetic while catching
#: bit-flipped high bytes during ingestion.
_ADDRESS_BITS = 62
_MAX_ADDRESS = 1 << _ADDRESS_BITS
_MAX_INSTRUCTION_SIZE = 64
_MAX_BRANCH_TYPE = max(BranchType)


def _validate_fields(
    pc: int, size: int, flags: int, target: int, data_addr: int
) -> Optional[str]:
    """Field-level validity of one record; returns a reason or None."""
    if flags & _FLAG_RESERVED:
        return f"reserved flag bit 0x{_FLAG_RESERVED:02x} is set"
    branch_nibble = flags & _TYPE_MASK
    if branch_nibble > _MAX_BRANCH_TYPE:
        return f"branch type {branch_nibble} out of range (0-{int(_MAX_BRANCH_TYPE)})"
    if not 1 <= size <= _MAX_INSTRUCTION_SIZE:
        return f"instruction size {size} out of range (1-{_MAX_INSTRUCTION_SIZE})"
    for label, value in (("pc", pc), ("target", target), ("data_addr", data_addr)):
        if value >= _MAX_ADDRESS:
            return (
                f"{label} 0x{value:x} exceeds the {_ADDRESS_BITS}-bit "
                f"address space"
            )
    return None


def _decode_record(block: bytes, base: int) -> Tuple[Optional[Instruction], Optional[str]]:
    """Decode one record at ``base``; returns (instruction, reason)."""
    pc, size, flags, _pad, target, data_addr = _RECORD.unpack_from(block, base)
    reason = _validate_fields(pc, size, flags, target, data_addr)
    if reason is not None:
        return None, reason
    return (
        Instruction(
            pc=pc,
            size=size,
            branch_type=BranchType(flags & _TYPE_MASK),
            taken=bool(flags & _FLAG_TAKEN),
            target=target,
            is_load=bool(flags & _FLAG_LOAD),
            is_store=bool(flags & _FLAG_STORE),
            data_addr=data_addr,
        ),
        None,
    )


#: Flags bytes :func:`_validate_fields` accepts, each mapped to the
#: ``(branch_type, taken, is_load, is_store)`` fields it encodes.
_FLAG_FIELDS = {
    flags: (
        BranchType(flags & _TYPE_MASK),
        bool(flags & _FLAG_TAKEN),
        bool(flags & _FLAG_LOAD),
        bool(flags & _FLAG_STORE),
    )
    for flags in range(256)
    if not flags & _FLAG_RESERVED and flags & _TYPE_MASK <= _MAX_BRANCH_TYPE
}

#: Byte columns of the ``<QIBBQQ`` record and the byte values legal in
#: each.  A record passes them all exactly when :func:`_validate_fields`
#: accepts it: the flags byte (12) is a key of :data:`_FLAG_FIELDS`, the
#: little-endian size (bytes 8-11) is 1-64, and the high bytes of pc (7),
#: target (21) and data_addr (29) keep each address below 2**62.
_TOP_BYTE_LEGAL = bytes(range(_MAX_ADDRESS >> 56))
_COLUMN_CHECKS = (
    (12, bytes(_FLAG_FIELDS)),
    (8, bytes(range(1, _MAX_INSTRUCTION_SIZE + 1))),
    (9, b"\x00"),
    (10, b"\x00"),
    (11, b"\x00"),
    (7, _TOP_BYTE_LEGAL),
    (21, _TOP_BYTE_LEGAL),
    (29, _TOP_BYTE_LEGAL),
)


def _columns_valid(records: memoryview) -> bool:
    """Whether every whole record in ``records`` is valid.

    Checks one byte column at a time across all records (a strided
    slice, with the legal values deleted: anything left is damage), so
    a clean block costs a few C-level passes instead of a Python call
    per record.
    """
    return not any(
        records[column :: _RECORD.size].tobytes().translate(None, legal)
        for column, legal in _COLUMN_CHECKS
    )


def _decode_block(records: memoryview) -> List[Instruction]:
    """Decode a block that :func:`_columns_valid` accepted."""
    new, flag_fields = tuple.__new__, _FLAG_FIELDS
    return [
        new(
            Instruction,
            (pc, size, branch_type, taken, target, is_load, is_store, data_addr),
        )
        for pc, size, flags, _pad, target, data_addr in _RECORD.iter_unpack(records)
        for branch_type, taken, is_load, is_store in (flag_fields[flags],)
    ]


def _serialize_header_tail(
    compress: bool, name_bytes: bytes, cat_bytes: bytes, count: int
) -> bytes:
    """Version byte through record count — the checksummed header region."""
    return (
        bytes([_VERSION, 1 if compress else 0])
        + struct.pack("<H", len(name_bytes))
        + name_bytes
        + struct.pack("<H", len(cat_bytes))
        + cat_bytes
        + struct.pack("<Q", count)
    )


def write_trace(trace: Trace, path: str, compress: bool = True) -> None:
    """Serialize a trace to ``path`` (atomically: tmp + fsync + rename).

    Format version 3: ``EPTR`` magic, version byte, compression byte,
    name and category as length-prefixed UTF-8, a record count, a CRC32
    over everything after the magic (header tail + stored payload), and
    the (optionally zlib-compressed) fixed-width record block.
    """
    pack = _RECORD.pack
    payload = b"".join([
        pack(
            pc,
            size,
            (branch_type & _TYPE_MASK)
            | (_FLAG_TAKEN if taken else 0)
            | (_FLAG_LOAD if is_load else 0)
            | (_FLAG_STORE if is_store else 0),
            0,
            target,
            data_addr,
        )
        for pc, size, branch_type, taken, target, is_load, is_store, data_addr
        in trace.instructions
    ])
    if compress:
        payload = zlib.compress(payload, level=6)
    header_tail = _serialize_header_tail(
        compress,
        trace.name.encode("utf-8"),
        trace.category.encode("utf-8"),
        len(trace.instructions),
    )
    crc = zlib.crc32(payload, zlib.crc32(header_tail))
    atomic_write_bytes(
        path, _MAGIC + header_tail + struct.pack("<I", crc) + payload
    )


def _read_lp_string(data: bytes, offset: int, path: str, label: str) -> Tuple[str, int]:
    """Length-prefixed UTF-8 string at ``offset``; raises TraceHeaderError."""
    if offset + 2 > len(data):
        raise TraceHeaderError(
            f"{path}: header truncated before the {label} length at byte "
            f"{offset}",
            path=path,
            offset=offset,
        )
    (length,) = struct.unpack_from("<H", data, offset)
    offset += 2
    if offset + length > len(data):
        raise TraceHeaderError(
            f"{path}: header truncated inside the {label} field at byte "
            f"{offset} ({length} bytes declared, {len(data) - offset} left)",
            path=path,
            offset=offset,
        )
    try:
        text = data[offset : offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceHeaderError(
            f"{path}: {label} field at byte {offset} is not valid UTF-8 "
            f"({exc})",
            path=path,
            offset=offset,
        ) from None
    return text, offset + length


def _decompress_salvage(payload: bytes) -> Tuple[bytes, Optional[str]]:
    """Best-effort decompression: the longest clean prefix plus a reason."""
    decompressor = zlib.decompressobj()
    chunks: List[bytes] = []
    error: Optional[str] = None
    # Feed in small pieces so output produced before the corruption point
    # is retained; a single decompress() call would discard everything.
    for start in range(0, len(payload), 4096):
        try:
            chunks.append(decompressor.decompress(payload[start : start + 4096]))
        except zlib.error as exc:
            error = f"compressed block is corrupt ({exc})"
            break
    else:
        try:
            chunks.append(decompressor.flush())
        except zlib.error as exc:
            error = f"compressed block ends mid-stream ({exc})"
        if error is None and not decompressor.eof:
            error = "compressed block is incomplete (stream did not finish)"
    return b"".join(chunks), error


class TraceHeader(NamedTuple):
    """The parsed header of a native trace file.

    Attributes:
        name: stored workload name.
        category: stored workload category.
        count: number of records the file declares.
        compressed: whether the record block is zlib-compressed.
        payload_offset: byte offset of the stored record block.
        stored_crc: the v3 checksum, or None for a legacy v2 file.
    """

    name: str
    category: str
    count: int
    compressed: bool
    payload_offset: int
    stored_crc: Optional[int]


def _parse_header(data: bytes, path: str) -> TraceHeader:
    """Parse magic through checksum; damage here raises a TraceError."""
    if data[:4] != _MAGIC:
        raise TraceMagicError(
            f"{path}: not a trace file (magic {data[:4]!r} at byte 0, "
            f"expected {_MAGIC!r})",
            path=path,
            offset=0,
        )
    if len(data) < 6:
        raise TraceHeaderError(
            f"{path}: header truncated after the magic ({len(data)} bytes)",
            path=path,
            offset=len(data),
        )
    version, compressed = data[4], data[5]
    if version not in (_LEGACY_VERSION, _VERSION):
        raise TraceVersionError(
            f"{path}: unsupported trace version {version} at byte 4 "
            f"(this reader speaks {_LEGACY_VERSION} and {_VERSION})",
            path=path,
            offset=4,
        )
    if compressed not in (0, 1):
        raise TraceHeaderError(
            f"{path}: compression byte {compressed} at byte 5 is neither "
            f"0 nor 1",
            path=path,
            offset=5,
        )
    offset = 6
    name, offset = _read_lp_string(data, offset, path, "name")
    category, offset = _read_lp_string(data, offset, path, "category")
    if offset + 8 > len(data):
        raise TraceHeaderError(
            f"{path}: header truncated before the record count at byte "
            f"{offset}",
            path=path,
            offset=offset,
        )
    (count,) = struct.unpack_from("<Q", data, offset)
    offset += 8

    stored_crc: Optional[int] = None
    if version >= _VERSION:
        if offset + 4 > len(data):
            raise TraceHeaderError(
                f"{path}: header truncated before the checksum at byte "
                f"{offset}",
                path=path,
                offset=offset,
            )
        (stored_crc,) = struct.unpack_from("<I", data, offset)
        offset += 4
    return TraceHeader(name, category, count, bool(compressed), offset, stored_crc)


def _crc_error(data: bytes, header: TraceHeader, path: str) -> Optional[TraceCRCError]:
    """The v3 checksum mismatch over header tail + payload, if any.

    An uncompressed short payload is reported as truncation (with the
    first incomplete record) rather than as a checksum mismatch — the
    more actionable diagnosis, and the one salvage can act on — so the
    check is skipped for it, as it is for a legacy file.
    """
    if header.stored_crc is None:
        return None
    payload_bytes = len(data) - header.payload_offset
    if not header.compressed and payload_bytes < header.count * _RECORD.size:
        return None
    crc_region_end = header.payload_offset - 4
    actual_crc = zlib.crc32(
        memoryview(data)[header.payload_offset :],
        zlib.crc32(memoryview(data)[4:crc_region_end]),
    )
    if actual_crc == header.stored_crc:
        return None
    return TraceCRCError(
        f"{path}: checksum mismatch (stored 0x{header.stored_crc:08x}, "
        f"computed 0x{actual_crc:08x}) — the file is corrupt or "
        f"torn",
        path=path,
        offset=crc_region_end,
    )


def _block_length_error(path: str, length: int, count: int) -> Optional[TraceError]:
    """The error for a record block of ``length`` bytes, if it is not
    exactly ``count`` records long."""
    record_size = _RECORD.size
    expected_bytes = count * record_size
    if length == expected_bytes:
        return None
    if length < expected_bytes:
        first_incomplete = min(length // record_size, count)
        return TraceTruncatedError(
            f"{path}: truncated record block ({length} bytes, "
            f"expected {expected_bytes} = {count} records x "
            f"{record_size}B); first incomplete record is "
            f"#{first_incomplete} at payload byte "
            f"{first_incomplete * record_size}",
            path=path,
            offset=first_incomplete * record_size,
            record_index=first_incomplete,
        )
    return TracePayloadError(
        f"{path}: record block has {length} bytes, expected "
        f"{expected_bytes} ({length - expected_bytes} trailing "
        f"bytes after record #{count})",
        path=path,
        offset=expected_bytes,
        record_index=count,
    )


def read_trace_header(path: str) -> TraceHeader:
    """Parse a trace file's header and verify its checksum, nothing more.

    Sizes a trace without decompressing or decoding its records: the v3
    checksum over header tail + payload is verified (and an uncompressed
    block's length checked), so a torn or bit-flipped file still fails
    here, in the same order :func:`read_trace` reports it.  Damage behind
    a valid checksum — a record with an invalid field — surfaces only
    when the records are decoded.

    Raises:
        TraceError: the header is damaged, the checksum does not match,
            or an uncompressed record block has the wrong length.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = _parse_header(data, path)
    error: Optional[TraceError] = _crc_error(data, header, path)
    if error is None and not header.compressed:
        error = _block_length_error(
            path, len(data) - header.payload_offset, header.count
        )
    if error is not None:
        raise error
    return header


def read_trace(path: str, salvage: bool = False) -> Trace:
    """Deserialize a trace written by :func:`write_trace`.

    Reads format versions 2 (legacy, no checksum) and 3.  Every error is
    a :class:`~repro.check.errors.TraceError` subclass (a ``ValueError``)
    carrying the file path, the byte offset of the damage, and — for
    record-level damage — the index of the first bad record.

    Records are validated a byte column at a time over the whole block
    and decoded in bulk; only a block that fails a column check goes
    through the per-record loop, which finds the first bad record and
    reports (or, salvaging, cuts at) it.

    With ``salvage=True``, damage past the header is not fatal: the
    longest valid record *prefix* is recovered and the returned trace
    carries a :class:`TraceSalvage` on ``trace.salvage`` describing what
    was lost.  Header damage (magic, version, name/category/count) is
    unrecoverable and still raises.

    Raises:
        TraceError: the file is not a valid trace (bad magic, version,
            header, checksum, payload, or record), subject to the salvage
            rules above.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    problems: List[str] = []

    # -- header (damage here is fatal even in salvage mode) -----------------
    header = _parse_header(data, path)
    count, offset = header.count, header.payload_offset

    # -- checksum (v3) -------------------------------------------------------
    crc_error = _crc_error(data, header, path)
    if crc_error is not None:
        if not salvage:
            raise crc_error
        problems.append("checksum mismatch")

    # -- payload -------------------------------------------------------------
    payload = data[offset:]
    if header.compressed:
        if salvage:
            block, decomp_error = _decompress_salvage(payload)
            if decomp_error is not None:
                problems.append(decomp_error)
        else:
            try:
                block = zlib.decompress(payload)
            except zlib.error as exc:
                raise TracePayloadError(
                    f"{path}: compressed record block starting at byte "
                    f"{offset} is corrupt ({exc})",
                    path=path,
                    offset=offset,
                ) from None
    else:
        block = payload

    length_error = _block_length_error(path, len(block), count)
    if length_error is not None:
        if not salvage:
            raise length_error
        problems.append(
            f"record block has {len(block)} of {count * _RECORD.size} bytes"
        )

    # -- records -------------------------------------------------------------
    record_size = _RECORD.size
    complete_records = min(len(block) // record_size, count)
    records = memoryview(block)[: complete_records * record_size]
    if _columns_valid(records):
        instructions = _decode_block(records)
    else:
        instructions = []
        for index in range(complete_records):
            base = index * record_size
            inst, reason = _decode_record(block, base)
            if reason is None:
                instructions.append(inst)
                continue
            if not salvage:
                raise TraceRecordError(
                    f"{path}: invalid record #{index} at payload byte {base}: "
                    f"{reason}",
                    path=path,
                    offset=base,
                    record_index=index,
                )
            problems.append(f"record #{index} at payload byte {base}: {reason}")
            break  # salvage keeps the longest *valid prefix* only

    trace = Trace(name=header.name, instructions=instructions, category=header.category)
    if salvage and (problems or len(instructions) != count):
        trace.salvage = TraceSalvage(
            recovered=len(instructions), expected=count, reasons=problems
        )
    return trace


def trace_from_pcs(
    name: str,
    pcs: Iterable[int],
    category: str = "unknown",
    size: int = 4,
) -> Trace:
    """Build a trace from a bare PC sequence, inferring taken branches.

    Any PC that does not follow its predecessor sequentially is encoded as
    the target of a taken direct jump on the predecessor.  Useful for unit
    tests that want to drive the simulator with a hand-written line stream.
    """
    pc_list = list(pcs)
    instructions: List[Instruction] = []
    for i, pc in enumerate(pc_list):
        nxt: Optional[int] = pc_list[i + 1] if i + 1 < len(pc_list) else None
        if nxt is not None and nxt != pc + size:
            instructions.append(
                Instruction(
                    pc=pc,
                    size=size,
                    branch_type=BranchType.DIRECT_JUMP,
                    taken=True,
                    target=nxt,
                )
            )
        else:
            instructions.append(Instruction(pc=pc, size=size))
    return Trace(name=name, instructions=instructions, category=category)
