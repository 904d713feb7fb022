"""Fuzz corpus for trace ingestion (ISSUE 5, satellite c).

Deterministic mutants of valid trace files — single-bit flips and
truncations at seeded positions — must NEVER escape the structured
error taxonomy:

* strict mode: every mutant either raises a :class:`TraceError` or
  loads data identical to the original (no silent wrong data);
* salvage mode: every mutant raises a :class:`TraceError`, or returns a
  trace flagged with ``trace.salvage``, or returns the original data —
  and a truncation salvage is always a *prefix* of the original records.

The corpus is seeded, so a mutant that passes once passes forever; any
new uncaught exception type is a real ingestion-hardening regression.
"""

import random
import struct
import zlib

import pytest

from repro.check.errors import TraceError
from repro.workloads import trace as trace_module
from repro.workloads.trace import (
    BranchType,
    Instruction,
    Trace,
    read_trace,
    write_trace,
)

SEED = 0x5EED
RECORD_SIZE = struct.Struct("<QIBBQQ").size  # 30 bytes

#: (field overrides, diagnosis) for one damaged record.  The damage sits
#: at record 17 unless an ``index`` entry moves it (-1: the last record).
#: Between them the cases hit every byte column the bulk validator
#: checks, at the first illegal value past each legal range.
BAD_FIELDS = [
    ({"flags": 0x80}, "reserved flag"),
    ({"flags": 0x0F}, "branch type"),
    ({"size": 0}, "size 0 out of range"),
    ({"size": 6000}, "size 6000 out of range"),
    ({"pc": 1 << 63}, "exceeds the 62-bit"),
    ({"data_addr": (1 << 62) + 4}, "exceeds the 62-bit"),
    ({"size": 65}, "size 65 out of range"),
    ({"size": 0x100}, "size 256 out of range"),
    ({"size": 0x101}, "size 257 out of range"),
    ({"size": 0x1000001}, "size 16777217 out of range"),
    ({"flags": 0x07}, "branch type 7 out of range"),
    ({"pc": 1 << 62}, "pc 0x4000000000000000 exceeds the 62-bit"),
    ({"target": 1 << 62}, "target 0x4000000000000000 exceeds the 62-bit"),
    ({"data_addr": 1 << 62}, "data_addr 0x4000000000000000 exceeds the 62-bit"),
    ({"index": 0, "flags": 0x80}, "reserved flag"),
    ({"index": -1, "size": 65}, "size 65 out of range"),
]


def _base_instructions():
    rng = random.Random(SEED)
    insts = []
    pc = 0x400000
    for i in range(50):
        if i % 7 == 3:
            target = pc + rng.randrange(-0x400, 0x400) * 4
            insts.append(
                Instruction(
                    pc=pc,
                    branch_type=BranchType.CONDITIONAL,
                    taken=bool(i % 2),
                    target=max(0, target),
                )
            )
        elif i % 11 == 5:
            insts.append(
                Instruction(pc=pc, is_load=True, data_addr=rng.getrandbits(40))
            )
        else:
            insts.append(Instruction(pc=pc, size=4))
        pc += 4
    return insts


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(label, pristine bytes, original instructions) per base file."""
    root = tmp_path_factory.mktemp("fuzz")
    insts = _base_instructions()
    bases = []
    for label, compress in (("compressed", True), ("uncompressed", False)):
        path = str(root / f"{label}.trace")
        write_trace(Trace("fuzz", insts, category="int"), path, compress=compress)
        bases.append((label, open(path, "rb").read(), insts))
    return bases


def _bit_flip_offsets(data, per_file=40):
    rng = random.Random(SEED)
    return sorted(rng.sample(range(len(data)), min(per_file, len(data))))


def _truncation_lengths(data):
    """Header bytes, the checksum field, and spread points in the payload."""
    lengths = {0, 1, 3, 4, 5, 6, 8, 12, 20, 24, 25}
    for i in range(1, 9):
        lengths.add(len(data) * i // 9)
    lengths.add(len(data) - 1)
    return sorted(length for length in lengths if length < len(data))


def _mutants(data):
    for offset in _bit_flip_offsets(data):
        for bit in (0, 7):
            mutated = bytearray(data)
            mutated[offset] ^= 1 << bit
            yield f"flip@{offset}.{bit}", bytes(mutated)
    for length in _truncation_lengths(data):
        yield f"trunc@{length}", data[:length]


def _load(path, mutated, salvage):
    open(path, "wb").write(mutated)
    return read_trace(path, salvage=salvage)


class TestFuzzCorpus:
    def test_corpus_is_large_enough(self, corpus):
        total = sum(len(list(_mutants(data))) for _label, data, _insts in corpus)
        assert total >= 100

    def test_strict_mode_never_returns_wrong_data(self, corpus, tmp_path):
        path = str(tmp_path / "mutant.trace")
        for label, data, insts in corpus:
            for name, mutated in _mutants(data):
                try:
                    trace = _load(path, mutated, salvage=False)
                except TraceError:
                    continue
                except Exception as exc:  # noqa: BLE001 - the point of the fuzz
                    pytest.fail(
                        f"{label}/{name}: non-TraceError escaped: "
                        f"{type(exc).__name__}: {exc}"
                    )
                assert trace.instructions == insts, (
                    f"{label}/{name}: strict load succeeded with wrong data"
                )

    def test_salvage_mode_flags_every_recovery(self, corpus, tmp_path):
        path = str(tmp_path / "mutant.trace")
        for label, data, insts in corpus:
            for name, mutated in _mutants(data):
                try:
                    trace = _load(path, mutated, salvage=True)
                except TraceError:
                    continue
                except Exception as exc:  # noqa: BLE001
                    pytest.fail(
                        f"{label}/{name}: non-TraceError escaped in salvage: "
                        f"{type(exc).__name__}: {exc}"
                    )
                if trace.salvage is None:
                    assert trace.instructions == insts, (
                        f"{label}/{name}: unflagged salvage load returned "
                        f"wrong data"
                    )
                elif name.startswith("trunc@"):
                    recovered = trace.instructions
                    assert recovered == insts[: len(recovered)], (
                        f"{label}/{name}: truncation salvage is not a prefix"
                    )

    def test_truncation_salvage_recovers_records(self, corpus, tmp_path):
        """Cutting an uncompressed file mid-block still yields the prefix."""
        path = str(tmp_path / "cut.trace")
        for label, data, insts in corpus:
            if label != "uncompressed":
                continue
            header_len = len(data) - len(insts) * RECORD_SIZE
            cut = header_len + 10 * RECORD_SIZE + 7  # ten whole records + a torn one
            open(path, "wb").write(data[:cut])
            trace = read_trace(path, salvage=True)
            assert trace.instructions == insts[:10]
            assert trace.salvage is not None
            assert trace.salvage.recovered == 10
            assert trace.salvage.expected == len(insts)
            assert not trace.salvage.complete


class TestTargetedRecordCorruption:
    """Record-level damage behind a *recomputed* checksum.

    Random flips are caught by the CRC first; these mutants fix the CRC
    up so the per-record field validation is what fires.
    """

    def _corrupt_record(self, insts, index, **overrides):
        """A v3 uncompressed file whose record ``index`` is damaged."""
        body = bytearray()
        record = struct.Struct("<QIBBQQ")
        for i, inst in enumerate(insts):
            fields = {
                "pc": inst.pc,
                "size": inst.size,
                "flags": int(inst.branch_type)
                | (0x10 if inst.taken else 0)
                | (0x20 if inst.is_load else 0)
                | (0x40 if inst.is_store else 0),
                "target": inst.target,
                "data_addr": inst.data_addr,
            }
            if i == index:
                fields.update(overrides)
            body += record.pack(
                fields["pc"], fields["size"], fields["flags"], 0,
                fields["target"], fields["data_addr"],
            )
        name = b"fuzz"
        cat = b"int"
        header_tail = (
            bytes([3, 0])
            + struct.pack("<H", len(name)) + name
            + struct.pack("<H", len(cat)) + cat
            + struct.pack("<Q", len(insts))
        )
        payload = bytes(body)
        crc = zlib.crc32(payload, zlib.crc32(header_tail))
        return b"EPTR" + header_tail + struct.pack("<I", crc) + payload

    @pytest.mark.parametrize("overrides, reason_fragment", BAD_FIELDS)
    def test_bad_field_is_diagnosed(self, tmp_path, overrides, reason_fragment):
        insts = _base_instructions()
        overrides = dict(overrides)
        index = overrides.pop("index", 17) % len(insts)
        data = self._corrupt_record(insts, index, **overrides)
        path = str(tmp_path / "bad_field.trace")
        open(path, "wb").write(data)
        with pytest.raises(TraceError, match=reason_fragment) as excinfo:
            read_trace(path)
        assert excinfo.value.record_index == index
        assert excinfo.value.offset == index * RECORD_SIZE
        assert f"#{index}" in str(excinfo.value)

    def test_salvage_keeps_prefix_before_bad_record(self, tmp_path):
        insts = _base_instructions()
        path = str(tmp_path / "bad_field.trace")
        for overrides, _reason in BAD_FIELDS:
            overrides = dict(overrides)
            index = overrides.pop("index", 17) % len(insts)
            open(path, "wb").write(self._corrupt_record(insts, index, **overrides))
            trace = read_trace(path, salvage=True)
            assert trace.instructions == insts[:index], overrides
            assert trace.salvage is not None
            assert trace.salvage.recovered == index
            assert any(f"record #{index}" in r for r in trace.salvage.reasons)

    def test_legal_extremes_take_the_bulk_path(self, tmp_path, monkeypatch):
        """Every field at the edge of its legal range passes the column
        checks, so the per-record loop never runs and the bulk decode
        returns the records unchanged."""
        top = (1 << 62) - 1
        insts = [
            Instruction(pc=top, size=1, target=top, data_addr=top),
            Instruction(pc=0, size=64),
            Instruction(pc=4, branch_type=BranchType.RETURN, taken=True, target=top),
            Instruction(pc=8, is_load=True, data_addr=top),
            Instruction(pc=12, is_store=True, data_addr=top),
            Instruction(
                pc=top, size=64, branch_type=BranchType.RETURN, taken=True,
                target=top, is_load=True, is_store=True, data_addr=top,
            ),
        ]
        path = str(tmp_path / "extremes.trace")
        write_trace(Trace("edge", insts, category="int"), path)

        def per_record_loop(*_args):
            raise AssertionError("a legal block fell back to the per-record loop")

        monkeypatch.setattr(trace_module, "_decode_record", per_record_loop)
        loaded = read_trace(path).instructions
        assert loaded == insts
        # Same record type and field types (BranchType, bool) as built.
        assert [(type(i), *map(type, i)) for i in loaded] == [
            (type(i), *map(type, i)) for i in insts
        ]
