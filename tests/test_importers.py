"""External-trace loading: format sniffing, dispatch, and suite plumbing.

Covers :mod:`repro.workloads.importers` (detection and one-stop loading
of the binary/text/ChampSim formats), ``WorkloadSpec.trace_file`` specs
flowing through ``make_workload``/``run_suite`` like generated
workloads, the ``repro import`` / ``repro run --trace-file`` CLI
surface, and the quarantine of text-import failures
(:class:`~repro.workloads.convert.TraceParseError`) in both the serial
and parallel suite paths — the ISSUE 8 satellite.
"""

import gzip
import os
import pathlib
import struct
import zlib

import pytest

from repro.analysis.experiments import run_suite
from repro.check.errors import TraceCRCError, TraceError, TraceHeaderError
from repro.cli import main
from repro.workloads import importers
from repro.workloads import trace as trace_module
from repro.workloads.champsim import write_champsim_trace
from repro.workloads.convert import write_text_trace
from repro.workloads.generators import WorkloadSpec, make_workload
from repro.workloads.importers import (
    default_trace_name,
    detect_trace_format,
    file_workload_spec,
    load_external_trace,
    trace_file_suite,
)
from repro.workloads.trace import read_trace_header, write_trace

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden.champsimtrace.gz")


def _trace(n=2000, seed=5, category="int", name="imp"):
    return make_workload(
        WorkloadSpec(name=name, category=category, seed=seed, n_instructions=n)
    )


def _damage_record_behind_crc(path, index):
    """Set the reserved flag bit of record ``index`` in an uncompressed
    native trace and recompute the checksum, so only record validation
    can tell."""
    header = read_trace_header(path)
    data = bytearray(open(path, "rb").read())
    data[header.payload_offset + 30 * index + 12] |= 0x80
    crc_at = header.payload_offset - 4
    crc = zlib.crc32(data[header.payload_offset:], zlib.crc32(data[4:crc_at]))
    data[crc_at:header.payload_offset] = struct.pack("<I", crc)
    open(path, "wb").write(bytes(data))


@pytest.fixture()
def all_formats(tmp_path):
    """One trace written in every supported on-disk form."""
    trace = _trace()
    paths = {
        "binary": str(tmp_path / "t.trc"),
        "text": str(tmp_path / "t.txt"),
        "text.gz": str(tmp_path / "t.txt.gz"),
        "champsim": str(tmp_path / "t.champsimtrace"),
        "champsim.gz": str(tmp_path / "t.champsimtrace.gz"),
    }
    write_trace(trace, paths["binary"])
    write_text_trace(trace, paths["text"])
    write_text_trace(trace, paths["text.gz"])
    write_champsim_trace(trace, paths["champsim"], compress=False)
    write_champsim_trace(trace, paths["champsim.gz"], compress=True)
    return trace, paths


class TestDetection:
    def test_detects_every_format(self, all_formats):
        _trace_obj, paths = all_formats
        assert detect_trace_format(paths["binary"]) == "binary"
        assert detect_trace_format(paths["text"]) == "text"
        assert detect_trace_format(paths["text.gz"]) == "text"
        assert detect_trace_format(paths["champsim"]) == "champsim"
        assert detect_trace_format(paths["champsim.gz"]) == "champsim"

    def test_detection_ignores_extension(self, all_formats, tmp_path):
        _trace_obj, paths = all_formats
        disguised = str(tmp_path / "innocent.txt")
        open(disguised, "wb").write(open(paths["champsim.gz"], "rb").read())
        assert detect_trace_format(disguised) == "champsim"

    def test_default_trace_name(self):
        assert default_trace_name("/a/b/srv.champsimtrace.gz") == "srv"
        assert default_trace_name("x.trace.xz") == "x"
        assert default_trace_name(pathlib.Path("y.txt")) == "y"


class TestLoadDispatch:
    @pytest.mark.parametrize(
        "key", ("binary", "text", "text.gz", "champsim", "champsim.gz")
    )
    def test_pc_stream_identical_across_formats(self, all_formats, key):
        trace, paths = all_formats
        loaded = load_external_trace(paths[key])
        assert [i.pc for i in loaded.instructions] == [
            i.pc for i in trace.instructions
        ]

    def test_name_and_category_overrides(self, all_formats):
        _t, paths = all_formats
        loaded = load_external_trace(
            paths["champsim.gz"], name="renamed", category="srv"
        )
        assert loaded.name == "renamed"
        assert loaded.category == "srv"

    def test_binary_keeps_stored_identity(self, all_formats):
        trace, paths = all_formats
        loaded = load_external_trace(paths["binary"])
        assert loaded.name == trace.name
        assert loaded.category == trace.category

    def test_explicit_format_rejects_unknown(self, all_formats):
        _t, paths = all_formats
        with pytest.raises(ValueError):
            load_external_trace(paths["binary"], fmt="protobuf")

    def test_gzipped_binary_is_diagnosed(self, all_formats, tmp_path):
        _t, paths = all_formats
        wrapped = str(tmp_path / "t.trc.gz")
        open(wrapped, "wb").write(
            gzip.compress(open(paths["binary"], "rb").read())
        )
        with pytest.raises(TraceHeaderError, match="gunzip"):
            load_external_trace(wrapped)


class TestSpecPlumbing:
    def test_file_workload_spec_roundtrip(self, all_formats):
        trace, paths = all_formats
        spec = file_workload_spec(paths["champsim.gz"])
        assert spec.trace_file == os.path.abspath(paths["champsim.gz"])
        assert spec.n_instructions == len(trace)
        loaded = make_workload(spec)
        assert [i.pc for i in loaded.instructions] == [
            i.pc for i in trace.instructions
        ]

    def test_spec_limit_truncates(self, all_formats):
        _t, paths = all_formats
        spec = file_workload_spec(paths["binary"], n_instructions=500)
        assert spec.n_instructions == 500
        assert len(make_workload(spec)) == 500

    def test_binary_spec_is_sized_from_the_header(self, all_formats, monkeypatch):
        trace, paths = all_formats

        def decode(*_args, **_kwargs):
            raise AssertionError("sizing a native trace decoded its records")

        monkeypatch.setattr(importers, "read_trace", decode)
        monkeypatch.setattr(importers, "load_external_trace", decode)
        monkeypatch.setattr(trace_module, "read_trace", decode)
        spec = file_workload_spec(paths["binary"])
        assert spec.n_instructions == len(trace)
        assert spec.name == trace.name
        assert spec.category == trace.category

    def test_binary_spec_verifies_the_checksum(self, all_formats, tmp_path):
        _t, paths = all_formats
        data = bytearray(open(paths["binary"], "rb").read())
        data[-5] ^= 0x01  # inside the compressed record block
        flipped = str(tmp_path / "flipped.trc")
        open(flipped, "wb").write(bytes(data))
        with pytest.raises(TraceCRCError):
            file_workload_spec(flipped)

    def test_trace_file_suite(self, all_formats):
        _t, paths = all_formats
        specs = trace_file_suite(
            [paths["binary"], paths["champsim.gz"]], category="cloud"
        )
        assert len(specs) == 2
        assert all(s.category == "cloud" for s in specs)
        assert len({s.name for s in specs}) == 2

    def test_suite_runs_external_spec(self, all_formats):
        _t, paths = all_formats
        spec = file_workload_spec(paths["binary"], name="ext")
        evaluation = run_suite([spec], ["next_line"], include_baseline=False)
        assert evaluation.runs["next_line"]["ext"].stats.instructions > 0
        assert evaluation.categories["ext"] == "int"


class TestQuarantine:
    """A malformed text trace, or a native trace with an invalid record
    behind a valid checksum (its spec is sized from the header, so the
    damage surfaces when the records are decoded), must quarantine, not
    kill the suite."""

    @pytest.fixture()
    def mixed_specs(self, tmp_path):
        good = _trace(1500, name="good")
        good_path = str(tmp_path / "good.trc")
        write_trace(good, good_path)
        bad_path = str(tmp_path / "bad.txt")
        open(bad_path, "w").write("0x400000\nnot-a-pc\n")
        damaged_path = str(tmp_path / "damaged.trc")
        write_trace(_trace(1500, name="damaged"), damaged_path, compress=False)
        _damage_record_behind_crc(damaged_path, 700)
        return [
            file_workload_spec(good_path, name="good"),
            WorkloadSpec(
                name="bad", category="unknown", seed=0,
                n_instructions=1000, trace_file=bad_path,
            ),
            file_workload_spec(damaged_path, name="damaged"),
        ]

    def test_serial_quarantine(self, mixed_specs):
        evaluation = run_suite(
            mixed_specs, ["next_line"], include_baseline=False
        )
        assert "good" in evaluation.runs["next_line"]
        assert "bad" not in evaluation.runs["next_line"]
        assert "damaged" not in evaluation.runs["next_line"]
        assert evaluation.faults is not None
        bad, damaged = evaluation.faults.quarantined
        assert "bad" in bad.label
        assert "TraceParseError" in bad.error
        assert "damaged" in damaged.label
        assert "TraceRecordError" in damaged.error

    def test_parallel_quarantine(self, mixed_specs):
        evaluation = run_suite(
            mixed_specs, ["next_line"], include_baseline=False, jobs=2
        )
        assert "good" in evaluation.runs["next_line"]
        assert evaluation.faults is not None
        labels = [f.label for f in evaluation.faults.quarantined]
        assert any("bad" in label for label in labels)
        assert any("damaged" in label for label in labels)


class TestCli:
    def test_import_golden_fixture(self, tmp_path, capsys):
        out = str(tmp_path / "g.trc")
        assert main(["import", GOLDEN, out]) == 0
        text = capsys.readouterr().out
        assert "6000 instructions" in text
        assert "champsim" in text
        assert main(["run", out, "--prefetcher", "next_line"]) == 0

    def test_run_trace_file_flag(self, capsys):
        assert main(
            ["run", "--trace-file", GOLDEN, "--prefetcher", "next_line"]
        ) == 0
        assert "golden" in capsys.readouterr().out

    def test_run_rejects_both_trace_args(self, capsys):
        assert main(["run", GOLDEN, "--trace-file", GOLDEN]) == 2

    def test_run_requires_some_trace(self, capsys):
        assert main(["run"]) == 2

    def test_import_missing_source(self, tmp_path, capsys):
        rc = main(["import", str(tmp_path / "nope"), str(tmp_path / "o.trc")])
        assert rc == 2
        assert "import:" in capsys.readouterr().err

    def test_import_damaged_salvage(self, tmp_path, capsys):
        payload = gzip.decompress(open(GOLDEN, "rb").read())
        cut = str(tmp_path / "cut.trace")
        open(cut, "wb").write(payload[:-30])
        out = str(tmp_path / "o.trc")
        assert main(["import", cut, out]) == 2
        assert main(["import", cut, out, "--salvage"]) == 0
        captured = capsys.readouterr()
        assert "salvage" in captured.err
        assert os.path.exists(out)

    def test_import_respects_limit_and_identity(self, tmp_path, capsys):
        out = str(tmp_path / "g.trc")
        assert main([
            "import", GOLDEN, out,
            "--limit", "1000", "--name", "snip", "--category", "srv",
        ]) == 0
        loaded = load_external_trace(out)
        assert len(loaded) == 1000
        assert loaded.name == "snip"
        assert loaded.category == "srv"
