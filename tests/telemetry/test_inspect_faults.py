"""The inspect fault/divergence/recovery section, including graceful
degradation on telemetry directories written before fault events existed."""

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.artifact import EventLogError
from repro.telemetry.events import (
    EV_DIVERGENCE,
    EV_QUARANTINE,
    EV_RESYNC,
    EV_SPRAY,
    EV_UNRECOVERABLE,
)
from repro.telemetry.inspect import summarize_artifact


def _write(tmp_path, emit):
    tele = Telemetry()
    emit(tele.tracer)
    tele.write_artifact(tmp_path, command="chaos", num_cores=4)


class TestFaultSection:
    def test_fault_events_summarized(self, tmp_path):
        def emit(tracer):
            tracer.emit("fault.drop", ts_ns=1.0, index=3)
            tracer.emit("fault.drop", ts_ns=2.0, index=9)
            tracer.emit(EV_QUARANTINE, ts_ns=3.0, core=1, seq=10,
                        missing=2, invalid_rows=0)
            tracer.emit(EV_RESYNC, ts_ns=4.0, core=1, seq=10,
                        checkpoint_seq=0, replayed=9)
            tracer.emit(EV_DIVERGENCE, ts_ns=5.0, index=15, cores=[2],
                        blast_radius=1, first=True)
            tracer.emit(EV_UNRECOVERABLE, ts_ns=6.0, core=3, seq=20)

        _write(tmp_path, emit)
        text = summarize_artifact(tmp_path)
        assert "fault injection & recovery" in text
        assert "fault.drop" in text and "2" in text
        assert "first divergence: packet index 15" in text
        assert "core 1: 1 round(s), 9 pkts replayed" in text
        assert "unrecoverable cores: 3" in text

    def test_no_fault_events_no_section(self, tmp_path):
        _write(tmp_path, lambda tracer: tracer.emit(EV_SPRAY, ts_ns=1.0,
                                                    core=0, seq=1))
        text = summarize_artifact(tmp_path)
        assert "fault injection" not in text

    def test_missing_events_file_is_graceful(self, tmp_path):
        # A hand-rolled or truncated artifact dir: manifest only.
        _write(tmp_path, lambda tracer: None)
        (tmp_path / "events.jsonl").unlink()
        text = summarize_artifact(tmp_path)  # must not raise
        assert "fault injection" not in text

    def test_malformed_event_lines_rejected(self, tmp_path):
        def emit(tracer):
            tracer.emit(EV_QUARANTINE, ts_ns=1.0, core=0, seq=5,
                        missing=1, invalid_rows=0)

        _write(tmp_path, emit)
        events = tmp_path / "events.jsonl"
        events.write_text(events.read_text() + "not json\n\n{broken\n")
        with pytest.raises(EventLogError, match="line 2 is not valid JSON"):
            summarize_artifact(tmp_path)
