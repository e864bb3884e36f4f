"""Flight recorder: ring bounds, dump format, triggers, determinism."""

from __future__ import annotations

import gc
import json
import logging
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MemorySink, observed
from repro.obs.recorder import (
    DEFAULT_CAPACITY,
    RECORDER_DIR_ENV,
    RECORDER_ENV,
    FlightRecorder,
    flight_recorder,
    recording,
    set_flight_recorder,
)
from repro.obs.trace import (
    TRACE_SAMPLE_ENV,
    TraceContext,
    new_span_id,
    new_trace_id,
)
from tests.oracles import span_events


@pytest.fixture(autouse=True)
def _no_env_dumps(monkeypatch):
    """Keep the implicit env-var dump gates closed for every test."""
    monkeypatch.delenv(RECORDER_DIR_ENV, raising=False)
    monkeypatch.delenv(RECORDER_ENV, raising=False)


class TestRing:
    def test_capacity_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.note("tick", index=index)
        events = recorder.snapshot()
        assert len(recorder) == 3
        assert [event["index"] for event in events] == [2, 3, 4]
        assert [event["seq"] for event in events] == [3, 4, 5]

    def test_kinds_are_tagged(self):
        recorder = FlightRecorder()
        recorder.record_span_event({"span": "s", "duration_s": 0.1})
        recorder.note("wide", detail=1)
        recorder.note_fault({"site": "serve.scheduler", "kind": "stall"})
        kinds = [event["kind"] for event in recorder.snapshot()]
        assert kinds == ["span", "log", "fault"]

    def test_log_events_carry_no_timestamp(self):
        recorder = FlightRecorder()
        recorder.note("wide", detail=1)
        recorder.note_fault({"site": "x"})
        for event in recorder.snapshot():
            assert "time" not in event
            assert "created_unix" not in event

    def test_clear_keeps_sequencing(self):
        recorder = FlightRecorder()
        recorder.note("one")
        recorder.clear()
        recorder.note("two")
        assert recorder.snapshot()[0]["seq"] == 2


class TestDump:
    def test_header_then_sorted_json_events(self, tmp_path):
        recorder = FlightRecorder(directory=tmp_path)
        recorder.note("before", value=1)
        path = recorder.dump("unit test!")
        assert path is not None and path.parent == tmp_path
        assert "flight-unit-test-" in path.name
        lines = path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["reason"] == "unit test!"
        assert header["events"] == 1
        event = json.loads(lines[1])
        assert event == {"seq": 1, "kind": "log", "event": "before",
                         "value": 1}

    def test_no_directory_means_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        recorder = FlightRecorder()
        recorder.note("x")
        assert recorder.dump("gated") is None
        assert list(tmp_path.iterdir()) == []

    def test_env_dir_enables_dumps(self, tmp_path, monkeypatch):
        monkeypatch.setenv(RECORDER_DIR_ENV, str(tmp_path))
        recorder = FlightRecorder()
        recorder.note("x")
        path = recorder.dump("env")
        assert path is not None and path.parent == tmp_path

    def test_dump_budget_is_bounded(self, tmp_path):
        recorder = FlightRecorder(directory=tmp_path, max_dumps=2)
        recorder.note("x")
        assert recorder.dump("a") is not None
        assert recorder.dump("b") is not None
        assert recorder.dump("c") is None
        assert len(list(tmp_path.iterdir())) == 2

    def test_trigger_notes_then_dumps(self, tmp_path):
        recorder = FlightRecorder(directory=tmp_path)
        path = recorder.trigger("gateway.internal_errors", where="/x")
        lines = path.read_text().strip().splitlines()
        last = json.loads(lines[-1])
        assert last["event"] == "gateway.internal_errors"
        assert last["where"] == "/x"


def _dump_warnings(caplog):
    return [record for record in caplog.records
            if record.name == "repro.obs.recorder"
            and record.levelno == logging.WARNING]


class TestDumpFailure:
    @pytest.fixture(autouse=True)
    def _capture(self, caplog, monkeypatch):
        # The CLI's logging setup stops the ``repro`` hierarchy from
        # propagating to caplog's root handler.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        caplog.set_level(logging.WARNING, logger="repro.obs.recorder")

    def test_unwritable_directory_logs_and_returns_none(
            self, unwritable_directory, caplog):
        recorder = FlightRecorder(directory=unwritable_directory)
        recorder.note("x")
        assert recorder.trigger("gateway.internal_errors") is None
        assert len(_dump_warnings(caplog)) == 1
        assert recorder.snapshot()[-1]["event"] == "gateway.internal_errors"

    def test_failed_write_spends_the_budget(self, unwritable_directory,
                                            caplog):
        """A crash loop against a broken disk stops retrying once the
        budget is spent."""
        recorder = FlightRecorder(directory=unwritable_directory,
                                  max_dumps=2)
        recorder.note("x")
        assert [recorder.dump(f"try-{index}") for index in range(5)] \
            == [None] * 5
        assert len(_dump_warnings(caplog)) == 2

    def test_dump_after_a_failure_takes_the_next_slot(
            self, unwritable_directory, caplog):
        directory = unwritable_directory
        recorder = FlightRecorder(directory=directory, max_dumps=2)
        recorder.note("x")
        assert recorder.dump("broken") is None
        directory.parent.unlink()
        path = recorder.dump("mended")
        assert path is not None and path.name.endswith("-001.jsonl")
        assert recorder.dump("spent") is None
        assert [entry.name for entry in directory.iterdir()] == [path.name]
        assert len(_dump_warnings(caplog)) == 1


_ATTRIBUTE_KEYS = st.sampled_from(
    ["path", "sensor_id", "batch_size", "status", "span", "seq", "kind",
     "error", "trace_id", "links"])
_ATTRIBUTE_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6),
    st.floats(allow_nan=False), st.text(max_size=6))
#: One span exit: name, sampled, parent (None / sampled / unsampled),
#: error message (None: no error), sampled flag per link, attributes,
#: and whether a log event follows it in the ring.
_SPAN_EXITS = st.tuples(
    st.sampled_from(["gateway.request", "serve.flush", "s"]),
    st.booleans(),
    st.sampled_from([None, True, False]),
    st.one_of(st.none(), st.text(max_size=6)),
    st.lists(st.booleans(), max_size=3),
    st.dictionaries(_ATTRIBUTE_KEYS, _ATTRIBUTE_VALUES, max_size=4),
    st.booleans(),
)


def _context(sampled):
    return TraceContext(new_trace_id(), new_span_id(), sampled)


def _items(events):
    """Events as key/value lists, so key order is compared too."""
    return [list(event.items()) for event in events]


class TestSpanRecords:
    """Span exits are kept as flat records; every reader renders the
    dicts the registry used to build (``tests/oracles/span_events.py``)."""

    @given(exits=st.lists(_SPAN_EXITS, max_size=12),
           capacity=st.integers(1, 16), keep_sink=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_readers_render_the_oracle_events(self, exits, capacity,
                                              keep_sink):
        sink = MemorySink() if keep_sink else None
        expected_sink, expected_ring = [], []
        with recording(capacity=capacity) as recorder, \
                observed(sink=sink) as registry:
            for index, (name, sampled, parent, message, links,
                        attributes, note) in enumerate(exits):
                exc = None
                try:
                    with registry.span(
                            name, attributes, context=_context(sampled),
                            parent=None if parent is None
                            else _context(parent),
                            links=[_context(link) for link in links]
                    ) as span:
                        if message is not None:
                            raise (ValueError(message) if message
                                   else ValueError())
                except ValueError as caught:
                    exc = caught
                event = span_events.span_event(span, exc)
                expected_sink.append(event)
                expected_ring.append(("span", event))
                if note:
                    recorder.note("tick", index=index)
                    expected_ring.append(
                        ("log", {"event": "tick", "index": index}))
            expected = [span_events.ring_event(seq, kind, payload)
                        for seq, (kind, payload)
                        in enumerate(expected_ring, start=1)][-capacity:]
            assert _items(recorder.snapshot()) == _items(expected)
            if sink is not None:
                assert _items(sink.events) == _items(expected_sink)
            with tempfile.TemporaryDirectory() as directory:
                lines = recorder.dump("parity", directory=directory) \
                    .read_text().splitlines()
        assert json.loads(lines[0])["events"] == len(expected)
        assert lines[1:] == [json.dumps(event, sort_keys=True, default=str)
                             for event in expected]

    def test_full_ring_of_sampled_spans_holds_under_512_bytes_per_event(
            self, monkeypatch):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already runs")
        monkeypatch.delenv(TRACE_SAMPLE_ENV, raising=False)

        def fill(registry, count):
            for _ in range(count):
                with registry.span("gateway.request",
                                   {"path": "/v1/stream", "method": "WS"}):
                    pass

        with observed() as registry:
            with recording():
                fill(registry, 64)
            with recording() as recorder:
                # A full collection also empties the interpreter's free
                # lists, so every record below is a traced allocation.
                gc.collect()
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    fill(registry, recorder.capacity)
                    gc.collect()
                    held = tracemalloc.get_traced_memory()[0] - before
                finally:
                    tracemalloc.stop()
        assert len(recorder) == recorder.capacity == DEFAULT_CAPACITY == 2048
        assert "trace_id" in recorder.snapshot()[0]
        assert held / recorder.capacity < 512


class TestProcessWide:
    def test_recording_scopes_and_restores(self):
        outer = flight_recorder()
        with recording() as scoped:
            assert flight_recorder() is scoped
            scoped.note("inside")
        assert flight_recorder() is outer

    def test_set_returns_previous(self):
        mine = FlightRecorder()
        previous = set_flight_recorder(mine)
        try:
            assert flight_recorder() is mine
        finally:
            set_flight_recorder(previous)


def _replay_lines(path):
    """The deterministic (non-span) dump lines, ``seq`` stripped.

    Span events carry wall-clock fields and their count depends on
    micro-batch timing, so ``seq`` values differ run to run; the
    fault/log *sequence and payloads* are the replay contract.
    """
    lines = []
    for line in path.read_text().strip().splitlines():
        event = json.loads(line)
        if event.get("kind") in ("log", "fault"):
            event.pop("seq")
            lines.append(json.dumps(event, sort_keys=True))
    return lines


class TestChaosRecording:
    def test_chaos_run_emits_a_dump_when_enabled(self, model_900,
                                                 tmp_path, monkeypatch):
        from repro.faults.chaos import run_chaos
        from repro.serve.loadgen import LoadProfile

        monkeypatch.setenv(RECORDER_DIR_ENV, str(tmp_path))
        report = run_chaos(
            profile=LoadProfile(sensors=2, requests_per_sensor=24),
            seed=0, model_factory=lambda config: model_900)
        dumps = sorted(tmp_path.glob("flight-*.jsonl"))
        assert len(dumps) >= 1
        assert report["flight_recording"] is not None
        recorded = [path for path in dumps
                    if str(path) == report["flight_recording"]]
        assert recorded, (dumps, report["flight_recording"])
        lines = recorded[0].read_text().strip().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "header" in kinds
        assert "fault" in kinds
        assert "log" in kinds

    def test_chaos_dumps_replay_bit_deterministically(
            self, model_900, tmp_path, monkeypatch):
        from repro.faults.chaos import run_chaos
        from repro.serve.loadgen import LoadProfile

        profile = LoadProfile(sensors=2, requests_per_sensor=24)
        replays = []
        for run in range(2):
            directory = tmp_path / f"run-{run}"
            monkeypatch.setenv(RECORDER_DIR_ENV, str(directory))
            report = run_chaos(profile=profile, seed=0,
                               model_factory=lambda c: model_900)
            assert report["flight_recording"] is not None
            replays.append(_replay_lines(
                Path(report["flight_recording"])))
        assert replays[0] == replays[1]
        assert any('"kind": "fault"' in line for line in replays[0])

    def test_chaos_without_recorder_env_writes_nothing(
            self, model_900, tmp_path, monkeypatch):
        from repro.faults.chaos import run_chaos
        from repro.serve.loadgen import LoadProfile

        monkeypatch.chdir(tmp_path)
        report = run_chaos(
            profile=LoadProfile(sensors=1, requests_per_sensor=8),
            seed=0, model_factory=lambda config: model_900)
        assert report["flight_recording"] is None
        assert not list(tmp_path.glob("flight-recordings")), \
            "no implicit directory without REPRO_RECORDER"
