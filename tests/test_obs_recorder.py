"""Flight recorder: ring bounds, dump format, triggers, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.recorder import (
    RECORDER_DIR_ENV,
    RECORDER_ENV,
    FlightRecorder,
    flight_recorder,
    recording,
    set_flight_recorder,
)


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
