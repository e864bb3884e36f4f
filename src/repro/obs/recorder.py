"""The flight recorder: a bounded ring of recent telemetry events.

Every process keeps one :class:`FlightRecorder` — a ``deque`` of the
last ~2k events (span records, wide structured log events, injected
fault events).  Recording is always cheap (one append); nothing is
written anywhere until something goes wrong.  On a failure trigger —
a ``gateway.internal_errors`` increment or a chaos-harness crash — the
ring is dumped as JSONL so the events *leading up to* the failure
survive for post-mortem.

A span exit is kept as one flat tuple (:meth:`FlightRecorder.record_span`),
not a dict: the event dict is rendered only when something reads it —
:meth:`FlightRecorder.snapshot`, :meth:`FlightRecorder.dump`, or a
registry sink that is not the ``NullSink`` (:func:`span_event`).  Log
and fault events are stored as the dicts they render to.

Dump format: line one is a header
(``{"kind": "header", "schema": 1, "reason": ..., "pid": ...,
"created_unix": ..., "events": N}``), then one JSON object per event
with a monotonically increasing ``seq`` and a ``kind`` of ``"span"``
(a registry span event, including its trace/span IDs when sampled),
``"log"`` (a wide event from :meth:`FlightRecorder.note`), or
``"fault"`` (an injected :class:`repro.faults.inject.FaultEvent`).
``"log"`` and ``"fault"`` events carry **no timestamps**, so two
same-seed chaos runs dump bit-identical non-span lines — the replay
determinism contract tested in ``tests/test_obs_recorder.py``.
``repro trace show`` renders span waterfalls from these files.

Dumps are opt-in: they go to an explicit directory
(constructor/``dump`` argument), else ``REPRO_RECORDER_DIR``, else —
only when ``REPRO_RECORDER`` is truthy — ``./flight-recordings``.
With none of those set, triggers still record the wide event but
write nothing, so test suites that intentionally provoke failures do
not litter the working tree.  A dump that cannot be written logs one
warning and returns ``None``.  The gateway takes the ring at its
zero-crash boundary (:meth:`FlightRecorder.capture`) and writes it in
a worker thread, so a dump never stalls the event loop.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import deque
from contextlib import contextmanager
from functools import partial
from itertools import chain
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Iterator, List, Optional,
                    Union)

if TYPE_CHECKING:
    from repro.obs.instruments import Span

logger = logging.getLogger(__name__)

#: Directory for automatic dumps (setting it enables them).
RECORDER_DIR_ENV = "REPRO_RECORDER_DIR"

#: Truthy value enables dumps into ``./flight-recordings``.
RECORDER_ENV = "REPRO_RECORDER"

DEFAULT_CAPACITY = 2048

#: Per-process cap on automatic dumps (a crash loop must not fill
#: the disk with near-identical recordings).
DEFAULT_MAX_DUMPS = 16

_DUMP_SCHEMA = 1


def _truthy(raw: str) -> bool:
    raw = raw.strip().lower()
    return bool(raw) and raw not in ("0", "false", "no")


def _slug(text: str) -> str:
    cleaned = "".join(char if char.isalnum() else "-"
                      for char in text.lower())
    return "-".join(part for part in cleaned.split("-") if part) or "dump"


#: A span record is ``(seq, name, duration_s, error, error_message,
#: trace_id, span_id, parent_span_id, start_unix, link_ids)`` followed
#: by the attribute keys and values, alternating.  The trace fields
#: are ``None`` for an unsampled span; ``link_ids`` alternates the
#: trace and span IDs of its sampled links.
_SPAN_HEAD = 10

_UNSAMPLED = (None, None, None, None, ())


def span_event(record: tuple) -> dict:
    """The event dict of one span record, without ``seq`` or ``kind``
    (what a registry sink receives)."""
    (_, name, duration_s, error, message, trace_id, span_id,
     parent_span_id, start_unix, link_ids) = record[:_SPAN_HEAD]
    event = {
        "span": name,
        "duration_s": duration_s,
        "status": "ok" if error is None else "error",
        "error": error,
    }
    if error is not None:
        event["error_message"] = message
    if trace_id is not None:
        event["trace_id"] = trace_id
        event["span_id"] = span_id
        event["parent_span_id"] = parent_span_id
        event["start_unix"] = start_unix
        if link_ids:
            event["links"] = [{"trace_id": link_ids[index],
                               "span_id": link_ids[index + 1]}
                              for index in range(0, len(link_ids), 2)]
    attributes = record[_SPAN_HEAD:]
    for index in range(0, len(attributes), 2):
        event[attributes[index]] = attributes[index + 1]
    return event


def _render(entry) -> dict:
    """One ring entry as its event dict (a fresh copy)."""
    if type(entry) is dict:
        return dict(entry)
    event = {"seq": entry[0]}
    event.update(span_event(entry))
    event["kind"] = "span"
    return event


def _write_dump(path: Path, header: dict, entries: list) -> Optional[Path]:
    """Render ``entries`` under ``header`` as JSONL at ``path``; returns
    the path, or ``None`` after one warning when the write fails."""
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(_render(entry), sort_keys=True, default=str)
                 for entry in entries)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        logger.warning("flight-recorder dump %r not written to %s: %s",
                       header["reason"], path.parent, exc)
        return None
    return path


class FlightRecorder:
    """Bounded ring buffer of recent events with JSONL dumps.

    Args:
        capacity: Ring size in events (oldest evicted first).
        directory: Explicit dump directory; when given, dumps are
            always written (the env-var gate is for the implicit
            process-wide recorder).
        max_dumps: Automatic-dump budget for this recorder.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 directory: Optional[Union[str, Path]] = None,
                 max_dumps: int = DEFAULT_MAX_DUMPS):
        self.capacity = int(capacity)
        self.directory = Path(directory) if directory is not None else None
        self.max_dumps = int(max_dumps)
        self._dumps_spent = 0
        self._events: "deque[Union[dict, tuple]]" = deque(
            maxlen=self.capacity)
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._events)

    def record(self, kind: str, payload: dict) -> None:
        """Append one event (the only hot-path entry point).

        The ring's ``kind`` tag is authoritative — a payload carrying
        its own ``kind`` key (injected fault events do) cannot
        overwrite it.
        """
        self._sequence += 1
        event = {"seq": self._sequence}
        event.update(payload)
        event["kind"] = kind
        self._events.append(event)

    def record_span(self, span: "Span",
                    exc: Optional[BaseException]) -> tuple:
        """Append one exited span as a flat record and return it.

        The attributes are copied into the record at exit, as the
        event dict used to copy them; no dict is built here.
        """
        self._sequence += 1
        if exc is None:
            error = message = None
        else:
            error, message = type(exc).__name__, str(exc)
        context = span.context
        if context is not None and context.sampled:
            trace_fields = (context.trace_id, context.span_id,
                            span.parent_span_id, span.start_unix,
                            tuple(chain.from_iterable(
                                (link.trace_id, link.span_id)
                                for link in span.links if link.sampled)))
        else:
            trace_fields = _UNSAMPLED
        record = (self._sequence, span.name, span.duration_s, error,
                  message, *trace_fields,
                  *chain.from_iterable(span.attributes.items()))
        self._events.append(record)
        return record

    def record_span_event(self, event: dict) -> None:
        """Feed one span event dict into the ring (what campaign
        workers ship home)."""
        self.record("span", event)

    def note(self, event: str, **fields) -> None:
        """Record one wide structured log event (no timestamp — the
        deterministic-replay contract covers these lines)."""
        payload = {"event": event}
        payload.update(fields)
        self.record("log", payload)

    def note_fault(self, fault_event: dict) -> None:
        """Record one injected-fault event dict.

        The fault's own ``kind`` (stall/reject/...) is preserved as
        ``fault_kind`` so the ring-level ``kind: "fault"`` tag stays
        unambiguous.
        """
        payload = dict(fault_event)
        if "kind" in payload:
            payload["fault_kind"] = payload.pop("kind")
        self.record("fault", payload)

    def snapshot(self) -> List[dict]:
        """The current ring contents as event dicts, oldest first
        (fresh copies)."""
        return [_render(entry) for entry in self._events]

    def clear(self) -> None:
        """Drop all buffered events (the sequence keeps counting)."""
        self._events.clear()

    def _resolve_directory(self, directory: Optional[Union[str, Path]]
                           ) -> Optional[Path]:
        if directory is not None:
            return Path(directory)
        if self.directory is not None:
            return self.directory
        env_dir = os.environ.get(RECORDER_DIR_ENV, "").strip()
        if env_dir:
            return Path(env_dir)
        if _truthy(os.environ.get(RECORDER_ENV, "")):
            return Path("flight-recordings")
        return None

    def capture(self, reason: str,
                directory: Optional[Union[str, Path]] = None
                ) -> Optional[Callable[[], Optional[Path]]]:
        """Take the ring as it stands for a dump; returns the call that
        renders and writes it, on any thread, or ``None`` when dumps
        are disabled (no directory resolved) or this recorder spent its
        ``max_dumps`` budget.

        Each capture spends one dump of the budget, written or not, so
        a crash loop stops retrying a broken disk.
        """
        target = self._resolve_directory(directory)
        if target is None or self._dumps_spent >= self.max_dumps:
            return None
        name = (f"flight-{_slug(reason)}-{os.getpid()}-"
                f"{self._dumps_spent:03d}.jsonl")
        self._dumps_spent += 1
        header = {
            "kind": "header",
            "schema": _DUMP_SCHEMA,
            "reason": reason,
            "pid": os.getpid(),
            "created_unix": time.time(),
            "events": len(self._events),
        }
        return partial(_write_dump, target / name, header,
                       list(self._events))

    def dump(self, reason: str,
             directory: Optional[Union[str, Path]] = None
             ) -> Optional[Path]:
        """Write the ring as JSONL; returns the path, or ``None`` when
        no dump is due (see :meth:`capture`) or the write failed."""
        write = self.capture(reason, directory)
        return write() if write is not None else None

    def trigger(self, reason: str, **fields) -> Optional[Path]:
        """Record a wide event for ``reason``, then dump the ring."""
        self.note(reason, **fields)
        return self.dump(reason)


_recorder = FlightRecorder()


def flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder (always exists)."""
    return _recorder


def set_flight_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the process-wide recorder; returns the previous one."""
    global _recorder
    previous, _recorder = _recorder, recorder
    return previous


@contextmanager
def recording(capacity: int = DEFAULT_CAPACITY
              ) -> Iterator[FlightRecorder]:
    """Scope a fresh process-wide recorder for one ``with`` block.

    What the chaos harness (and tests) use so one run's ring cannot
    leak stale events into another run's dump.  Its dumps go where the
    environment points them, at most :data:`DEFAULT_MAX_DUMPS`.
    """
    fresh = FlightRecorder(capacity=capacity)
    previous = set_flight_recorder(fresh)
    try:
        yield fresh
    finally:
        set_flight_recorder(previous)
