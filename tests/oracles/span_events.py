"""The span event dicts the registry built at every span exit.

Before the flight recorder kept flat span records, each span exit
built one event dict, emitted it to the registry's sink, and copied
it into the ring behind a ``seq`` with a ``kind`` tag.  The rendered
sink events, ring snapshots and dump lines must equal these dicts.
"""

from __future__ import annotations

from typing import Optional


def span_event(span, exc: Optional[BaseException]) -> dict:
    """The sink event of one exited span."""
    event = {
        "span": span.name,
        "duration_s": span.duration_s,
        "status": "ok" if exc is None else "error",
        "error": None if exc is None else type(exc).__name__,
    }
    if exc is not None:
        event["error_message"] = str(exc)
    context = span.context
    if context is not None and context.sampled:
        event["trace_id"] = context.trace_id
        event["span_id"] = context.span_id
        event["parent_span_id"] = span.parent_span_id
        event["start_unix"] = span.start_unix
        links = [{"trace_id": link.trace_id,
                  "span_id": link.span_id}
                 for link in span.links if link.sampled]
        if links:
            event["links"] = links
    event.update(span.attributes)
    return event


def ring_event(seq: int, kind: str, payload: dict) -> dict:
    """One ring entry: ``seq`` first, the payload, ``kind`` last."""
    event = {"seq": seq}
    event.update(payload)
    event["kind"] = kind
    return event
