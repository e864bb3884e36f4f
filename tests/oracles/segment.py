"""The whole-history touch segmentation the one-pass segmenter replaced.

Each query re-scans every tracked sample: a run of touched samples is
one press, an untouched sample ends it, and a press shorter than
``min_groups`` is dropped (debounce).  ``closed_touch_events`` leaves
out the press still held at the end of the history.  The arithmetic
of ``_event_from`` is the reference the incremental events must equal
bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.tracking import TouchEvent, TrackedSample
from repro.errors import EstimationError


def touch_events(samples: List[TrackedSample],
                 min_groups: int = 1) -> List[TouchEvent]:
    """Segment a tracked stream into touch events."""
    samples = list(samples)
    if not samples or not any(s.touched for s in samples):
        return []
    events: List[TouchEvent] = []
    current: Optional[List[TrackedSample]] = None
    for sample in samples:
        if sample.touched:
            if current is None:
                current = []
            current.append(sample)
        elif current is not None:
            if len(current) >= min_groups:
                events.append(_event_from(current))
            current = None
    if current is not None and len(current) >= min_groups:
        events.append(_event_from(current))
    return events


def closed_touch_events(samples: List[TrackedSample],
                        min_groups: int = 1) -> List[TouchEvent]:
    """The events of released presses only."""
    events = touch_events(samples, min_groups=min_groups)
    held = 0
    for sample in reversed(samples):
        if not sample.touched:
            break
        held += 1
    if held and held >= min_groups:
        return events[:-1]
    return events


def _event_from(samples: List[TrackedSample]) -> TouchEvent:
    if not samples:
        raise EstimationError("cannot build a touch event from an "
                              "empty contact segment")
    forces = np.array([s.force for s in samples])
    locations = np.array([s.location for s in samples])
    weights = forces / forces.sum() if forces.sum() > 0 else None
    mean_location = float(np.average(locations, weights=weights))
    return TouchEvent(
        onset=samples[0].time,
        release=samples[-1].time,
        peak_force=float(forces.max()),
        mean_location=mean_location,
    )
