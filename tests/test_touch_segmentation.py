"""One-pass touch segmentation against the whole-history oracle.

The session and the batch tracker fold samples through one
:class:`repro.core.tracking.TouchSegmenter`; every event they list must
equal, bit for bit, what re-scanning the whole history
(``tests/oracles/segment.py``) gives for the same samples.
"""

from __future__ import annotations

from dataclasses import astuple

from hypothesis import given, settings, strategies as st

from repro.core.tracking import StreamingTracker, TrackedSample
from repro.serve.protocol import SensorConfig
from repro.serve.session import SensorSession
from tests.oracles import segment

#: Touched flag, force, location and quality of one tracked sample.
ROWS = st.lists(
    st.tuples(
        st.booleans(),
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=10.0)),
        st.floats(min_value=0.0, max_value=0.08),
        st.sampled_from(("ok", "gap", "degraded"))),
    max_size=60)


def _bits(events):
    """Events as hex floats, so -0.0 and 0.0 differ too."""
    return [tuple(float(value).hex() for value in astuple(event))
            for event in events]


def _samples(rows, held):
    samples = [TrackedSample(time=0.036 * index, phi1=0.0, phi2=0.0,
                             touched=touched, force=force,
                             location=location, quality=quality)
               for index, (touched, force, location, quality)
               in enumerate(rows)]
    # End on a held press or on a released one.
    samples.append(TrackedSample(time=0.036 * len(rows), phi1=0.0,
                                 phi2=0.0, touched=held, force=1.5,
                                 location=0.04))
    return samples


class TestOracleParity:
    @settings(max_examples=150, deadline=None)
    @given(rows=ROWS, held=st.booleans(),
           min_groups=st.integers(min_value=1, max_value=5))
    def test_segmentation_matches_whole_history(self, rows, held,
                                                min_groups):
        samples = _samples(rows, held)
        expected = segment.touch_events(samples, min_groups)
        expected_closed = segment.closed_touch_events(samples, min_groups)

        assert _bits(StreamingTracker.touch_events(
            samples, min_groups)) == _bits(expected)

        session = SensorSession("s", SensorConfig(), estimator=None)
        pushed, cursor = [], 0
        for count, sample in enumerate(samples, 1):
            session.record(sample)
            # A query mid-stream sees the prefix and leaves it as it is.
            assert _bits(session.touch_events(min_groups)) == _bits(
                segment.touch_events(samples[:count], min_groups))
            # A push cursor reads each released press exactly once.
            pushed += session.closed_touch_events(min_groups, start=cursor)
            cursor = len(session.segmenter.released)
        assert _bits(session.touch_events(min_groups)) == _bits(expected)
        assert _bits(session.closed_touch_events(
            min_groups)) == _bits(expected_closed)
        assert _bits(pushed) == _bits(expected_closed)
