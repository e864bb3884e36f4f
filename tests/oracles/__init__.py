"""Reference implementations the tests check the program against.

No program path runs them: the paper's reader is one USRP whose TX and
RX share a clock (section 4.4), so it neither modulates samples nor
searches for frame timing or a carrier offset.  The tests use them to
cross-check the frame-level sounder's noise model (:mod:`.ofdm`) and
to drive an unsynchronized listener end to end (:mod:`.sync`).  The
reader calibrates in the wireless observable; :mod:`.calibration`
fits the noise-free sensor-port models the tests compare against.
:mod:`.twoport` inverts the program's ABCD-to-S conversion.
:mod:`.grid` is the exhaustive grid-search inverse the estimator's
Gauss-Newton solver is gated against.  :mod:`.fd_operator` assembles
the contact solver's FD operator densely, the reference its banded
assembly must equal bit for bit.  :mod:`.span_events` builds the span
event dicts that the flight recorder's flat span records must render.
"""
