"""``repro.faults`` — deterministic fault injection and degradation.

Two layers (see DESIGN.md, "Fault injection & graceful
degradation"):

* :mod:`repro.faults.plan` — declarative, seeded
  :class:`FaultSpec`/:class:`FaultPlan` with JSON round-trip; every
  injection decision is a pure function of (plan seed, spec, visit
  counter), so chaos runs replay bit-for-bit.
* :mod:`repro.faults.inject` — the site registry and the per-process
  armed :class:`FaultInjector`; unarmed, every hook is a one-call
  no-op and results are bit-identical to an uninstrumented build.

The degradation paths live with their consumers: the inference
service, for one, retries scheduler backpressure twice after fixed
delays (:data:`repro.serve.service.RETRY_DELAYS_S`).  The chaos
harness lives in :mod:`repro.faults.chaos` (imported lazily — it
pulls in the serve stack) and backs the ``python -m repro chaos`` CLI.
"""

# The one package that exports eagerly instead of through
# repro._lazy.lazy_exports: the function ``inject`` has the name of the
# submodule that defines it, and importing that submodule binds the
# module object to the name on this package, so a lazy table would
# hand out the module instead of the function.  Every process that
# touches the artifact cache runs this file (``repro.cache.store``
# imports ``repro.faults.inject``), offline campaigns included, so it
# imports only ``inject`` and ``plan``, which need no event loop.
from repro.faults.inject import (
    SITES,
    FaultEvent,
    FaultInjector,
    armed,
    disarm,
    inject,
    validate_plan,
)
from repro.faults.plan import FaultPlan, FaultSpec, unit_draw

__all__ = [
    "SITES",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "armed",
    "disarm",
    "inject",
    "unit_draw",
    "validate_plan",
]
