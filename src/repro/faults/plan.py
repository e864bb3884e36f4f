"""Declarative, reproducible fault plans.

A chaos run is only useful if it can be replayed bit-for-bit: the same
plan and seed must inject the same faults at the same places, so a
survival regression can be bisected like any other bug.  The plan
layer therefore keeps *all* randomness counter-based: whether the
``k``-th visit to a site fires a fault is a pure function of
``(plan seed, spec, k)`` — a SHA-256-derived uniform draw — never of
wall-clock time, interleaving, or a stateful generator another site
might have advanced.  Two runs that visit a site the same number of
times in the same order observe the same fault sequence, and a worker
process can evaluate the same decision independently of the parent.

:class:`FaultSpec` describes one fault family at one injection site
(kind, probability or explicit schedule, burst duration, magnitude);
:class:`FaultPlan` composes specs under one seed and round-trips
through JSON, so a plan can be committed next to the benchmark it
gates.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import FaultError


def unit_draw(seed: int, *parts) -> float:
    """Deterministic uniform draw in [0, 1) from a seed and labels.

    The draw is a pure function of its arguments (SHA-256 of their
    canonical rendering), so decisions are independent of call order
    and identical across processes — the property the whole
    reproducible-chaos contract rests on.
    """
    token = ":".join([str(int(seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(token.encode()).digest()
    (value,) = struct.unpack(">Q", digest[:8])
    return value / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """One fault family at one injection site.

    Attributes:
        site: Injection-site name (must be registered in
            :data:`repro.faults.inject.SITES`).
        kind: Fault flavour the site understands (e.g. ``"stall"``,
            ``"dropout"``, ``"corrupt"``).
        probability: Per-visit chance that a new burst starts at this
            site (ignored when ``schedule`` is given).
        schedule: Explicit visit counters that start a burst — the
            fully scripted alternative to ``probability``.
        magnitude: Site-interpreted severity (seconds for stalls,
            radians for phase jumps, noise multipliers for SNR
            collapse, ...).
        duration: Burst length: a started burst also fires on the next
            ``duration - 1`` visits.
        seed: Per-spec salt so two specs on one site draw
            independently.
    """

    site: str
    kind: str
    probability: float = 0.0
    schedule: Tuple[int, ...] = field(default_factory=tuple)
    magnitude: float = 1.0
    duration: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.site or not self.kind:
            raise FaultError("fault spec needs a site and a kind")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.duration < 1:
            raise FaultError(
                f"duration must be >= 1, got {self.duration}")
        schedule = tuple(int(c) for c in self.schedule)
        if any(c < 0 for c in schedule):
            raise FaultError(f"schedule counters must be >= 0, "
                             f"got {schedule}")
        object.__setattr__(self, "schedule", schedule)
        object.__setattr__(self, "probability", float(self.probability))
        object.__setattr__(self, "magnitude", float(self.magnitude))
        object.__setattr__(self, "duration", int(self.duration))
        object.__setattr__(self, "seed", int(self.seed))

    def _burst_starts(self, plan_seed: int, counter: int) -> bool:
        """Whether a new burst starts at visit ``counter``."""
        if self.schedule:
            return counter in self.schedule
        if self.probability <= 0.0:
            return False
        return unit_draw(plan_seed, self.site, self.kind, self.seed,
                         counter) < self.probability

    def fires(self, plan_seed: int, counter: int) -> bool:
        """Whether this spec fires on visit ``counter`` (burst-aware).

        A burst started at counter ``b`` covers visits
        ``b .. b + duration - 1``; the check scans the ``duration``
        most recent possible starts, so it stays stateless and
        order-independent.
        """
        if counter < 0:
            return False
        return any(self._burst_starts(plan_seed, counter - back)
                   for back in range(self.duration)
                   if counter - back >= 0)

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "site": str(self.site),
            "kind": str(self.kind),
            "probability": float(self.probability),
            "schedule": [int(c) for c in self.schedule],
            "magnitude": float(self.magnitude),
            "duration": int(self.duration),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(payload, dict):
            raise FaultError(
                f"fault spec payload must be a dict, got "
                f"{type(payload).__name__}")
        try:
            return cls(
                site=str(payload["site"]),
                kind=str(payload["kind"]),
                probability=float(payload.get("probability", 0.0)),
                schedule=tuple(int(c)
                               for c in payload.get("schedule", ())),
                magnitude=float(payload.get("magnitude", 1.0)),
                duration=int(payload.get("duration", 1)),
                seed=int(payload.get("seed", 0)),
            )
        except FaultError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultError(f"malformed fault spec: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded composition of fault specs.

    Attributes:
        specs: The fault families to inject.
        seed: Plan-wide seed every counter-based draw derives from.
        name: Human-readable label carried into reports.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    seed: int = 0
    name: str = "unnamed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "seed", int(self.seed))
        if any(not isinstance(spec, FaultSpec) for spec in self.specs):
            raise FaultError("plan specs must be FaultSpec instances")

    @property
    def sites(self) -> Tuple[str, ...]:
        """Distinct sites the plan targets, sorted."""
        return tuple(sorted({spec.site for spec in self.specs}))

    def specs_for(self, site: str) -> Tuple[FaultSpec, ...]:
        """The specs targeting one site, in plan order."""
        return tuple(spec for spec in self.specs if spec.site == site)

    def to_dict(self) -> dict:
        """JSON-ready dict (plain python scalars only)."""
        return {
            "name": str(self.name),
            "seed": int(self.seed),
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(payload, dict):
            raise FaultError(
                f"fault plan payload must be a dict, got "
                f"{type(payload).__name__}")
        try:
            specs = payload.get("specs", [])
            return cls(
                specs=tuple(FaultSpec.from_dict(spec) for spec in specs),
                seed=int(payload.get("seed", 0)),
                name=str(payload.get("name", "unnamed")),
            )
        except FaultError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultError(f"malformed fault plan: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text (what :meth:`save` writes)."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path) -> None:
        """Write the plan as pretty JSON to ``path``."""
        from pathlib import Path

        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan saved by :meth:`save`."""
        from pathlib import Path

        return cls.from_json(Path(path).read_text())
