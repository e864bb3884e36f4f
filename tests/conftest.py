"""Shared fixtures.

The expensive objects (contact-map transducers, calibrated models) are
process-cached by repro.experiments.scenarios; the fixtures here just
give tests tidy names for them.

The artifact cache is redirected to a per-session temp directory (see
``_hermetic_artifact_cache``) so the suite neither reads a developer's
warm ``~/.cache/repro`` nor leaves artifacts behind — every run
exercises the true cold path exactly once, then its own warm path.
Each test records into a fresh process registry
(``_fresh_process_registry``), so one test's serving counters never
show in another's.
"""

from __future__ import annotations

import os

import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_cache(tmp_path_factory):
    """Point REPRO_CACHE_DIR at a fresh temp dir for the whole run.

    An explicit ``REPRO_CACHE_DIR`` in the environment wins (CI uses
    this to persist the cache across runs).
    """
    from repro.cache import CACHE_DIR_ENV

    if os.environ.get(CACHE_DIR_ENV, "").strip():
        yield
        return
    directory = tmp_path_factory.mktemp("artifact-cache")
    os.environ[CACHE_DIR_ENV] = str(directory)
    try:
        yield
    finally:
        os.environ.pop(CACHE_DIR_ENV, None)


@pytest.fixture(autouse=True)
def _fresh_process_registry():
    """Swap in a fresh process registry for one test.

    The serving stack records into the process registry whether or not
    observation is on; the fixture leaves observation as it is (off).
    """
    from repro.obs.registry import Registry, set_registry

    previous = set_registry(Registry())
    try:
        yield
    finally:
        set_registry(previous)


from repro.experiments.scenarios import (
    calibrated_model,
    fast_transducer,
    thin_trace_transducer,
)
from repro.mechanics.beam import BeamSection, CompositeBeam
from repro.mechanics.materials import COPPER, ECOFLEX_0030
from repro.rf.microstrip import MicrostripLine
from repro.sensor.geometry import default_sensor_design
from repro.sensor.tag import WiForceTag


@pytest.fixture(scope="session")
def design():
    """The paper's default sensor design."""
    return default_sensor_design()


@pytest.fixture(scope="session")
def line():
    """The paper's microstrip geometry."""
    return MicrostripLine()


@pytest.fixture(scope="session")
def transducer():
    """Reduced-resolution transducer (process-cached)."""
    return fast_transducer()


@pytest.fixture(scope="session")
def thin_transducer():
    """Bare-trace transducer for transduction ablations."""
    return thin_trace_transducer()


@pytest.fixture(scope="session")
def tag(transducer):
    """A default tag over the fast transducer."""
    return WiForceTag(transducer)


@pytest.fixture(scope="session")
def model_900():
    """Harmonic-domain calibration at 900 MHz (fast)."""
    return calibrated_model(900e6, fast=True)


@pytest.fixture(scope="session")
def composite_beam():
    """The default laminated beam."""
    return CompositeBeam(
        [
            BeamSection(COPPER, width=2.5e-3, thickness=35e-6),
            BeamSection(ECOFLEX_0030, width=10e-3, thickness=10e-3),
        ],
        length=80e-3,
    )


@pytest.fixture()
def rng():
    """Deterministic random source per test."""
    return np.random.default_rng(1234)


@pytest.fixture()
def unwritable_directory(tmp_path):
    """A directory path under a regular file: creating it fails even
    for root, which file permissions would not stop."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    return blocker / "dumps"
