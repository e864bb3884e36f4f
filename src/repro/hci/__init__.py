"""HCI application layer: gestures on top of force tracking.

The paper's UI motivation (sections 1 and 5.3): with continuous force
*and* location, a passive strip becomes a rich input device.  This
package classifies tracked touch interactions into the gesture
vocabulary that motivates the paper — taps, holds, force-steps and
slides — turning the sensing stack into an input pipeline.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "gestures": ("Gesture", "GestureClassifier", "GestureKind"),
})
