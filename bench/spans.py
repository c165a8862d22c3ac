"""Layer spans for the traced run, installed from outside the program.

The harness calls every layer through a name it imported into
``uwfde.harness``; ``Tracer.installed`` rebinds those names to timing
wrappers and puts the originals back on exit. Self time is a span's
duration minus the time of the spans it caused.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Layer name -> names in uwfde.harness that the layer's spans wrap;
# detectors.ml_detect wraps the detect method of each detector that the
# wrapped MlDetector builds.
LAYERS = {
    "channel.draw": ("generate_channel", "quantize_to_taps"),
    "channel.evolve": ("evolve_channel",),
    "txrx.transmit_block": ("transmit_block",),
    "relay.relay_receive": ("relay_receive",),
    "relay.relay_forward": ("relay_forward",),
    "txrx.modulate": ("modulate",),
    "txrx.demodulate": ("demodulate",),
    "txrx.fft": ("unitary_fft",),
    "txrx.ifft": ("unitary_ifft",),
    "detectors.effective_channel": ("effective_channel",),
    "detectors.weights": ("mmse_weights", "mrc_weights"),
    "detectors.lms_step": ("lms_step",),
    "detectors.rls_step": ("rls_step",),
    "detectors.ml_build": ("MlDetector",),
    "detectors.ml_detect": (),
    "harness.build_links": ("_build_links",),
    "harness.trial": ("run_point_trial",),
    "harness.run_points": ("run_points",),
}

COUNTERS = ("detectors.ml_candidates", "detectors.ml_bytes_computed",
            "detectors.rls_reinits")

_COMPLEX_BYTES = 16


class Tracer:
    """Per-layer call counts and self time, plus counters read at the
    layer boundaries."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        # Time covered by child spans, one slot per open span; the bottom
        # slot collects the root spans.
        self._child_ns = [0]

    def wrap(self, layer: str, fn, on_return=None):
        clock = time.perf_counter_ns
        stack = self._child_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_ns[layer] += elapsed - stack.pop()
                self.calls[layer] += 1
                stack[-1] += elapsed
            if on_return is not None:
                on_return(args, out)
            return out

        return span

    def _count_rls(self, args, out) -> None:
        self.counts["detectors.rls_reinits"] += out[0].reinits - args[0].reinits

    def _ml_factory(self, ml_class):
        build = self.wrap("detectors.ml_build", ml_class)

        def make(ch, scheme, block_size):
            detector = build(ch, scheme, block_size)
            candidates = scheme.order ** block_size
            signature_bytes = candidates * block_size * _COMPLEX_BYTES

            def count(args, out):
                self.counts["detectors.ml_candidates"] += candidates
                self.counts["detectors.ml_bytes_computed"] += signature_bytes

            detector.detect = self.wrap("detectors.ml_detect", detector.detect,
                                        count)
            return detector

        return make

    def _replacement(self, layer: str, name: str, original):
        if name == "MlDetector":
            return self._ml_factory(original)
        if name == "rls_step":
            return self.wrap(layer, original, self._count_rls)
        return self.wrap(layer, original)

    @contextmanager
    def installed(self, harness):
        """Rebind the layer names in ``harness``; restore them on exit."""
        originals = {name: getattr(harness, name)
                     for names in LAYERS.values() for name in names}
        try:
            for layer, names in LAYERS.items():
                for name in names:
                    setattr(harness, name,
                            self._replacement(layer, name, originals[name]))
            yield self
        finally:
            for name, original in originals.items():
                setattr(harness, name, original)
