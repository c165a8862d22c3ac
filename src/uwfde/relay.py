"""Fixed-gain amplify-and-forward processing at a sensor node."""

from __future__ import annotations

import numpy as np

from .channel import complex_noise
from .txrx import append_cp


def af_gain(sigma2_hsr: float, sigma2_relay: float) -> float:
    """Fixed relay gain keeping the average retransmit power at one."""
    if sigma2_hsr < 0 or sigma2_relay < 0:
        raise ValueError("powers must be nonnegative")
    total = sigma2_hsr + sigma2_relay
    if total == 0:
        raise ValueError("input and noise power cannot both be zero")
    return 1.0 / np.sqrt(total)


def relay_receive(tx: np.ndarray, cp_len: int, taps: np.ndarray, sigma2: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Propagate a block sent with a ``cp_len``-symbol prefix through the
    channel and strip the prefix.

    Linear convolution with the taps plus circular complex Gaussian noise;
    with the prefix at least as long as the channel memory the result is
    exactly the circular convolution of the body.
    """
    taps = np.asarray(taps, dtype=complex)
    if cp_len < len(taps) - 1:
        raise ValueError("prefix shorter than the channel memory")
    body = len(tx) - cp_len
    received = np.convolve(taps, tx)[cp_len: cp_len + body]
    if sigma2 > 0:
        received = received + complex_noise(rng, body, sigma2)
    return received


def relay_forward(received: np.ndarray, zeta: float, cp_len: int) -> np.ndarray:
    """Scale the received block by the relay gain and re-append a prefix."""
    return append_cp(zeta * received, cp_len)
