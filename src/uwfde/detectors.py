"""Frequency-domain detector bank for the relayed SC-FDE link.

Because the cascade of prefix-protected circulant channels is itself
circulant, the combined response, the noise covariance and every linear
equalizer here are diagonal in the DFT basis. All detectors therefore
reduce to per-bin scalars: closed-form matched-filter (MRC) and Wiener
(MMSE) weights, an exhaustive small-block maximum-likelihood search, and
stochastic-gradient / recursive-least-squares adaptive filters that run as
N independent scalar recursions.

Weight application convention, fixed across the module: the symbol
estimate is ``conj(w) * r`` per bin, so the Wiener fixed point of both
adaptive recursions is ``w_k = g_k / (|g_k|^2 + noise_k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import CascadeSpectra
from .txrx import ModulationScheme

# Exhaustive search cap: constellation_order ** block_size candidates.
ML_SEARCH_LIMIT = 2 ** 16


@dataclass
class FdeWeights:
    """Diagonal equalizer: one complex weight per frequency bin."""

    w: np.ndarray

    @classmethod
    def zeros(cls, block_size: int) -> "FdeWeights":
        return cls(np.zeros(block_size, dtype=complex))

    def apply(self, r_f: np.ndarray) -> np.ndarray:
        return np.conj(self.w) * r_f


@dataclass
class EffectiveChannel:
    """Per-bin cascade response and per-bin noise variance at the receiver."""

    response: np.ndarray
    noise_var: np.ndarray


@dataclass
class RlsState:
    """Recursive least-squares state: weights plus the per-bin inverse
    autocorrelation diagonal."""

    weights: FdeWeights
    inv_corr: np.ndarray
    lambda_rls: float
    reinits: int = 0

    @classmethod
    def initial(cls, block_size: int, lambda_rls: float = 0.995) -> "RlsState":
        if not 0.0 < lambda_rls <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        return cls(FdeWeights.zeros(block_size), np.ones(block_size), lambda_rls)


def effective_channel(links, block_size: int | None = None) -> EffectiveChannel:
    """Combined per-bin response and noise variance over all relay slots.

    ``links`` is a ``CascadeSpectra``, whose block axes carry through to the
    result, or a list of ``LinkState`` that is transformed at
    ``block_size`` first. Each cascade contributes ``zeta * G(f) * H(f)`` to
    the response; its slot adds relay noise shaped by ``|G(f)|^2`` plus one
    destination-noise term.
    """
    if not isinstance(links, CascadeSpectra):
        links = CascadeSpectra.from_links(links, block_size)
    zeta = links.zeta[:, None]
    response = np.sum(zeta * links.h_f * links.g_f, axis=-2)
    noise = np.sum(zeta ** 2 * np.abs(links.g_f) ** 2 * links.sigma2_relay[:, None]
                   + links.sigma2_dest[:, None], axis=-2)
    return EffectiveChannel(response, noise)


def mrc_weights(ch: EffectiveChannel) -> FdeWeights:
    """Per-bin matched filter; aligns phase but does not invert the channel."""
    return FdeWeights(ch.response.copy())


def mmse_weights(ch: EffectiveChannel) -> FdeWeights:
    """Per-bin Wiener weights ``g / (|g|^2 + noise)``; dead bins get zero."""
    denom = np.abs(ch.response) ** 2 + ch.noise_var
    w = np.divide(ch.response, denom, out=np.zeros_like(ch.response),
                  where=denom > 0)
    return FdeWeights(w)


@lru_cache(maxsize=8)
def _ml_candidates(scheme_name: str, block_size: int):
    """All constellation blocks of a given size and their unitary spectra."""
    scheme = ModulationScheme.from_name(scheme_name)
    count = scheme.order ** block_size
    idx = np.arange(count)
    digits = (idx[:, None] // scheme.order ** np.arange(block_size - 1, -1, -1)
              ) % scheme.order
    blocks = scheme.points[digits]
    return blocks, np.fft.fft(blocks, axis=1, norm="ortho")


class MlDetector:
    """Exhaustive block detector with candidate spectra precomputed once
    per channel state."""

    def __init__(self, ch: EffectiveChannel, scheme: ModulationScheme,
                 block_size: int):
        if scheme.order ** block_size > ML_SEARCH_LIMIT:
            raise ValueError("exhaustive search space exceeds the limit")
        blocks, spectra = _ml_candidates(scheme.name, block_size)
        self._blocks = blocks
        self._signatures = spectra * ch.response
        positive = ch.noise_var > 0
        if positive.any():
            floor = ch.noise_var[positive].min()
            self._inv_noise = 1.0 / np.where(positive, ch.noise_var, floor)
        else:
            self._inv_noise = np.ones(block_size)

    def detect(self, r_f: np.ndarray) -> np.ndarray:
        cost = np.abs(r_f - self._signatures) ** 2 @ self._inv_noise
        return self._blocks[np.argmin(cost)]


def ml_detect(r_f: np.ndarray, ch: EffectiveChannel, scheme: ModulationScheme,
              block_size: int | None = None) -> np.ndarray:
    """Noise-whitened exhaustive search over all constellation blocks."""
    return MlDetector(ch, scheme, block_size or len(r_f)).detect(r_f)


def lms_step(weights: FdeWeights, r_f: np.ndarray, s_f: np.ndarray,
             mu: float) -> tuple[FdeWeights, np.ndarray]:
    """One stochastic-gradient update of the per-bin filters.

    A priori error ``e = s - conj(w) * r`` per bin, then ``w += mu * r * conj(e)``
    so the recursion descends toward the per-bin Wiener solution.
    """
    err = s_f - weights.apply(r_f)
    return FdeWeights(weights.w + mu * r_f * np.conj(err)), err


def rls_step(state: RlsState, r_f: np.ndarray,
             s_f: np.ndarray) -> tuple[RlsState, np.ndarray]:
    """One recursive-least-squares update of the per-bin filters.

    Scalar per-bin form of the usual gain / error / weight / inverse-
    autocorrelation sweep. A bin whose inverse autocorrelation collapses to
    a non-positive value is reinitialized to one and counted in ``reinits``.
    """
    lam_inv = 1.0 / state.lambda_rls
    p = state.inv_corr
    scaled = lam_inv * p
    gain = scaled * r_f / (1.0 + scaled * np.abs(r_f) ** 2)
    err = s_f - state.weights.apply(r_f)
    w_next = state.weights.w + gain * np.conj(err)
    p_next = scaled * (1.0 - (gain * np.conj(r_f)).real)
    bad = p_next <= 0
    reinits = state.reinits + int(np.count_nonzero(bad))
    if bad.any():
        p_next = np.where(bad, 1.0, p_next)
    return RlsState(FdeWeights(w_next), p_next, state.lambda_rls, reinits), err


def train_adaptive(detector: str, pilots, mu: float = 0.05,
                   lambda_rls: float = 0.995) -> tuple[FdeWeights, np.ndarray]:
    """Run an adaptive filter over pilot frames.

    ``pilots`` is an iterable of ``(r_f, s_f)`` pairs. Returns the final
    weights and the per-iteration mean squared a priori error.
    """
    pilots = list(pilots)
    if not pilots:
        raise ValueError("need at least one pilot frame")
    block_size = len(pilots[0][0])
    trace = np.empty(len(pilots))
    if detector == "lms":
        weights = FdeWeights.zeros(block_size)
        for i, (r_f, s_f) in enumerate(pilots):
            weights, err = lms_step(weights, r_f, s_f, mu)
            trace[i] = np.mean(np.abs(err) ** 2)
        return weights, trace
    if detector == "rls":
        state = RlsState.initial(block_size, lambda_rls)
        for i, (r_f, s_f) in enumerate(pilots):
            state, err = rls_step(state, r_f, s_f)
            trace[i] = np.mean(np.abs(err) ** 2)
        return state.weights, trace
    raise ValueError(f"unknown adaptive detector: {detector!r}")


def mmse_error_floor(ch: EffectiveChannel) -> float:
    """Mean per-bin residual MSE of the ideal Wiener equalizer."""
    denom = np.abs(ch.response) ** 2 + ch.noise_var
    per_bin = np.divide(ch.noise_var, denom, out=np.ones_like(ch.noise_var),
                        where=denom > 0)
    return float(np.mean(per_bin))

