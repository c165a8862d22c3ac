"""Frequency-domain detector bank for the relayed SC-FDE link.

Because the cascade of prefix-protected circulant channels is itself
circulant, the combined response, the noise covariance and every linear
equalizer here are diagonal in the DFT basis. All detectors therefore
reduce to per-bin scalars: closed-form matched-filter (MRC) and Wiener
(MMSE) weights, an exhaustive small-block maximum-likelihood search, and
stochastic-gradient / recursive-least-squares adaptive filters that run as
N independent scalar recursions. The search expands its per-bin distance
so that every block received under one channel state is scored against
all candidates by one real matrix product with cached candidate tables.

Weights are plain ``(..., N)`` arrays, one complex weight per bin, and
``equalize`` holds the one application convention: the symbol estimate
is ``conj(w) * r`` per bin, so the Wiener fixed point of both adaptive
recursions is ``w_k = g_k / (|g_k|^2 + noise_k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .txrx import ModulationScheme

# Exhaustive search cap: constellation_order ** block_size candidates.
ML_SEARCH_LIMIT = 2 ** 16
# Received blocks searched per matrix product; with 8-byte costs this
# keeps each (rows, candidates) buffer at 16 MB or less, whatever the
# number of blocks (a drifting channel adds a second one for the energy).
ML_SLICE_ROWS = 32
# The search inverts a block's noise variances as they are while its
# smallest is at least this (an SNR of 1000 dB), and rescales them first
# otherwise, so that no inverse overflows.
ML_NOISE_FLOOR = 1e-100


def equalize(w: np.ndarray, r_f: np.ndarray) -> np.ndarray:
    """Per-bin symbol estimates ``conj(w) * r_f`` of received spectra."""
    return np.conj(w) * r_f


@dataclass
class EffectiveChannel:
    """Per-bin cascade response and per-bin noise variance at the receiver."""

    response: np.ndarray
    noise_var: np.ndarray

    def __getitem__(self, blocks) -> "EffectiveChannel":
        """The responses and noise of the selected blocks (leading axes)."""
        return EffectiveChannel(self.response[blocks], self.noise_var[blocks])


@dataclass
class RlsState:
    """Recursive least-squares state: per-bin weights ``w``, the per-bin
    inverse autocorrelation diagonal and the count of bins reinitialized."""

    w: np.ndarray
    inv_corr: np.ndarray
    lambda_rls: float
    reinits: int = 0

    @classmethod
    def initial(cls, block_size: int, lambda_rls: float = 0.995) -> "RlsState":
        if not 0.0 < lambda_rls <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        return cls(np.zeros(block_size, dtype=complex), np.ones(block_size),
                   lambda_rls)


def effective_channel(hops: np.ndarray, zeta: float, sigma2_relay: float,
                      sigma2_dest: float) -> EffectiveChannel:
    """Combined per-bin response and noise variance over all relay slots
    from hop spectra ``(..., 2U, N)``, relay u's source-to-relay response
    ``H`` in row ``2u`` and its relay-to-destination response ``G`` in row
    ``2u + 1``; the leading block axes carry through to the result. Every
    relay has gain ``zeta``, relay noise ``sigma2_relay`` and destination
    noise ``sigma2_dest``.

    Each cascade contributes ``zeta * H(f) * G(f)`` to the response; its
    slot adds relay noise shaped by ``|G(f)|^2`` plus one destination-noise
    term.
    """
    if hops.shape[-2] < 2:
        raise ValueError("need at least one relay")
    h_f, g_f = hops[..., 0::2, :], hops[..., 1::2, :]
    response = np.sum(zeta * h_f * g_f, axis=-2)
    # zeta * zeta, not zeta ** 2: a scalar power goes through libm pow,
    # which rounds some squares differently from a product.
    noise = np.sum(zeta * zeta * np.abs(g_f) ** 2 * sigma2_relay + sigma2_dest,
                   axis=-2)
    return EffectiveChannel(response, noise)


def mrc_weights(ch: EffectiveChannel) -> np.ndarray:
    """Per-bin matched filter; aligns phase but does not invert the channel."""
    return ch.response.copy()


def mmse_weights(ch: EffectiveChannel) -> np.ndarray:
    """Per-bin Wiener weights ``g / (|g|^2 + noise)``; dead bins get zero."""
    denom = np.abs(ch.response) ** 2 + ch.noise_var
    return np.divide(ch.response, denom, out=np.zeros_like(ch.response),
                     where=denom > 0)


@lru_cache(maxsize=8)
def _ml_tables(scheme_name: str, block_size: int):
    """Search tables over all ``order ** block_size`` candidate blocks, one
    column per candidate: the real form of the time-domain blocks, ``Re s``
    stacked over ``-Im s`` (``(2N, count)``; ``Re s`` alone, ``(N, count)``,
    for a real constellation), and the energy ``|S|^2`` of their unitary
    spectra (``(N, count)``)."""
    scheme = ModulationScheme.from_name(scheme_name)
    blocks = scheme.points[_ml_digits(scheme, block_size,
                                      np.arange(scheme.order ** block_size))]
    power = np.abs(np.fft.fft(blocks, axis=1, norm="ortho").T) ** 2
    if np.any(scheme.points.imag):
        real_form = np.concatenate([blocks.real.T, -blocks.imag.T])
    else:
        real_form = blocks.real.T
    tables = np.ascontiguousarray(real_form), np.ascontiguousarray(power)
    for table in tables:
        table.flags.writeable = False  # shared by every detector
    return tables


def _ml_digits(scheme: ModulationScheme, block_size: int,
               index: np.ndarray) -> np.ndarray:
    """Constellation indices, most significant symbol first, of the
    candidate blocks numbered ``index``."""
    powers = scheme.order ** np.arange(block_size - 1, -1, -1)
    return (index[..., None] // powers) % scheme.order


class MlDetector:
    """Exhaustive block detector for one channel state, or one per block
    when ``ch`` carries a block axis (a drifting channel).

    The noise-whitened distance of candidate block ``s_j`` with spectrum
    ``S_j`` from the received spectrum ``r`` expands as
    ``sum_k v_k |r_k - g_k S_jk|^2 = sum_k v_k |r_k|^2
    + sum_k v_k |g_k|^2 |S_jk|^2 - 2 Re(s_j . F(v g conj(r)))``, with ``F``
    the unitary DFT and ``v`` the inverse noise variance. The first term is
    the same for every candidate, the second is one energy per candidate
    and channel state, and the third is one real matrix product with the
    cached time-domain candidates, so ``detect`` minimises
    ``energy / 2 - linear`` over all candidates.
    """

    def __init__(self, ch: EffectiveChannel, scheme: ModulationScheme,
                 block_size: int):
        if scheme.order ** block_size > ML_SEARCH_LIMIT:
            raise ValueError("exhaustive search space exceeds the limit")
        self._scheme = scheme
        self._block_size = block_size
        self._real_form, self._power = _ml_tables(scheme.name, block_size)
        inv_noise = _inverse_noise(ch.noise_var)
        self._weighted = inv_noise * ch.response
        self._energy_weights = inv_noise * np.abs(ch.response) ** 2
        # A fixed channel has one energy per candidate for every block.
        self._half_energy = (0.5 * (self._energy_weights @ self._power)
                             if ch.response.ndim == 1 else None)

    def detect(self, r_f: np.ndarray) -> np.ndarray:
        """Decided time-domain block for one received spectrum ``(N,)``,
        or one per row of a ``(rows, N)`` stack; a drifting detector takes
        one row per block of its channel."""
        rows = np.atleast_2d(r_f)
        if self._half_energy is None and rows.shape != self._weighted.shape:
            raise ValueError("a drifting channel needs one received block "
                             "per channel block")
        z = np.fft.fft(self._weighted * np.conj(rows), axis=-1, norm="ortho")
        if len(self._real_form) > self._block_size:
            z = np.concatenate([z.real, z.imag], axis=-1)
        else:
            z = z.real
        shape = (min(len(rows), ML_SLICE_ROWS), self._real_form.shape[1])
        cost = np.empty(shape)
        energy = np.empty(shape) if self._half_energy is None else None
        best = np.empty(len(rows), dtype=np.intp)
        for start in range(0, len(rows), ML_SLICE_ROWS):
            part = slice(start, start + ML_SLICE_ROWS)
            size = len(best[part])
            linear = np.matmul(z[part], self._real_form, out=cost[:size])
            if energy is None:
                half_energy = self._half_energy
            else:
                half_energy = np.matmul(self._energy_weights[part],
                                        self._power, out=energy[:size])
                half_energy *= 0.5
            best[part] = np.argmin(
                np.subtract(half_energy, linear, out=linear), axis=1)
        decided = self._scheme.points[_ml_digits(self._scheme,
                                                 self._block_size, best)]
        return decided if np.ndim(r_f) > 1 else decided[0]


def _inverse_noise(noise_var: np.ndarray) -> np.ndarray:
    """Per-bin ``1 / noise_var`` along the last axis; a noiseless bin takes
    the smallest positive variance of its block, and a block with none
    weights every bin by one. The search's argmin ignores one positive
    scale per block, so a block whose smallest variance lies below
    ``ML_NOISE_FLOOR``, where the inverse would overflow, is weighted by
    that smallest variance over each bin's: at most one."""
    positive = noise_var > 0
    floor = np.min(noise_var, axis=-1, keepdims=True, initial=np.inf,
                   where=positive)
    floor = np.where(np.isinf(floor), 1.0, floor)
    scale = np.where(floor < ML_NOISE_FLOOR, floor, 1.0)
    return scale / np.where(positive, noise_var, floor)


def lms_step(w: np.ndarray, r_f: np.ndarray, s_f: np.ndarray,
             mu: float) -> tuple[np.ndarray, np.ndarray]:
    """One stochastic-gradient update of the per-bin filters ``w``.

    A priori error ``e = s - conj(w) * r`` per bin, then ``w += mu * r * conj(e)``
    so the recursion descends toward the per-bin Wiener solution.
    """
    err = s_f - equalize(w, r_f)
    return w + mu * r_f * np.conj(err), err


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
    err = s_f - equalize(state.w, r_f)
    w_next = state.w + gain * np.conj(err)
    p_next = scaled * (1.0 - (gain * np.conj(r_f)).real)
    bad = p_next <= 0
    reinits = state.reinits + int(np.count_nonzero(bad))
    if bad.any():
        p_next = np.where(bad, 1.0, p_next)
    return RlsState(w_next, p_next, state.lambda_rls, reinits), err


def mmse_error_floor(ch: EffectiveChannel) -> float:
    """Mean per-bin residual MSE of the ideal Wiener equalizer."""
    denom = np.abs(ch.response) ** 2 + ch.noise_var
    per_bin = np.divide(ch.noise_var, denom, out=np.ones_like(ch.noise_var),
                        where=denom > 0)
    return float(np.mean(per_bin))

