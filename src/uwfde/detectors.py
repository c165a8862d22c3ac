"""Frequency-domain detector bank for the relayed SC-FDE link.

Because the cascade of prefix-protected circulant channels is itself
circulant, the combined response, the noise covariance and every linear
equalizer here are diagonal in the DFT basis. All detectors therefore
reduce to per-bin scalars: closed-form matched-filter (MRC) and Wiener
(MMSE) weights, an exact small-block maximum-likelihood search,
stochastic-gradient (LMS) recursions, and recursive least squares (RLS) in
its closed form, one weighted sum over the pilot blocks. The search works on
the triangular (QR) factor of the noise-whitened real model, where it drops
every partial block that already costs more than the MMSE decision.

Weights are plain ``(..., N)`` arrays, one complex weight per bin, and
``equalize`` holds the one application convention: the symbol estimate
is ``conj(w) * r`` per bin, so the Wiener fixed point of both adaptive
filters is ``w_k = g_k / (|g_k|^2 + noise_k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .txrx import ModulationScheme, unitary_ifft

# The search keeps a partial block whose cost is within its radius plus this
# share of the magnitude of its terms, and counts two costs within it of each
# other as equal: far above the rounding of a cost (a few ulps of that
# magnitude per term), far below the gap between two costs that differ.
ML_MARGIN = 2.0 ** -40
# Bytes of pair costs that one product of the search writes at most; each
# product scores the survivors of one channel state.
ML_SCORE_BYTES = 2 ** 22
# The search inverts a block's noise variances as they are while its
# smallest is at least this (an SNR of 1000 dB), and rescales them first
# otherwise, so that no inverse overflows.
ML_NOISE_FLOOR = 1e-100


def equalize(w: np.ndarray, r_f: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Per-bin symbol estimates ``conj(w) * r_f`` of received spectra,
    written into ``out`` when given."""
    return np.multiply(np.conj(w), r_f, out=out)


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
    inverse autocorrelation diagonal (positive) and a count of reset bins,
    which ``rls_step`` carries through unchanged."""

    w: np.ndarray
    inv_corr: np.ndarray
    lambda_rls: float
    reinits: int = 0

    @classmethod
    def initial(cls, block_size: int, lambda_rls: float = 0.995) -> "RlsState":
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


@lru_cache(maxsize=32)
def _sign_table(dims: int, a: float) -> np.ndarray:
    """The ``2 ** dims`` patterns ``±a`` of ``dims`` real dimensions, one
    column each, numbered in binary with the first dimension most
    significant and a bit set where the sign is negative: a block's number
    is its bits as ``demodulate`` decides them."""
    bits = (np.arange(2 ** dims) >> np.arange(dims - 1, -1, -1)[:, None]) & 1
    table = a * (1.0 - 2.0 * bits)
    table.flags.writeable = False  # shared by every detector
    return table


@lru_cache(maxsize=8)
def _dft(block_size: int) -> np.ndarray:
    """The unitary DFT matrix, column ``i`` the spectrum of symbol ``i``."""
    matrix = np.fft.fft(np.eye(block_size), axis=0, norm="ortho")
    matrix.flags.writeable = False
    return matrix


class MlDetector:
    """Exact block detector for a channel of S states, ``ch`` with its
    leading axes flattened: a channel that holds still is one state for all
    of its blocks, a drifting one a state per block.

    With ``v`` the inverse noise variance and ``F`` the unitary DFT, the
    noise-whitened distance ``sum_k v_k |r_k - g_k S_k|^2`` of a candidate
    block with spectrum ``S = F s`` is ``|y - B x|^2`` in real form:
    ``y`` stacks ``Re`` over ``Im`` of ``sqrt(v) r``, ``B`` does the same
    for ``sqrt(v) g F``, and ``x`` holds the ``D`` real dimensions of
    ``s`` (``Re s_i``, then ``Im s_i`` for QPSK), each ``±a`` (BPSK or
    QPSK). With ``B = QR`` the distance is ``|z - R x|^2`` plus a constant,
    ``z = Q^T y``; ``R`` is upper triangular, so its last rows give the
    cost of the last (bottom) dimensions alone.

    ``detect`` searches that lattice for the closest point (Fincke and
    Pohst; Agrell, Eriksson, Vardy and Zeger, "Closest point search in
    lattices", 2002), taking the cost of the MMSE hard decision, a
    feasible block, as the radius. One product per state scores every
    bottom half, and only those whose partial cost is within the radius
    plus ``ML_MARGIN`` times the magnitude of the terms, ``|z|^2 + D a^2
    |R|_F^2``, go on, so rounding never drops the best block. Each is
    completed against its state's table of every top half, one column per
    antipodal pair ``(t, -t)``, which share their energy and negate their
    cross term. Costs within that margin of the least count as equal and go
    to the lowest candidate number (see ``_sign_table``). The worst case
    scores every candidate once.
    """

    def __init__(self, ch: EffectiveChannel, scheme: ModulationScheme,
                 block_size: int):
        self._scheme, self._block_size = scheme, block_size
        self._a = abs(scheme.points[0].real)
        root = np.sqrt(_inverse_noise(ch.noise_var))
        self._root = root.reshape(-1, block_size)
        columns = (root * ch.response).reshape(-1, block_size, 1) * _dft(
            block_size)
        if scheme.bits_per_symbol == 2:
            columns = np.stack([columns, 1j * columns], axis=-1).reshape(
                len(columns), block_size, -1)
        # B, one (2N, D) model per channel state
        self._model = np.concatenate([columns.real, columns.imag], axis=1)
        # D a^2 |R|_F^2, as |R|_F = |B|_F
        self._size = (self._model.shape[-1] * self._a ** 2
                      * np.sum(self._model ** 2, axis=(1, 2)))
        # each state's Wiener weights, whose decisions set the radius
        self._weights = mmse_weights(ch).reshape(-1, 1, block_size)

    def detect(self, rows: np.ndarray) -> np.ndarray:
        """Decided bits ``(rows, D)``, one row per row of the received
        spectra ``rows`` ``(rows, N)``: the winning candidate's number in
        binary, most significant first, so bit ``i`` is set where real
        dimension ``i`` is negative, as ``demodulate`` sets it. The rows
        split evenly over the channel's states in order: with ``P`` rows a
        state, state ``k`` takes rows ``kP`` to ``kP + P - 1``."""
        states = len(self._root)
        rows = rows.reshape(states, len(rows) // states, self._block_size)
        y = self._root[:, None] * rows
        y = np.concatenate([y.real, y.imag], axis=-1)
        dims = self._model.shape[-1]
        # each state's received blocks as extra columns of its B: the first
        # D rows of the triangular factor are R and z = Q^T y
        r = np.linalg.qr(np.concatenate([self._model, y.mT], axis=2),
                         mode="r")
        z = r[:, :dims, dims:].mT
        estimate = unitary_ifft(equalize(self._weights, rows))
        if self._scheme.bits_per_symbol == 2:
            estimate = np.stack([estimate.real, estimate.imag], axis=-1)
        start = np.copysign(self._a, estimate.real).reshape(z.shape)
        best = self._search(r[:, :dims, :dims], z, start)
        return (best[:, None] >> np.arange(dims - 1, -1, -1)) & 1 == 1

    def _search(self, r: np.ndarray, z: np.ndarray,
                start: np.ndarray) -> np.ndarray:
        """The number of the closest candidate to each row of ``z`` ``(S,
        P, D)`` under its state's ``R``, no costlier than ``start``, state
        by state."""
        per, dims = z.shape[1:]
        top = max(1, dims // 2)
        low = dims - top
        radius = np.sum(np.square(z - start @ r.mT), axis=-1)
        margin = ML_MARGIN * (np.sum(z * z, axis=-1) + self._size[:, None])
        # each bottom half's share of the top rows, then of its own
        tail = r[:, :, top:] @ _sign_table(low, self._a)
        cross, lows = tail[:, :top], tail[:, top:]
        tops = _sign_table(top, self._a)[:, :2 ** (top - 1)]  # t, not -t
        pairs = r[:, :top, :top] @ tops
        pair_energy = 0.5 * np.sum(pairs * pairs, axis=1)

        # half a bottom half's cost, less half |z_bottom|^2
        z_top, z_low = z[..., :top].reshape(-1, top), z[..., top:]
        low_norm = np.sum(z_low * z_low, axis=-1)
        score = 0.5 * np.sum(lows * lows, axis=1)[:, None] - z_low @ lows
        kept = np.flatnonzero(
            score <= (0.5 * (radius + margin - low_norm))[..., None])
        row, half = kept >> low, kept & (2 ** low - 1)
        state = row // per
        u = z_top[row] - cross[state, :, half]
        # half the cost of each survivor's bottom and its top's remainder
        base = score.ravel()[kept] + 0.5 * (low_norm.ravel()[row]
                                            + np.sum(u * u, 1))
        starts = np.searchsorted(row, np.arange(low_norm.size + 1))
        least = np.empty(len(row))
        # each state's survivors, up to ML_SCORE_BYTES of pair costs a product
        step = max(1, ML_SCORE_BYTES // (8 * pairs.shape[-1]))
        ends = starts[::per]
        for k, (first, end) in enumerate(zip(ends[:-1], ends[1:])):
            for chunk in range(first, end, step):
                run = slice(chunk, min(chunk + step, end))
                # pairs by survivors, so that the minimum runs along whole
                # rows, faster than along each survivor's short row of pairs
                cost = np.matmul(pairs[k].T, u[run].T)
                np.subtract(pair_energy[k][:, None], np.abs(cost, out=cost),
                            out=cost)
                np.min(cost, axis=0, out=least[run])
        least += base
        bound = np.minimum.reduceat(least, starts[:-1]) + 0.5 * margin.ravel()

        # the survivors within the margin of their row's least, with signs:
        # top half t costs base + energy - signed and -t base + energy +
        # signed, and t has the lower number
        near = np.flatnonzero(least <= bound[row])
        state = state[near]
        signed = np.matmul(u[near][:, None], pairs[state])[:, 0]
        need = (base[near] - bound[row[near]])[:, None] + pair_energy[state]
        hit = np.flatnonzero(np.abs(signed) >= need)
        which, pair = hit >> (top - 1), hit & (2 ** (top - 1) - 1)
        head = np.where(signed.ravel()[hit] >= need.ravel()[hit], pair,
                        2 ** top - 1 - pair)
        best = np.full(low_norm.size, 2 ** dims)
        np.minimum.at(best, row[near][which],
                      (head << low) + half[near][which])
        return best


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


def rls_step(state: RlsState, r_f: np.ndarray, s_f: np.ndarray,
             errors: bool = False) -> tuple[RlsState, np.ndarray | None]:
    """Closed-form RLS training of the per-bin filters on received spectra
    ``r_f`` ``(..., blocks, N)`` sent as ``s_f``, which broadcasts against
    it: from ``(w0, P0 > 0)``, exponentially weighted least squares (Haykin,
    *Adaptive Filter Theory*) gives ``1/P = lambda^B / P0 + sum_k
    lambda^(B-1-k) |r_k|^2`` and ``w = P (lambda^B w0 / P0 + sum_k
    lambda^(B-1-k) r_k conj(s_k))``. ``1/P`` is floored at the smallest
    normal float, so a bin that got no signal weighs 0 once ``lambda^B``
    underflows. ``errors`` adds the a priori errors ``(..., blocks, N)``
    under the weights before each block, from the same sums over every
    prefix (``blocks`` times the work).
    """
    lam, blocks = state.lambda_rls, r_f.shape[-2]
    # row i weighs block j by lambda^(k - 1 - j) if j < k = ends[i], else 0
    ends = np.arange(blocks + 1) if errors else np.array([blocks])
    ages = ends[:, None] - np.arange(blocks) - 1
    decay = np.where(ages >= 0, lam ** np.abs(ages), 0.0)

    def prefix_sums(a, b):
        # a complex product goes through real BLAS as (re, im) pairs, which
        # is faster than numpy's real-times-complex matrix product
        ab = a * b
        return (decay @ ab.view(float)).view(ab.dtype)

    # every prefix goes through BLAS on the products; the final sums alone
    # contract without (..., blocks, N) temporaries
    sums = (prefix_sums if errors else
            partial(np.einsum, "kj,...jn,...jn->...kn", decay))
    prior = (lam ** ends)[:, None] / state.inv_corr[..., None, :]
    p = 1.0 / np.maximum(prior + sums(r_f.real, r_f.real)
                         + sums(r_f.imag, r_f.imag), np.finfo(float).tiny)
    w = p * (prior * state.w[..., None, :] + sums(r_f, np.conj(s_f)))
    out = RlsState(w[..., -1, :], p[..., -1, :], lam, state.reinits)
    return out, (s_f - equalize(w[..., :-1, :], r_f)) if errors else None


def mmse_error_floor(ch: EffectiveChannel) -> np.ndarray:
    """Mean per-bin residual MSE of the ideal Wiener equalizer, along the
    last axis."""
    denom = np.abs(ch.response) ** 2 + ch.noise_var
    per_bin = np.divide(ch.noise_var, denom, out=np.ones_like(ch.noise_var),
                        where=denom > 0)
    return np.mean(per_bin, axis=-1)

