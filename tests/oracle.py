"""Dense-matrix and per-hop oracles for the channel model; test helpers only."""

import numpy as np


def circulant_from_taps(taps: np.ndarray, block_size: int) -> np.ndarray:
    """Column-circulant matrix whose first column is the zero-padded taps."""
    taps = np.asarray(taps)
    if len(taps) > block_size:
        raise ValueError("more taps than the block size")
    col = np.zeros(block_size, dtype=complex)
    col[: len(taps)] = taps
    idx = (np.arange(block_size)[:, None] - np.arange(block_size)[None, :]) % block_size
    return col[idx]


def sv_realization_per_hop(params, rng: np.random.Generator):
    """One realization ``(gains, delays)`` drawn the way the simulator drew
    it before its draws took a hop axis: exponential cluster gaps, then each
    cluster's ray gaps in a loop, the amplitudes of the rays whose mean
    power did not underflow, then the phases; unit total power."""
    starts = np.concatenate(([0.0], np.cumsum(rng.exponential(
        1.0 / params.cluster_rate, size=params.num_clusters - 1))))
    delays = np.concatenate([t + np.concatenate(([0.0], np.cumsum(
        rng.exponential(1.0 / params.ray_rate,
                        size=params.rays_per_cluster - 1))))
        for t in starts])
    first = np.repeat(starts, params.rays_per_cluster)
    mean_power = (params.omega * np.exp(-first / params.cluster_decay)
                  * np.exp(-(delays - first) / params.ray_decay))
    amps = np.zeros(len(delays))
    alive = mean_power > 0
    m = params.nakagami_m
    amps[alive] = np.sqrt(rng.gamma(shape=m, scale=mean_power[alive] / m))
    gains = amps * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=len(delays)))
    return gains / np.sqrt(np.sum(np.abs(gains) ** 2)), delays


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical distribution functions of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate((a, b))
    gap = (np.searchsorted(a, both, side="right") / len(a)
           - np.searchsorted(b, both, side="right") / len(b))
    return float(np.max(np.abs(gap)))


def rls_recursion(w, inv_corr, lambda_rls, r_f, s_f):
    """The per-block RLS recursion over received spectra ``r_f`` ``(...,
    blocks, N)`` sent as ``s_f``, from weights ``w`` and inverse
    autocorrelation ``inv_corr``: each block one scalar per-bin gain / error
    / weight / inverse-autocorrelation sweep. Returns the final weights, the
    final inverse autocorrelation and the a priori error of every block."""
    errors = []
    for b in range(r_f.shape[-2]):
        r, s = r_f[..., b, :], s_f[..., b, :]
        scaled = inv_corr / lambda_rls
        gain = scaled * r / (1.0 + scaled * np.abs(r) ** 2)
        err = s - np.conj(w) * r
        w = w + gain * np.conj(err)
        inv_corr = scaled * (1.0 - (gain * np.conj(r)).real)
        errors.append(err)
    return w, inv_corr, np.stack(errors, axis=-2)


def gauss_markov_recursion(taps, rho, step):
    """The per-block Gauss-Markov recursion ``track[b] = rho * track[b-1] +
    step[..., b-1, :]`` from row 0 ``taps``, over steps ``step`` ``(...,
    blocks - 1, L)``: the ``(blocks,) + taps.shape`` track."""
    track = np.repeat(np.asarray(taps, dtype=complex)[None],
                      step.shape[-2] + 1, axis=0)
    for b in range(1, len(track)):
        track[b] = rho * track[b - 1] + step[..., b - 1, :]
    return track
