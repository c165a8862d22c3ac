"""Multipath channel generation and per-bin channel responses.

Channel realizations are doubly stochastic cluster/ray arrival processes:
cluster starts and ray offsets have exponential inter-arrival gaps, mean
ray power decays exponentially across clusters and across rays within a
cluster, amplitudes are Nakagami-m and phases uniform. Realizations are
quantized to symbol-spaced taps (unit total power) and can drift
block-to-block through a first-order Gauss-Markov recursion.

All operations are pure given an explicit ``numpy.random.Generator``;
Monte Carlo workers each own their own stream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def _whole_number(value, name: str) -> int:
    """``value`` as an int; a float counts when it is a whole number, such
    as ``2.0``, and anything else is rejected."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SvParams:
    """Arrival-rate, power-decay and fading parameters of the channel model.

    Rates are events per unit time, decays are e-folding times, and
    ``sample_period`` is the tap spacing used when quantizing a realization.
    """

    cluster_rate: float
    ray_rate: float
    cluster_decay: float
    ray_decay: float
    num_clusters: int
    rays_per_cluster: int
    nakagami_m: float = 1.3
    omega: float = 1.0
    sample_period: float = 1.0

    def __post_init__(self) -> None:
        for name in ("cluster_rate", "ray_rate", "cluster_decay", "ray_decay",
                     "sample_period", "omega"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.5 <= self.nakagami_m < np.inf:
            raise ValueError("nakagami_m must be finite and >= 0.5")
        for name in ("num_clusters", "rays_per_cluster"):
            object.__setattr__(self, name,
                               _whole_number(getattr(self, name), name))
        if self.num_clusters < 1 or self.rays_per_cluster < 1:
            raise ValueError("need at least one cluster and one ray per cluster")


# Cluster/ray splits for tap counts used by the stock experiments; anything
# else falls back to a single cluster holding all rays.
_CLUSTER_SPLITS = {4: (2, 2), 15: (3, 5)}


def sv_profile(num_paths: int, sample_period: float = 1.0) -> SvParams:
    """Default profile spreading ``num_paths`` rays over as many tap bins.

    Arrival gaps scale with the requested spread while the decay constants
    stay fixed in symbol units, so several taps remain significant and the
    quantized channel is genuinely frequency selective.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    clusters, rays = _CLUSTER_SPLITS.get(num_paths, (1, num_paths))
    span = num_paths * sample_period
    return SvParams(
        cluster_rate=clusters / span,
        ray_rate=1.0 / sample_period,
        cluster_decay=6.0 * sample_period,
        ray_decay=2.0 * sample_period,
        num_clusters=clusters,
        rays_per_cluster=rays,
        sample_period=sample_period,
    )


def complex_noise(rng: np.random.Generator, size, var) -> np.ndarray:
    """Circular complex Gaussian samples with total variance ``var`` each."""
    scale = np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def sample_cluster_arrivals(params: SvParams, rng: np.random.Generator) -> np.ndarray:
    """Cluster start times: first at 0, then i.i.d. exponential gaps."""
    gaps = rng.exponential(1.0 / params.cluster_rate, size=params.num_clusters - 1)
    return np.concatenate(([0.0], np.cumsum(gaps)))


def sample_ray_arrivals(params: SvParams, rng: np.random.Generator) -> np.ndarray:
    """Ray offsets within one cluster: first at 0, then exponential gaps."""
    gaps = rng.exponential(1.0 / params.ray_rate, size=params.rays_per_cluster - 1)
    return np.concatenate(([0.0], np.cumsum(gaps)))


def sample_nakagami(m: float, omega, rng: np.random.Generator, size=None):
    """Nakagami-m amplitude draw(s): sqrt of Gamma(shape=m, mean=omega)."""
    if m < 0.5:
        raise ValueError("Nakagami shape must be >= 0.5")
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("omega must be positive")
    return np.sqrt(rng.gamma(shape=m, scale=omega / m, size=size))


def generate_channel(params: SvParams,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one realization, its eigenray ``(gains, delays)``, with the total
    eigenray power normalized to one."""
    cluster_times = sample_cluster_arrivals(params, rng)
    delays = np.concatenate(
        [t + sample_ray_arrivals(params, rng) for t in cluster_times]
    )
    offsets = delays - np.repeat(cluster_times, params.rays_per_cluster)
    mean_power = (params.omega
                  * np.exp(-np.repeat(cluster_times, params.rays_per_cluster)
                           / params.cluster_decay)
                  * np.exp(-offsets / params.ray_decay))
    # extreme decay underflows to zero mean power; those rays carry no gain
    amps = np.zeros(len(delays))
    alive = mean_power > 0
    if alive.any():
        amps[alive] = sample_nakagami(params.nakagami_m, mean_power[alive],
                                      rng, size=int(alive.sum()))
    phases = rng.uniform(0.0, TWO_PI, size=len(delays))
    gains = amps * np.exp(1j * phases)
    return gains / np.sqrt(np.sum(np.abs(gains) ** 2)), delays


def quantize_to_taps(gains: np.ndarray, delays: np.ndarray,
                     sample_period: float, max_taps: int) -> np.ndarray:
    """Reduce eigenrays to a unit-power tapped delay line of ``max_taps`` bins.

    Each ray is added coherently into the nearest bin; rays beyond the last
    bin are dropped and the survivors renormalized.
    """
    if sample_period <= 0:
        raise ValueError("sample_period must be positive")
    if max_taps < 1:
        raise ValueError("max_taps must be >= 1")
    bins = np.rint(delays / sample_period).astype(int)
    keep = bins < max_taps
    if not keep.any():
        raise ValueError("all rays fall beyond the last tap bin")
    taps = np.zeros(max_taps, dtype=complex)
    np.add.at(taps, bins[keep], gains[keep])
    power = np.sum(np.abs(taps) ** 2)
    if power <= 0.0:
        raise ValueError("quantized channel has no power")
    return taps / np.sqrt(power)


def evolve_channel(taps: np.ndarray, fd_norm: float, blocks: int,
                   rng: np.random.Generator,
                   stationary_power: np.ndarray | None = None) -> np.ndarray:
    """Gauss-Markov tap drift over ``blocks`` blocks of one tap vector or a
    stack of them along the last axis: the ``(blocks,) + taps.shape`` track
    whose row 0 is ``taps`` and whose every later row is one block step on
    from the row before.

    ``rho = exp(-2*pi*fd_norm)`` per block; the innovation keeps each tap's
    stationary power (defaults to the powers of ``taps``) in expectation.
    The innovations are drawn as one array, the real then the imaginary
    parts of each step in turn, which is the stream a step-by-step
    recursion drawing ``complex_noise`` per step consumes.
    """
    if not 0.0 <= fd_norm < 0.5:
        raise ValueError("fd_norm must be in [0, 0.5)")
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    track = np.empty((blocks,) + np.shape(taps), dtype=complex)
    track[:] = taps
    if fd_norm == 0.0:
        return track
    power = np.abs(taps) ** 2 if stationary_power is None else stationary_power
    rho = np.exp(-TWO_PI * fd_norm)
    draws = rng.standard_normal((blocks - 1, 2) + np.shape(taps))
    scale = np.sqrt(np.asarray(power, dtype=float) / 2.0)
    step = np.sqrt(1.0 - rho * rho) * (scale * (draws[:, 0] + 1j * draws[:, 1]))
    for b in range(1, blocks):
        track[b] = rho * track[b - 1] + step[b - 1]
    return track


def freq_response(taps: np.ndarray, block_size: int) -> np.ndarray:
    """Per-bin response of the circulant channel: DFT of the padded taps,
    along the last axis of a tap vector or stack."""
    taps = np.asarray(taps, dtype=complex)
    if taps.shape[-1] > block_size:
        raise ValueError("more taps than the block size")
    return np.fft.fft(taps, n=block_size)


def path_gain(delta: float, eta: float) -> tuple[float, float]:
    """Power gains of the two hops for a relay at normalized distance delta.

    Power-law loss with exponent eta, anchored so both hops have unit gain
    at the midpoint.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    return (2.0 * delta) ** -eta, (2.0 * (1.0 - delta)) ** -eta


def af_gain(sigma2_hsr: float, sigma2_relay: float) -> float:
    """Fixed relay gain keeping the average retransmit power at one."""
    if sigma2_hsr < 0 or sigma2_relay < 0:
        raise ValueError("powers must be nonnegative")
    total = sigma2_hsr + sigma2_relay
    if total == 0:
        raise ValueError("input and noise power cannot both be zero")
    return 1.0 / np.sqrt(total)
