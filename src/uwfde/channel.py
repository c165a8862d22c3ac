"""Multipath channel generation and per-bin channel responses.

Channel realizations are doubly stochastic cluster/ray arrival processes:
cluster starts and ray offsets have exponential inter-arrival gaps, mean
ray power decays exponentially across clusters and across rays within a
cluster, amplitudes are Nakagami-m and phases uniform. Realizations are
quantized to symbol-spaced taps (unit total power) and can drift
block-to-block through a first-order Gauss-Markov recursion.

All operations are pure given explicit ``numpy.random.Generator``s; each
quantity of many hops is one row-major array, whose rows do not depend on
how many hops are drawn.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
# blocks of Gauss-Markov drift summed in one closed-form pass
DRIFT_TILE = 64


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


def sv_profile(num_paths: int) -> SvParams:
    """Default profile of ``num_paths`` rays over as many one-symbol tap bins.

    Arrival gaps scale with the requested spread while the decay constants
    stay fixed in symbol units, so several taps remain significant and the
    quantized channel is genuinely frequency selective.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    clusters, rays = _CLUSTER_SPLITS.get(num_paths, (1, num_paths))
    return SvParams(
        cluster_rate=clusters / num_paths,
        ray_rate=1.0,
        cluster_decay=6.0,
        ray_decay=2.0,
        num_clusters=clusters,
        rays_per_cluster=rays,
    )


def complex_noise(rng: np.random.Generator, size, var) -> np.ndarray:
    """Circular complex Gaussian samples with total variance ``var`` each."""
    scale = np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def _arrival_times(u: np.ndarray, rate: float) -> np.ndarray:
    """Arrival times on the last axis: 0, then ``1 / rate``-mean gaps."""
    times = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
    np.cumsum(-np.log1p(-u) / rate, axis=-1, out=times[..., 1:])
    return times


def sample_nakagami(m: float, rng: np.random.Generator, size=None):
    """Unit-power Nakagami-m amplitude draw(s): sqrt of Gamma(shape=m,
    scale=1/m)."""
    if m < 0.5:
        raise ValueError("Nakagami shape must be >= 0.5")
    return np.sqrt(rng.gamma(shape=m, scale=1.0 / m, size=size))


def channel_variates(params: SvParams, rngs,
                     hops: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of ``hops`` realizations that ``generate_channel`` reads,
    as (amplitudes, uniforms). ``rngs`` is the pair (gamma generator,
    uniform generator), which may be one generator twice. The uniform
    generator draws first, ``(hops, 2*C*R - 1)``: a row's C - 1 cluster
    gaps, C*(R - 1) ray gaps and C*R phases; then the gamma generator draws
    the Nakagami ray amplitudes ``(hops, C*R)``. Each is one row-major
    array, so a row is the same for any ``hops``."""
    gamma_rng, uniform_rng = rngs
    c, r = params.num_clusters, params.rays_per_cluster
    uniforms = uniform_rng.random((hops, 2 * c * r - 1))
    return (sample_nakagami(params.nakagami_m, gamma_rng, (hops, c * r)),
            uniforms)


def generate_channel(params: SvParams, rngs,
                     hops: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Eigenray ``(gains, delays)`` of ``hops`` realizations, each
    ``(hops, C*R)`` cluster by cluster, every row at unit power. ``rngs`` is
    the generator pair of ``channel_variates``, or the (amplitudes,
    uniforms) it draws, with any leading axes, which carry through to the
    result."""
    if isinstance(rngs[0], np.random.Generator):
        rngs = channel_variates(params, rngs, hops)
    amplitudes, u = rngs
    c, r = params.num_clusters, params.rays_per_cluster
    lead = u.shape[:-1]
    starts = _arrival_times(u[..., :c - 1], params.cluster_rate)[..., None]
    offsets = _arrival_times(u[..., c - 1:c * r - 1].reshape(lead + (c, r - 1)),
                             params.ray_rate)
    # extreme decay underflows to zero mean power; those rays carry no gain
    power = params.omega * np.exp(-starts / params.cluster_decay
                                  - offsets / params.ray_decay)
    gains = (np.sqrt(power.reshape(lead + (c * r,))) * amplitudes
             * np.exp(1j * TWO_PI * u[..., c * r - 1:]))
    gains /= np.sqrt(np.sum(np.abs(gains) ** 2, axis=-1, keepdims=True))
    return gains, (starts + offsets).reshape(lead + (c * r,))


def quantize_to_taps(gains: np.ndarray, delays: np.ndarray,
                     sample_period: float, max_taps: int) -> np.ndarray:
    """Reduce eigenrays ``(..., rays)`` to unit-power tapped delay lines
    ``(..., max_taps)``, one per row: each ray adds coherently into its
    nearest bin, rays beyond the last bin drop, the survivors renormalize.
    """
    if sample_period <= 0:
        raise ValueError("sample_period must be positive")
    bins = np.rint(delays / sample_period)
    keep = bins < max_taps
    if not keep.any(axis=-1).all():
        raise ValueError("all rays fall beyond the last tap bin")
    index = np.arange(bins.size).reshape(bins.shape) // bins.shape[-1] * max_taps
    taps = np.zeros(bins.shape[:-1] + (max_taps,), dtype=complex)
    np.add.at(taps.reshape(-1), (index + bins)[keep].astype(int), gains[keep])
    power = np.sum(np.abs(taps) ** 2, axis=-1, keepdims=True)
    if not np.all(power > 0.0):
        raise ValueError("quantized channel has no power")
    return taps / np.sqrt(power)


def evolve_channel(taps: np.ndarray, fd_norm: float, blocks: int, rng,
                   stationary_power: np.ndarray | None = None) -> np.ndarray:
    """Gauss-Markov drift of a tap vector, or a stack along the last axis,
    over ``blocks`` blocks: the ``(blocks,) + taps.shape`` track from row
    0 ``taps``, one step of ``rho = exp(-2*pi*fd_norm)`` per block, whose
    innovation keeps each tap's stationary power (by default the powers of
    ``taps``). ``rng`` is a generator, or the standard normals it would
    draw, ``taps.shape[:-1] + (blocks - 1, 2, L)``: each vector's steps in
    turn, real then imaginary; so a stack's first vectors drift the same
    whatever follows them.

    The recursion ``track[b] = rho * track[b-1] + step[b-1]`` is summed in
    closed form, ``DRIFT_TILE`` blocks at a time: from a tile's start state
    ``s``, ``track[j] = rho**j * (s + sum_{k<j} rho**-(k+1) * step[k])``,
    one cumulative sum over the tile. Within a tile the scale grows by at
    most ``rho**-DRIFT_TILE < exp(DRIFT_TILE * pi)``."""
    if not 0.0 <= fd_norm < 0.5:
        raise ValueError("fd_norm must be in [0, 0.5)")
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    track = np.repeat(np.asarray(taps, dtype=complex)[None], blocks, axis=0)
    if fd_norm == 0.0 or blocks == 1:
        return track
    shape = track.shape[1:]
    power = np.abs(taps) ** 2 if stationary_power is None else stationary_power
    rho = np.exp(-TWO_PI * fd_norm)
    draws = (rng.standard_normal(shape[:-1] + (blocks - 1, 2, shape[-1]))
             if isinstance(rng, np.random.Generator) else rng)
    # row 1 + k of the track first holds step k times rho**-(j+1), where
    # j = k % DRIFT_TILE is its place in its tile
    decay = (rho ** np.arange(1.0, min(blocks, DRIFT_TILE + 1))).reshape(
        (-1,) + (1,) * len(shape))
    scale = (np.sqrt((1.0 - rho * rho) * np.asarray(power, dtype=float) / 2.0)
             / np.resize(decay, (blocks - 1,) + decay.shape[1:]))
    draws = np.moveaxis(draws, -3, 0)
    np.multiply(scale, draws[..., 0, :], out=track[1:].real)
    np.multiply(scale, draws[..., 1, :], out=track[1:].imag)
    pairs = track.view(float)  # real arithmetic, no complex-by-real casts
    for start in range(0, blocks - 1, DRIFT_TILE):
        stop = min(start + DRIFT_TILE, blocks - 1)
        rows = track[start + 1:stop + 1]
        np.cumsum(rows, axis=0, out=rows)
        tile = pairs[start + 1:stop + 1]
        tile += pairs[start]
        tile *= decay[:stop - start]
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
