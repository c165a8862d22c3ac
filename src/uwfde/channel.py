"""Multipath channel generation and circulant-channel algebra.

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

from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * np.pi


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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.nakagami_m < 0.5:
            raise ValueError("nakagami_m must be >= 0.5")
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


@dataclass
class ChannelRealization:
    """One channel draw: eigenray gains/delays plus the quantized tap vector."""

    gains: np.ndarray
    delays: np.ndarray
    taps: np.ndarray | None = None

    @property
    def num_taps(self) -> int:
        if self.taps is None:
            raise ValueError("realization has not been quantized to taps")
        return len(self.taps)


@dataclass
class LinkState:
    """One source->relay->destination cascade with its gain and noise powers."""

    h_sr: ChannelRealization
    h_rd: ChannelRealization
    zeta: float
    sigma2_relay: float
    sigma2_dest: float
    sigma2_hsr: float

    def __post_init__(self) -> None:
        if self.sigma2_relay < 0 or self.sigma2_dest < 0 or self.sigma2_hsr < 0:
            raise ValueError("noise/channel powers must be nonnegative")
        if not np.isfinite(self.zeta) or self.zeta <= 0:
            raise ValueError("relay gain must be finite and positive")


@dataclass
class CascadeSpectra:
    """Per-bin hop responses of U relay cascades.

    ``h_f`` (source to relay) and ``g_f`` (relay to destination) are DFTs of
    the zero-padded hop taps, shape ``(U, N)``, or ``(..., U, N)`` with one
    response per block when the taps drift. ``zeta``, ``sigma2_relay`` and
    ``sigma2_dest`` hold one value per relay; ``num_taps`` is the longest
    hop's tap count, the memory a cyclic prefix must cover.
    """

    h_f: np.ndarray
    g_f: np.ndarray
    zeta: np.ndarray
    sigma2_relay: np.ndarray
    sigma2_dest: np.ndarray
    num_taps: int

    @classmethod
    def from_taps(cls, taps: np.ndarray, block_size: int, zeta, sigma2_relay,
                  sigma2_dest) -> "CascadeSpectra":
        """Transform hop taps of shape ``(..., 2U, L)``, relay u's source and
        destination hops in rows ``2u`` and ``2u + 1``; gains and noise
        powers are scalars or one value per relay."""
        response = freq_response(taps, block_size)
        relays = response.shape[-2] // 2

        def per_relay(value):
            return np.broadcast_to(np.asarray(value, dtype=float), (relays,))

        return cls(response[..., 0::2, :], response[..., 1::2, :],
                   per_relay(zeta), per_relay(sigma2_relay),
                   per_relay(sigma2_dest), taps.shape[-1])

    @classmethod
    def from_links(cls, links: list[LinkState], block_size: int) -> "CascadeSpectra":
        """Transform the hops of ``links``, zero-padding the shorter ones."""
        if not links:
            raise ValueError("need at least one link")
        hops = [tap for link in links for tap in (link.h_sr.taps, link.h_rd.taps)]
        if any(tap is None for tap in hops):
            raise ValueError("link channels must be quantized to taps")
        taps = np.zeros((len(hops), max(len(tap) for tap in hops)), dtype=complex)
        for row, tap in zip(taps, hops):
            row[: len(tap)] = tap
        return cls.from_taps(taps, block_size, [link.zeta for link in links],
                             [link.sigma2_relay for link in links],
                             [link.sigma2_dest for link in links])

    def __getitem__(self, blocks) -> "CascadeSpectra":
        """The responses of the selected blocks (leading axes)."""
        return replace(self, h_f=self.h_f[blocks], g_f=self.g_f[blocks])


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


def generate_channel(params: SvParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw one realization and normalize its total eigenray power to one."""
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
    gains = gains / np.sqrt(np.sum(np.abs(gains) ** 2))
    return ChannelRealization(gains=gains, delays=delays)


def quantize_to_taps(real: ChannelRealization, sample_period: float,
                     max_taps: int) -> np.ndarray:
    """Reduce eigenrays to a unit-power tapped delay line of ``max_taps`` bins.

    Each ray is added coherently into the nearest bin; rays beyond the last
    bin are dropped and the survivors renormalized.
    """
    if sample_period <= 0:
        raise ValueError("sample_period must be positive")
    if max_taps < 1:
        raise ValueError("max_taps must be >= 1")
    bins = np.rint(real.delays / sample_period).astype(int)
    keep = bins < max_taps
    if not keep.any():
        raise ValueError("all rays fall beyond the last tap bin")
    taps = np.zeros(max_taps, dtype=complex)
    np.add.at(taps, bins[keep], real.gains[keep])
    power = np.sum(np.abs(taps) ** 2)
    if power <= 0.0:
        raise ValueError("quantized channel has no power")
    return taps / np.sqrt(power)


def evolve_channel(taps: np.ndarray, fd_norm: float, rng: np.random.Generator,
                   stationary_power: np.ndarray | None = None) -> np.ndarray:
    """One block step of the Gauss-Markov tap drift, on one tap vector or a
    stack of them along the last axis.

    ``rho = exp(-2*pi*fd_norm)`` per block; the innovation keeps each tap's
    stationary power (defaults to the current tap powers) in expectation.
    """
    if not 0.0 <= fd_norm < 0.5:
        raise ValueError("fd_norm must be in [0, 0.5)")
    if fd_norm == 0.0:
        return np.array(taps, copy=True)
    power = np.abs(taps) ** 2 if stationary_power is None else stationary_power
    rho = np.exp(-TWO_PI * fd_norm)
    drive = complex_noise(rng, np.shape(taps), power)
    return rho * taps + np.sqrt(1.0 - rho * rho) * drive


def circulant_from_taps(taps: np.ndarray, block_size: int) -> np.ndarray:
    """Column-circulant matrix whose first column is the zero-padded taps."""
    taps = np.asarray(taps)
    if len(taps) > block_size:
        raise ValueError("more taps than the block size")
    col = np.zeros(block_size, dtype=complex)
    col[: len(taps)] = taps
    idx = (np.arange(block_size)[:, None] - np.arange(block_size)[None, :]) % block_size
    return col[idx]


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
