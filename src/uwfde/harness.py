"""Seeded Monte Carlo orchestration of the link-level experiments.

Every experiment reduces to the same trial: draw fresh relay cascades,
optionally train the adaptive equalizers on pilot blocks, transmit data
blocks and count bit errors per detector. Taps hold still within a block
and, under nonzero Doppler, take one Gauss-Markov step between consecutive
blocks. Trials are independent and embarrassingly parallel.

A trial's random stream is derived purely from (master seed, experiment
tag, trial index), and every grid point of a trial starts from that seed,
so the points of a sweep are paired comparisons and aggregate results are
bit-identical for any worker count. Points that differ only in SNR are run
together: they share one draw of the taps, drift and bits, and each
replays the same noise draws at its own noise powers, which gives exactly
the numbers a separate run per point would.
"""

from __future__ import annotations

import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .channel import (CascadeSpectra, SvParams, complex_noise, evolve_channel,
                      generate_channel, path_gain, quantize_to_taps, sv_profile)
from .detectors import (ML_SEARCH_LIMIT, EffectiveChannel, FdeWeights,
                        MlDetector, RlsState, effective_channel, lms_step,
                        mmse_error_floor, mmse_weights, mrc_weights, rls_step)
# relay_receive and relay_forward are the time-domain reference for
# transmit_block and no longer run here; bench/spans.py traces them by
# their names in this module, so the names stay.
from .relay import af_gain, relay_forward, relay_receive  # noqa: F401
from .txrx import (BlockFrame, ModulationScheme, demodulate, modulate,
                   unitary_fft, unitary_ifft)

# Layout of a trial's random stream (see run_point_trial). A manifest
# replays its CSV byte for byte only under the layout that wrote it, so any
# change to the draws bumps this number. 1 (v0.1.0) drew per block; 2
# draws per trial: hop taps, drift track, block bits, then hop noise.
STREAM_VERSION = 2

DETECTOR_NAMES = ("mrc", "mmse", "ml", "lms", "rls")
ADAPTIVE_DETECTORS = ("lms", "rls")
WORKERS_ENV_VAR = "UWFDE_WORKERS"


@dataclass
class SimConfig:
    """Full description of one simulation setup.

    ``snr_grid`` entries are destination energy-per-bit to noise-density
    ratios in dB for unit-energy constellations; relay noise is that times
    ``relay_noise_factor``. ``cp_len`` defaults to ``num_taps - 1``.
    """

    block_size: int = 64
    cp_len: int | None = None
    scheme: str = "bpsk"
    sv: SvParams = field(default_factory=lambda: sv_profile(15))
    num_taps: int = 15
    snr_grid: tuple[float, ...] = tuple(float(s) for s in range(0, 31, 2))
    detectors: tuple[str, ...] = ("mmse",)
    num_relays: int = 1
    fd_norm: float = 0.0
    delta: float = 0.5
    eta: float = 2.0
    mu: float = 0.05
    lambda_rls: float = 0.995
    pilot_frames: int = 50
    data_frames: int = 20
    trials: int = 200
    master_seed: int = 0
    relay_noise_factor: float = 1.0
    channel_model: str = "sv"
    workers: int = 1

    def __post_init__(self) -> None:
        self.snr_grid = tuple(float(s) for s in self.snr_grid)
        self.detectors = tuple(self.detectors)
        if isinstance(self.sv, dict):
            self.sv = SvParams(**self.sv)
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.num_taps < 1 or self.num_taps > self.block_size:
            raise ValueError("num_taps must be in [1, block_size]")
        if not 0 <= self.effective_cp_len <= self.block_size:
            raise ValueError("cp_len must be in [0, block_size]")
        if self.effective_cp_len < self.num_taps - 1:
            raise ValueError("cp_len must cover the channel memory")
        if self.scheme.lower() not in ("bpsk", "qpsk"):
            raise ValueError(f"unknown scheme: {self.scheme!r}")
        if not self.detectors:
            raise ValueError("detectors must not be empty")
        unknown = set(self.detectors) - set(DETECTOR_NAMES)
        if unknown:
            raise ValueError(f"unknown detectors: {sorted(unknown)}")
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError(f"duplicate detectors: {list(self.detectors)}")
        order = ModulationScheme.from_name(self.scheme).order
        if "ml" in self.detectors and order ** self.block_size > ML_SEARCH_LIMIT:
            raise ValueError(f"ml searches {order}^{self.block_size} blocks, "
                             f"more than the limit of {ML_SEARCH_LIMIT}")
        if self.num_relays < 1:
            raise ValueError("num_relays must be >= 1")
        if not 0.0 <= self.fd_norm < 0.5:
            raise ValueError("fd_norm must be in [0, 0.5)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")
        if not 0.0 < self.lambda_rls <= 1.0:
            raise ValueError("lambda_rls must be in (0, 1]")
        if self.pilot_frames < 0:
            raise ValueError("pilot_frames must be nonnegative")
        adaptive = [d for d in self.detectors if d in ADAPTIVE_DETECTORS]
        if adaptive and self.pilot_frames == 0:
            raise ValueError(f"{'/'.join(adaptive)} must be trained: "
                             "pilot_frames must be >= 1")
        if self.data_frames < 1:
            raise ValueError("data_frames must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_grid:
            raise ValueError("snr_grid must not be empty")
        if not all(math.isfinite(s) for s in self.snr_grid):
            raise ValueError("snr_grid values must be finite")
        if len(set(self.snr_grid)) != len(self.snr_grid):
            raise ValueError("snr_grid values must be distinct")
        if self.relay_noise_factor < 0:
            raise ValueError("relay_noise_factor must be nonnegative")
        if self.channel_model not in ("sv", "flat"):
            raise ValueError(f"unknown channel_model: {self.channel_model!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def effective_cp_len(self) -> int:
        return self.num_taps - 1 if self.cp_len is None else self.cp_len

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class GridPoint:
    """One cell of an experiment grid."""

    snr_db: float
    fd_norm: float = 0.0
    delta: float = 0.5
    num_relays: int = 1


@dataclass
class BerRecord:
    """Aggregated bit-error outcome for one grid point and detector."""

    experiment: str
    detector: str
    snr_db: float
    fd_norm: float
    delta: float
    num_relays: int
    bits: int
    errors: int
    seed: int

    @property
    def ber(self) -> float:
        return self.errors / self.bits if self.bits else 0.0

    @property
    def std_error(self) -> float:
        if self.bits == 0:
            return 0.0
        p = self.ber
        return math.sqrt(p * (1.0 - p) / self.bits)

    @property
    def ci_half_width(self) -> float:
        return wilson_half_width(self.errors, self.bits)


@dataclass
class ExperimentResult:
    """Records of one experiment, plus convergence traces when collected."""

    experiment: str
    config: SimConfig
    records: list[BerRecord]
    mse_traces: dict[str, np.ndarray] | None = None
    mmse_floor: float | None = None

    def record(self, detector: str, **matches) -> BerRecord:
        hits = [r for r in self.records if r.detector == detector
                and all(getattr(r, k) == v for k, v in matches.items())]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} records match {detector!r} {matches}")
        return hits[0]


def wilson_half_width(errors: int, bits: int, z: float = 1.96) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if bits == 0:
        return 0.0
    p = errors / bits
    denom = 1.0 + z * z / bits
    return z * math.sqrt(p * (1.0 - p) / bits + z * z / (4.0 * bits * bits)) / denom


def trial_seed(master_seed: int, experiment: str, trial_index: int) -> np.random.SeedSequence:
    """Pure seed derivation; the experiment tag is folded in as a CRC."""
    tag = zlib.crc32(experiment.encode("utf-8"))
    return np.random.SeedSequence((int(master_seed), tag, int(trial_index)))


def noise_powers(config: SimConfig, snr_db: float,
                 scheme: ModulationScheme) -> tuple[float, float]:
    """(destination, relay) complex noise variances for a grid SNR."""
    sigma_dest = 10.0 ** (-snr_db / 10.0) / scheme.bits_per_symbol
    return sigma_dest, config.relay_noise_factor * sigma_dest


@dataclass
class _TrialChannels:
    """One trial's relay cascades: the taps of every hop, stacked ``(2U, L)``
    with relay u's source and destination hops in rows ``2u`` and ``2u + 1``,
    and their per-bin responses."""

    taps: np.ndarray
    links: CascadeSpectra


def _draw_taps(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    if config.channel_model == "flat":
        taps = np.zeros(config.num_taps, dtype=complex)
        taps[0] = 1.0
        return taps
    realization = generate_channel(config.sv, rng)
    return quantize_to_taps(realization, config.sv.sample_period, config.num_taps)


def _cascade_powers(config: SimConfig,
                    point: GridPoint) -> tuple[float, float, float]:
    """(relay gain, relay noise, destination noise) at a grid point: the
    fields of a ``CascadeSpectra`` that depend on its SNR."""
    gain_sr, _ = path_gain(point.delta, config.eta)
    scheme = ModulationScheme.from_name(config.scheme)
    sigma_dest, sigma_relay = noise_powers(config, point.snr_db, scheme)
    return af_gain(gain_sr, sigma_relay), sigma_relay, sigma_dest


def _build_links(config: SimConfig, point: GridPoint,
                 rng: np.random.Generator) -> _TrialChannels:
    taps = np.array([_draw_taps(config, rng)
                     for _ in range(2 * point.num_relays)])
    taps *= np.sqrt(np.tile(path_gain(point.delta, config.eta),
                            point.num_relays))[:, None]
    links = CascadeSpectra.from_taps(taps, config.block_size,
                                     *_cascade_powers(config, point))
    return _TrialChannels(taps, links)


def _at_snr(links: CascadeSpectra, config: SimConfig,
            point: GridPoint) -> CascadeSpectra:
    """``links`` with the relay gain and noise powers of ``point``."""
    zeta, sigma2_relay, sigma2_dest = (np.full(len(links.zeta), value)
                                       for value in _cascade_powers(config, point))
    return replace(links, zeta=zeta, sigma2_relay=sigma2_relay,
                   sigma2_dest=sigma2_dest)


def _tap_track(taps: np.ndarray, fd_norm: float, blocks: int,
               rng: np.random.Generator) -> np.ndarray:
    """Taps of every block, ``(blocks, 2U, L)``: one Gauss-Markov step of all
    hops between consecutive blocks, around the powers of the first."""
    track = np.empty((blocks,) + taps.shape, dtype=complex)
    track[0] = taps
    power = np.abs(taps) ** 2
    for b in range(1, blocks):
        track[b] = evolve_channel(track[b - 1], fd_norm, rng, power)
    return track


def transmit_block(x: np.ndarray, links: CascadeSpectra, cp_len: int,
                   rng: np.random.Generator | None,
                   noise: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Send time-domain symbol blocks ``(..., N)`` through every relay slot;
    return the combined frequency-domain observation ``(..., N)``.

    A prefix at least as long as the channel memory makes every hop
    circulant within a block, so per bin the destination sees
    ``R = sum_u zeta_u G_u (H_u X + N_r,u) + N_d,u`` with ``X`` the unitary
    DFT of the block. The hop noise is drawn directly in the frequency
    domain (the unitary DFT of white circular Gaussian noise is white with
    the same variance): for each relay in turn its relay-hop noise, then its
    destination-hop noise. ``noise`` passes given ``(relay, destination)``
    spectra, each ``(..., U, N)``, instead.
    """
    if cp_len < links.num_taps - 1:
        raise ValueError("prefix shorter than the channel memory")
    x_f = unitary_fft(x)
    shape = np.broadcast_shapes(x_f.shape, links.h_f.shape[:-2] + x_f.shape[-1:])
    total = np.zeros(shape, dtype=complex)
    for u in range(len(links.zeta)):
        if noise is None:
            relay = complex_noise(rng, shape, links.sigma2_relay[u])
            dest = complex_noise(rng, shape, links.sigma2_dest[u])
        else:
            relay, dest = noise[0][..., u, :], noise[1][..., u, :]
        total += (links.zeta[u] * links.g_f[..., u, :]
                  * (links.h_f[..., u, :] * x_f + relay) + dest)
    return total


@dataclass
class TrialOutput:
    errors: dict[str, int]
    bits: int
    mse_traces: dict[str, np.ndarray] | None = None
    mmse_floor: float | None = None


def _ml_decisions(ch: EffectiveChannel, r_f: np.ndarray,
                  scheme: ModulationScheme, n: int) -> np.ndarray:
    """Exhaustive decisions for the blocks of ``r_f``: one search table for a
    fixed channel, one per block when ``ch`` carries a block axis."""
    if ch.response.ndim == 1:
        ml = MlDetector(ch, scheme, n)
        return np.array([ml.detect(r) for r in r_f])
    return np.array([MlDetector(EffectiveChannel(h, v), scheme, n).detect(r)
                     for h, v, r in zip(ch.response, ch.noise_var, r_f)])


def run_point_trial(config: SimConfig, points: list[GridPoint],
                    rng: np.random.Generator,
                    collect_mse: bool = False) -> list[TrialOutput]:
    """One trial at grid points that differ only in SNR, run as arrays over
    its blocks; one output per point, in order.

    Draws fresh cascades, trains the adaptive detectors on pilot blocks,
    then counts bit errors over the data blocks. Taps are constant within
    a block; with nonzero Doppler they take one Gauss-Markov step between
    consecutive blocks, pilots and data alike, so the adaptive weights
    carry a tracking lag while ideal-CSI detectors follow the drift.

    With ``collect_mse`` the trial is a learning-curve run: it sends only
    the pilot blocks, trains both adaptive filters and records their
    per-block MSE and the Wiener floor at the last pilot block.

    Random stream (``STREAM_VERSION``): hop taps, the drift track, the bits
    of every block, then the hop noise. Only the noise depends on SNR, and
    only through its scale, so the taps, drift and bits are drawn once for
    all points and every point after the first replays the noise draws of
    the first at its own powers: each output equals a separate run of its
    point from the same generator state.
    """
    scheme = ModulationScheme.from_name(config.scheme)
    n = config.block_size
    chans = _build_links(config, points[0], rng)

    adaptive = collect_mse or any(d in ADAPTIVE_DETECTORS for d in config.detectors)
    pilots = config.pilot_frames if adaptive else 0
    blocks = pilots + (0 if collect_mse else config.data_frames)

    links = chans.links
    drifting = points[0].fd_norm > 0
    if drifting:
        track = _tap_track(chans.taps, points[0].fd_norm, blocks, rng)
        links = CascadeSpectra.from_taps(track, n, links.zeta, links.sigma2_relay,
                                         links.sigma2_dest)
    bits = rng.integers(0, 2, size=(blocks, n * scheme.bits_per_symbol))
    x = modulate(bits, scheme).symbols
    noise_state = rng.bit_generator.state if len(points) > 1 else None

    outputs = []
    for i, point in enumerate(points):
        if i:
            links = _at_snr(links, config, point)
            rng.bit_generator.state = noise_state
        r_f = transmit_block(x, links, config.effective_cp_len, rng)
        outputs.append(_receive(config, scheme, links, drifting, r_f,
                                x[:pilots], bits[pilots:], collect_mse))
    return outputs


def _receive(config: SimConfig, scheme: ModulationScheme, links: CascadeSpectra,
             drifting: bool, r_f: np.ndarray, x_pilots: np.ndarray,
             bits_data: np.ndarray, collect_mse: bool) -> TrialOutput:
    """Train the adaptive detectors on the pilot blocks of ``r_f``, sent as
    ``x_pilots``, then count each detector's bit errors over the data
    blocks that follow; ``collect_mse`` records learning curves instead
    (see ``run_point_trial``)."""
    n = config.block_size
    pilots = len(x_pilots)
    s_f = unitary_fft(x_pilots)
    train_lms = "lms" in config.detectors or collect_mse
    train_rls = "rls" in config.detectors or collect_mse
    lms_w = FdeWeights.zeros(n)
    rls_state = RlsState.initial(n, config.lambda_rls)
    traces = {"lms": np.zeros(pilots), "rls": np.zeros(pilots)} if collect_mse else None
    for b in range(pilots):
        if train_lms:
            lms_w, err = lms_step(lms_w, r_f[b], s_f[b], config.mu)
            if collect_mse:
                traces["lms"][b] = np.mean(np.abs(err) ** 2)
        if train_rls:
            rls_state, err = rls_step(rls_state, r_f[b], s_f[b])
            if collect_mse:
                traces["rls"][b] = np.mean(np.abs(err) ** 2)

    if collect_mse:
        floor = mmse_error_floor(effective_channel(links[-1] if drifting else links))
        return TrialOutput(dict.fromkeys(config.detectors, 0), 0, traces, floor)

    r_data = r_f[pilots:]
    trained = {"lms": lms_w, "rls": rls_state.weights}
    ch = None
    if any(d not in ADAPTIVE_DETECTORS for d in config.detectors):
        ch = effective_channel(links[pilots:] if drifting else links)
    errors = {}
    for det in config.detectors:
        if det == "ml":
            decided = _ml_decisions(ch, r_data, scheme, n)
        else:
            if det == "mrc":
                w = mrc_weights(ch)
            elif det == "mmse":
                w = mmse_weights(ch)
            else:
                w = trained[det]
            decided = unitary_ifft(w.apply(r_data))
        got = demodulate(BlockFrame(decided), scheme)
        errors[det] = int(np.count_nonzero(got != bits_data))
    return TrialOutput(errors, bits_data.size)


def run_trial(config: SimConfig, trial_seed_value) -> dict[str, tuple[int, int]]:
    """Run one trial at the first grid point; deterministic in the seed."""
    rng = np.random.default_rng(trial_seed_value)
    point = GridPoint(config.snr_grid[0], config.fd_norm, config.delta,
                      config.num_relays)
    out, = run_point_trial(config, [point], rng)
    return {det: (err, out.bits) for det, err in out.errors.items()}


def _trial_job(args) -> list[TrialOutput]:
    """One trial over every grid point: one ``run_point_trial`` per group of
    points sharing (Doppler, relay position, relay count), each from a
    fresh generator on the trial's seed; outputs in point order."""
    config, points, experiment, index, collect_mse = args
    seed = trial_seed(config.master_seed, experiment, index)
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault((p.fd_norm, p.delta, p.num_relays), []).append(i)
    outputs = [None] * len(points)
    for members in groups.values():
        group = run_point_trial(config, [points[i] for i in members],
                                np.random.default_rng(seed), collect_mse)
        for i, out in zip(members, group):
            outputs[i] = out
    return outputs


def _worker_count(config: SimConfig) -> int:
    """Worker processes for a run: ``UWFDE_WORKERS`` when set, else
    ``config.workers``, capped at the CPU count and the trial count."""
    requested = config.workers
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, "
                             f"got {env!r}") from None
    return max(1, min(requested, os.cpu_count() or 1, config.trials))


def run_points(config: SimConfig, points: list[GridPoint], experiment: str,
               collect_mse: bool = False) -> ExperimentResult:
    """Map trials over a grid and reduce the counts in trial order."""
    jobs = [(config, points, experiment, t, collect_mse)
            for t in range(config.trials)]
    workers = _worker_count(config)
    if workers > 1:
        chunk = max(1, config.trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_trial_job, jobs, chunksize=chunk))
    else:
        per_trial = [_trial_job(job) for job in jobs]

    records = []
    for i, point in enumerate(points):
        bits = sum(trial[i].bits for trial in per_trial)
        for det in config.detectors:
            errs = sum(trial[i].errors[det] for trial in per_trial)
            records.append(BerRecord(
                experiment=experiment, detector=det, snr_db=point.snr_db,
                fd_norm=point.fd_norm, delta=point.delta,
                num_relays=point.num_relays, bits=bits, errors=errs,
                seed=config.master_seed))

    traces = floor = None
    if collect_mse:
        # Single-point experiments only; summation runs in trial order so
        # the float reduction is identical for any worker count.
        traces = {}
        for det in ("lms", "rls"):
            total = np.zeros(config.pilot_frames)
            for trial in per_trial:
                total += trial[0].mse_traces[det]
            traces[det] = total / config.trials
        floor = sum(trial[0].mmse_floor for trial in per_trial) / config.trials

    return ExperimentResult(experiment, config, records, traces, floor)


def run_ber_sweep(config: SimConfig, experiment: str = "ber") -> ExperimentResult:
    """Bit error rate over the configured SNR grid."""
    points = [GridPoint(s, config.fd_norm, config.delta, config.num_relays)
              for s in config.snr_grid]
    return run_points(config, points, experiment)


def run_convergence(config: SimConfig,
                    experiment: str = "converge") -> ExperimentResult:
    """Ensemble learning curves of both adaptive detectors at one SNR."""
    if config.pilot_frames < 1:
        raise ValueError("convergence needs at least one pilot frame")
    config = replace(config, detectors=("lms", "rls"))
    point = GridPoint(config.snr_grid[0], config.fd_norm, config.delta,
                      config.num_relays)
    return run_points(config, [point], experiment, collect_mse=True)


def run_placement_sweep(config: SimConfig, delta_grid,
                        experiment: str = "placement") -> ExperimentResult:
    """Bit error rate over relay positions for each configured SNR.

    Reported BER at position ``d`` is the two-direction service average:
    counts from the sweeps at ``d`` and ``1 - d`` are pooled whenever the
    mirror position is on the grid; the midpoint is its own mirror and
    stays one-way. A one-way fixed-gain cascade has no
    interior optimum (forwarded relay noise rides the second hop, so a
    relay near the destination sees effectively single-hop fading); the
    round-trip average is the quantity with a midpoint optimum.
    """
    deltas = [float(d) for d in delta_grid]
    if not all(0.0 < d < 1.0 for d in deltas):
        raise ValueError("delta grid values must be in (0, 1)")
    if len(set(deltas)) != len(deltas):
        raise ValueError("delta grid values must be distinct")
    points = [GridPoint(s, config.fd_norm, d, config.num_relays)
              for d in deltas for s in config.snr_grid]
    result = run_points(config, points, experiment)
    one_way = {(r.detector, r.snr_db, round(r.delta, 9)): r
               for r in result.records}
    pooled = []
    for r in result.records:
        mirror = one_way.get((r.detector, r.snr_db, round(1.0 - r.delta, 9)))
        if mirror is None or mirror is r:
            pooled.append(r)
            continue
        pooled.append(replace(r, bits=r.bits + mirror.bits,
                              errors=r.errors + mirror.errors))
    result.records = pooled
    return result


def run_multirelay(config: SimConfig, relay_grid,
                   experiment: str = "multirelay") -> ExperimentResult:
    """Bit error rate as the number of forwarding relays grows."""
    counts = [int(u) for u in relay_grid]
    if not all(u >= 1 for u in counts):
        raise ValueError("relay counts must be >= 1")
    if len(set(counts)) != len(counts):
        raise ValueError("relay counts must be distinct")
    points = [GridPoint(s, config.fd_norm, config.delta, u)
              for u in counts for s in config.snr_grid]
    return run_points(config, points, experiment)
