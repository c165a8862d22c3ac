"""Seeded Monte Carlo orchestration of the link-level experiments.

Every experiment reduces to the same trial: draw fresh relay cascades,
optionally train the adaptive equalizers on pilot blocks, transmit data
blocks and count bit errors per detector. Per-bin quantities are plain
arrays: a cell's hop spectra, and its points' effective channels and
equalizer weights stacked ``(points, ...)``, which apply through
``detectors.equalize``. Taps hold still within a block and, under nonzero
Doppler, take one Gauss-Markov step between consecutive blocks. Trials
are independent and embarrassingly parallel.

A trial's random stream is derived purely from (master seed, experiment
tag, trial index), and every grid point of a trial starts from that seed,
so the points of a sweep are paired comparisons and aggregate results are
bit-identical for any worker count. A trial runs as one call over all of
its grid points. It draws the hop taps once, since every (Doppler, relay
position, relay count) cell starts with the same hops, and each cell
resumes from the generator state after its own hops. Points that differ
only in SNR also share one draw of the drift, the bits and a unit white
noise array, which each scales to its own per-bin noise variance. Each
point decides its linear detectors as one ``(detectors, blocks, N)``
stack, and all points train their adaptive filters as one scan. Each
point's numbers are exactly those a separate run of that point would give.
"""

from __future__ import annotations

import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .channel import (SvParams, _whole_number, af_gain, complex_noise,
                      evolve_channel, freq_response, generate_channel,
                      path_gain, quantize_to_taps, sv_profile)
from .detectors import (ML_SEARCH_LIMIT, EffectiveChannel, MlDetector,
                        RlsState, effective_channel, equalize, lms_step,
                        mmse_error_floor, mmse_weights, mrc_weights, rls_step)
# relay_receive and relay_forward no longer run here, but bench/spans.py
# traces them by their names in this module, so the names stay.
from .txrx import (ModulationScheme, demodulate, modulate,  # noqa: F401
                   relay_forward, relay_receive, unitary_fft, unitary_ifft)

# Layout of a trial's random stream (see run_point_trial). A manifest
# replays its CSV byte for byte only under the layout that wrote it, so any
# change to the draws bumps this number. 1 (v0.1.0) drew per block; 2 drew
# per trial: hop taps, drift track, block bits, then each hop's noise; 3
# draws one unit white noise array per cell in place of the hop noise.
STREAM_VERSION = 3

DETECTOR_NAMES = ("mrc", "mmse", "ml", "lms", "rls")
ADAPTIVE_DETECTORS = ("lms", "rls")
WORKERS_ENV_VAR = "UWFDE_WORKERS"
# Path gains of a grid point lie within this factor of one (1000 dB) and its
# noise powers at most this, so no product of them in the model overflows.
POWER_LIMIT = 1e100
# SimConfig fields that count something; a config file may give them as
# floats, which must be whole numbers.
_INTEGER_FIELDS = ("block_size", "cp_len", "num_taps", "num_relays",
                   "pilot_frames", "data_frames", "trials", "master_seed",
                   "workers")


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
        for name in _INTEGER_FIELDS:
            if not (name == "cp_len" and self.cp_len is None):
                setattr(self, name, _whole_number(getattr(self, name), name))
        if isinstance(self.sv, dict):
            self.sv = SvParams(**self.sv)
        if not isinstance(self.sv, SvParams):
            raise ValueError(f"sv must be a dict or SvParams, got {self.sv!r}")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.num_taps < 1 or self.num_taps > self.block_size:
            raise ValueError("num_taps must be in [1, block_size]")
        if not 0 <= self.effective_cp_len <= self.block_size:
            raise ValueError("cp_len must be in [0, block_size]")
        if self.effective_cp_len < self.num_taps - 1:
            raise ValueError("cp_len must cover the channel memory")
        scheme = self.scheme.lower() if isinstance(self.scheme, str) else None
        if scheme not in ("bpsk", "qpsk"):
            raise ValueError(f"unknown scheme: {self.scheme!r}")
        self.detectors = tuple(_grid_values(
            self.detectors, "detector list", str, DETECTOR_NAMES.__contains__,
            f"one of {', '.join(DETECTOR_NAMES)}"))
        order = ModulationScheme.from_name(self.scheme).order
        if "ml" in self.detectors and order ** self.block_size > ML_SEARCH_LIMIT:
            raise ValueError(f"ml searches {order}^{self.block_size} blocks, "
                             f"more than the limit of {ML_SEARCH_LIMIT}")
        if self.num_relays < 1:
            raise ValueError("num_relays must be >= 1")
        if not 0.0 <= self.fd_norm < 0.5:
            raise ValueError("fd_norm must be in [0, 0.5)")
        if not 0 <= self.mu < math.inf:
            raise ValueError("mu must be nonnegative and finite")
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
        self.snr_grid = tuple(_grid_values(self.snr_grid, "snr_grid", float,
                                           math.isfinite, "finite"))
        if not 0 <= self.relay_noise_factor < math.inf:
            raise ValueError("relay_noise_factor must be nonnegative and finite")
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if self.channel_model not in ("sv", "flat"):
            raise ValueError(f"unknown channel_model: {self.channel_model!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        for snr in self.snr_grid:
            _cascade_powers(self, GridPoint(snr, delta=self.delta))

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


@dataclass
class _TrialChannels:
    """One trial's hop taps, unscaled, stacked ``(2U, L)`` for the largest
    relay count U on its grid, relay u's source and destination hops in
    rows ``2u`` and ``2u + 1``, plus the generator state right after the
    hops of each relay count on the grid."""

    taps: np.ndarray
    states: dict[int, dict]

    def cascade(self, config: SimConfig, point: GridPoint, blocks: int,
                rng: np.random.Generator) -> np.ndarray:
        """Per-bin hop responses ``(2U, N)`` of ``point``'s cell: its first
        ``2U`` hops at its path gains, or ``(blocks, 2U, N)`` drifting over
        ``blocks`` blocks when its Doppler is nonzero. Leaves ``rng`` where a
        trial of that cell alone would be after its drift. A prefix shorter
        than the hops' memory is refused: the per-bin model holds only when
        it covers them."""
        if config.effective_cp_len < self.taps.shape[-1] - 1:
            raise ValueError("prefix shorter than the channel memory")
        relays = point.num_relays
        taps = self.taps[:2 * relays] * np.sqrt(
            np.tile(path_gain(point.delta, config.eta), relays))[:, None]
        rng.bit_generator.state = self.states[relays]
        if point.fd_norm > 0:
            taps = evolve_channel(taps, point.fd_norm, blocks, rng)
        return freq_response(taps, config.block_size)


def _draw_taps(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    if config.channel_model == "flat":
        return np.array([1] + [0] * (config.num_taps - 1), dtype=complex)
    gains, delays = generate_channel(config.sv, rng)
    return quantize_to_taps(gains, delays, config.sv.sample_period,
                            config.num_taps)


def _cascade_powers(config: SimConfig,
                    point: GridPoint) -> tuple[float, float, float]:
    """(relay gain, relay noise, destination noise) of every relay at a grid
    point, the powers ``effective_channel`` combines with the hop spectra;
    the resulting weights apply through ``equalize``. A point whose path
    gains or noise powers fall outside ``POWER_LIMIT`` is refused."""
    scheme = ModulationScheme.from_name(config.scheme)
    try:
        gain_sr, gain_rd = path_gain(point.delta, config.eta)
        sigma_dest = 10.0 ** (-point.snr_db / 10.0) / scheme.bits_per_symbol
    except OverflowError:
        gain_sr = gain_rd = sigma_dest = math.inf
    sigma_relay = config.relay_noise_factor * sigma_dest
    if not (1.0 / POWER_LIMIT <= min(gain_sr, gain_rd) and max(
            gain_sr, gain_rd, sigma_dest, sigma_relay) <= POWER_LIMIT):
        raise ValueError(f"powers out of range at {point.snr_db} dB, delta "
                         f"{point.delta}, eta {config.eta}: path gains must "
                         "lie in [1e-100, 1e100], noise powers at most 1e100")
    return af_gain(gain_sr, sigma_relay), sigma_relay, sigma_dest


def _build_links(config: SimConfig, points: list[GridPoint],
                 rng: np.random.Generator) -> _TrialChannels:
    """Draw the hops of a trial over ``points``: every (Doppler, position,
    relay count) cell's stream starts with the same hops, so those of the
    largest relay count are drawn once, and the state after each relay
    count on the grid is saved for its cells to resume from."""
    counts = {point.num_relays for point in points}
    hops, states = [], {}
    for relays in range(1, max(counts) + 1):
        hops += [_draw_taps(config, rng), _draw_taps(config, rng)]
        if relays in counts:
            states[relays] = rng.bit_generator.state
    return _TrialChannels(np.array(hops), states)


def transmit_block(x_f: np.ndarray, ch: EffectiveChannel,
                   noise: np.ndarray) -> np.ndarray:
    """Frequency-domain observation ``(..., N)`` of symbol blocks sent
    through every relay slot of ``ch``, from their unitary DFTs ``x_f``.

    A prefix at least as long as the channel memory makes every hop
    circulant within a block, so per bin the destination sees
    ``R = sum_u zeta_u G_u (H_u X + N_r,u) + N_d,u`` with ``X`` the unitary
    DFT of the block. Given the taps, the noise terms are independent
    circular Gaussians, so their sum is one circular Gaussian per bin, of
    variance ``ch.noise_var``, independent across bins and blocks (the
    unitary DFT of white noise is white). ``noise`` is a draw of that sum.
    """
    return ch.response * x_f + noise


@dataclass
class TrialOutput:
    errors: dict[str, int]
    bits: int
    mse_traces: dict[str, np.ndarray] | None = None
    mmse_floor: float | None = None


def run_point_trial(config: SimConfig, points: list[GridPoint], seed,
                    collect_mse: bool = False) -> list[TrialOutput]:
    """One trial over all of its grid points, from a generator on ``seed``;
    one output per point, in order.

    Draws fresh cascades, trains the adaptive detectors on pilot blocks,
    then counts bit errors over the data blocks. Taps are constant within
    a block; with nonzero Doppler they take one Gauss-Markov step between
    consecutive blocks, pilots and data alike, so the adaptive weights
    carry a tracking lag while ideal-CSI detectors follow the drift.

    With ``collect_mse`` the trial is a learning-curve run: it sends only
    the pilot blocks, trains the adaptive filters (``run_convergence``
    names both) and records their per-block MSE and the Wiener floor at
    the last pilot block.

    Random stream (``STREAM_VERSION``), per (Doppler, position, relay
    count) cell of the grid: hop taps, the drift track, the bits of every
    block, then one unit-variance white noise array ``(blocks, N)``, which
    each point of the cell scales by the root of its own ``noise_var``
    (see ``transmit_block``). The taps are drawn once per trial and shared
    as the module docstring says, so each output equals a separate run of
    its point from the same seed. A cell's powers, effective channels and
    linear weights are stacked over its points. Each point sends its own
    ``(blocks, N)`` observation and decides its linear detectors as one
    ``(detectors, blocks, N)`` stack, and its adaptive ones likewise after
    the one training scan on ``(points, N)`` rows.
    """
    rng = np.random.default_rng(seed)
    scheme = ModulationScheme.from_name(config.scheme)
    n = config.block_size
    cells: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        cells.setdefault((p.fd_norm, p.delta, p.num_relays), []).append(i)
    chans = _build_links(config, points, rng)

    adaptive = [d for d in ADAPTIVE_DETECTORS if d in config.detectors]
    linear = [d for d in config.detectors if d in ("mrc", "mmse")]
    pilots = config.pilot_frames if adaptive else 0
    blocks = pilots + (0 if collect_mse else config.data_frames)
    outputs = [TrialOutput(dict.fromkeys(config.detectors, 0),
                           (blocks - pilots) * n * scheme.bits_per_symbol)
               for _ in points]
    if adaptive:
        r_stack = np.empty((len(points), blocks, n), dtype=complex)
        s_stack = np.empty((len(points), pilots, n), dtype=complex)
        data_bits: list[np.ndarray] = [None] * len(points)
    for members in cells.values():
        hops = chans.cascade(config, points[members[0]], blocks, rng)
        drifting = points[members[0]].fd_norm > 0
        bits = rng.integers(0, 2, size=(blocks, n * scheme.bits_per_symbol))
        x_f = unitary_fft(modulate(bits, scheme))
        sent = bits[pilots:] == 1
        white = complex_noise(rng, (blocks, n), 1.0)
        powers = np.array([_cascade_powers(config, points[i]) for i in members])
        ch = effective_channel(hops, *powers.T.reshape(3, -1, *[1] * hops.ndim))
        scale = np.sqrt(ch.noise_var)
        if linear:  # (points, detectors, data blocks or 1, N)
            data = ch[:, pilots:] if drifting else ch[:, None]
            w = np.stack([(mrc_weights if d == "mrc" else mmse_weights)(data)
                          for d in linear], axis=1)
        for m, i in enumerate(members):
            r_f = transmit_block(x_f, ch[m], scale[m] * white)
            if adaptive:
                r_stack[i], s_stack[i], data_bits[i] = r_f, x_f[:pilots], sent
            if collect_mse:
                outputs[i].mmse_floor = mmse_error_floor(
                    ch[m, -1] if drifting else ch[m])
            if "ml" in config.detectors:
                decided = MlDetector(ch[m, pilots:] if drifting else ch[m],
                                     scheme, n).detect(r_f[pilots:])
                _count_errors(outputs[i], ["ml"], decided[None], scheme, sent)
            if linear:
                decided = unitary_ifft(equalize(w[m], r_f[pilots:]))
                _count_errors(outputs[i], linear, decided, scheme, sent)
    if not adaptive:
        return outputs
    weights, traces = train_adaptive(
        adaptive, r_stack[:, :pilots].swapaxes(0, 1), s_stack.swapaxes(0, 1),
        config.mu, config.lambda_rls, collect_mse)
    w = np.stack([weights[det] for det in adaptive], axis=1)[:, :, None]
    for i, out in enumerate(outputs):
        if collect_mse:
            out.mse_traces = {det: traces[det][:, i] for det in adaptive}
        else:
            decided = unitary_ifft(equalize(w[i], r_stack[i, pilots:]))
            _count_errors(out, adaptive, decided, scheme, data_bits[i])
    return outputs


def _count_errors(out: TrialOutput, detectors: list[str], decided: np.ndarray,
                  scheme: ModulationScheme, bits: np.ndarray) -> None:
    """Record in ``out`` each detector's bit errors, one row of ``decided``."""
    wrong = demodulate(decided, scheme) != bits
    out.errors.update(zip(detectors, wrong.sum(axis=(1, 2)).tolist()))


def train_adaptive(detectors, r_f: np.ndarray, s_f: np.ndarray, mu: float,
                   lambda_rls: float, collect_mse: bool = False
                   ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Train the adaptive filters named in ``detectors`` on pilot blocks,
    one step per block, from received spectra ``r_f`` sent as ``s_f``, both
    ``(pilots, ..., N)``; every row of the middle axes trains filters of its
    own. Returns each filter's final weights ``(..., N)`` and, with
    ``collect_mse``, its mean squared a priori error per pilot block
    ``(pilots, ...)``."""
    unknown = set(detectors) - set(ADAPTIVE_DETECTORS)
    if unknown:
        raise ValueError(f"unknown adaptive detectors: {sorted(unknown)}")
    if len(r_f) == 0:
        raise ValueError("need at least one pilot block")
    n = r_f.shape[-1]
    filters = {det: np.zeros(n, dtype=complex) if det == "lms"
               else RlsState.initial(n, lambda_rls) for det in detectors}
    traces = ({det: np.empty(r_f.shape[:-1]) for det in detectors}
              if collect_mse else {})
    for b in range(len(r_f)):
        for det in detectors:
            if det == "lms":
                filters[det], err = lms_step(filters[det], r_f[b], s_f[b], mu)
            else:
                filters[det], err = rls_step(filters[det], r_f[b], s_f[b])
            if collect_mse:
                traces[det][b] = np.mean(np.abs(err) ** 2, axis=-1)
    return {det: filters[det] if det == "lms" else filters[det].w
            for det in detectors}, traces


def _trial_job(args) -> list[TrialOutput]:
    """One trial over every grid point, seeded from its index."""
    config, points, experiment, index, collect_mse = args
    return run_point_trial(config, points,
                           trial_seed(config.master_seed, experiment, index),
                           collect_mse)


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
                experiment, det, point.snr_db, point.fd_norm, point.delta,
                point.num_relays, bits, errs, config.master_seed))

    traces = floor = None
    if collect_mse:
        # Single-point experiments only; summation runs in trial order so
        # the float reduction is identical for any worker count.
        traces = {det: sum(trial[0].mse_traces[det] for trial in per_trial)
                  / config.trials for det in ("lms", "rls")}
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
    return run_points(replace(config, detectors=("lms", "rls")),
                      [_convergence_point(config)], experiment, True)


def _convergence_point(config: SimConfig) -> GridPoint:
    """The one grid point of a learning-curve run, whose traces carry no SNR."""
    snrs = config.snr_grid
    if len(snrs) > 1:
        raise ValueError(f"converge runs at one SNR; snr_grid has {len(snrs)}")
    return GridPoint(snrs[0], config.fd_norm, config.delta, config.num_relays)


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
    points = [GridPoint(s, config.fd_norm, d, config.num_relays)
              for d in _relay_positions(config, delta_grid)
              for s in config.snr_grid]
    result = run_points(config, points, experiment)
    one_way = {(r.detector, r.snr_db, round(r.delta, 9)): r
               for r in result.records}
    pooled = []
    for r in result.records:
        mirror = one_way.get((r.detector, r.snr_db, round(1.0 - r.delta, 9)), r)
        pooled.append(r if mirror is r else replace(
            r, bits=r.bits + mirror.bits, errors=r.errors + mirror.errors))
    result.records = pooled
    return result


def _grid_values(values, name: str, convert, valid, rule: str) -> list:
    """``values`` through ``convert``: at least one, each passing ``valid``
    (``rule`` says how, for the message), none repeated."""
    values = [convert(v) for v in values]
    if not values:
        raise ValueError(f"{name} must not be empty")
    bad = [v for v in values if not valid(v)]
    if bad:
        raise ValueError(f"{name} values must be {rule}, got {bad[0]!r}")
    if len(set(values)) != len(values):
        raise ValueError(f"{name} values must be distinct")
    return values


def _relay_positions(config: SimConfig, delta_grid) -> list[float]:
    """The relay-position grid: floats in (0, 1), powers in range, no repeats."""
    deltas = _grid_values(delta_grid, "delta grid", float,
                          lambda d: 0.0 < d < 1.0, "in (0, 1)")
    for d in deltas:
        _cascade_powers(config, GridPoint(config.snr_grid[0], delta=d))
    return deltas


def _relay_counts(relay_grid) -> list[int]:
    """The relay-count grid as whole numbers >= 1: at least one, none repeated."""
    return _grid_values(relay_grid, "relay grid",
                        lambda u: _whole_number(u, "relay count"),
                        lambda u: u >= 1, ">= 1")


def run_multirelay(config: SimConfig, relay_grid,
                   experiment: str = "multirelay") -> ExperimentResult:
    """Bit error rate as the number of forwarding relays grows."""
    points = [GridPoint(s, config.fd_norm, config.delta, u)
              for u in _relay_counts(relay_grid) for s in config.snr_grid]
    return run_points(config, points, experiment)
