"""Seeded Monte Carlo orchestration of the link-level experiments.

Every experiment reduces to the same trial: draw fresh relay cascades,
optionally train the adaptive equalizers on pilot blocks, transmit data
blocks and count bit errors per detector. Per-bin quantities are plain
arrays: a cell's hop spectra (``_cascade``), and its points' effective
channels and equalizer weights, which apply through ``detectors.equalize``.
Taps hold still within a block and, under nonzero Doppler, take one
Gauss-Markov step between consecutive blocks. Trials are independent. They
run in consecutive groups of at most ``GROUP_BYTES`` of buffers through one
engine, ``_run_group``: it draws each trial's variates, computes the
channels once for the group, and trains the adaptive filters in one call.
``run_point_trial`` sends and decides a trial's blocks cell by cell, its
points in slices of at most ``SLICE_BYTES`` (see ``_slice_size``), each
slice one numpy call per step and one ``ml`` detector, in place in arrays
the group allocates once. A group's bit errors form one ``(trials, points,
detectors)`` array; ``run_points`` sums over trials.

A trial's random stream derives purely from (master seed, experiment tag,
trial index), so results are bit-identical for any worker count. A trial
runs over all of its grid points and draws each quantity once for all of
them (common random numbers): the bits and a unit white noise array, which
every (Doppler, relay position, relay count) cell sends and each point
scales to its noise variance; the hops of the largest relay count, whose
first rows are those of every smaller one; and the drift innovations,
which each drifting cell scales by its Doppler and tap powers. So every
point's numbers are exactly those of a separate run of it, in any group.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from itertools import groupby

import numpy as np

from .channel import (SvParams, _number, af_gain, channel_variates,
                      evolve_channel, freq_response, generate_channel,
                      path_gain, quantize_to_taps, sv_profile)
from .detectors import (EffectiveChannel, MlDetector, RlsState,
                        effective_channel, equalize, lms_step,
                        mmse_error_floor, mmse_weights, mrc_weights, rls_step)
# relay_receive and relay_forward no longer run here, but bench/spans.py
# traces them by their names in this module, so the names stay.
from .txrx import (ModulationScheme, demodulate, modulate,  # noqa: F401
                   relay_forward, relay_receive, unitary_fft, unitary_ifft)

# Layout of a trial's random stream (see _run_group); a manifest
# replays its CSV only under the layout that wrote it, so any change to the
# draws bumps it. 1 (v0.1.0) drew per block; 2 per trial: taps, drift, bits,
# then each hop's noise; 3 one unit white noise array per cell for the hop
# noise; 4 each quantity once per trial, from keyed substreams, over all hops.
STREAM_VERSION = 4

DETECTOR_NAMES = ("mrc", "mmse", "ml", "lms", "rls")
ADAPTIVE_DETECTORS = ("lms", "rls")
# Cap on ml's search space, constellation_order ** block_size candidate
# blocks: the pruned search scores at most that many, at low SNR.
ML_SEARCH_LIMIT = 2 ** 16
# Group cap, in bytes of the buffers a group's trials hold, which
# _group_size charges exactly; picked by measurement: bigger groups train
# faster, cost memory.
GROUP_BYTES = 3 << 19
# Slice cap, in bytes as _slice_size charges a point: its received and sent
# rows, its linear decisions and, with ml, the search's cost tables of its
# channel states and data rows; picked by measurement: a slice decides its
# points with one numpy call per step (ml one detector), and its rows and
# work arrays, allocated once per group, stay in cache.
SLICE_BYTES = 3 << 17
# Path gains of a grid point lie within this factor of one (1000 dB) and its
# noise powers at most this, so no product of them in the model overflows.
POWER_LIMIT = 1e100


@dataclass
class SimConfig:
    """Full description of one simulation setup.

    ``snr_grid`` entries are destination energy-per-bit to noise-density
    ratios in dB for unit-energy constellations; relay noise is that times
    ``relay_noise_factor``. ``cp_len`` defaults to ``num_taps - 1``, and
    ``sv`` to the arrival profile of ``num_taps`` paths (``sv_profile``);
    a dict of some ``SvParams`` fields overrides just those of the profile.
    """

    block_size: int = 64
    cp_len: int | None = None
    scheme: str = "bpsk"
    sv: SvParams | None = None
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
        # a number field (cp_len may be None) refuses a bool, and one that
        # counts takes a whole float, such as a config file may give, as int
        for f in fields(self):
            if f.type in ("int", "float") or f.name == "cp_len" and (
                    self.cp_len is not None):
                setattr(self, f.name, _number(getattr(self, f.name), f.name,
                                              whole=f.type != "float"))
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.num_taps < 1 or self.num_taps > self.block_size:
            raise ValueError("num_taps must be in [1, block_size]")
        if self.sv is None:
            self.sv = sv_profile(self.num_taps)
        if isinstance(self.sv, dict):
            names = [f.name for f in fields(SvParams)]
            unknown = [key for key in self.sv if key not in names]
            if unknown:
                raise ValueError(f"unknown config key sv.{unknown[0]}; sv "
                                 f"takes {', '.join(names)}")
            # a partial object overrides the num_taps profile field by field
            self.sv = replace(sv_profile(self.num_taps), **self.sv)
        if not isinstance(self.sv, SvParams):
            raise ValueError(f"sv must be a dict or SvParams, got {self.sv!r}")
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
        self.snr_grid = tuple(_grid_values(
            self.snr_grid, "snr_grid", lambda s: float(_number(s, "snr_grid")),
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


def wilson_half_width(errors: int, bits: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial
    proportion."""
    if bits == 0:
        return 0.0
    z = 1.96
    p = errors / bits
    denom = 1.0 + z * z / bits
    return z * math.sqrt(p * (1.0 - p) / bits + z * z / (4.0 * bits * bits)) / denom


def trial_seed(master_seed: int, experiment: str,
               trial_index: int) -> tuple[int, int, int]:
    """Pure seed derivation, the key (master seed, CRC of the experiment
    tag, trial index) that ``_substream`` seeds from."""
    tag = zlib.crc32(experiment.encode("utf-8"))
    return int(master_seed), tag, int(trial_index)


def _substream(seed, q: int) -> np.random.Generator:
    """Generator on keyed substream ``q`` of a trial seed, an int or a
    tuple of ints such as ``trial_seed`` gives; see ``_run_group``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(q,)))


def _build_links(config: SimConfig, variates, shape) -> np.ndarray:
    """Unit-power taps ``shape + (L,)`` of the channel model from the
    (amplitudes, uniforms) ``variates`` of ``channel_variates``, of leading
    axes ``shape`` (see ``generate_channel``); the flat model reads no
    variates and gives unit first taps. A trial draws the hops of its
    largest relay count U, relay u's source and destination hops in rows
    2u and 2u + 1, so the first rows are those of every smaller count."""
    if config.channel_model == "flat":
        return np.tile(np.eye(1, config.num_taps, dtype=complex),
                       np.append(shape, 1))
    gains, delays = generate_channel(config.sv, variates)
    return quantize_to_taps(gains, delays, config.sv.sample_period,
                            config.num_taps)


def _cascade(config: SimConfig, taps: np.ndarray, point: GridPoint,
             blocks: int, drift) -> np.ndarray:
    """Per-bin responses ``(..., 2u, N)`` of the first 2u hops of ``taps``
    ``(..., hops, L)`` for ``point``'s cell of u relays at its path gains.
    When its Doppler is nonzero, their taps instead, drifting by the first
    2u rows of the innovations ``drift`` ``(..., hops, blocks - 1, 2, L)``:
    a track ``(blocks, ..., 2u, L)``, whose spectra each trial takes alone:
    a group's would hold ``blocks`` times a static cell's."""
    relays = point.num_relays
    taps = taps[..., :2 * relays, :] * np.sqrt(
        np.tile(path_gain(point.delta, config.eta), relays))[:, None]
    if point.fd_norm > 0:
        return evolve_channel(taps, point.fd_norm, blocks,
                              drift[..., :2 * relays, :, :, :])
    return freq_response(taps, config.block_size)


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


def transmit_block(x_f: np.ndarray, ch: EffectiveChannel, noise: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Frequency-domain observation ``(..., N)`` of symbol blocks sent
    through every relay slot of ``ch``, from their unitary DFTs ``x_f``,
    written into ``out`` when given.

    A prefix at least as long as the channel memory makes every hop
    circulant within a block, so per bin the destination sees
    ``R = sum_u zeta_u G_u (H_u X + N_r,u) + N_d,u`` with ``X`` the unitary
    DFT of the block. Given the taps, the noise terms are independent
    circular Gaussians, so their sum is one circular Gaussian per bin, of
    variance ``ch.noise_var``, independent across bins and blocks (the
    unitary DFT of white noise is white). ``noise`` is a draw of that sum;
    it may be ``out`` itself.
    """
    return np.add(ch.response * x_f, noise, out=out)


def _data_states(ch: EffectiveChannel, data: int) -> EffectiveChannel:
    """The states that the last ``data`` blocks of channels ``(..., blocks,
    N)`` see: the one state of a channel that holds still (a block axis of
    1), else one per data block."""
    return ch[..., max(0, ch.response.shape[-2] - data):, :]


def _channel_state(config: SimConfig, hops: np.ndarray, powers: np.ndarray,
                   data: int) -> tuple:
    """Effective channels ``(points, ..., blocks, N)`` of a cell's hop
    spectra ``(..., blocks, 2u, N)`` at its points' powers ``(points, 3)``,
    the roots of their noise variances, and the linear weights ``(points,
    ..., detectors, states, N)`` of the states of its ``data`` blocks (see
    ``_data_states``; None without linear detectors)."""
    ch = effective_channel(hops, *powers.T.reshape(3, -1, *[1] * hops.ndim))
    states = _data_states(ch, data)
    w = [(mrc_weights if d == "mrc" else mmse_weights)(states)
         for d in config.detectors if d in ("mrc", "mmse")]
    return ch, np.sqrt(ch.noise_var), np.stack(w, axis=-3) if w else None


def _slice_size(config: SimConfig, blocks: int, data: int,
                states: int) -> int:
    """Points per slice of ``run_point_trial``: as many as fit
    ``SLICE_BYTES`` at the bytes charged to a point, at least one: its
    received rows and the signal ``transmit_block`` adds to them,
    ``(blocks, N)`` complex each, its linear detectors' decisions
    ``(detectors, data, N)``, and with ``ml`` the search's float cost tables
    over the ``2^low`` bottom halves of a block's ``D`` real dimensions
    (``low = D - max(1, D // 2)``, see ``MlDetector._search``): each of the
    point's ``states`` channel states' shares ``(D, 2^low)`` and each data
    row's partial costs ``(2^low,)``."""
    linear = sum(d in ("mrc", "mmse") for d in config.detectors)
    charge = (2 * blocks + linear * data) * config.block_size * 16
    if "ml" in config.detectors:
        dims = config.block_size * ModulationScheme.from_name(
            config.scheme).bits_per_symbol
        charge += 8 * 2 ** (dims - max(1, dims // 2)) * (states * dims + data)
    return max(1, SLICE_BYTES // charge)


def run_point_trial(config: SimConfig, state: tuple, x_f: np.ndarray,
                    white: np.ndarray, sent: np.ndarray,
                    rows: np.ndarray | None, work: tuple) -> np.ndarray:
    """Bit errors ``(points, detectors)`` of one trial at the grid points of
    one cell, in ``config.detectors`` order; the adaptive columns stay 0,
    for ``_run_group`` to count. ``state`` is the cell's ``_channel_state``
    in the trial, of channels ``(points, blocks, N)``, one block for all
    when it holds still. The points go in slices of at most
    ``len(decided)``, through the work arrays ``work``, ``(received,
    decided)``: a slice scales the unit white ``white`` by the roots of its
    noise variances into its ``rows`` with an adaptive detector, else into
    ``received``, adds ``x_f`` sent through its channels in place, and
    decides the bits of ``ml`` with one detector over the data-block
    states (``_data_states``) of all of its points, each point's rows
    under its own states, and its linear detectors (of which there may be
    none) as one ``(points, detectors, data, N)`` stack, equalized and
    inverse transformed in place in ``decided``, against ``sent``. The
    white noise may be the cell's last row, which its last slice then
    overwrites: ``np.multiply`` reads an input that overlaps its output
    before it writes."""
    scheme = ModulationScheme.from_name(config.scheme)
    pilots = len(x_f) - len(sent)
    linear_columns = [k for k, d in enumerate(config.detectors)
                      if d in ("mrc", "mmse")]
    ch, scale, w = state
    states = _data_states(ch, len(sent))
    received, decided = work
    errors = np.zeros((len(scale), len(config.detectors)), dtype=int)
    for start in range(0, len(scale), len(decided)):
        part = slice(start, start + len(decided))
        size = len(scale[part])
        out = received[:size] if rows is None else rows[part]
        np.multiply(scale[part], white, out=out)
        r_f = transmit_block(x_f, ch[part], out, out=out)[:, pilots:]
        if "ml" in config.detectors:
            ml = MlDetector(states[part], scheme, config.block_size)
            bits = ml.detect(r_f.reshape(-1, config.block_size))
            errors[part, config.detectors.index("ml")] = np.sum(
                bits.reshape(size, *sent.shape) != sent, axis=(1, 2))
        if w is not None:
            stack = equalize(w[part], r_f[:, None], out=decided[:size])
            unitary_ifft(stack, out=stack)
            errors[part, linear_columns] = np.sum(
                demodulate(stack, scheme) != sent, axis=(2, 3))
    return errors


def _run_group(config: SimConfig, points: list[GridPoint], seeds,
               collect_mse: bool) -> np.ndarray | tuple[np.ndarray, ...]:
    """Bit errors ``(trials, points, detectors)`` of the trials on ``seeds``,
    in ``config.detectors`` order; with ``collect_mse``, also MSE traces
    ``(trials, points, adaptive, pilots)`` and the Wiener floors ``(trials,
    points)`` at the last pilot block.

    Random stream (``STREAM_VERSION``), U the largest relay count on
    ``points``: a loop draws each trial's variates from keyed substream q
    of its seed (see ``_substream``): for 0, the bits of every block, a unit
    white noise array ``(blocks, N)`` (real parts, then imaginary), then
    the hops' Nakagami amplitudes; for 1, their uniforms (see
    ``channel_variates``; the flat model draws neither and keys no
    substream 1); for 2, if a cell drifts, the innovations ``(2U, blocks -
    1, 2, L)`` (see ``evolve_channel``). A cell of u relays reads the first
    2u rows. The loop writes the symbols, the white noise and the
    innovations straight into the group's arrays, and one in-place
    ``unitary_fft`` then takes the symbols of every trial to spectra.

    Then, cell by cell (a run of consecutive points at one Doppler,
    position and relay count), what does not scale with blocks x N runs
    once over the group's trials: the taps, path gains and powers, and
    either one ``evolve_channel`` call or the spectra, channels and linear
    weights ``(points, trials, 1, N)``; a drifting cell's spectra and
    channels follow per trial (see ``_cascade``), and ``run_point_trial``
    sends and decides each trial's ``(blocks, N)`` data, in slices of
    points sized for the cell's own Doppler, through work arrays the group
    allocates once, for the largest slice.
    One allocation holds the symbol spectra ``(trials, blocks, N)``, whose
    first rows are the pilots, and one the rows: a received row per
    (trial, point), the white noise in the last, which is written last,
    when a detector is adaptive, else the white noise alone
    (``_trial_rows``, whose count ``_group_size`` charges). One
    ``train_adaptive`` call takes them, and each trial decides its adaptive
    columns as one stack, in one array the group reuses.
    """
    adaptive = [d for d in ADAPTIVE_DETECTORS if d in config.detectors]
    scheme = ModulationScheme.from_name(config.scheme)
    n, trials = config.block_size, len(seeds)
    width = n * scheme.bits_per_symbol
    received, pilots, data = _trial_rows(config, points, collect_mse)
    blocks = pilots + data
    keys = [(p.fd_norm, p.delta, p.num_relays) for p in points]
    cells = [list(run) for _, run in groupby(range(len(points)),
                                             keys.__getitem__)]
    hops = 2 * max(p.num_relays for p in points)
    rows = np.empty((trials, received, blocks, n), dtype=complex)
    x_f = np.empty((trials, blocks, n), dtype=complex)
    sent = np.empty((trials, data, width), dtype=bool)
    drift = (np.empty((trials, hops, blocks - 1, 2, config.num_taps))
             if any(p.fd_norm > 0 for p in points) else None)
    variates, scale = [], math.sqrt(0.5)
    for t, seed in enumerate(seeds):
        rng = _substream(seed, 0)
        bits = rng.integers(0, 2, size=(blocks, width))
        x_f[t] = modulate(bits, scheme)
        sent[t] = bits[pilots:] == 1
        # complex_noise's unit draw, each part scaled straight into place
        white = rows[t, -1]
        np.multiply(rng.standard_normal((blocks, n)), scale, out=white.real)
        np.multiply(rng.standard_normal((blocks, n)), scale, out=white.imag)
        if config.channel_model == "sv":
            variates.append(channel_variates(
                config.sv, (rng, _substream(seed, 1)), hops))
        if drift is not None:
            _substream(seed, 2).standard_normal(out=drift[t])
    unitary_fft(x_f, out=x_f)
    taps = _build_links(config, [np.stack(v) for v in zip(*variates)],
                        (trials, hops))
    errors = np.zeros((trials, len(points), len(config.detectors)), dtype=int)
    floors = np.empty((trials, len(points))) if collect_mse else None
    # points a slice per cell: a drifting point holds a state a data block
    steps = [min(len(m), _slice_size(config, blocks, data,
                                     data if points[m[0]].fd_norm > 0 else 1))
             for m in cells]
    size = max(steps)
    linear = sum(d in ("mrc", "mmse") for d in config.detectors)
    work = (None if adaptive else np.empty((size, blocks, n), dtype=complex),
            np.empty((size, linear, data, n), dtype=complex))
    for members, step in zip(cells, steps):
        point = points[members[0]]
        powers = np.array([_cascade_powers(config, points[i]) for i in members])
        hop = _cascade(config, taps, point, blocks, drift)
        drifting = point.fd_norm > 0
        if not drifting:
            static = _channel_state(config, hop[:, None], powers, data)
        cell = slice(members[0], members[-1] + 1)
        for t in range(trials):
            state = (_channel_state(config, freq_response(hop[:, t], n),
                                    powers, data) if drifting else
                     [a if a is None else a[:, t] for a in static])
            errors[t, cell] = run_point_trial(
                config, state, x_f[t], rows[t, -1], sent[t],
                rows[t, cell] if adaptive else None,
                [a if a is None else a[:step] for a in work])
            if collect_mse:
                floors[t, cell] = mmse_error_floor(state[0][:, -1])
        # free the cell's arrays before the next cell's exist: what the
        # group holds at once sets how much heap the allocator trims and
        # the next group faults back in
        del hop, state
    if adaptive:
        weights, traces = train_adaptive(
            adaptive, rows[:, :, :pilots], x_f[:, None, :pilots], config.mu,
            config.lambda_rls, collect_mse)
        if collect_mse:
            return errors, np.stack([traces[det] for det in adaptive], -2), floors
        w = np.stack([weights[det] for det in adaptive], axis=2)[..., None, :]
        w[~np.isfinite(w)] = 0  # a diverged bin decides as a dead bin does
        columns = [config.detectors.index(det) for det in adaptive]
        decided = np.empty((len(points), len(adaptive), data, n),
                           dtype=complex)
        for t, trial in enumerate(rows[:, :, None, pilots:]):
            with np.errstate(over="ignore", invalid="ignore"):
                equalize(w[t], trial, out=decided)
                unitary_ifft(decided, out=decided)
            errors[t][:, columns] = np.sum(
                demodulate(decided, scheme) != sent[t], axis=(2, 3))
    return errors


def train_adaptive(detectors, r_f: np.ndarray, s_f: np.ndarray, mu: float,
                   lambda_rls: float, collect_mse: bool = False
                   ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Train the adaptive filters named in ``detectors``, some of ``lms``
    and ``rls``, on one or more pilot blocks, ``lms`` one step per block
    and ``rls`` in one closed-form ``rls_step``, from received spectra
    ``r_f`` ``(..., pilots, N)`` sent as ``s_f``, which broadcasts against
    it; every row of the leading axes trains filters of its own. Returns
    each filter's final weights ``(..., N)`` and, with ``collect_mse``, its
    mean squared a priori error per pilot block ``(..., pilots)``."""
    n = r_f.shape[-1]
    traces = ({det: np.empty(r_f.shape[:-1]) for det in detectors}
              if collect_mse else {})
    weights = {}
    if "rls" in detectors:
        state, err = rls_step(RlsState.initial(n, lambda_rls), r_f, s_f,
                              collect_mse)
        weights["rls"] = state.w
        if collect_mse:
            traces["rls"][:] = np.mean(np.abs(err) ** 2, axis=-1)
    if "lms" in detectors:
        weights["lms"] = np.zeros(n, dtype=complex)
        # a step too large for the received power diverges to non-finite
        # weights and errors, a counted outcome, not a fault
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(r_f.shape[-2]):
                weights["lms"], err = lms_step(
                    weights["lms"], r_f[..., b, :], s_f[..., b, :], mu)
                if collect_mse:
                    traces["lms"][..., b] = np.mean(np.abs(err) ** 2, axis=-1)
    return weights, traces


def _trial_rows(config: SimConfig, points: list[GridPoint],
                collect_mse: bool) -> tuple[int, int, int]:
    """The rows of N complex bins a trial of ``_run_group`` holds besides
    its symbol spectra, as (received rows, pilot blocks, data blocks): a
    received row per point when a detector is adaptive, else one row, the
    white noise, each over the pilot blocks (none without an adaptive
    detector) and the data blocks (none in a learning-curve run)."""
    adaptive = set(ADAPTIVE_DETECTORS) & set(config.detectors)
    return (len(points) if adaptive else 1,
            config.pilot_frames if adaptive else 0,
            0 if collect_mse else config.data_frames)


def _group_size(config: SimConfig, points: list[GridPoint],
                collect_mse: bool = False) -> int:
    """Trials per group: as many as fit ``GROUP_BYTES`` at the bytes of a
    trial's buffers, at least one. ``_trial_rows`` gives both the buffers
    ``_run_group`` allocates and this charge, so it is exact: ``(points +
    1) * (pilots + data)`` complex rows of N with an adaptive detector,
    ``2 * data`` without (the white noise and symbol spectra)."""
    received, pilots, data = _trial_rows(config, points, collect_mse)
    rows = (received + 1) * (pilots + data)
    return max(1, GROUP_BYTES // (rows * config.block_size * 16))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, which a ``taskset`` or cpuset narrows, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(config: SimConfig) -> int:
    """Worker processes for a run: ``config.workers``, capped at the usable
    CPUs and the trial count."""
    return min(config.workers, _usable_cpus(), config.trials)


def run_points(config: SimConfig, points: list[GridPoint], experiment: str,
               collect_mse: bool = False) -> ExperimentResult:
    """Map groups of ``_group_size`` consecutive trials over a grid, the
    same groups for any worker count, and sum their bit errors over the
    trials; every record holds trials * data_frames * N * bits_per_symbol
    bits (0 for a learning-curve run)."""
    size = _group_size(config, points, collect_mse)
    seeds = [trial_seed(config.master_seed, experiment, t)
             for t in range(config.trials)]
    jobs = [seeds[start:start + size] for start in range(0, len(seeds), size)]
    group = partial(_run_group, config, points, collect_mse=collect_mse)
    workers = min(_worker_count(config), len(jobs))
    if workers > 1:
        # imported here, so that a one-worker run never loads a pool
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(jobs) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(group, jobs, chunksize=chunk))
    else:
        groups = list(map(group, jobs))
    if collect_mse:
        groups, mse, floors = zip(*groups)
    errors = np.concatenate(groups).sum(axis=0).tolist()
    bits = 0 if collect_mse else (
        config.trials * config.data_frames * config.block_size
        * ModulationScheme.from_name(config.scheme).bits_per_symbol)
    records = [BerRecord(experiment, det, point.snr_db, point.fd_norm,
                         point.delta, point.num_relays, bits, errors[i][k],
                         config.master_seed)
               for i, point in enumerate(points)
               for k, det in enumerate(config.detectors)]

    traces = floor = None
    if collect_mse:
        # Single-point experiments only; summation runs in trial order so
        # the float reduction is identical for any worker count.
        mse, floors = np.concatenate(mse), np.concatenate(floors)
        traces = {det: sum(mse[:, 0, k]) / config.trials
                  for k, det in enumerate(ADAPTIVE_DETECTORS)}
        floor = float(sum(floors[:, 0])) / config.trials

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
                        lambda u: _number(u, "relay count", whole=True),
                        lambda u: u >= 1, ">= 1")


def run_multirelay(config: SimConfig, relay_grid,
                   experiment: str = "multirelay") -> ExperimentResult:
    """Bit error rate as the number of forwarding relays grows."""
    points = [GridPoint(s, config.fd_norm, config.delta, u)
              for u in _relay_counts(relay_grid) for s in config.snr_grid]
    return run_points(config, points, experiment)
