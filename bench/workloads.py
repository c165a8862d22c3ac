"""The benchmark's workloads and the chunk they are measured in.

A run is a sequence of chunks. Chunk ``k`` is one call of a public
harness entry point with a small trial count and a master seed derived
from the workload seed and ``k``; ``run_points`` numbers trials from 0 on
every call, so a fresh master seed per chunk is what keeps the trials of
one run distinct.

Nothing here imports ``uwfde`` at module level: a measuring process times
that import as part of its set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Keys of SimConfig shared by every workload; each workload adds its own.
_BASE = dict(scheme="bpsk", delta=0.5, workers=1)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``call`` names the harness entry point: ``multirelay`` calls
    ``run_multirelay`` over ``relays``, ``ber`` calls ``run_ber_sweep`` over
    the configured SNR grid and ``points`` calls ``run_points`` over the
    ``fd_norm`` values in ``dopplers`` at the single configured SNR
    (or over the SNR grid when ``dopplers`` is empty).

    ``python_weight`` is the exponent of the python reference loop in the
    reference duration a chunk is divided by; the array loop takes the
    rest (see ``measure.ReferenceLoops``). Of 0, 0.25, 0.5, 0.75 and 1,
    it is the one that gave the smallest run-to-run spread (IQR/median)
    of ``blocks_per_ref`` over ten recorded ``--trace 0`` runs, seeds 21
    to 30.
    """

    name: str
    call: str
    config: dict
    trials_per_chunk: int
    python_weight: float
    relays: tuple[int, ...] = ()
    dopplers: tuple[float, ...] = ()

    def sim_config(self, trials: int, master_seed: int):
        from uwfde.harness import SimConfig
        from uwfde.channel import sv_profile
        cfg = dict(_BASE, **self.config)
        cfg["sv"] = sv_profile(cfg["num_taps"])
        return SimConfig(trials=trials, master_seed=master_seed, **cfg)

    def grid(self) -> list[tuple[float, float, int]]:
        """(snr_db, fd_norm, relays) of every grid point, in record order."""
        snrs = tuple(float(s) for s in self.config["snr_grid"])
        if self.call == "multirelay":
            return [(s, 0.0, u) for u in self.relays for s in snrs]
        if self.dopplers:
            return [(snrs[0], fd, 1) for fd in self.dopplers]
        return [(s, 0.0, 1) for s in snrs]

    def blocks_per_trial(self) -> int:
        """Blocks one trial sends, over all grid points.

        A block is one N-symbol block through every relay slot and every
        configured detector at one grid point. Pilot blocks are sent only
        when an adaptive detector is configured.
        """
        adaptive = any(d in ("lms", "rls") for d in self.config["detectors"])
        per_point = self.config["data_frames"] + (
            self.config["pilot_frames"] if adaptive else 0)
        return per_point * len(self.grid())

    def bits_per_record(self, trials: int) -> int:
        """Bits each (detector, grid point) record must hold."""
        bits_per_symbol = {"bpsk": 1, "qpsk": 2}[_BASE["scheme"]]
        return (trials * self.config["data_frames"]
                * self.config["block_size"] * bits_per_symbol)

    def run(self, harness, trials: int, master_seed: int):
        """One harness call; looks entry points up on ``harness`` at call
        time so an installed tracer sees it."""
        cfg = self.sim_config(trials, master_seed)
        if self.call == "multirelay":
            return harness.run_multirelay(cfg, list(self.relays))
        if self.call == "ber":
            return harness.run_ber_sweep(cfg)
        points = [harness.GridPoint(s, fd, cfg.delta, u)
                  for s, fd, u in self.grid()]
        return harness.run_points(cfg, points, self.name)


WORKLOADS = {w.name: w for w in (
    # Criterion 8's shape: relay loop and RLS training; U grows to 3.
    Workload("multirelay-rls", "multirelay", dict(
        block_size=64, num_taps=15, snr_grid=(15.0,), detectors=("rls",),
        pilot_frames=50, data_frames=20), trials_per_chunk=8,
        python_weight=1.0, relays=(1, 2, 3)),
    # The README's `ber` command: no training, 16 SNR points that redraw
    # the same channels, apply + IFFT + demodulate per detector.
    Workload("ber-sweep", "ber", dict(
        block_size=64, num_taps=15, snr_grid=tuple(range(0, 31, 2)),
        detectors=("mmse", "mrc"), pilot_frames=0, data_frames=20),
        trials_per_chunk=5, python_weight=1.0),
    # Criterion 3a's detectors at the largest block the 2^16 search cap
    # allows; the exhaustive ML search dominates.
    Workload("ml-exhaustive", "points", dict(
        block_size=16, num_taps=4, cp_len=3, snr_grid=(10.0, 20.0),
        detectors=("ml", "mmse", "mrc"), pilot_frames=0, data_frames=25),
        trials_per_chunk=1, python_weight=0.25),
    # Criterion 6's Doppler sweep plus mmse: the only workload that drifts
    # the taps and refreshes the effective channel every block.
    Workload("doppler-track", "points", dict(
        block_size=64, num_taps=15, snr_grid=(20.0,),
        detectors=("lms", "rls", "mmse"), pilot_frames=50, data_frames=20,
        lambda_rls=0.9), trials_per_chunk=4, python_weight=1.0,
        dopplers=(0.0, 1e-3, 5e-3, 1e-2)),
)}


def chunk_seed(workload_seed: int, k: int) -> int:
    """Master seed of chunk ``k``: a pure function of the two integers."""
    state = np.random.SeedSequence([int(workload_seed), int(k)]).generate_state(
        2, np.uint32)
    return int(state[0]) << 32 | int(state[1])


def chunk_counts(workload: Workload, result) -> list[list[int]]:
    """[errors, bits] of every record, in record order."""
    return [[int(r.errors), int(r.bits)] for r in result.records]


def check_chunk(workload: Workload, result, trials: int) -> str | None:
    """Why a chunk's output is wrong, or None when it is well formed."""
    expected_bits = workload.bits_per_record(trials)
    expected_records = len(workload.grid()) * len(workload.config["detectors"])
    if len(result.records) != expected_records:
        return f"{len(result.records)} records, expected {expected_records}"
    for r in result.records:
        if not all(isinstance(n, (int, np.integer)) for n in (r.errors, r.bits)):
            return f"non-integer count in {r.detector} record"
        if not math.isfinite(r.ber):
            return f"non-finite BER in {r.detector} record"
        if r.bits != expected_bits:
            return f"{r.detector} record holds {r.bits} bits, expected {expected_bits}"
        if not 0 <= r.errors <= r.bits:
            return f"{r.detector} record holds {r.errors} errors of {r.bits} bits"
    return None


def record_keys(workload: Workload) -> list[str]:
    """Stable names of the records a chunk returns, in record order."""
    keys = []
    for snr, fd, u in workload.grid():
        for det in workload.config["detectors"]:
            keys.append(f"{det}@snr={snr:g},fd={fd:g},U={u}")
    return keys
