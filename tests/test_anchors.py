"""Closed-form anchors for the relayed link on the flat channel model.

With ``channel_model="flat"`` every hop is one unit tap scaled by the root
of its path gain, so every bin of every block sees the same response
``A = U·ζ·√(g_sr·g_rd)`` and white noise of variance
``V = U·(ζ²·g_rd·σ_r + σ_d)``: U relays, each of fixed AF gain ζ, each
slot adding its relay noise through the second hop and one destination
noise term. ``mrc``, ``mmse`` and ``ml`` then all decide each bit with
error probability ``Q(√(2A²/V))`` for BPSK and ``Q(√(A²/V))`` for QPSK
(coherent detection in AWGN; Proakis, *Digital Communications*).

The gains and noise powers are written out here from the paper's
fixed-gain AF model, not taken from the harness. Nothing about the channel
is random, so each record's error count is binomial in its bits, and the
bit-binomial standard error is the right yardstick.
"""

import math

import pytest

from uwfde.harness import (SimConfig, run_ber_sweep, run_multirelay,
                           run_placement_sweep)

# A record passes within this many standard errors of its closed form.
Z_BOUND = 4.0
# Points are picked where the closed form is at least this, so that every
# record counts errors (QPSK at U = 3 and 10 dB counted none).
MIN_BER = 1e-3


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def closed_form_ber(cfg, snr_db, delta, relays):
    """Bit error probability of the flat relayed link at one grid point."""
    bits_per_symbol = 2 if cfg.scheme == "qpsk" else 1
    sigma_dest = 10.0 ** (-snr_db / 10.0) / bits_per_symbol
    sigma_relay = cfg.relay_noise_factor * sigma_dest
    # power-law path loss, anchored to unit gain at the midpoint
    gain_sr = (2.0 * delta) ** -cfg.eta
    gain_rd = (2.0 * (1.0 - delta)) ** -cfg.eta
    # fixed gain: the relay's mean retransmit power, signal plus noise, is one
    zeta = 1.0 / math.sqrt(gain_sr + sigma_relay)
    a = relays * zeta * math.sqrt(gain_sr * gain_rd)
    v = relays * (zeta ** 2 * gain_rd * sigma_relay + sigma_dest)
    return q_function(math.sqrt((2.0 / bits_per_symbol) * a * a / v))


def z_scores(result, mirrored=()):
    """(record, closed form, z) of every record. A placement record at a
    position in ``mirrored`` pools the two directions' counts, whose
    closed form is the mean of theirs; the two halves share the trial's
    bits and noise, so the standard error takes them as fully correlated,
    the largest it can be."""
    cfg, out = result.config, []
    for r in result.records:
        deltas = ([r.delta, 1.0 - r.delta] if round(r.delta, 9) in mirrored
                  else [r.delta])
        probs = [closed_form_ber(cfg, r.snr_db, d, r.num_relays)
                 for d in deltas]
        expected = sum(probs) / len(probs)
        se = (sum(math.sqrt(p * (1.0 - p)) for p in probs) / len(probs)
              / math.sqrt(r.bits / len(probs)))
        out.append((r, expected, (r.ber - expected) / se))
    return out


def flat_config(**overrides):
    base = dict(channel_model="flat", block_size=16, num_taps=1,
                data_frames=50, trials=200, master_seed=2022,
                detectors=("mmse", "mrc"))
    base.update(overrides)
    return SimConfig(**base)


def check(scores, detectors):
    assert {r.detector for r, _, _ in scores} == set(detectors)
    for r, expected, z in scores:
        where = (f"{r.detector} at {r.snr_db} dB, delta {r.delta}, "
                 f"U {r.num_relays}: BER {r.ber:.4g}, closed form "
                 f"{expected:.4g}, z {z:.2f}")
        assert expected >= MIN_BER, where
        assert abs(z) <= Z_BOUND, where


def test_ber_sweep_two_relays_off_the_midpoint():
    # BPSK at N = 8, so ml searches every block too
    cfg = flat_config(block_size=8, num_relays=2, delta=0.3, eta=2.0,
                      relay_noise_factor=0.5, snr_grid=(0.0, 3.0, 6.0),
                      detectors=("mmse", "mrc", "ml"))
    check(z_scores(run_ber_sweep(cfg)), cfg.detectors)


def test_placement_pools_both_directions():
    cfg = flat_config(scheme="qpsk", eta=3.0, relay_noise_factor=1.0,
                      snr_grid=(4.0, 8.0))
    result = run_placement_sweep(cfg, [0.2, 0.5, 0.8])
    check(z_scores(result, mirrored={0.2, 0.8}), cfg.detectors)


def test_multirelay_adds_one_destination_noise_term_per_slot():
    cfg = flat_config(block_size=8, delta=0.7, eta=1.5,
                      relay_noise_factor=2.0, snr_grid=(0.0, 4.0),
                      detectors=("mmse", "mrc", "ml"))
    check(z_scores(run_multirelay(cfg, [1, 2, 3])), cfg.detectors)


def test_closed_form_reduces_to_the_awgn_link():
    # U = 1 at the midpoint without relay noise: zeta = 1 and BPSK
    # Q(sqrt(2 Eb/N0)), the single-hop AWGN curve
    cfg = flat_config(relay_noise_factor=0.0)
    for snr in (0.0, 6.0):
        expected = q_function(math.sqrt(2.0 * 10.0 ** (snr / 10.0)))
        assert closed_form_ber(cfg, snr, 0.5, 1) == pytest.approx(expected)
