"""Monte Carlo orchestration tests: config, seeding, determinism, sweeps."""

import math

import numpy as np
import pytest

from uwfde.channel import (CascadeSpectra, complex_noise, evolve_channel,
                           sv_profile)
from uwfde.detectors import effective_channel
from uwfde.harness import (GridPoint, SimConfig, noise_powers, run_ber_sweep,
                           run_convergence, run_multirelay,
                           run_placement_sweep, run_points, run_trial,
                           transmit_block, trial_seed, wilson_half_width,
                           _build_links)
from uwfde.relay import relay_forward, relay_receive
from uwfde.txrx import BlockFrame, ModulationScheme, append_cp, unitary_fft


def time_domain_chain(x, taps, zeta, sigma2_relay, sigma2_dest, cp_len, rng):
    """Reference transmit over ``x`` (blocks, N) and ``taps`` (blocks, 2U, L),
    relay u's hops in rows 2u and 2u + 1: per block and relay, prefix,
    convolve, strip, forward, convolve, strip; returns the unitary FFT of
    the summed destination blocks."""
    out = []
    for block, hops in zip(x, taps):
        sent = append_cp(BlockFrame(block), cp_len)
        total = np.zeros(len(block), dtype=complex)
        for h, g in zip(hops[0::2], hops[1::2]):
            at_relay = relay_receive(sent, h, sigma2_relay, rng)
            forwarded = relay_forward(at_relay, zeta, cp_len)
            total += relay_receive(forwarded, g, sigma2_dest, rng).symbols
        out.append(unitary_fft(total))
    return np.array(out)


def replayed_hop_noise(seed, blocks, relays, n, sigma2_relay, sigma2_dest):
    """Spectra of the noise ``time_domain_chain`` draws from
    ``default_rng(seed)``, replayed in its draw order; each (blocks, U, N)."""
    rng = np.random.default_rng(seed)
    relay = np.empty((blocks, relays, n), dtype=complex)
    dest = np.empty_like(relay)
    for b in range(blocks):
        for u in range(relays):
            relay[b, u] = complex_noise(rng, n, sigma2_relay)
            dest[b, u] = complex_noise(rng, n, sigma2_dest)
    return unitary_fft(relay), unitary_fft(dest)


def small_config(**overrides):
    base = dict(block_size=16, num_taps=4, sv=sv_profile(4), snr_grid=(8.0,),
                detectors=("mmse",), pilot_frames=0, data_frames=4, trials=5,
                master_seed=77)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_defaults_are_valid(self):
        cfg = SimConfig()
        assert cfg.effective_cp_len == cfg.num_taps - 1

    @pytest.mark.parametrize("bad", [
        dict(trials=0),
        dict(block_size=0),
        dict(num_taps=0),
        dict(num_taps=90),
        dict(cp_len=2),             # shorter than channel memory
        dict(cp_len=80),
        dict(scheme="qam16"),
        dict(detectors=("mmse", "zf")),
        dict(num_relays=0),
        dict(fd_norm=0.5),
        dict(delta=0.0),
        dict(lambda_rls=0.0),
        dict(snr_grid=(float("nan"),)),
        dict(relay_noise_factor=-1.0),
        dict(channel_model="ray"),
        dict(workers=0),
        dict(mu=-0.1),
        dict(detectors=("mmse", "mmse")),   # each row would count twice
        dict(snr_grid=()),
        dict(detectors=()),
        dict(detectors=("ml",), block_size=32),  # 2^32 candidates
        dict(data_frames=0),                # a BER over zero bits
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    def test_ml_at_the_search_limit_is_accepted(self):
        assert small_config(detectors=("ml",), block_size=16).block_size == 16

    def test_dict_round_trip(self):
        cfg = small_config(detectors=("mmse", "rls"), mu=0.07)
        clone = SimConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            SimConfig.from_dict({"block_sized": 16})


class TestSeeding:
    def test_pure_function_of_inputs(self):
        a = trial_seed(1, "ber", 3)
        b = trial_seed(1, "ber", 3)
        assert np.random.default_rng(a).integers(0, 1 << 30) == \
            np.random.default_rng(b).integers(0, 1 << 30)

    def test_distinct_across_experiments_and_trials(self):
        draws = {
            np.random.default_rng(trial_seed(1, exp, t)).integers(0, 1 << 60)
            for exp in ("ber", "placement") for t in range(50)
        }
        assert len(draws) == 100


class TestNoisePowers:
    def test_bpsk_scaling(self):
        cfg = small_config()
        dest, rel = noise_powers(cfg, 10.0, ModulationScheme.bpsk())
        assert dest == pytest.approx(0.1)
        assert rel == pytest.approx(0.1)

    def test_qpsk_halves_noise(self):
        cfg = small_config(scheme="qpsk")
        dest, _ = noise_powers(cfg, 10.0, ModulationScheme.qpsk())
        assert dest == pytest.approx(0.05)

    def test_relay_factor(self):
        cfg = small_config(relay_noise_factor=0.0)
        _, rel = noise_powers(cfg, 10.0, ModulationScheme.bpsk())
        assert rel == 0.0


class TestRunTrial:
    def test_deterministic_given_seed(self):
        cfg = small_config(detectors=("mmse", "mrc"))
        assert run_trial(cfg, 123) == run_trial(cfg, 123)

    def test_noise_free_mmse_is_error_free(self):
        cfg = small_config(snr_grid=(120.0,), relay_noise_factor=0.0)
        counts = run_trial(cfg, 5)
        errors, bits = counts["mmse"]
        assert errors == 0
        assert bits == 4 * 16

    def test_awgn_anchor_quick(self):
        # flat single-tap, relay noise off: plain coherent-detection theory
        cfg = small_config(block_size=64, num_taps=1, sv=sv_profile(1),
                           channel_model="flat", relay_noise_factor=0.0,
                           snr_grid=(4.0,), data_frames=50, trials=60)
        res = run_points(cfg, [GridPoint(4.0)], "awgn-quick")
        rec = res.records[0]
        expected = 0.5 * math.erfc(math.sqrt(2 * 10 ** 0.4) / math.sqrt(2))
        assert abs(rec.ber - expected) < 4 * max(rec.std_error, 1e-6)

    def test_counts_cover_all_detectors(self):
        cfg = small_config(detectors=("mmse", "mrc", "lms", "rls", "ml"),
                           block_size=4, num_taps=2, sv=sv_profile(2),
                           cp_len=1, pilot_frames=5)
        counts = run_trial(cfg, 9)
        assert set(counts) == {"mmse", "mrc", "lms", "rls", "ml"}
        assert all(bits == 4 * 4 for _, bits in counts.values())


class TestRunPoints:
    def test_worker_count_does_not_change_results(self):
        cfg1 = small_config(trials=6, detectors=("mmse", "rls"), pilot_frames=3)
        cfg2 = small_config(trials=6, detectors=("mmse", "rls"), pilot_frames=3,
                            workers=3)
        points = [GridPoint(s) for s in (4.0, 8.0)]
        res1 = run_points(cfg1, points, "par-check")
        res2 = run_points(cfg2, points, "par-check")
        assert [(r.detector, r.snr_db, r.errors, r.bits) for r in res1.records] \
            == [(r.detector, r.snr_db, r.errors, r.bits) for r in res2.records]

    def test_convergence_traces_identical_across_workers(self):
        cfg1 = small_config(trials=6, pilot_frames=8)
        cfg2 = small_config(trials=6, pilot_frames=8, workers=2)
        res1 = run_convergence(cfg1)
        res2 = run_convergence(cfg2)
        for det in ("lms", "rls"):
            assert np.array_equal(res1.mse_traces[det], res2.mse_traces[det])
        assert res1.mmse_floor == res2.mmse_floor

    def test_ber_monotone_in_snr_for_mmse(self):
        cfg = small_config(block_size=32, num_taps=4,
                           snr_grid=(0.0, 6.0, 12.0), trials=60,
                           data_frames=10)
        res = run_ber_sweep(cfg)
        bers = [res.record("mmse", snr_db=s).ber for s in cfg.snr_grid]
        assert bers[0] > bers[1] > bers[2]


class TestConvergence:
    def test_trace_length_and_monotone_start(self):
        cfg = small_config(pilot_frames=12, trials=30)
        res = run_convergence(cfg)
        assert len(res.mse_traces["lms"]) == 12
        assert len(res.mse_traces["rls"]) == 12
        assert res.mse_traces["rls"][0] == pytest.approx(1.0)
        assert res.mse_traces["rls"][-1] < res.mse_traces["rls"][0]
        assert res.mmse_floor is not None and res.mmse_floor > 0

    def test_zero_step_lms_trace_is_flat_one(self):
        cfg = small_config(pilot_frames=6, trials=10, mu=0.0)
        res = run_convergence(cfg)
        assert np.allclose(res.mse_traces["lms"], 1.0)

    def test_requires_pilots(self):
        with pytest.raises(ValueError):
            run_convergence(small_config(pilot_frames=0))


class TestPlacement:
    def test_grid_validated(self):
        with pytest.raises(ValueError):
            run_placement_sweep(small_config(), [0.5, 1.2])

    def test_mirrored_counts_pooled(self):
        cfg = small_config(trials=8, data_frames=3)
        res = run_placement_sweep(cfg, [0.25, 0.5, 0.75])
        left = res.record("mmse", delta=0.25)
        right = res.record("mmse", delta=0.75)
        assert (left.errors, left.bits) == (right.errors, right.bits)
        center = res.record("mmse", delta=0.5)
        assert 2 * center.bits == left.bits  # 0.5 is its own mirror

    def test_midpoint_is_not_pooled_with_itself(self):
        cfg = small_config(trials=4, data_frames=5)
        res = run_placement_sweep(cfg, [0.3, 0.5])
        one_way = 4 * 5 * 16
        assert res.record("mmse", delta=0.3).bits == one_way
        assert res.record("mmse", delta=0.5).bits == one_way

    def test_repeated_delta_rejected(self):
        with pytest.raises(ValueError):
            run_placement_sweep(small_config(), [0.3, 0.3])

    def test_unpaired_delta_stays_one_way(self):
        cfg = small_config(trials=4, data_frames=2)
        res = run_placement_sweep(cfg, [0.3])
        rec = res.record("mmse", delta=0.3)
        assert rec.bits == 4 * 2 * 16


class TestMultirelay:
    def test_single_relay_reduces_to_ber_sweep(self):
        cfg = small_config(trials=6, detectors=("mmse",))
        sweep = run_ber_sweep(cfg, experiment="shared-tag")
        multi = run_multirelay(cfg, [1], experiment="shared-tag")
        a, b = sweep.records[0], multi.records[0]
        assert (a.errors, a.bits) == (b.errors, b.bits)

    def test_relay_count_validated(self):
        with pytest.raises(ValueError):
            run_multirelay(small_config(), [0, 2])

    def test_more_relays_more_bits_same_total(self):
        cfg = small_config(trials=4)
        res = run_multirelay(cfg, [1, 2])
        assert res.record("mmse", num_relays=1).bits == \
            res.record("mmse", num_relays=2).bits


class TestStatistics:
    def test_wilson_half_width_reference(self):
        # z = 1.96, p-hat = 0.1, n = 100 gives the textbook value
        value = wilson_half_width(10, 100)
        assert value == pytest.approx(0.0596, abs=5e-4)

    def test_wilson_zero_bits(self):
        assert wilson_half_width(0, 0) == 0.0

    def test_record_lookup_is_strict(self):
        cfg = small_config(snr_grid=(4.0, 8.0))
        res = run_ber_sweep(cfg)
        with pytest.raises(KeyError):
            res.record("mmse")  # two matches
        with pytest.raises(KeyError):
            res.record("mmse", snr_db=99.0)  # none


class TestTransmitBlock:
    def test_zero_noise_single_flat_link_roundtrip(self):
        cfg = small_config(channel_model="flat", num_taps=1,
                           relay_noise_factor=0.0, snr_grid=(200.0,))
        rng = np.random.default_rng(0)
        chans = _build_links(cfg, GridPoint(200.0), rng)
        x = np.exp(2j * np.pi * rng.uniform(size=16))
        r_f = transmit_block(x, chans.links, cfg.effective_cp_len, rng)
        assert np.max(np.abs(r_f - np.fft.fft(x, norm="ortho"))) < 1e-9

    @pytest.mark.parametrize("relays,blocks,drift", [
        (1, 1, False), (2, 1, False), (3, 1, False),  # one block, 1-D input
        (3, 6, False),                                # block stack, fixed taps
        (2, 6, True),                                 # drifting tap track
    ])
    def test_matches_time_domain_chain(self, relays, blocks, drift):
        n, num_taps, cp_len = 16, 4, 5
        zeta, sigma2_relay, sigma2_dest = 0.8, 0.3, 0.2
        rng = np.random.default_rng(10 * relays + blocks)
        track = np.empty((blocks, 2 * relays, num_taps), dtype=complex)
        track[0] = complex_noise(rng, track.shape[1:], 1.0)
        for b in range(1, blocks):
            track[b] = evolve_channel(track[b - 1], 0.05 if drift else 0.0, rng,
                                      np.ones(num_taps))
        x = complex_noise(rng, (blocks, n), 1.0)
        expected = time_domain_chain(x, track, zeta, sigma2_relay, sigma2_dest,
                                     cp_len, np.random.default_rng(7))
        noise = replayed_hop_noise(7, blocks, relays, n, sigma2_relay,
                                   sigma2_dest)
        links = CascadeSpectra.from_taps(track if drift else track[0], n, zeta,
                                         sigma2_relay, sigma2_dest)
        if blocks == 1:
            x, expected = x[0], expected[0]
            noise = (noise[0][0], noise[1][0])
        got = transmit_block(x, links, cp_len, None, noise=noise)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-10

    def test_drawn_noise_matches_the_effective_channel(self):
        # zero input: the per-bin power is exactly the modelled noise variance
        rng = np.random.default_rng(3)
        links = CascadeSpectra.from_taps(complex_noise(rng, (4, 3), 0.5), 16,
                                         0.9, 0.4, 0.1)
        r_f = transmit_block(np.zeros((4000, 16)), links, 2, rng)
        measured = np.mean(np.abs(r_f) ** 2, axis=0)
        expected = effective_channel(links).noise_var
        assert np.max(np.abs(measured / expected - 1.0)) < 0.08

    def test_prefix_shorter_than_memory_rejected(self):
        rng = np.random.default_rng(4)
        links = CascadeSpectra.from_taps(complex_noise(rng, (2, 4), 1.0), 16,
                                         1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            transmit_block(np.ones(16), links, 2, rng)
