"""Monte Carlo orchestration tests: config, seeding, determinism, sweeps."""

import math
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uwfde import harness
from uwfde.channel import (complex_noise, evolve_channel, freq_response,
                           sv_profile)
from uwfde.detectors import effective_channel, equalize, mmse_weights
from uwfde.harness import (DETECTOR_NAMES, GridPoint, SimConfig,
                           run_ber_sweep, run_convergence, run_multirelay,
                           run_placement_sweep, run_points,
                           transmit_block, trial_seed, wilson_half_width,
                           _build_links, _cascade, _cascade_powers,
                           _group_size, _run_group, _substream,
                           _worker_count)
from uwfde.txrx import (ModulationScheme, append_cp, demodulate, modulate,
                        relay_forward, relay_receive, unitary_fft,
                        unitary_ifft)


def time_domain_chain(x, taps, zeta, sigma2_relay, sigma2_dest, cp_len, rng):
    """Reference transmit over ``x`` (blocks, N) and ``taps`` (blocks, 2U, L),
    relay u's hops in rows 2u and 2u + 1: per block and relay, prefix,
    convolve, strip, forward, convolve, strip; returns the unitary FFT of
    the summed destination blocks."""
    out = []
    for block, hops in zip(x, taps):
        sent = append_cp(block, cp_len)
        total = np.zeros(len(block), dtype=complex)
        for h, g in zip(hops[0::2], hops[1::2]):
            at_relay = relay_receive(sent, cp_len, h, sigma2_relay, rng)
            forwarded = relay_forward(at_relay, zeta, cp_len)
            total += relay_receive(forwarded, cp_len, g, sigma2_dest, rng)
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
        dict(detectors=("rls", "mmse")),    # untrained weights, BER near 0.5
        dict(detectors=("lms",)),
        dict(snr_grid=(10.0, 10.0)),        # two rows record cannot tell apart
        dict(master_seed=-1),               # no seed sequence takes it
        dict(mu=float("nan")),              # silent BER near 0.5
        dict(mu=float("inf")),
        dict(relay_noise_factor=float("nan")),
        dict(relay_noise_factor=float("inf")),
        dict(eta=float("nan")),
        dict(eta=float("inf")),
        dict(eta=-float("inf")),
        dict(scheme=3),                     # no lower(): an AttributeError
        dict(sv=5),                         # accepted, then failed mid-run
        dict(sv="x"),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    @pytest.mark.parametrize("field", [
        "block_size", "num_taps", "num_relays", "pilot_frames", "data_frames",
        "trials", "workers", "cp_len", "master_seed"])
    @pytest.mark.parametrize("value", [1.7, 2.5, "3", float("inf")])
    def test_integer_fields_reject_non_whole_values(self, field, value):
        with pytest.raises(ValueError, match="whole number"):
            small_config(**{field: value})

    def test_integer_fields_take_whole_floats_as_ints(self):
        cfg = small_config(block_size=16.0, num_taps=4.0, num_relays=2.0,
                           pilot_frames=0.0, data_frames=4.0, trials=5.0,
                           workers=1.0, cp_len=3.0, master_seed=77.0)
        for name in ("block_size", "num_taps", "num_relays", "pilot_frames",
                     "data_frames", "trials", "workers", "cp_len",
                     "master_seed"):
            assert type(getattr(cfg, name)) is int
        assert cfg == small_config(num_relays=2, cp_len=3)

    def test_ml_at_the_search_limit_is_accepted(self):
        assert small_config(detectors=("ml",), block_size=16).block_size == 16

    def test_num_taps_picks_the_default_profile(self):
        # the profile used to default to 15 rays, cut to num_taps taps
        assert SimConfig(num_taps=4).sv == sv_profile(4)
        assert SimConfig(num_taps=4, sv=sv_profile(15)).sv == sv_profile(15)
        with pytest.raises(ValueError, match=r"num_taps must be in \[1"):
            SimConfig(num_taps=0)

    def test_dict_round_trip(self):
        cfg = small_config(detectors=("mmse", "rls"), mu=0.07, pilot_frames=1)
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
        _, rel, dest = _cascade_powers(small_config(), GridPoint(10.0))
        assert dest == pytest.approx(0.1)
        assert rel == pytest.approx(0.1)

    def test_qpsk_halves_noise(self):
        cfg = small_config(scheme="qpsk")
        _, _, dest = _cascade_powers(cfg, GridPoint(10.0))
        assert dest == pytest.approx(0.05)

    def test_relay_factor(self):
        cfg = small_config(relay_noise_factor=0.0)
        _, rel, _ = _cascade_powers(cfg, GridPoint(10.0))
        assert rel == 0.0

    @pytest.mark.parametrize("bad", [
        dict(snr_grid=(-4000.0,)),              # 10 ** 400 overflows
        dict(eta=1000.0, delta=0.1),            # so does 0.2 ** -1000
        dict(eta=1000.0, delta=0.9),
        dict(eta=-1000.0, delta=0.9),           # a gain of zero
        dict(relay_noise_factor=1e308, snr_grid=(-20.0,)),  # inf relay noise
        # both gains finite and positive, yet zeta^2 |G|^2 overflows
        dict(eta=110.0, delta=0.999, snr_grid=(400.0,)),
        dict(snr_grid=(10.0, -4000.0)),         # any point of the grid
    ])
    def test_out_of_range_powers_rejected(self, bad):
        with pytest.raises(ValueError, match="power"):
            small_config(**bad)

    def test_noise_free_point_accepted(self):
        cfg = small_config(snr_grid=(4000.0,))
        assert _cascade_powers(cfg, GridPoint(4000.0))[1:] == (0.0, 0.0)

    def test_placement_positions_checked_at_eta(self):
        cfg = small_config(eta=1000.0)
        with pytest.raises(ValueError, match="power"):
            run_placement_sweep(cfg, [0.1, 0.9])
        with pytest.raises(ValueError, match="power"):
            _cascade_powers(cfg, GridPoint(8.0, delta=0.1))

    @settings(max_examples=200, deadline=None)
    @given(eta=st.floats(), delta=st.floats(), factor=st.floats(),
           snr=st.floats())
    @example(eta=2.0, delta=0.5, factor=1.0, snr=-4000.0)
    @example(eta=1000.0, delta=0.1, factor=1.0, snr=10.0)
    @example(eta=2.0, delta=0.5, factor=1e308, snr=-20.0)
    @example(eta=110.0, delta=0.999, factor=1.0, snr=400.0)
    # a subnormal destination noise, whose inverse overflowed in ml
    @example(eta=2.0, delta=0.5, factor=1.0, snr=3100.0)
    # a noise power that drives lms past overflow within its pilot blocks
    @example(eta=2.0, delta=0.5, factor=1.0, snr=-80.0)
    def test_config_rejects_or_a_trial_counts(self, eta, delta, factor, snr):
        # any float at all, NaN and infinities included: either the config
        # refuses it or a trial gives counts a CSV can carry
        try:
            cfg = SimConfig(block_size=4, num_taps=2, sv=sv_profile(2),
                            snr_grid=(snr,), detectors=DETECTOR_NAMES,
                            data_frames=2, trials=1, eta=eta, delta=delta,
                            relay_noise_factor=factor)
        except ValueError:
            return
        point = GridPoint(snr, 0.0, delta)
        errors = _run_group(cfg, [point], [0], False)
        assert errors.shape == (1, 1, len(DETECTOR_NAMES))
        assert np.all((0 <= errors) & (errors <= 8))
        assert [r.bits for r in run_points(cfg, [point], "powers").records] \
            == [8] * len(DETECTOR_NAMES)

    @pytest.mark.parametrize("snr", [3100.0, 3200.0])
    def test_ml_decides_subnormal_noise_like_mmse(self, snr):
        # a noise variance near 1e-310 is all but noise-free: 1 / noise_var
        # overflowed and ml wrote a BER near 0.5 beside mmse's 0
        cfg = SimConfig(block_size=4, num_taps=2, sv=sv_profile(2),
                        snr_grid=(snr,), detectors=("ml", "mmse"),
                        data_frames=2, trials=3)
        result = run_ber_sweep(cfg)
        assert result.record("ml").errors == result.record("mmse").errors == 0


class TestRunTrial:
    def test_deterministic_given_seed(self):
        cfg = small_config(detectors=("mmse", "mrc"))
        points = [GridPoint(8.0), GridPoint(0.0)]
        errors = _run_group(cfg, points, [123], False)
        assert errors.shape == (1, 2, 2) and errors.sum() > 0
        assert np.array_equal(errors, _run_group(cfg, points, [123], False))

    def test_noise_free_mmse_is_error_free(self):
        cfg = small_config(snr_grid=(120.0,), relay_noise_factor=0.0)
        points = [GridPoint(120.0)]
        assert _run_group(cfg, points, [5], False).tolist() == [[[0]]]
        rec, = run_points(cfg, points, "noise-free").records
        assert (rec.errors, rec.bits) == (0, 5 * 4 * 16)

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
        errors = _run_group(cfg, [GridPoint(8.0)], [9], False)
        assert errors.shape == (1, 1, 5)
        res = run_points(cfg, [GridPoint(8.0)], "cover")
        assert [r.detector for r in res.records] == list(cfg.detectors)
        assert all(r.bits == 5 * 4 * 4 for r in res.records)

    def test_records_sum_one_trial_groups_in_detector_order(self):
        # a non-canonical detector order over mixed cells: each record is
        # the column sum of one-trial groups, and holds the count that the
        # canonical order gives its detector
        detectors = ("rls", "ml", "mmse", "lms", "mrc")
        cfg = small_config(block_size=8, num_taps=3, sv=sv_profile(3),
                           pilot_frames=3, data_frames=2, trials=3,
                           detectors=detectors)
        points = [GridPoint(6.0, 0.0, 0.5, 2), GridPoint(12.0, 0.01, 0.3, 1),
                  GridPoint(0.0, 0.0, 0.7, 1), GridPoint(12.0, 0.0, 0.5, 2)]
        res = run_points(cfg, points, "order")
        errors = sum(_run_group(cfg, points, [trial_seed(
            cfg.master_seed, "order", t)], False) for t in range(cfg.trials))
        assert [(r.detector, r.snr_db, r.errors) for r in res.records] == [
            (det, p.snr_db, errors[0, i, k]) for i, p in enumerate(points)
            for k, det in enumerate(detectors)]
        canonical = run_points(replace(cfg, detectors=DETECTOR_NAMES), points,
                               "order")
        assert sorted(counts(res)) == sorted(counts(canonical))
        assert len({r.errors for r in res.records}) > 5


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


class TestGroupSize:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 128), pilots=st.integers(1, 80),
           data=st.integers(1, 40), size=st.integers(1, 20),
           cap=st.integers(1, 1 << 23))
    def test_groups_fit_the_cap(self, n, pilots, data, size, cap):
        cfg = small_config(block_size=n, num_taps=1, sv=sv_profile(1),
                           detectors=("mmse", "rls"), pilot_frames=pilots,
                           data_frames=data)
        trial_bytes = size * (2 * pilots + data) * n * 16
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "GROUP_BYTES", cap)
            group = _group_size(cfg, [GridPoint(float(s)) for s in range(size)])
        assert group >= 1
        assert group == 1 or group * trial_bytes <= cap
        assert (group + 1) * trial_bytes > cap

    def test_a_trial_over_the_cap_is_a_group_of_one(self):
        # the adaptive ber sweep over 16 SNR points at N = 64 takes
        # 16 * 120 blocks of 64 complex bins, about 2 MB per trial
        cfg = SimConfig(detectors=("mmse", "lms", "rls"))
        assert _group_size(cfg, [GridPoint(s) for s in cfg.snr_grid]) == 1

    @pytest.mark.parametrize("detectors", [("mmse",), ("mrc", "ml")])
    def test_no_adaptive_detector_charges_its_data_rows(self, detectors):
        # the symbol spectra and white noise of the data blocks, 2 * 4 * 16
        # complex bins a trial however many points share them
        cfg = small_config(detectors=detectors)
        for size in (1, 16):
            points = [GridPoint(float(s)) for s in range(size)]
            assert _group_size(cfg, points) == (3 << 19) // (2 * 4 * 16 * 16)
        # the README's ber command, 20 data blocks at N = 64
        cfg = small_config(detectors=("mmse", "mrc"), block_size=64,
                           data_frames=20)
        assert _group_size(cfg, [GridPoint(8.0)]) == 38


class TestRunGroup:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_group_is_its_trials_run_alone(self, data):
        # every quantity the group computes once for its trials gives each
        # trial the numbers it gets alone, counts, traces and floors alike
        n = data.draw(st.sampled_from([4, 8, 16]), label="N")
        flat = data.draw(st.booleans(), label="flat")
        taps = 1 if flat else data.draw(st.integers(1, 4), label="L")
        collect_mse = data.draw(st.booleans(), label="collect_mse")
        names = [d for d in DETECTOR_NAMES if n <= 8 or d != "ml"]
        detectors = ("lms", "rls") if collect_mse else tuple(data.draw(
            st.lists(st.sampled_from(names), min_size=1, unique=True),
            label="detectors"))
        cfg = small_config(
            block_size=n, num_taps=taps, sv=sv_profile(taps),
            channel_model="flat" if flat else "sv", detectors=detectors,
            scheme=data.draw(st.sampled_from(["bpsk", "qpsk"]), label="scheme"),
            pilot_frames=data.draw(st.integers(1, 4), label="pilots"),
            data_frames=data.draw(st.integers(1, 3), label="data"))
        cells = data.draw(st.lists(
            st.tuples(st.integers(-10, 40), st.sampled_from([0.0, 0.01]),
                      st.sampled_from([0.3, 0.5]), st.integers(1, 3)),
            min_size=1, max_size=4, unique=True), label="points")
        points = [GridPoint(float(s), fd, delta, u) for s, fd, delta, u in cells]
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        seeds = [trial_seed(seed, "group", t)
                 for t in range(data.draw(st.integers(2, 4), label="trials"))]
        group = _run_group(cfg, points, seeds, collect_mse)
        alone = [_run_group(cfg, points, [s], collect_mse) for s in seeds]
        if not collect_mse:
            group, alone = (group,), [(a,) for a in alone]
        for got, parts in zip(group, zip(*alone)):
            assert np.array_equal(got, np.concatenate(parts))


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.delenv("UWFDE_WORKERS", raising=False)

    @pytest.mark.parametrize("workers,trials,expected", [
        (1, 5, 1), (2, 5, 2), (8, 5, 2), (8, 1, 1),
    ])
    def test_config_workers_capped(self, workers, trials, expected):
        cfg = small_config(workers=workers, trials=trials)
        assert _worker_count(cfg) == expected

    @pytest.mark.parametrize("env,trials,expected", [
        ("1", 5, 1), ("64", 5, 2), ("64", 1, 1), ("0", 5, 1),
    ])
    def test_env_override_capped(self, monkeypatch, env, trials, expected):
        monkeypatch.setenv("UWFDE_WORKERS", env)
        assert _worker_count(small_config(workers=2, trials=trials)) == expected

    @pytest.mark.parametrize("env", ["two", "1.5"])
    def test_non_integer_env_rejected(self, monkeypatch, env):
        monkeypatch.setenv("UWFDE_WORKERS", env)
        with pytest.raises(ValueError, match="UWFDE_WORKERS"):
            _worker_count(small_config())

    @pytest.mark.parametrize("detectors,cap,pools", [
        # ber --trials 20 at N = 64 is one group: it runs in-process
        (("mmse", "mrc"), 3 << 19, []),
        # adaptive groups of two: three groups for five trials, so three
        # of the four workers a pool could have
        (("mmse", "rls"), 2 * 64 * 16 * (2 * 3 + 20), [3]),
    ])
    def test_pool_starts_at_most_one_worker_per_group(
            self, monkeypatch, detectors, cap, pools):
        started = []

        class StubPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(harness, "GROUP_BYTES", cap)
        cfg = small_config(block_size=64, data_frames=20, pilot_frames=3,
                           detectors=detectors, trials=20 if not pools else 5)
        expected = counts(run_points(cfg, [GridPoint(8.0)], "pool"))
        assert counts(run_points(replace(cfg, workers=4), [GridPoint(8.0)],
                                 "pool")) == expected
        assert started == pools


def counts(result):
    return [(r.detector, r.snr_db, r.fd_norm, r.delta, r.num_relays,
             r.errors, r.bits) for r in result.records]


def single_point_counts(cfg, records, experiment):
    """Counts of a separate one-point ``run_points`` call per record."""
    return [counts(run_points(cfg, [GridPoint(r.snr_db, r.fd_norm, r.delta,
                                              r.num_relays)], experiment))
            [cfg.detectors.index(r.detector)] for r in records]


class TestPairing:
    """Each record of a sweep equals a separate run of its grid point with
    the same seed and tag: running points together changes no number."""

    def test_drifting_two_relay_ber_sweep(self):
        cfg = small_config(block_size=8, num_taps=3, sv=sv_profile(3),
                           snr_grid=(0.0, 9.0, 18.0), fd_norm=0.01,
                           num_relays=2, pilot_frames=4, data_frames=3,
                           trials=3, detectors=("mmse", "mrc", "lms", "rls"))
        res = run_ber_sweep(cfg)
        assert counts(res) == single_point_counts(cfg, res.records, "ber")

    def test_one_cell_of_many_points_every_detector(self):
        # four SNR points share one drifting QPSK cell, so its effective
        # channels and linear weights are stacked over them
        cfg = small_config(block_size=8, num_taps=3, sv=sv_profile(3),
                           scheme="qpsk", snr_grid=(0.0, 8.0, 16.0, 40.0),
                           fd_norm=0.01, num_relays=2, pilot_frames=4,
                           data_frames=3, trials=3,
                           detectors=("mrc", "mmse", "ml", "lms", "rls"))
        res = run_ber_sweep(cfg)
        assert len(res.records) == 4 * 5
        assert counts(res) == single_point_counts(cfg, res.records, "ber")

    def test_placement_sweep(self):
        # no mirrored pair on the grid, so every record is one-way
        cfg = small_config(snr_grid=(4.0, 12.0), trials=3, data_frames=3,
                           pilot_frames=3, detectors=("mmse", "lms"))
        res = run_placement_sweep(cfg, [0.3, 0.6])
        assert counts(res) == single_point_counts(cfg, res.records, "placement")

    def test_multirelay_sweep(self):
        cfg = small_config(snr_grid=(4.0, 12.0), trials=3, data_frames=3,
                           pilot_frames=3, detectors=("rls", "mmse"))
        res = run_multirelay(cfg, [1, 2])
        assert counts(res) == single_point_counts(cfg, res.records, "multirelay")

    def test_doppler_grid(self):
        cfg = small_config(block_size=8, num_taps=3, sv=sv_profile(3),
                           snr_grid=(20.0,), pilot_frames=5, data_frames=3,
                           trials=3, lambda_rls=0.9,
                           detectors=("lms", "rls", "mmse"))
        points = [GridPoint(20.0, fd, 0.5, 2) for fd in (0.0, 1e-3, 1e-2)]
        res = run_points(cfg, points, "doppler")
        assert counts(res) == single_point_counts(cfg, res.records, "doppler")

    def test_mixed_position_relays_and_doppler(self):
        # cells of every kind in one call, relay counts out of order
        cfg = small_config(block_size=8, num_taps=3, sv=sv_profile(3),
                           pilot_frames=3, data_frames=2, trials=3,
                           detectors=("mrc", "rls", "mmse", "lms"))
        points = [GridPoint(6.0, 0.0, 0.5, 3), GridPoint(12.0, 0.0, 0.5, 3),
                  GridPoint(12.0, 0.01, 0.3, 1), GridPoint(6.0, 0.01, 0.7, 2),
                  GridPoint(6.0, 0.0, 0.3, 1), GridPoint(0.0, 0.01, 0.3, 1)]
        res = run_points(cfg, points, "mixed")
        assert counts(res) == single_point_counts(cfg, res.records, "mixed")

    @settings(max_examples=20, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(-10, 40),
                                    st.sampled_from([0.0, 0.02]),
                                    st.sampled_from([0.3, 0.5]),
                                    st.integers(1, 3)),
                          min_size=1, max_size=4, unique=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_snr_grids(self, cells, seed):
        cfg = small_config(block_size=8, num_taps=3, sv=sv_profile(3),
                           pilot_frames=2, data_frames=2, trials=2,
                           master_seed=seed, detectors=("mmse", "rls"))
        points = [GridPoint(float(s), fd, delta, u) for s, fd, delta, u in cells]
        res = run_points(cfg, points, "ber")
        assert counts(res) == single_point_counts(cfg, res.records, "ber")


class TestMlCounts:
    # Counts recorded on the version-4 stream, once from the direct-form
    # search |r - g S|^2 @ (1/noise) over all M candidates and once from the
    # expanded-form search, which scores the M/2 antipodal pairs (s, -s)
    # one column each; the two agreed on every count.
    PINNED = [
        ("ml", 4.0, 0.0, 1, 15), ("mmse", 4.0, 0.0, 1, 16),
        ("ml", 8.0, 0.0, 1, 3), ("mmse", 8.0, 0.0, 1, 4),
        ("ml", 4.0, 0.0, 2, 21), ("mmse", 4.0, 0.0, 2, 21),
        ("ml", 8.0, 0.0, 2, 8), ("mmse", 8.0, 0.0, 2, 9),
        ("ml", 4.0, 0.02, 1, 18), ("mmse", 4.0, 0.02, 1, 18),
        ("ml", 8.0, 0.02, 1, 7), ("mmse", 8.0, 0.02, 1, 12),
        ("ml", 4.0, 0.02, 2, 28), ("mmse", 4.0, 0.02, 2, 30),
        ("ml", 8.0, 0.02, 2, 8), ("mmse", 8.0, 0.02, 2, 13),
    ]

    def test_counts_with_and_without_drift(self):
        cfg = small_config(block_size=8, num_taps=4, cp_len=3,
                           snr_grid=(4.0, 8.0), detectors=("ml", "mmse"),
                           data_frames=6, trials=4, master_seed=31)
        points = [GridPoint(s, fd, 0.5, u) for fd in (0.0, 0.02)
                  for u in (1, 2) for s in (4.0, 8.0)]
        res = run_points(cfg, points, "ml-pin")
        got = [(r.detector, r.snr_db, r.fd_norm, r.num_relays, r.errors)
               for r in res.records]
        assert got == self.PINNED
        assert all(r.bits == 4 * 6 * 8 for r in res.records)


class TestLinearAndAdaptiveCounts:
    # Counts of the per-bin detectors and the adaptive training scan on the
    # version-4 stream; any change to a draw or to the arithmetic moves them.
    PINNED = [
        ("mrc", 4.0, 0.0, 1, 36), ("mmse", 4.0, 0.0, 1, 29),
        ("lms", 4.0, 0.0, 1, 40), ("rls", 4.0, 0.0, 1, 33),
        ("mrc", 8.0, 0.0, 1, 26), ("mmse", 8.0, 0.0, 1, 6),
        ("lms", 8.0, 0.0, 1, 23), ("rls", 8.0, 0.0, 1, 14),
        ("mrc", 4.0, 0.0, 2, 22), ("mmse", 4.0, 0.0, 2, 24),
        ("lms", 4.0, 0.0, 2, 32), ("rls", 4.0, 0.0, 2, 35),
        ("mrc", 8.0, 0.0, 2, 11), ("mmse", 8.0, 0.0, 2, 5),
        ("lms", 8.0, 0.0, 2, 16), ("rls", 8.0, 0.0, 2, 15),
        ("mrc", 4.0, 0.02, 1, 27), ("mmse", 4.0, 0.02, 1, 23),
        ("lms", 4.0, 0.02, 1, 60), ("rls", 4.0, 0.02, 1, 59),
        ("mrc", 8.0, 0.02, 1, 15), ("mmse", 8.0, 0.02, 1, 11),
        ("lms", 8.0, 0.02, 1, 53), ("rls", 8.0, 0.02, 1, 55),
        ("mrc", 4.0, 0.02, 2, 30), ("mmse", 4.0, 0.02, 2, 28),
        ("lms", 4.0, 0.02, 2, 52), ("rls", 4.0, 0.02, 2, 55),
        ("mrc", 8.0, 0.02, 2, 15), ("mmse", 8.0, 0.02, 2, 12),
        ("lms", 8.0, 0.02, 2, 48), ("rls", 8.0, 0.02, 2, 43),
    ]

    def test_counts_with_and_without_drift(self):
        cfg = small_config(block_size=8, num_taps=4, cp_len=3,
                           snr_grid=(4.0, 8.0),
                           detectors=("mrc", "mmse", "lms", "rls"),
                           pilot_frames=5, data_frames=6, trials=4,
                           master_seed=32)
        points = [GridPoint(s, fd, 0.5, u) for fd in (0.0, 0.02)
                  for u in (1, 2) for s in (4.0, 8.0)]
        res = run_points(cfg, points, "adaptive-pin")
        got = [(r.detector, r.snr_db, r.fd_norm, r.num_relays, r.errors)
               for r in res.records]
        assert got == self.PINNED
        assert all(r.bits == 4 * 6 * 8 for r in res.records)


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

    def test_one_snr_only(self):
        with pytest.raises(ValueError, match="one SNR"):
            run_convergence(small_config(snr_grid=(5.0, 30.0), pilot_frames=3))


class TestPlacement:
    def test_grid_validated(self):
        with pytest.raises(ValueError):
            run_placement_sweep(small_config(), [0.5, 1.2])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid must not be empty"):
            run_placement_sweep(small_config(), [])

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

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid must not be empty"):
            run_multirelay(small_config(), [])

    def test_repeated_relay_count_rejected(self):
        with pytest.raises(ValueError):
            run_multirelay(small_config(), [2, 2])

    @pytest.mark.parametrize("grid", [[1.7], [1, 2.5]])
    def test_fractional_relay_count_rejected(self, grid):
        with pytest.raises(ValueError, match="whole"):
            run_multirelay(small_config(), grid)

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
        point = GridPoint(200.0)
        hops = _cascade(cfg, _build_links(cfg, (rng, rng), 2), point, 1, None)
        x = np.exp(2j * np.pi * rng.uniform(size=16))
        ch = effective_channel(hops, *_cascade_powers(cfg, point))
        r_f = transmit_block(unitary_fft(x), ch, np.zeros(16))
        assert np.max(np.abs(r_f - np.fft.fft(x, norm="ortho"))) < 1e-9

    @pytest.mark.parametrize("relays,blocks,drift", [
        (1, 1, False), (2, 1, False), (3, 1, False),  # one block, 1-D input
        (3, 6, False),                                # block stack, fixed taps
        (2, 6, True),                                 # drifting tap track
    ])
    def test_matches_time_domain_chain(self, relays, blocks, drift):
        # the chain's own hop noise, carried to the destination as
        # sum_u zeta_u G_u FFT(n_r,u) + sum_u FFT(n_d,u)
        n, num_taps, cp_len = 16, 4, 5
        zeta, sigma2_relay, sigma2_dest = 0.8, 0.3, 0.2
        rng = np.random.default_rng(10 * relays + blocks)
        track = evolve_channel(complex_noise(rng, (2 * relays, num_taps), 1.0),
                               0.05 if drift else 0.0, blocks, rng,
                               np.ones(num_taps))
        x = complex_noise(rng, (blocks, n), 1.0)
        expected = time_domain_chain(x, track, zeta, sigma2_relay, sigma2_dest,
                                     cp_len, np.random.default_rng(7))
        relay, dest = replayed_hop_noise(7, blocks, relays, n, sigma2_relay,
                                         sigma2_dest)
        hops = freq_response(track if drift else track[0], n)
        noise = np.sum(zeta * hops[..., 1::2, :] * relay + dest, axis=-2)
        if blocks == 1:
            x, expected, noise = x[0], expected[0], noise[0]
        ch = effective_channel(hops, zeta, sigma2_relay, sigma2_dest)
        got = transmit_block(unitary_fft(x), ch, noise)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-10

    def test_drawn_noise_matches_the_effective_channel(self):
        # per-relay hop noise carried through fixed and drifting cascades
        # has per-bin power noise_var, block by block
        rng = np.random.default_rng(3)
        blocks, reps = 4, 4000
        for drift in (0.0, 0.05):
            track = evolve_channel(complex_noise(rng, (4, 3), 0.5), drift,
                                   blocks, rng)
            hops = freq_response(track, 16)
            relay = complex_noise(rng, (reps, blocks, 2, 16), 0.4)
            dest = complex_noise(rng, (reps, blocks, 2, 16), 0.1)
            noise = np.sum(0.9 * hops[..., 1::2, :] * relay + dest, axis=-2)
            measured = np.mean(np.abs(noise) ** 2, axis=0)
            expected = effective_channel(hops, 0.9, 0.4, 0.1).noise_var
            if drift:  # the variance moves along the track
                assert np.ptp(expected, axis=0).max() > 0
            assert np.max(np.abs(measured / expected - 1.0)) < 0.08

    def test_every_cell_shares_the_bits_and_white_noise(self, monkeypatch):
        # every (Doppler, position, relay count) cell of a trial, and a
        # separate run of any one point, sends the same symbol spectra and
        # scales the same unit white draw by the root of its noise_var
        sent = []

        def capture(x_f, ch, noise):
            sent.append((x_f, noise / np.sqrt(ch.noise_var)))
            return transmit_block(x_f, ch, noise)

        monkeypatch.setattr(harness, "transmit_block", capture)
        cfg = small_config(data_frames=2000, detectors=("mmse", "mrc"))
        points = [GridPoint(s, fd, delta, u) for fd in (0.0, 0.02)
                  for delta in (0.3, 0.5) for u in (2, 1) for s in (0.0, 12.0)]
        _run_group(cfg, points, [1], False)
        _run_group(cfg, [GridPoint(12.0, 0.02, 0.3, 1)], [1], False)
        assert len(sent) == len(points) + 1
        x_f, white = sent[0]
        for other_x, other_white in sent[1:]:
            assert np.array_equal(other_x, x_f)
            assert np.allclose(other_white, white, rtol=1e-12, atol=0)
        cov = white.T @ white.conj() / len(white)
        assert np.max(np.abs(np.diag(cov) - 1.0)) < 0.1
        assert np.max(np.abs(cov - np.diag(np.diag(cov)))) < 0.1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 63 - 1), relays=st.integers(1, 4),
           data=st.data())
    def test_fewer_relays_draw_the_first_rows(self, seed, relays, data):
        # the hop taps and drift innovations of u relays are the first 2u
        # rows of those of U >= u relays from the same trial seed
        fewer = data.draw(st.integers(1, relays))
        cfg = small_config(block_size=8, num_taps=3, sv=sv_profile(3),
                           data_frames=3, snr_grid=(10.0,))
        drawn = []

        def capture(taps, fd_norm, blocks, draws):
            drawn.append((taps[0], draws[0]))  # a group of one trial
            return evolve_channel(taps, fd_norm, blocks, draws)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "evolve_channel", capture)
            for u in (relays, fewer):
                _run_group(cfg, [GridPoint(10.0, 0.02, 0.5, u)],
                           [trial_seed(seed, "prefix", 0)], False)
        (taps, draws), (few_taps, few_draws) = drawn
        assert taps.shape == (2 * relays, 3) and draws.shape[0] >= 2 * relays
        assert np.array_equal(taps[:2 * fewer], few_taps)
        assert np.array_equal(draws[:2 * fewer], few_draws)

    def test_flat_model_keys_only_substream_zero(self, monkeypatch):
        # the flat model draws no hop quantity, so a static group keys no
        # uniforms' substream 1; the counts are those of the engine that
        # keyed it and never drew from it
        keys, substream = [], harness._substream

        def recording(seed, q):
            keys.append(q)
            return substream(seed, q)

        monkeypatch.setattr(harness, "_substream", recording)
        cfg = small_config(channel_model="flat", num_taps=1, sv=sv_profile(1),
                           detectors=("mmse", "mrc", "rls"), pilot_frames=3)
        points = [GridPoint(0.0), GridPoint(4.0, 0.0, 0.5, 2)]
        seeds = [trial_seed(cfg.master_seed, "flat", t) for t in range(3)]
        errors = _run_group(cfg, points, seeds, False)
        assert keys == [0, 0, 0]
        assert errors.sum(axis=0).tolist() == [[39, 39, 62], [5, 5, 7]]

    def test_substreams_are_keyed_on_the_trial_seed(self):
        # the trial seed is the key itself; the pinned draws are those of
        # stream version 4, whichever form the key takes
        seed = trial_seed(5, "ber", 2)
        assert seed == (5, zlib.crc32(b"ber"), 2)
        pinned = [[2292263621, 1405624441], [3575963506, 1975027880],
                  [1855949362, 1161204833]]
        for q in range(3):
            expected = np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(q,))).integers(0, 2 ** 32, 2)
            assert _substream(seed, q).integers(0, 2 ** 32, 2).tolist() \
                == expected.tolist() == pinned[q]
        assert _substream(7, 1).integers(0, 2 ** 32, 2).tolist() == [
            2926574226, 2064083997]


class TestPerRelayChainBer:
    def test_mmse_ber_matches_the_time_domain_chain(self):
        # run_points' BER against a chain that draws every hop's noise in
        # the time domain; the trials of the two runs are independent, so
        # their BERs agree within 4 trial-clustered standard errors
        cfg = small_config(num_relays=2, snr_grid=(6.0,), data_frames=6,
                           trials=300)
        point, scheme = GridPoint(6.0, 0.0, 0.5, 2), ModulationScheme.bpsk()
        bits_per_trial = cfg.data_frames * cfg.block_size
        ours = _run_group(cfg, [point], [trial_seed(
            cfg.master_seed, "chain-check", t) for t in range(cfg.trials)],
            False)[:, 0, 0] / bits_per_trial
        pooled = run_points(cfg, [point], "chain-check").records[0]
        assert pooled.bits == cfg.trials * bits_per_trial
        assert pooled.ber == pytest.approx(ours.mean(), abs=1e-15)
        chain = []
        for t in range(cfg.trials):
            rng = np.random.default_rng(trial_seed(cfg.master_seed, "oracle", t))
            drawn = _build_links(cfg, (rng, rng), 4)
            hops = _cascade(cfg, drawn, point, 1, None)
            bits = rng.integers(0, 2, size=(cfg.data_frames, cfg.block_size))
            x = modulate(bits, scheme)
            # at the midpoint both hops have unit path gain: taps as drawn
            taps = np.broadcast_to(drawn, (len(x),) + drawn.shape)
            powers = _cascade_powers(cfg, point)
            r_f = time_domain_chain(x, taps, *powers, cfg.effective_cp_len,
                                    rng)
            decided = unitary_ifft(
                equalize(mmse_weights(effective_channel(hops, *powers)), r_f))
            chain.append(np.mean(demodulate(decided, scheme) != bits))
        chain = np.array(chain)
        se = math.hypot(ours.std(ddof=1), chain.std(ddof=1)) / math.sqrt(
            cfg.trials)
        assert 0.01 < pooled.ber < 0.3
        assert abs(ours.mean() - chain.mean()) < 4 * se
