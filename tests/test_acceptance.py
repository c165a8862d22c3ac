"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Budgets are desk scale
(roughly 10^5..10^6 bits per grid point); the whole module takes a few
minutes. Monte Carlo assertions use three standard errors of the binomial
proportion unless stated otherwise.
"""

import concurrent.futures
import hashlib
import math

import numpy as np
import pytest

from oracle import circulant_from_taps
from uwfde import harness
from uwfde.channel import (channel_variates, complex_noise, evolve_channel,
                           generate_channel, sample_nakagami, sv_profile,
                           SvParams)
from uwfde.cli import main as cli_main
from uwfde.detectors import EffectiveChannel, effective_channel, mmse_weights
from uwfde.harness import (GridPoint, SimConfig, run_convergence,
                           run_multirelay, run_placement_sweep, run_points,
                           train_adaptive, _build_links, _cascade,
                           _cascade_powers, transmit_block)
from uwfde.txrx import ModulationScheme, modulate, unitary_fft


def q_func(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def se_sum(*records) -> float:
    return math.sqrt(sum(r.std_error ** 2 for r in records))


def unitary_dft(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def file_hash(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def test_criterion_01_awgn_anchor():
    """Flat single-tap link with the relay noise off reduces to coherent
    detection in white noise; measured BER must match theory at four
    operating points within three Monte Carlo standard errors."""
    snrs = (0.0, 2.0, 4.0, 6.0)
    cfg = SimConfig(block_size=64, num_taps=1, sv=sv_profile(1),
                    channel_model="flat", relay_noise_factor=0.0,
                    snr_grid=snrs, detectors=("mmse",), pilot_frames=0,
                    data_frames=40, trials=400, master_seed=11)
    res = run_points(cfg, [GridPoint(s) for s in snrs], "accept-awgn")
    for snr in snrs:
        rec = res.record("mmse", snr_db=snr)
        assert rec.bits >= 1_000_000
        expected = q_func(math.sqrt(2.0 * 10.0 ** (snr / 10.0)))
        margin = 3.0 * max(rec.std_error, 1e-9)
        assert abs(rec.ber - expected) <= margin, (
            f"{snr} dB: measured {rec.ber:.5f}, theory {expected:.5f}")
    print("PASS criterion 1: AWGN anchor matches coherent-detection theory")


def test_criterion_02_oracle_equivalence():
    """Three dual-route checks on 100 random channels at block size 8."""
    rng = np.random.default_rng(2024)
    n = 8
    f = unitary_dft(n)
    for _ in range(100):
        taps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        # (a) circulant multiply against direct circular convolution
        direct = np.array([sum(taps[l] * x[(k - l) % n] for l in range(3))
                           for k in range(n)])
        assert np.max(np.abs(circulant_from_taps(taps, n) @ x - direct)) <= 1e-10

        # (b) per-bin Wiener weights against the dense matrix solution
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sigma = rng.uniform(0.05, 1.0, size=n)
        dense = np.linalg.inv(np.diag(xi) @ np.diag(xi).conj().T
                              + np.diag(sigma)) @ np.diag(xi)
        assert np.max(np.abs(np.diag(dense)
                             - mmse_weights(EffectiveChannel(xi, sigma)))) <= 1e-9

        # (c) cascade response against the dense similarity transform
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zeta = float(rng.uniform(0.5, 2.0))
        dense_cascade = zeta * circulant_from_taps(g, n) @ circulant_from_taps(taps, n)
        diag = np.diag(f @ dense_cascade @ f.conj().T)
        expected = zeta * np.fft.fft(taps, n) * np.fft.fft(g, n)
        assert np.max(np.abs(diag - expected)) <= 1e-9
    print("PASS criterion 2: circulant, Wiener and cascade oracles agree")


def test_criterion_03_detector_ordering_and_multipath():
    """Single relay detector ordering and the multipath sensitivity split.

    The exhaustive detector needs the prefix inside the block, so the
    three-way ordering runs on 4-symbol blocks over the 4-tap channel; the
    tap-count comparison runs at full block size.
    """
    # exhaustive <= Wiener <= matched filter at and above 10 dB
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    cfg = SimConfig(block_size=4, num_taps=4, sv=sv_profile(4), cp_len=3,
                    snr_grid=snrs, detectors=("ml", "mmse", "mrc"),
                    pilot_frames=0, data_frames=25, trials=900, master_seed=5)
    res = run_points(cfg, [GridPoint(s) for s in snrs], "accept-fig3a")
    for snr in snrs:
        if snr < 10.0:
            continue
        ml = res.record("ml", snr_db=snr)
        mmse = res.record("mmse", snr_db=snr)
        mrc = res.record("mrc", snr_db=snr)
        assert ml.ber <= mmse.ber + 3.0 * se_sum(ml, mmse), f"ml>mmse at {snr}"
        assert mmse.ber <= mrc.ber + 3.0 * se_sum(mmse, mrc), f"mmse>mrc at {snr}"

    # matched filter degrades with tap count; Wiener does not
    by_taps = {}
    for taps in (4, 15):
        cfg = SimConfig(block_size=64, num_taps=taps, sv=sv_profile(taps),
                        snr_grid=(20.0,), detectors=("mmse", "mrc"),
                        pilot_frames=0, data_frames=20, trials=600,
                        master_seed=3)
        by_taps[taps] = run_points(cfg, [GridPoint(20.0)],
                                   f"accept-fig3b-L{taps}")
    mrc4 = by_taps[4].record("mrc", snr_db=20.0)
    mrc15 = by_taps[15].record("mrc", snr_db=20.0)
    mmse4 = by_taps[4].record("mmse", snr_db=20.0)
    mmse15 = by_taps[15].record("mmse", snr_db=20.0)
    assert mrc15.ber > mrc4.ber + 3.0 * se_sum(mrc4, mrc15)
    assert abs(mmse15.ber - mmse4.ber) <= 3.0 * se_sum(mmse4, mmse15)
    print("PASS criterion 3: ml <= mmse <= mrc above 10 dB; "
          "mrc degrades with taps, mmse does not")


def test_criterion_04_convergence():
    """Learning curves at 5 dB with the stock step size and forgetting
    factor: the recursive filter is strictly ahead at iteration 50 and
    within 3 dB of the closed-form Wiener residual."""
    cfg = SimConfig(block_size=64, num_taps=15, snr_grid=(5.0,),
                    pilot_frames=50, mu=0.05, lambda_rls=0.995,
                    trials=1000, master_seed=8)
    res = run_convergence(cfg, experiment="accept-fig4")
    lms50 = res.mse_traces["lms"][49]
    rls50 = res.mse_traces["rls"][49]
    assert rls50 < lms50, f"rls {rls50:.4f} not below lms {lms50:.4f}"
    assert rls50 <= 10.0 ** 0.3 * res.mmse_floor, (
        f"rls {rls50:.4f} more than 3 dB above floor {res.mmse_floor:.4f}")
    print(f"PASS criterion 4: rls {rls50:.4f} < lms {lms50:.4f} at iter 50, "
          f"{10 * math.log10(rls50 / res.mmse_floor):.2f} dB above floor")


def test_criterion_05_wiener_convergence():
    """Trained weights land on the closed-form Wiener weights.

    Per bin, the trained weights of 100 independent channels are projected
    onto the Wiener weights (least-squares gain across the ensemble); the
    mean per-bin deviation of that gain from one must stay below 5% for
    both adaptive detectors. Run at 10 dB where the stock step size keeps
    every bin inside its stable, converged regime."""
    n, snr, pilots, channels = 64, 10.0, 500, 100
    cfg = SimConfig(block_size=n, num_taps=15, snr_grid=(snr,), mu=0.05,
                    lambda_rls=0.995, master_seed=0)
    scheme = ModulationScheme.bpsk()
    rng = np.random.default_rng(1234)
    cross = {"lms": np.zeros(n, dtype=complex),
             "rls": np.zeros(n, dtype=complex)}
    ref_power = np.zeros(n)
    point = GridPoint(snr)
    for _ in range(channels):
        taps = _build_links(cfg, channel_variates(cfg.sv, (rng, rng), 2), (2,))
        hops = _cascade(cfg, taps, point, 1, None)
        ch = effective_channel(hops, *_cascade_powers(cfg, point))
        w_opt = mmse_weights(ch)
        pilots_list = []
        for _ in range(pilots):
            bits = rng.integers(0, 2, size=n)
            x = modulate(bits, scheme)
            r_f = transmit_block(unitary_fft(x), ch,
                                 complex_noise(rng, n, ch.noise_var))
            pilots_list.append((r_f, unitary_fft(x)))
        r_pilots, s_pilots = (np.array(rows) for rows in zip(*pilots_list))
        trained, _ = train_adaptive(("lms", "rls"), r_pilots, s_pilots, cfg.mu,
                                    cfg.lambda_rls)
        for det in ("lms", "rls"):
            cross[det] += trained[det] * np.conj(w_opt)
        ref_power += np.abs(w_opt) ** 2
    for det in ("lms", "rls"):
        deviation = np.mean(np.abs(cross[det] / ref_power - 1.0))
        assert deviation < 0.05, f"{det} deviates {deviation:.3f}"
        print(f"PASS criterion 5 ({det}): mean per-bin Wiener deviation "
              f"{deviation * 100:.2f}% < 5%")


def test_criterion_06_doppler():
    """Tracking sweep at 20 dB: the recursive detector's BER never
    decreases as the per-block Doppler grows, and it stays at or below the
    gradient detector at every swept Doppler.

    The forgetting factor is set for tracking (0.9) per the algorithm's
    own tuning step; the stationary default would average the whole
    drifting training window and lose to the shorter-memory gradient
    filter at the fastest Doppler."""
    dopplers = (0.0, 1e-3, 5e-3, 1e-2)
    cfg = SimConfig(block_size=64, num_taps=15, snr_grid=(20.0,),
                    detectors=("lms", "rls"), pilot_frames=50, data_frames=20,
                    lambda_rls=0.9, trials=300, master_seed=13)
    points = [GridPoint(20.0, fd, 0.5, 1) for fd in dopplers]
    res = run_points(cfg, points, "accept-fig5")
    previous = None
    for fd in dopplers:
        rls = res.record("rls", fd_norm=fd)
        lms = res.record("lms", fd_norm=fd)
        assert rls.ber <= lms.ber + 3.0 * se_sum(rls, lms), f"rls>lms at {fd}"
        if previous is not None:
            assert rls.ber >= previous.ber - 3.0 * se_sum(rls, previous), (
                f"BER dropped between Dopplers at {fd}")
        previous = rls
    print("PASS criterion 6: rls BER nondecreasing in Doppler and <= lms")


def test_criterion_07_placement():
    """Relay position sweep (two-direction service average): midpoint
    optimum, mirror symmetry, and the recursive detector at or below the
    gradient detector at 20 and 30 dB."""
    deltas = [round(0.1 * k, 1) for k in range(1, 10)]
    cfg = SimConfig(block_size=64, num_taps=15, snr_grid=(20.0, 30.0),
                    detectors=("lms", "rls"), pilot_frames=50, data_frames=20,
                    trials=400, master_seed=23)
    res = run_placement_sweep(cfg, deltas, experiment="accept-fig6")
    bers = {d: res.record("rls", delta=d, snr_db=20.0).ber for d in deltas}
    argmin = min(deltas, key=lambda d: bers[d])
    assert argmin == 0.5, f"argmin at {argmin}: {bers}"
    for d in deltas:
        left = res.record("rls", delta=d, snr_db=20.0)
        right = res.record("rls", delta=round(1.0 - d, 1), snr_db=20.0)
        assert abs(left.ber - right.ber) <= 3.0 * se_sum(left, right)
    for snr in (20.0, 30.0):
        for d in deltas:
            rls = res.record("rls", delta=d, snr_db=snr)
            lms = res.record("lms", delta=d, snr_db=snr)
            assert rls.ber <= lms.ber + 3.0 * se_sum(rls, lms), (
                f"rls>lms at delta={d}, {snr} dB")
    print(f"PASS criterion 7: placement optimum at 0.5, symmetric, "
          f"rls <= lms at 20 and 30 dB")


def test_criterion_08_multirelay():
    """More forwarding relays mean fewer errors at 15 dB: point estimates
    strictly decrease, no step increases beyond noise, and the one-to-three
    relay improvement is established at three standard errors."""
    cfg = SimConfig(block_size=64, num_taps=15, snr_grid=(15.0,),
                    detectors=("rls",), pilot_frames=50, data_frames=20,
                    trials=2000, master_seed=29)
    res = run_multirelay(cfg, [1, 2, 3], experiment="accept-fig7")
    records = [res.record("rls", num_relays=u) for u in (1, 2, 3)]
    for a, b in zip(records, records[1:]):
        assert b.ber < a.ber, f"BER rose from U={a.num_relays} to {b.num_relays}"
        assert b.ber < a.ber + 3.0 * se_sum(a, b)
    assert records[2].ber < records[0].ber - 3.0 * se_sum(records[0], records[2])
    print("PASS criterion 8: rls BER strictly decreasing over 1, 2, 3 relays")


def test_criterion_09_statistical_generators():
    """Moment checks on the raw generators at one million draws, plus the
    tap-drift autocorrelation oracle."""
    rng = np.random.default_rng(99)

    r = sample_nakagami(1.3, rng, size=1_000_000)
    ratio = np.mean(r ** 4) / np.mean(r ** 2) ** 2
    assert abs(ratio - (1.0 + 1.0 / 1.3)) / (1.0 + 1.0 / 1.3) < 0.01
    assert abs(np.mean(r ** 2) - 1.0) < 0.01
    r = sample_nakagami(1.0, rng, size=1_000_000)
    assert abs(np.mean(r ** 4) / np.mean(r ** 2) ** 2 - 2.0) / 2.0 < 0.01

    ns_params = dict(cluster_decay=0.024, ray_decay=0.12, nakagami_m=1.3,
                     omega=1.0, sample_period=0.1)
    clusters = SvParams(cluster_rate=1.0 / 14.99, ray_rate=1.0 / 0.476,
                        num_clusters=101, rays_per_cluster=2, **ns_params)
    drawn = channel_variates(clusters, (rng, rng), 10_000)
    gaps = np.diff(generate_channel(clusters, drawn)[1]
                   .reshape(10_000, 101, 2)[:, :, 0])
    assert abs(gaps.mean() - 14.99) / 14.99 < 0.01
    rays = SvParams(cluster_rate=1.0 / 14.99, ray_rate=1.0 / 0.476,
                    num_clusters=2, rays_per_cluster=101, **ns_params)
    drawn = channel_variates(rays, (rng, rng), 5_000)
    gaps = np.diff(generate_channel(rays, drawn)[1].reshape(5_000, 2, 101))
    assert abs(gaps.mean() - 0.476) / 0.476 < 0.01

    fd = 0.05
    rho = math.exp(-2.0 * math.pi * fd)
    power = np.array([1.0])
    q = evolve_channel(np.array([1.0 + 0j]), fd, 100_001,
                       rng.standard_normal((100_000, 2, 1)), power)[:, 0]
    est = np.mean(q[1:] * np.conj(q[:-1])).real / np.mean(np.abs(q) ** 2)
    assert abs(est - rho) / rho < 0.02
    print("PASS criterion 9: generator moments and drift autocorrelation")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    """Any experiment rerun with the same master seed, at any worker
    count, produces byte-identical CSV output."""
    # a group a trial and three usable CPUs, whatever the machine has, so
    # that --workers 3 and --workers 2 hand the groups to a process pool
    pools, pool = [], concurrent.futures.ProcessPoolExecutor

    class CountedPool(pool):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(harness, "GROUP_BYTES", 1)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    args = ["ber", "--snr", "0,10", "--detectors", "mmse,rls", "--seed", "7",
            "--trials", "6", "--N", "16", "--L", "4", "--data-frames", "3",
            "--pilot-frames", "3"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert cli_main([*args, "--out", str(paths[0])]) == 0
    assert cli_main([*args, "--out", str(paths[1])]) == 0
    assert cli_main([*args, "--workers", "3", "--out", str(paths[2])]) == 0
    hashes = {file_hash(p) for p in paths}
    assert len(hashes) == 1

    plc = ["placement", "--snr", "10", "--delta-grid", "0.3,0.5,0.7",
           "--seed", "3", "--trials", "4", "--N", "16", "--L", "4",
           "--data-frames", "2", "--pilot-frames", "2"]
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert cli_main([*plc, "--out", str(p1)]) == 0
    assert cli_main([*plc, "--workers", "2", "--out", str(p2)]) == 0
    assert file_hash(p1) == file_hash(p2)
    assert pools == [3, 2]
    print("PASS criterion 10: byte-identical CSV across reruns and workers")


# Eleven trials leave a ragged last group at every size above one.
GROUPINGS = {1: [1] * 11, 2: [2] * 5 + [1], 3: [3, 3, 3, 2], 8: [8, 3]}


@pytest.mark.parametrize("args,points,blocks", [
    (["multirelay", "--detectors", "mmse,lms,rls", "--relays", "1,3",
      "--snr", "0,20", "--N", "16", "--L", "4", "--data-frames", "4",
      "--pilot-frames", "5"], 4, 5 + 4),
    (["ber", "--scheme", "qpsk", "--fd", "0.01", "--U", "2", "--detectors",
      "mmse,mrc,lms,rls", "--snr", "0:10:30", "--N", "16", "--L", "4",
      "--data-frames", "4", "--pilot-frames", "5"], 4, 5 + 4),
    (["converge", "--N", "16", "--L", "4", "--pilot-frames", "20",
      "--snr-db", "10"], 1, 20 + 0),  # converge holds no data blocks
], ids=["multirelay", "ber-qpsk-drift", "converge"])
def test_criterion_10_determinism_across_group_sizes(tmp_path, monkeypatch,
                                                     args, points, blocks):
    """Trials that train their adaptive filters in groups of any size give
    the CSV of trials trained one at a time, byte for byte: BER counts,
    and converge's full-precision learning curves."""
    sizes, run_group = [], harness._run_group

    def counted_group(config, grid, seeds, collect_mse):
        sizes.append(len(seeds))
        return run_group(config, grid, seeds, collect_mse)

    monkeypatch.setattr(harness, "_run_group", counted_group)
    # a received row a point and the symbol spectra, complex128, N = 16
    trial_bytes = (points + 1) * 16 * 16 * blocks
    hashes = set()
    # A cap of one byte is smaller than any trial, so every group holds one.
    for cap, grouping in [(1, GROUPINGS[1])] + [
            (size * trial_bytes, groups) for size, groups in GROUPINGS.items()]:
        monkeypatch.setattr(harness, "GROUP_BYTES", cap)
        sizes.clear()
        out = tmp_path / f"{cap}.csv"
        assert cli_main([*args, "--trials", "11", "--seed", "5",
                         "--out", str(out)]) == 0
        assert sizes == grouping
        hashes.add(file_hash(out))
    assert len(hashes) == 1
    print("PASS criterion 10: byte-identical CSV across group sizes")
