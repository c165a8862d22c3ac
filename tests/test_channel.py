"""Channel generation, quantization, drift and circulant algebra tests."""

import numpy as np
import pytest

from oracle import circulant_from_taps
from uwfde.channel import (SvParams, complex_noise, evolve_channel,
                           freq_response, generate_channel, path_gain,
                           quantize_to_taps, sample_cluster_arrivals,
                           sample_nakagami, sample_ray_arrivals, sv_profile)

# Cluster/ray timing constants quoted in nanoseconds by the channel
# measurement literature this model follows.
NS_PARAMS = SvParams(
    cluster_rate=1.0 / 14.99,
    ray_rate=1.0 / 0.476,
    cluster_decay=0.024,
    ray_decay=0.12,
    num_clusters=3,
    rays_per_cluster=5,
    nakagami_m=1.3,
    omega=1.0,
    sample_period=0.1,
)


def unitary_dft(n):
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


class TestSvParams:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            SvParams(cluster_rate=0.0, ray_rate=1.0, cluster_decay=1.0,
                     ray_decay=1.0, num_clusters=1, rays_per_cluster=1)

    def test_rejects_small_shape(self):
        with pytest.raises(ValueError):
            SvParams(cluster_rate=1.0, ray_rate=1.0, cluster_decay=1.0,
                     ray_decay=1.0, num_clusters=1, rays_per_cluster=1,
                     nakagami_m=0.3)

    @pytest.mark.parametrize("field,value", [
        ("nakagami_m", float("nan")), ("nakagami_m", float("inf")),
        ("omega", float("nan")), ("omega", float("inf")),
        ("cluster_rate", float("inf")), ("ray_rate", float("inf")),
        ("cluster_decay", float("inf")), ("ray_decay", float("inf")),
        ("sample_period", float("inf")), ("cluster_rate", float("nan")),
    ])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SvParams(**{**sv_profile(4).__dict__, field: value})

    @pytest.mark.parametrize("field", ["num_clusters", "rays_per_cluster"])
    @pytest.mark.parametrize("value", [2.5, "2", float("inf")])
    def test_counts_reject_non_whole_values(self, field, value):
        with pytest.raises(ValueError, match="whole number"):
            SvParams(**{**sv_profile(4).__dict__, field: value})

    def test_counts_take_whole_floats_as_ints(self):
        params = SvParams(**{**sv_profile(4).__dict__, "num_clusters": 2.0,
                             "rays_per_cluster": 2.0})
        assert type(params.num_clusters) is int
        assert type(params.rays_per_cluster) is int
        assert params == sv_profile(4)

    def test_profile_factory(self):
        params = sv_profile(15)
        assert params.num_clusters * params.rays_per_cluster == 15
        params = sv_profile(7)
        assert params.num_clusters * params.rays_per_cluster == 7


class TestArrivals:
    def test_single_cluster_at_origin(self):
        params = sv_profile(4)
        one = SvParams(**{**params.__dict__, "num_clusters": 1})
        times = sample_cluster_arrivals(one, np.random.default_rng(0))
        assert times.tolist() == [0.0]

    def test_single_ray_at_origin(self):
        params = sv_profile(4)
        one = SvParams(**{**params.__dict__, "rays_per_cluster": 1})
        assert sample_ray_arrivals(one, np.random.default_rng(0)).tolist() == [0.0]

    def test_ray_times_sorted_nonnegative(self):
        params = SvParams(cluster_rate=1.0, ray_rate=1.0, cluster_decay=1.0,
                          ray_decay=1.0, num_clusters=1, rays_per_cluster=3)
        times = sample_ray_arrivals(params, np.random.default_rng(3))
        assert times[0] == 0.0
        assert np.all(np.diff(times) >= 0)

    def test_cluster_gap_mean_matches_rate(self):
        # 10^6 gaps against the quoted 14.99 ns mean, within 1%
        params = SvParams(**{**NS_PARAMS.__dict__, "num_clusters": 101})
        rng = np.random.default_rng(7)
        gaps = np.concatenate([np.diff(sample_cluster_arrivals(params, rng))
                               for _ in range(10_000)])
        assert gaps.size == 1_000_000
        assert abs(gaps.mean() - 14.99) / 14.99 < 0.01

    def test_ray_gap_mean_matches_rate(self):
        params = SvParams(**{**NS_PARAMS.__dict__, "rays_per_cluster": 101})
        rng = np.random.default_rng(8)
        gaps = np.concatenate([np.diff(sample_ray_arrivals(params, rng))
                               for _ in range(10_000)])
        assert abs(gaps.mean() - 0.476) / 0.476 < 0.01


class TestNakagami:
    def test_rejects_small_shape(self):
        with pytest.raises(ValueError):
            sample_nakagami(0.4, 1.0, np.random.default_rng(0))

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            sample_nakagami(1.0, 0.0, np.random.default_rng(0))

    def test_rayleigh_moments(self):
        # m = 1 degenerates to Rayleigh: E r^2 = omega, E r^4 / (E r^2)^2 = 2
        rng = np.random.default_rng(11)
        r = sample_nakagami(1.0, 2.0, rng, size=1_000_000)
        second = np.mean(r ** 2)
        ratio = np.mean(r ** 4) / second ** 2
        assert abs(second - 2.0) / 2.0 < 0.01
        assert abs(ratio - 2.0) / 2.0 < 0.01

    def test_shape_1_3_moment_identity(self):
        # E r^4 / (E r^2)^2 = 1 + 1/m
        rng = np.random.default_rng(12)
        r = sample_nakagami(1.3, 1.0, rng, size=1_000_000)
        ratio = np.mean(r ** 4) / np.mean(r ** 2) ** 2
        expected = 1.0 + 1.0 / 1.3
        assert abs(ratio - expected) / expected < 0.01


class TestGenerateChannel:
    def test_unit_total_power(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            gains, _ = generate_channel(sv_profile(15), rng)
            assert abs(np.sum(np.abs(gains) ** 2) - 1.0) < 1e-9

    def test_single_ray_degenerate(self):
        params = SvParams(cluster_rate=1.0, ray_rate=1.0, cluster_decay=1.0,
                          ray_decay=1.0, num_clusters=1, rays_per_cluster=1)
        gains, delays = generate_channel(params, np.random.default_rng(2))
        assert delays.tolist() == [0.0]
        assert abs(abs(gains[0]) - 1.0) < 1e-12

    def test_tiny_cluster_decay_kills_later_clusters(self):
        params = SvParams(cluster_rate=1.0, ray_rate=1.0, cluster_decay=1e-6,
                          ray_decay=1.0, num_clusters=3, rays_per_cluster=1)
        rng = np.random.default_rng(5)
        power_first = power_rest = 0.0
        for _ in range(200):
            gains, _ = generate_channel(params, rng)
            power_first += np.abs(gains[0]) ** 2
            power_rest += np.sum(np.abs(gains[1:]) ** 2)
        assert power_rest < 1e-6 * power_first

    def test_mean_profile_decays_with_delay(self):
        # Ensemble tap powers under the nanosecond timing constants decay
        # monotonically with delay.
        rng = np.random.default_rng(31)
        acc = np.zeros(15)
        n = 10_000
        for _ in range(n):
            gains, delays = generate_channel(NS_PARAMS, rng)
            acc += np.abs(quantize_to_taps(gains, delays,
                                           NS_PARAMS.sample_period, 15)) ** 2
        profile = acc / n
        slack = 0.01 * profile[0]
        assert np.all(np.diff(profile) <= slack)
        assert profile[0] > profile[3]


class TestQuantize:
    def test_single_ray_single_tap(self):
        taps = quantize_to_taps(np.array([1.0 + 0j]), np.array([0.0]), 1.0, 1)
        assert taps.tolist() == [1.0 + 0j]

    def test_two_equal_rays_split_power(self):
        taps = quantize_to_taps(np.array([1.0 + 0j, 1.0 + 0j]),
                                np.array([0.0, 1.0]), 1.0, 2)
        assert np.allclose(np.abs(taps), [1 / np.sqrt(2)] * 2)

    def test_pads_to_requested_count(self):
        rng = np.random.default_rng(4)
        gains, delays = generate_channel(NS_PARAMS, rng)
        taps = quantize_to_taps(gains, delays, NS_PARAMS.sample_period, 15)
        assert len(taps) == 15
        assert abs(np.sum(np.abs(taps) ** 2) - 1.0) < 1e-9

    def test_colliding_rays_add_coherently(self):
        taps = quantize_to_taps(np.array([0.6 + 0j, 0.3j]),
                                np.array([0.0, 0.01]), 1.0, 2)
        expected = (0.6 + 0.3j) / abs(0.6 + 0.3j)
        assert abs(taps[0] - expected) < 1e-12
        assert taps[1] == 0.0

    def test_rejects_cancelled_power(self):
        with pytest.raises(ValueError):
            quantize_to_taps(np.array([0.6 + 0j, -0.6 + 0j]),
                             np.array([0.0, 0.01]), 1.0, 2)

    def test_rejects_all_rays_beyond_window(self):
        with pytest.raises(ValueError):
            quantize_to_taps(np.array([1.0 + 0j]), np.array([50.0]), 1.0, 15)


class TestEvolve:
    def test_zero_doppler_identity(self):
        taps = np.array([0.6, 0.8j])
        rng = np.random.default_rng(0)
        out = evolve_channel(taps, 0.0, 5, rng)
        assert out.shape == (5, 2)
        assert all(np.array_equal(row, taps) for row in out)
        assert rng.random() == np.random.default_rng(0).random()  # no draws

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            evolve_channel(np.array([1.0 + 0j]), 0.5, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            evolve_channel(np.array([1.0 + 0j]), 0.01, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("shape,blocks,given_power", [
        ((2, 15), 70, False), ((6, 4), 9, True), ((3,), 1, False), ((1,), 2, True),
    ])
    def test_track_matches_stepwise_recurrence(self, shape, blocks, given_power):
        # oracle: one Gauss-Markov step per block, real then imaginary draws
        fd = 0.01
        taps = complex_noise(np.random.default_rng(1), shape, 1.0)
        power = np.linspace(0.5, 2.0, shape[-1]) if given_power else None
        rng = np.random.default_rng(2)
        track = evolve_channel(taps, fd, blocks, rng, power)

        ref = np.random.default_rng(2)
        rho = np.exp(-2 * np.pi * fd)
        var = np.abs(taps) ** 2 if power is None else power
        cur = taps
        assert track.shape == (blocks,) + shape
        assert np.array_equal(track[0], taps)
        for b in range(1, blocks):
            drive = np.sqrt(var / 2.0) * (ref.standard_normal(shape)
                                          + 1j * ref.standard_normal(shape))
            cur = rho * cur + np.sqrt(1.0 - rho * rho) * drive
            assert np.array_equal(track[b], cur)
        assert rng.random() == ref.random()  # the same stream consumed

    def test_lag_one_autocorrelation(self):
        # AR(1) oracle: inter-block correlation equals exp(-2 pi fd)
        fd = 0.05
        rho = np.exp(-2 * np.pi * fd)
        rng = np.random.default_rng(42)
        n = 100_000
        power = np.array([1.0])
        q = evolve_channel(np.array([1.0 + 0j]), fd, n + 1, rng, power)[:, 0]
        est = np.mean(q[1:] * np.conj(q[:-1])).real / np.mean(np.abs(q) ** 2)
        assert abs(est - rho) / rho < 0.02

    def test_stationary_power_preserved(self):
        # 2e4 independent taps evolved 1000 steps keep unit mean power
        rng = np.random.default_rng(43)
        m = 20_000
        state = np.full(m, 1.0 + 0j)
        power = np.ones(m)
        for step in range(100, 1001, 100):  # tracks of 100 steps bound memory
            state = evolve_channel(state, 0.01, 101, rng, power)[-1]
            if step in (100, 500, 1000):
                assert abs(np.mean(np.abs(state) ** 2) - 1.0) < 0.02


class TestCirculant:
    def test_identity_from_unit_tap(self):
        assert np.allclose(circulant_from_taps(np.array([1.0]), 4), np.eye(4))

    def test_wraparound_structure(self):
        mat = circulant_from_taps(np.array([1.0, 0.5]), 4)
        assert mat[0, 3] == 0.5
        for j in range(4):
            assert np.allclose(mat[:, j], np.roll(mat[:, 0], j))

    def test_rejects_too_many_taps(self):
        with pytest.raises(ValueError):
            circulant_from_taps(np.ones(5), 4)

    def test_matches_direct_circular_convolution(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            taps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            direct = np.array([
                sum(taps[l] * x[(n - l) % 8] for l in range(3))
                for n in range(8)
            ])
            assert np.max(np.abs(circulant_from_taps(taps, 8) @ x - direct)) < 1e-12

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_dft_diagonalizes(self, n):
        rng = np.random.default_rng(n)
        taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = unitary_dft(n)
        mat = f @ circulant_from_taps(taps, n) @ f.conj().T
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) / np.max(np.abs(np.diag(mat))) < 1e-9

    def test_product_of_circulants_is_circulant(self):
        rng = np.random.default_rng(10)
        g = circulant_from_taps(rng.standard_normal(3) + 1j * rng.standard_normal(3), 8)
        h = circulant_from_taps(rng.standard_normal(4) + 1j * rng.standard_normal(4), 8)
        prod = g @ h
        rebuilt = prod[:, [0]][(np.arange(8)[:, None] - np.arange(8)[None, :]) % 8, 0]
        assert np.max(np.abs(rebuilt - prod)) < 1e-10


class TestFreqResponse:
    def test_unit_tap_flat(self):
        assert np.allclose(freq_response(np.array([1.0]), 8), np.ones(8))

    def test_two_point_by_hand(self):
        assert np.allclose(freq_response(np.array([0.6, 0.8]), 2), [1.4, -0.2])

    def test_matches_dense_diagonal(self):
        rng = np.random.default_rng(13)
        taps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = unitary_dft(8)
        dense = f @ circulant_from_taps(taps, 8) @ f.conj().T
        assert np.max(np.abs(np.diag(dense) - freq_response(taps, 8))) < 1e-10
        off = dense - np.diag(np.diag(dense))
        assert np.max(np.abs(off)) < 1e-10


class TestPathGain:
    def test_midpoint_anchor(self):
        assert path_gain(0.5, 2.0) == (1.0, 1.0)

    def test_zero_exponent(self):
        for d in (0.1, 0.3, 0.9):
            assert path_gain(d, 0.0) == (1.0, 1.0)

    def test_power_law_values(self):
        near, far = path_gain(0.25, 2.0)
        assert abs(near - 4.0) < 1e-12
        assert abs(far - 4.0 / 9.0) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            path_gain(bad, 2.0)

