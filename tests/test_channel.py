"""Channel generation, quantization, drift and circulant algebra tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (circulant_from_taps, gauss_markov_recursion, ks_statistic,
                    sv_realization_per_hop)
from uwfde.channel import (SvParams, channel_variates, complex_noise,
                           evolve_channel, freq_response, generate_channel,
                           path_gain, quantize_to_taps, sample_nakagami,
                           sv_profile)

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


def draw(params, hops, seed=0):
    """``generate_channel`` over ``hops`` rows from two seeded generators."""
    return generate_channel(params, (np.random.default_rng(seed),
                                     np.random.default_rng(seed + 1)), hops)


def starts_of(params, delays):
    """Cluster start times: the delay of each cluster's first ray."""
    return delays[:, ::params.rays_per_cluster]


class TestArrivals:
    def test_single_cluster_at_origin(self):
        params = sv_profile(4)
        one = SvParams(**{**params.__dict__, "num_clusters": 1})
        _, delays = draw(one, 20)
        assert starts_of(one, delays).tolist() == [[0.0]] * 20

    def test_single_ray_at_origin(self):
        # one ray per cluster: every ray sits at its cluster's start, the
        # cumulative cluster gaps from the first C - 1 uniforms of its row
        params = SvParams(**{**sv_profile(15).__dict__, "rays_per_cluster": 1})
        _, delays = draw(params, 6, seed=3)
        u = np.random.default_rng(4).random((6, 2 * 3 - 1))
        gaps = -np.log1p(-u[:, :2]) / params.cluster_rate
        assert np.allclose(delays, np.concatenate(
            (np.zeros((6, 1)), np.cumsum(gaps, axis=1)), axis=1), rtol=1e-15)

    def test_uniform_layout(self):
        # per row: C - 1 cluster gaps, C(R - 1) ray gaps, then C R phases
        params = sv_profile(15)
        c, r = params.num_clusters, params.rays_per_cluster
        gains, delays = draw(params, 4, seed=5)
        u = np.random.default_rng(6).random((4, 2 * c * r - 1))
        starts = np.cumsum(-np.log1p(-u[:, :c - 1]) / params.cluster_rate, 1)
        rays = np.cumsum(-np.log1p(-u[:, c - 1:c * r - 1]).reshape(4, c, r - 1)
                         / params.ray_rate, axis=2)
        assert np.allclose(starts_of(params, delays)[:, 1:], starts, rtol=1e-15)
        assert np.allclose((delays.reshape(4, c, r) - delays[:, ::r, None])
                           [..., 1:], rays, rtol=1e-12, atol=1e-12)
        phases = np.angle(gains) % (2 * np.pi)
        assert np.allclose(phases, 2 * np.pi * u[:, c * r - 1:], atol=1e-9)

    def test_ray_times_sorted_nonnegative(self):
        params = SvParams(cluster_rate=1.0, ray_rate=1.0, cluster_decay=1.0,
                          ray_decay=1.0, num_clusters=1, rays_per_cluster=3)
        _, delays = draw(params, 200, seed=3)
        assert np.all(delays[:, 0] == 0.0)
        assert np.all(np.diff(delays, axis=1) >= 0)

    def test_cluster_gap_mean_matches_rate(self):
        # 10^6 gaps against the quoted 14.99 ns mean, within 1%
        params = SvParams(**{**NS_PARAMS.__dict__, "num_clusters": 101,
                             "rays_per_cluster": 1})
        _, delays = draw(params, 10_000, seed=7)
        gaps = np.diff(starts_of(params, delays), axis=1)
        assert gaps.size == 1_000_000
        assert abs(gaps.mean() - 14.99) / 14.99 < 0.01

    def test_ray_gap_mean_matches_rate(self):
        params = SvParams(**{**NS_PARAMS.__dict__, "num_clusters": 1,
                             "rays_per_cluster": 101})
        _, delays = draw(params, 10_000, seed=8)
        gaps = np.diff(delays, axis=1)
        assert abs(gaps.mean() - 0.476) / 0.476 < 0.01


class TestNakagami:
    def test_rejects_small_shape(self):
        with pytest.raises(ValueError):
            sample_nakagami(0.4, np.random.default_rng(0))

    @staticmethod
    def first_share(m, seed):
        # two rays of one mean power: the first's share of the row's power
        # is Gamma(m) / (Gamma(m) + Gamma(m)), a Beta(m, m) variable
        params = SvParams(cluster_rate=1.0, ray_rate=1.0, cluster_decay=1.0,
                          ray_decay=1e300, num_clusters=1, rays_per_cluster=2,
                          nakagami_m=m)
        gains, _ = draw(params, 400_000, seed=seed)
        return np.abs(gains[:, 0]) ** 2

    def test_rayleigh_moments(self):
        # m = 1 degenerates to Rayleigh: the share is uniform on [0, 1]
        share = self.first_share(1.0, 11)
        assert abs(share.mean() - 0.5) < 0.005
        assert abs(share.var() - 1.0 / 12.0) / (1.0 / 12.0) < 0.01

    def test_shape_1_3_moment_identity(self):
        # Beta(m, m) has variance 1 / (4 (2m + 1))
        share = self.first_share(1.3, 12)
        expected = 1.0 / (4.0 * (2.0 * 1.3 + 1.0))
        assert abs(share.mean() - 0.5) < 0.005
        assert abs(share.var() - expected) / expected < 0.01


class TestGenerateChannel:
    def test_unit_total_power(self):
        gains, delays = draw(sv_profile(15), 50, seed=21)
        assert gains.shape == delays.shape == (50, 15)
        assert np.max(np.abs(np.sum(np.abs(gains) ** 2, axis=1) - 1.0)) < 1e-9

    def test_single_ray_degenerate(self):
        params = SvParams(cluster_rate=1.0, ray_rate=1.0, cluster_decay=1.0,
                          ray_decay=1.0, num_clusters=1, rays_per_cluster=1)
        gains, delays = draw(params, 3, seed=2)
        assert delays.tolist() == [[0.0]] * 3
        assert np.max(np.abs(np.abs(gains) - 1.0)) < 1e-12

    def test_rows_do_not_depend_on_the_hop_count(self):
        params = sv_profile(15)
        many, few = draw(params, 7, seed=40), draw(params, 3, seed=40)
        for a, b in zip(many, few):
            assert np.array_equal(a[:3], b)

    @pytest.mark.parametrize("params", [sv_profile(15), sv_profile(4),
                                        sv_profile(1)])
    def test_given_draws_match_the_generators(self, params):
        # the draws passed as arrays give the generators' realizations, and
        # a stack of draws, as a group of trials holds them, stacks them
        rngs = [(np.random.default_rng(s), np.random.default_rng(s + 1))
                for s in (60, 62, 64)]
        alone = [draw(params, 5, seed=s) for s in (60, 62, 64)]
        variates = [channel_variates(params, pair, 5) for pair in rngs]
        for (gains, delays), drawn in zip(alone, variates):
            got = generate_channel(params, drawn)
            assert np.array_equal(got[0], gains)
            assert np.array_equal(got[1], delays)
        stacked = generate_channel(params, [np.stack(v) for v in zip(*variates)])
        for got, parts in zip(stacked, zip(*alone)):
            assert np.array_equal(got, np.stack(parts))

    def test_tiny_cluster_decay_kills_later_clusters(self):
        params = SvParams(cluster_rate=1.0, ray_rate=1.0, cluster_decay=1e-6,
                          ray_decay=1.0, num_clusters=3, rays_per_cluster=1)
        gains, _ = draw(params, 200, seed=5)
        power_first = np.sum(np.abs(gains[:, 0]) ** 2)
        power_rest = np.sum(np.abs(gains[:, 1:]) ** 2)
        assert power_rest < 1e-6 * power_first

    def test_mean_profile_decays_with_delay(self):
        # Ensemble tap powers under the nanosecond timing constants decay
        # monotonically with delay.
        gains, delays = draw(NS_PARAMS, 10_000, seed=31)
        taps = quantize_to_taps(gains, delays, NS_PARAMS.sample_period, 15)
        profile = np.mean(np.abs(taps) ** 2, axis=0)
        slack = 0.01 * profile[0]
        assert np.all(np.diff(profile) <= slack)
        assert profile[0] > profile[3]

    @pytest.mark.parametrize("params,num_taps", [
        (sv_profile(15), 15), (sv_profile(4), 4), (NS_PARAMS, 15)])
    def test_matches_the_per_hop_oracle(self, params, num_taps):
        # 4,000 array-drawn hops against 4,000 hops of the old per-cluster,
        # per-hop draw, all quantized: each tap's mean power agrees within
        # five standard errors of the difference, and the two-sample KS
        # statistic of |h_0|^2 stays below its 0.1% critical value
        hops = 4000
        gains, delays = draw(params, hops, seed=50)
        ours = quantize_to_taps(gains, delays, params.sample_period, num_taps)
        rng = np.random.default_rng(52)
        theirs = np.array([quantize_to_taps(
            *sv_realization_per_hop(params, rng), params.sample_period,
            num_taps) for _ in range(hops)])
        a, b = np.abs(ours) ** 2, np.abs(theirs) ** 2
        se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / hops)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * se + 1e-12)
        assert ks_statistic(a[:, 0], b[:, 0]) < 1.95 * np.sqrt(2.0 / hops)


class TestQuantize:
    def test_single_ray_single_tap(self):
        taps = quantize_to_taps(np.array([1.0 + 0j]), np.array([0.0]), 1.0, 1)
        assert taps.tolist() == [1.0 + 0j]

    def test_two_equal_rays_split_power(self):
        taps = quantize_to_taps(np.array([1.0 + 0j, 1.0 + 0j]),
                                np.array([0.0, 1.0]), 1.0, 2)
        assert np.allclose(np.abs(taps), [1 / np.sqrt(2)] * 2)

    def test_pads_to_requested_count(self):
        gains, delays = draw(NS_PARAMS, 1, seed=4)
        taps = quantize_to_taps(gains, delays, NS_PARAMS.sample_period, 15)
        assert taps.shape == (1, 15)
        assert abs(np.sum(np.abs(taps) ** 2) - 1.0) < 1e-9

    def test_stack_quantizes_each_row(self):
        gains, delays = draw(sv_profile(15), 12, seed=14)
        gains, delays = gains.reshape(3, 4, 15), delays.reshape(3, 4, 15)
        stack = quantize_to_taps(gains, delays, 1.0, 15)
        assert stack.shape == (3, 4, 15)
        for i in np.ndindex(3, 4):
            assert np.allclose(stack[i], quantize_to_taps(gains[i], delays[i],
                                                          1.0, 15), rtol=1e-14)

    def test_rejects_a_row_beyond_the_window(self):
        with pytest.raises(ValueError):
            quantize_to_taps(np.ones((2, 1), dtype=complex),
                             np.array([[0.0], [50.0]]), 1.0, 15)

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
        # oracle: one Gauss-Markov step per block, drawn tap vector by tap
        # vector, each vector's steps in turn, real then imaginary parts;
        # the closed form sums the same steps in another order, so the
        # track agrees to rounding and row 0 is the taps exactly
        fd = 0.01
        taps = complex_noise(np.random.default_rng(1), shape, 1.0)
        power = np.linspace(0.5, 2.0, shape[-1]) if given_power else None
        rng = np.random.default_rng(2)
        track = evolve_channel(taps, fd, blocks, rng, power)

        ref = np.random.default_rng(2)
        drive = np.empty(shape[:-1] + (blocks - 1, shape[-1]), dtype=complex)
        for vector in np.ndindex(shape[:-1]):
            for b in range(blocks - 1):
                drive[vector + (b,)] = (ref.standard_normal(shape[-1])
                                        + 1j * ref.standard_normal(shape[-1]))
        rho = np.exp(-2 * np.pi * fd)
        var = np.abs(taps) ** 2 if power is None else power
        step = np.sqrt((1.0 - rho * rho) * var / 2.0)[..., None, :] * drive
        assert track.shape == (blocks,) + shape
        assert np.array_equal(track[0], taps)
        np.testing.assert_allclose(track, gauss_markov_recursion(taps, rho, step),
                                   rtol=1e-12)
        assert rng.random() == ref.random()  # the same stream consumed

    @settings(max_examples=100, deadline=None)
    @given(blocks=st.integers(1, 300),
           fd=st.floats(0.0, 0.5, exclude_max=True),
           lead=st.lists(st.integers(1, 3), max_size=2),
           num_taps=st.integers(1, 5),
           magnitude=st.one_of(st.just(0.0), st.floats(1e-50, 1e50)),
           given_power=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(blocks=300, fd=0.4999, lead=[2], num_taps=3, magnitude=1e50,
             given_power=False, seed=0)
    def test_closed_form_matches_recursion(self, blocks, fd, lead, num_taps,
                                           magnitude, given_power, seed):
        # across tile edges (track rows 65, 129 and 193 start tiles), up to
        # the largest per-tile scale rho**-64 at fd near 0.5, and taps up
        # to 1e50: the track agrees with the recursion to rounding of each
        # tap's largest value, and overflows nowhere
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (num_taps,)
        taps = complex_noise(rng, shape, magnitude ** 2)
        power = (rng.uniform(0.5, 2.0, num_taps) * magnitude ** 2
                 if given_power else None)
        track = evolve_channel(taps, fd, blocks, np.random.default_rng(seed),
                               power)

        rho = np.exp(-2 * np.pi * fd)
        var = np.abs(taps) ** 2 if power is None else power
        draws = np.random.default_rng(seed).standard_normal(
            shape[:-1] + (blocks - 1, 2, num_taps))
        step = (np.sqrt((1.0 - rho * rho) * var / 2.0)[..., None, :]
                * (draws[..., 0, :] + 1j * draws[..., 1, :]))
        ref = gauss_markov_recursion(taps, rho, step)
        assert track.shape == (blocks,) + shape
        assert np.array_equal(track[0], taps)
        assert np.all(np.abs(track - ref) <= 1e-12 * np.max(np.abs(ref), axis=0))

    def test_given_innovations_match_the_generator(self):
        # the draws passed as an array drive the same track; a stack's first
        # rows drift by the first rows of the innovations alone
        taps = complex_noise(np.random.default_rng(1), (6, 4), 1.0)
        track = evolve_channel(taps, 0.02, 9, np.random.default_rng(3))
        draws = np.random.default_rng(3).standard_normal((6, 8, 2, 4))
        assert np.array_equal(evolve_channel(taps, 0.02, 9, draws), track)
        assert np.array_equal(evolve_channel(taps[:2], 0.02, 9, draws[:2]),
                              track[:, :2])

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

