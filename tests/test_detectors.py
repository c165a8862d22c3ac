"""Detector bank tests: closed-form weights, maximum-likelihood search,
adaptive filters, and their independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import circulant_from_taps, rls_recursion
from uwfde import detectors
from uwfde.channel import freq_response
from uwfde.detectors import (EffectiveChannel, MlDetector, RlsState,
                             _sign_table, effective_channel, equalize,
                             lms_step, mmse_error_floor, mmse_weights,
                             mrc_weights, rls_step)
from uwfde.harness import train_adaptive
from uwfde.txrx import (ModulationScheme, demodulate, modulate, unitary_fft,
                        unitary_ifft)


def unitary_dft(n):
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


class TestEffectiveChannel:
    def test_flat_single_link(self):
        hops = freq_response(np.ones((2, 1), dtype=complex), 8)
        ch = effective_channel(hops, 1.0, 0.5, 0.5)
        assert np.allclose(ch.response, 1.0)
        assert np.allclose(ch.noise_var, 1.0)

    def test_two_flat_links_superpose(self):
        hops = freq_response(np.ones((4, 1), dtype=complex), 8)
        ch = effective_channel(hops, 1.0, 0.5, 0.5)
        assert np.allclose(ch.response, 2.0)
        assert np.allclose(ch.noise_var, 2.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        n = 8
        zeta, sigma2_relay, sigma2_dest = 0.8, 0.1, 0.3
        taps = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        taps[2:, 2] = 0.0  # the second relay's hops are one tap shorter
        ch = effective_channel(freq_response(taps, n), zeta, sigma2_relay,
                               sigma2_dest)
        f = unitary_dft(n)
        dense_sum = np.zeros((n, n), dtype=complex)
        noise_sum = np.zeros((n, n), dtype=complex)
        for u in range(2):
            h = circulant_from_taps(taps[2 * u], n)
            g = circulant_from_taps(taps[2 * u + 1], n)
            dense_sum += zeta * g @ h
            noise_sum += (zeta ** 2 * g @ g.conj().T * sigma2_relay
                          + sigma2_dest * np.eye(n))
        xi_dense = f @ dense_sum @ f.conj().T
        sigma_dense = f @ noise_sum @ f.conj().T
        assert np.max(np.abs(np.diag(xi_dense) - ch.response)) < 1e-9
        assert np.max(np.abs(np.diag(sigma_dense).real - ch.noise_var)) < 1e-9
        assert np.max(np.abs(xi_dense - np.diag(np.diag(xi_dense)))) < 1e-9
        assert np.max(np.abs(sigma_dense - np.diag(np.diag(sigma_dense)))) < 1e-9

    def test_gain_squared_as_a_product(self):
        # libm pow rounds the square of this gain differently from a
        # product; the noise must take the product, as an array square does
        zeta = np.float64(0.5355530427982086)
        ch = effective_channel(np.ones((2, 4), dtype=complex), zeta, 1.0, 0.0)
        assert np.array_equal(ch.noise_var, np.full(4, np.square(zeta)))


class TestMrcWeights:
    def test_flat_channel(self):
        ch = EffectiveChannel(np.ones(4, dtype=complex), np.ones(4))
        assert np.allclose(mrc_weights(ch), 1.0)

    def test_phase_alignment(self):
        xi = np.array([2.0 * np.exp(1j * np.pi / 4)])
        ch = EffectiveChannel(xi, np.array([0.3]))
        w = mrc_weights(ch)
        aligned = np.conj(w) * xi
        assert aligned[0].imag == pytest.approx(0.0, abs=1e-12)
        assert aligned[0].real > 0

    def test_matches_mmse_decisions_without_multipath(self):
        # one-tap channel: matched filter and Wiener weights differ only by
        # a positive per-bin constant, so BPSK decisions coincide
        rng = np.random.default_rng(3)
        scheme = ModulationScheme.bpsk()
        c = 0.7 - 0.4j
        ch = EffectiveChannel(np.full(8, c), np.full(8, 0.25))
        agree = 0
        for _ in range(10_000):
            x = 1.0 - 2.0 * rng.integers(0, 2, size=8).astype(float)
            r_f = c * np.fft.fft(x, norm="ortho")
            r_f += np.sqrt(0.125) * (rng.standard_normal(8)
                                     + 1j * rng.standard_normal(8))
            a = demodulate(unitary_ifft(equalize(mrc_weights(ch), r_f)),
                           scheme)
            b = demodulate(unitary_ifft(equalize(mmse_weights(ch), r_f)),
                           scheme)
            agree += int(np.array_equal(a, b))
        assert agree == 10_000


class TestMmseWeights:
    def test_noiseless_zero_forcing(self):
        rng = np.random.default_rng(4)
        xi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ch = EffectiveChannel(xi, np.zeros(8))
        w = mmse_weights(ch)
        assert np.max(np.abs(np.conj(w) * xi - 1.0)) < 1e-12

    def test_half_weight_point(self):
        ch = EffectiveChannel(np.ones(1, dtype=complex), np.ones(1))
        assert mmse_weights(ch)[0] == pytest.approx(0.5)

    def test_dead_bin_gets_zero(self):
        ch = EffectiveChannel(np.zeros(2, dtype=complex), np.zeros(2))
        assert np.all(mmse_weights(ch) == 0.0)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 8
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sigma = rng.uniform(0.05, 1.0, size=n)
            ch = EffectiveChannel(xi, sigma)
            big_xi = np.diag(xi)
            big_sigma = np.diag(sigma)
            dense = np.linalg.inv(big_xi @ big_xi.conj().T + big_sigma) @ big_xi
            assert np.max(np.abs(np.diag(dense) - mmse_weights(ch))) < 1e-9

    def test_error_floor_formula(self):
        ch = EffectiveChannel(np.array([1.0 + 0j, 2.0 + 0j]),
                              np.array([1.0, 1.0]))
        assert mmse_error_floor(ch) == pytest.approx((0.5 + 0.2) / 2)

    def test_error_floor_along_the_last_axis(self):
        # one call for a stack of channels gives each row's floor to the bit
        rng = np.random.default_rng(14)
        g = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        v = rng.uniform(0.01, 1.0, size=(5, 16))
        got = mmse_error_floor(EffectiveChannel(g, v))
        assert np.array_equal(got, [mmse_error_floor(EffectiveChannel(*row))
                                    for row in zip(g, v)])


def direct_costs(r_f, response, noise_var, scheme):
    """Every constellation block, numbered as the direct form numbers it,
    and its cost ``|r - g S|^2 @ v`` in the direct form, with ``v`` the
    inverse noise variance (noiseless bins take the smallest positive
    variance; all-noiseless weighs every bin by one)."""
    n = len(r_f)
    digits = (np.arange(scheme.order ** n)[:, None]
              // scheme.order ** np.arange(n - 1, -1, -1)) % scheme.order
    blocks = scheme.points[digits]
    spectra = np.fft.fft(blocks, axis=1, norm="ortho")
    positive = noise_var > 0
    if positive.any():
        inv = 1.0 / np.where(positive, noise_var, noise_var[positive].min())
    else:
        inv = np.ones(n)
    return blocks, np.abs(r_f - spectra * response) ** 2 @ inv


def direct_ml(r_f, response, noise_var, scheme):
    """Oracle search in the direct form: the candidate block minimising
    ``direct_costs`` over every constellation block."""
    blocks, costs = direct_costs(r_f, response, noise_var, scheme)
    return blocks[np.argmin(costs)]


def ml_case(rng, scheme, n, rows, states=1):
    """Random channel states ``(states, n)``, noise variances and received
    spectra of ``rows`` noisy blocks, which split evenly over the states in
    order (``states`` divides ``rows``)."""
    shape = (states, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = rng.uniform(0.05, 0.5, size=shape)
    x = scheme.points[rng.integers(0, scheme.order, size=(rows, n))]
    r_f = per_row(g, rows) * np.fft.fft(x, axis=1, norm="ortho") + 0.6 * (
        rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    return g, v, r_f


def per_row(a, rows):
    """The state of each of ``rows`` received rows, from states ``a``
    ``(..., n)`` (leading axes flattened) that split evenly over the rows
    in order."""
    a = a.reshape(-1, a.shape[-1])
    return np.repeat(a, rows // len(a), axis=0)


class TestMlExpandedSearch:
    """The expanded-form search decides exactly the bits of the direct
    form's block."""

    @staticmethod
    def check(r_f, g, v, scheme):
        n = r_f.shape[-1]
        got = MlDetector(EffectiveChannel(g, v), scheme, n).detect(r_f)
        want = np.array([direct_ml(r, h, w, scheme) for r, h, w in zip(
            r_f, per_row(g, len(r_f)), per_row(v, len(r_f)))])
        assert np.array_equal(got, demodulate(want, scheme))

    @pytest.mark.parametrize("scheme,n", [(ModulationScheme.bpsk(), 8),
                                          (ModulationScheme.bpsk(), 16),
                                          (ModulationScheme.qpsk(), 8)])
    def test_random_channels(self, scheme, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            g, v, r_f = ml_case(rng, scheme, n, rows=4)
            self.check(r_f, g, v, scheme)

    def test_noiseless_bins(self):
        rng = np.random.default_rng(41)
        scheme = ModulationScheme.qpsk()
        g, v, r_f = ml_case(rng, scheme, 6, rows=6)
        v[:, [1, 4]] = 0.0
        self.check(r_f, g, v, scheme)
        self.check(r_f, g, np.zeros_like(v), scheme)

    def test_single_block(self):
        rng = np.random.default_rng(42)
        scheme = ModulationScheme.bpsk()
        g, v, r_f = ml_case(rng, scheme, 10, rows=1)
        got = MlDetector(EffectiveChannel(g, v), scheme, 10).detect(r_f)
        assert got.shape == (1, 10)
        assert np.array_equal(got[0], demodulate(
            direct_ml(r_f[0], g[0], v[0], scheme), scheme))

    def test_stack_longer_than_one_slice(self):
        rng = np.random.default_rng(43)
        scheme = ModulationScheme.bpsk()
        g, v, r_f = ml_case(rng, scheme, 8, rows=69)
        self.check(r_f, g, v, scheme)

    @pytest.mark.parametrize("scheme", [ModulationScheme.bpsk(),
                                        ModulationScheme.qpsk()])
    def test_drifting_channel(self, scheme):
        rng = np.random.default_rng(44)
        g, v, r_f = ml_case(rng, scheme, 6, rows=35, states=35)
        v[2, [0, 3]] = 0.0
        v[5] = 0.0
        self.check(r_f, g, v, scheme)

    @pytest.mark.parametrize("scheme,states", [
        (ModulationScheme.bpsk(), 2), (ModulationScheme.bpsk(), 4),
        (ModulationScheme.qpsk(), 3), (ModulationScheme.qpsk(), 6)])
    def test_states_of_several_rows(self, scheme, states):
        # 12 rows over 2 to 6 states: each state's rows search under its
        # own R and margin
        rng = np.random.default_rng(48)
        g, v, r_f = ml_case(rng, scheme, 6, rows=12, states=states)
        v[1, [2, 5]] = 0.0
        self.check(r_f, g, v, scheme)

    def test_drifting_channel_needs_a_block_per_state(self):
        # the rows split evenly over the states: 8 over 4, two a state, are
        # accepted, and 1 or 3 do not reshape
        rng = np.random.default_rng(45)
        scheme = ModulationScheme.bpsk()
        g, v, r_f = ml_case(rng, scheme, 6, rows=8, states=4)
        ml = MlDetector(EffectiveChannel(g, v), scheme, 6)
        TestMlExpandedSearch.check(r_f, g, v, scheme)
        for wrong in (r_f[:1], r_f[:3]):
            with pytest.raises(ValueError):
                ml.detect(wrong)


class TestMlAntipodalPairs:
    """The search scores each antipodal pair of top halves (t, -t) by one
    column and still decides as the direct form over every candidate; a
    zero cross term keeps the lower number ``t``, and costs equal to
    rounding go to the lowest number."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["bpsk", "qpsk"]), n=st.integers(1, 8),
           rows=st.integers(1, 66), states=st.integers(1, 66),
           seed=st.integers(0, 2 ** 32 - 1),
           dead=st.lists(st.booleans(), min_size=8, max_size=8))
    def test_matches_direct_form(self, name, n, rows, states, seed, dead):
        scheme = ModulationScheme.from_name(name)
        n = min(n, 6) if name == "qpsk" else n  # keeps the oracle quick
        # a divisor of the rows: one state, one a row or several rows a state
        states = math.gcd(states, rows)
        g, v, r_f = ml_case(np.random.default_rng(seed), scheme, n, rows,
                            states)
        v[..., np.array(dead[:n])] = 0.0
        TestMlExpandedSearch.check(r_f, g, v, scheme)

    @pytest.mark.parametrize("name,n", [("bpsk", 8), ("qpsk", 4)])
    def test_every_linear_term_zero_decides_candidate_zero(self, name, n):
        # A dead channel scores every candidate 0; a received block of
        # zeros under a channel dead in bin 0 gives the constant blocks
        # energy 0. Either way every linear term is 0, and the direct
        # form's first index is candidate 0, all bits clear, not its
        # negation.
        scheme = ModulationScheme.from_name(name)
        rng = np.random.default_rng(46)
        g, v, r_f = ml_case(rng, scheme, n, rows=3)
        zero_in_bin_0 = g.copy()
        zero_in_bin_0[:, 0] = 0.0
        for channel, received in ((np.zeros_like(g), r_f),
                                  (zero_in_bin_0, np.zeros_like(r_f))):
            got = MlDetector(EffectiveChannel(channel, v), scheme,
                             n).detect(received)
            assert np.array_equal(
                got, np.zeros((3, n * scheme.bits_per_symbol), dtype=bool))
            TestMlExpandedSearch.check(received, channel, v, scheme)

    @pytest.mark.parametrize("name,n", [("bpsk", 8), ("qpsk", 4),
                                        ("bpsk", 1), ("qpsk", 1)])
    def test_sign_patterns_number_candidates_as_digits(self, name, n):
        # the search numbers a block by the signs of its real dimensions,
        # Re s_0 (then Im s_0) most significant: the binary digits of its
        # number are the bits that modulate sends as it and demodulate
        # decides from it, and negating a block complements its number
        scheme = ModulationScheme.from_name(name)
        dims = n * scheme.bits_per_symbol
        table = _sign_table(dims, abs(scheme.points[0].real))
        assert not table.flags.writeable
        signs = table.T
        blocks = (signs[:, 0::2] + 1j * signs[:, 1::2] if name == "qpsk"
                  else signs + 0j)
        bits = (np.arange(2 ** dims)[:, None]
                >> np.arange(dims - 1, -1, -1)) & 1
        assert np.array_equal(blocks, modulate(bits, scheme))
        assert np.array_equal(demodulate(blocks, scheme), bits == 1)
        assert np.array_equal(blocks[::-1], -blocks)


class TestMlPrunedSearch:
    """The pruned search decides as the direct form over every candidate at
    any noise scale: from 30 dB below the signal, where the MMSE radius
    leaves few partial blocks, to 60 dB above it, where it prunes least;
    with live bins, noiseless ones, faded ones (no signal) and dead ones
    (neither). Where costs are equal to rounding, as a faded bin makes
    them, the lowest number of those wins."""

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(["bpsk", "qpsk"]), n=st.integers(1, 8),
           rows=st.integers(1, 6), states=st.integers(1, 6),
           noise_db=st.floats(-30, 60), seed=st.integers(0, 2 ** 32 - 1),
           bins=st.lists(st.sampled_from(["live", "noiseless", "faded",
                                          "dead"]), min_size=8, max_size=8))
    @example(name="bpsk", n=8, rows=6, states=1, noise_db=60.0, seed=1,
             bins=["live"] * 8)
    @example(name="qpsk", n=4, rows=6, states=6, noise_db=60.0, seed=2,
             bins=["faded", "live", "noiseless", "live"] * 2)
    @example(name="bpsk", n=8, rows=6, states=6, noise_db=-30.0, seed=3,
             bins=["live"] * 8)
    @example(name="qpsk", n=4, rows=6, states=1, noise_db=-30.0,
             seed=4, bins=["dead", "live", "live", "faded"] * 2)
    @example(name="qpsk", n=3, rows=2, states=1, noise_db=0.0, seed=5,
             bins=["dead"] * 8)
    @example(name="bpsk", n=8, rows=6, states=2, noise_db=60.0, seed=6,
             bins=["live", "faded"] * 4)
    @example(name="qpsk", n=4, rows=6, states=3, noise_db=-30.0, seed=7,
             bins=["live", "noiseless"] * 4)
    def test_matches_direct_form_at_any_noise_scale(self, name, n, rows,
                                                    states, noise_db, seed,
                                                    bins):
        scheme = ModulationScheme.from_name(name)
        n = min(n, 4) if name == "qpsk" else n  # keeps the oracle quick
        # a divisor of the rows: one state, one a row or several rows a state
        states = math.gcd(states, rows)
        rng = np.random.default_rng(seed)
        shape = (states, n)
        kind = np.array(bins[:n])
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g[..., np.isin(kind, ["faded", "dead"])] = 0.0
        v = rng.uniform(0.5, 1.5, size=shape) * 10 ** (noise_db / 10)
        v[..., np.isin(kind, ["noiseless", "dead"])] = 0.0
        x = scheme.points[rng.integers(0, scheme.order, size=(rows, n))]
        noise = (rng.standard_normal((rows, n))
                 + 1j * rng.standard_normal((rows, n)))
        r_f = (per_row(g, rows) * np.fft.fft(x, axis=1, norm="ortho")
               + np.sqrt(per_row(v, rows) / 2) * noise)
        got = MlDetector(EffectiveChannel(g, v), scheme, n).detect(r_f)
        for k, (h, w) in enumerate(zip(per_row(g, rows), per_row(v, rows))):
            blocks, costs = direct_costs(r_f[k], h, w, scheme)
            tied = np.flatnonzero(costs <= costs.min() + 1e-9 * costs.max())
            assert np.array_equal(got[k], demodulate(blocks[tied[0]], scheme))

    @pytest.mark.parametrize("score_bytes", [8, 200, 2 ** 22])
    def test_survivors_scored_in_runs(self, monkeypatch, score_bytes):
        # the search scores each state's survivors up to ML_SCORE_BYTES of
        # pair costs a product: here 1, 3 or all of a state's survivors a
        # product (8 pair costs each), which decide alike, for 40 rows of
        # one state or of four
        monkeypatch.setattr(detectors, "ML_SCORE_BYTES", score_bytes)
        rng = np.random.default_rng(47)
        scheme = ModulationScheme.bpsk()
        for states in (1, 4):
            g, v, r_f = ml_case(rng, scheme, 8, rows=40, states=states)
            TestMlExpandedSearch.check(r_f, g, v, scheme)


class TestMlDetect:
    def test_noiseless_exhaustive_recovery(self):
        rng = np.random.default_rng(6)
        scheme = ModulationScheme.bpsk()
        n = 4
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ch = EffectiveChannel(xi, np.zeros(n))
        for value in range(16):
            bits = np.array([(value >> k) & 1 for k in range(n)])
            x = modulate(bits, scheme)
            r_f = xi * np.fft.fft(x, norm="ortho")
            assert np.array_equal(
                MlDetector(ch, scheme, n).detect(r_f[None]), bits[None] == 1)

    def test_agrees_with_mmse_at_high_snr_flat(self):
        rng = np.random.default_rng(7)
        scheme = ModulationScheme.bpsk()
        n = 4
        ch = EffectiveChannel(np.ones(n, dtype=complex), np.full(n, 1e-4))
        ml = MlDetector(ch, scheme, n)
        for _ in range(1000):
            x = 1.0 - 2.0 * rng.integers(0, 2, size=n).astype(float)
            r_f = np.fft.fft(x, norm="ortho") + 0.005 * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n))
            a = ml.detect(r_f[None])[0]
            b = demodulate(unitary_ifft(equalize(mmse_weights(ch), r_f)),
                           scheme)
            assert np.array_equal(a, b)

    def test_noise_scale_invariant_argmin(self):
        rng = np.random.default_rng(8)
        scheme = ModulationScheme.qpsk()
        n = 4
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sigma = rng.uniform(0.1, 1.0, size=n)
        r_f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out1 = MlDetector(EffectiveChannel(xi, sigma), scheme,
                          n).detect(r_f[None])
        out2 = MlDetector(EffectiveChannel(xi, 7.3 * sigma), scheme,
                          n).detect(r_f[None])
        assert np.array_equal(out1, out2)


class TestLms:
    def test_zero_error_fixed_point(self):
        w = np.array([0.5 + 0.2j])
        r = np.array([2.0 + 0j])
        s = np.conj(w) * r
        w2, err = lms_step(w, r, s, 0.1)
        assert np.allclose(err, 0.0)
        assert np.array_equal(w2, w)

    def test_scalar_recursion_oracle(self):
        # constant (r, s): error decays geometrically at 1 - mu |r|^2 and
        # the weight tends to the interpolating solution
        r = np.array([1.3 * np.exp(0.7j)])
        s = np.array([0.8 * np.exp(-0.3j)])
        mu = 0.2
        factor = 1.0 - mu * np.abs(r[0]) ** 2
        w = np.zeros(1, dtype=complex)
        errors = []
        for _ in range(60):
            w, err = lms_step(w, r, s, mu)
            errors.append(err[0])
        for i in range(1, 60):
            assert abs(errors[i] - factor * errors[i - 1]) < 1e-12
        assert abs(np.conj(w[0]) * r[0] - s[0]) < 1e-4

    def test_divergence_above_stability_bound(self):
        r = np.array([2.0 + 0j])
        s = np.array([1.0 + 0j])
        mu = 0.6  # mu |r|^2 = 2.4 > 2
        w = np.zeros(1, dtype=complex)
        norms = []
        for _ in range(40):
            w, _ = lms_step(w, r, s, mu)
            norms.append(abs(w[0]))
        assert norms[-1] > 10 * norms[3]


class TestRls:
    def test_zero_error_fixed_point(self):
        state = RlsState.initial(2)
        state = RlsState(np.array([0.3 + 0j, 1.0 + 0j]), state.inv_corr,
                         state.lambda_rls)
        r = np.array([1.0 + 0j, 2.0 + 0j])
        s = np.conj(state.w) * r
        out, err = rls_step(state, r[None], s[None], errors=True)
        assert np.allclose(err, 0.0)
        assert np.allclose(out.w, state.w)

    def test_growing_window_least_squares_oracle(self):
        # lambda = 1, repeated identical (r, s): after i steps the weight is
        # the ridge-regularized batch solution i r s* / (1 + i |r|^2)
        r = np.array([1.2 * np.exp(0.4j)])
        s = np.array([0.7 * np.exp(-1.1j)])
        state = RlsState.initial(1, 1.0)
        for i in range(1, 40):
            state, _ = rls_step(state, r[None], s[None])
            expected = i * r[0] * np.conj(s[0]) / (1.0 + i * np.abs(r[0]) ** 2)
            assert abs(state.w[0] - expected) < 1e-8

    def test_initial_inverse_autocorrelation_is_identity(self):
        state = RlsState.initial(8, 0.995)
        assert np.array_equal(state.inv_corr, np.ones(8))
        assert np.array_equal(state.w, np.zeros(8))

    @settings(max_examples=100, deadline=None)
    @given(lam=st.floats(0.01, 1.0), blocks=st.integers(1, 500),
           qpsk=st.booleans(), zeroed=st.sets(st.integers(0, 5), max_size=3),
           start=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_matches_recursion(self, lam, blocks, qpsk, zeroed,
                                           start, seed):
        # final weights and a priori errors of the closed form against the
        # per-block recursion, over BPSK and QPSK pilots, all-zero bins and
        # a start state (w0, P0) that is not the initial one. Below lambda
        # 0.01 the recursion is the one that drifts past the tolerance: its
        # P update cancels about log10(P |r|^2 / lambda) digits, and at
        # lambda 2^-8 an exact rational sum agreed with the closed form
        rng = np.random.default_rng(seed)
        n = 6
        scheme = ModulationScheme.qpsk() if qpsk else ModulationScheme.bpsk()
        bits = rng.integers(0, 2, size=(blocks, n * scheme.bits_per_symbol))
        s = unitary_fft(modulate(bits, scheme))
        gain = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = gain * s + 0.3 * (rng.standard_normal((blocks, n))
                              + 1j * rng.standard_normal((blocks, n)))
        r[:, sorted(zeroed)] = 0
        state = RlsState.initial(n, lam)
        if start:
            state = RlsState(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                             rng.uniform(0.1, 10.0, size=n), lam)
        out, err = rls_step(state, r, s, errors=True)
        # from a positive P0 the floored closed form keeps every bin's P
        # positive and finite, all-zero bins included
        assert np.all((out.inv_corr > 0) & np.isfinite(out.inv_corr))
        with np.errstate(over="ignore", invalid="ignore"):
            w, inv_corr, err_oracle = rls_recursion(state.w, state.inv_corr,
                                                    lam, r, s)
        # an all-zero bin's P overflows in the recursion once lambda^P
        # underflows; the closed form gives weight 0 to a bin whose 1/P is
        # below the smallest normal float (see TestTrainAdaptive), so only
        # bins the recursion keeps above that compare
        kept = np.isfinite(w) & (inv_corr <= 1.0 / np.finfo(float).tiny)
        assert np.all(kept[[k for k in range(n) if k not in zeroed]])
        assert np.all(np.abs(out.w - w)[kept] <= 1e-10 * np.abs(w)[kept])
        assert np.all(np.abs(out.inv_corr - inv_corr)[kept]
                      <= 1e-10 * inv_corr[kept])
        scale = np.abs(s) + np.abs(s - err_oracle)  # |s| + |conj(w) r|
        assert np.all((np.abs(err - err_oracle) <= 1e-10 * scale)[:, kept])
        assert out.reinits == 0


class TestTrainAdaptive:
    def test_zero_step_size_is_inert(self):
        rng = np.random.default_rng(9)
        r = rng.standard_normal((10, 4)) + 0j
        s = rng.standard_normal((10, 4)) + 0j
        weights, traces = train_adaptive(("lms",), r, s, 0.0, 0.995,
                                         collect_mse=True)
        assert np.array_equal(weights["lms"], np.zeros(4))
        assert np.allclose(traces["lms"], np.mean(np.abs(s) ** 2, axis=1))

    def test_diverging_lms_runs_on_without_a_warning(self):
        # mu |r|^2 = 5e4, far above the stable bound of 2: the weights grow
        # past overflow within the pilots, which the suite's RuntimeWarning
        # filter turned into an error
        r = np.full((200, 4), 1e3 + 0j)
        weights, traces = train_adaptive(("lms",), r, np.ones((200, 4)), 0.05,
                                         0.995, collect_mse=True)
        assert not np.isfinite(weights["lms"]).any()
        assert not np.isfinite(traces["lms"][-1])

    def test_rls_reaches_wiener_on_clean_flat_channel(self):
        # noiseless unit channel: one step lands halfway (initial ridge),
        # and the ridge washes out within tens of pilots
        rng = np.random.default_rng(10)
        s = np.exp(2j * np.pi * rng.uniform(size=(60, 4)))
        w1 = train_adaptive(("rls",), s[:1], s[:1], 0.05, 1.0)[0]["rls"]
        assert np.allclose(w1, 0.5 * s[0] * np.conj(s[0]))
        w = train_adaptive(("rls",), s, s, 0.05, 1.0)[0]["rls"]
        assert np.max(np.abs(np.conj(w) - 1.0)) < 0.02

    def test_rls_trace_not_above_lms_trace_late(self):
        rng = np.random.default_rng(11)
        xi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        r, s = [], []
        for _ in range(80):
            s.append(np.exp(2j * np.pi * rng.uniform(size=16)))
            noise = 0.2 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
            r.append(xi * s[-1] + noise)
        _, traces = train_adaptive(("lms", "rls"), np.array(r), np.array(s),
                                   0.05, 0.995, collect_mse=True)
        assert np.mean(traces["rls"][-20:]) <= np.mean(traces["lms"][-20:])

    @pytest.mark.parametrize("collect_mse", [False, True])
    def test_rls_dead_bin_gets_zero_weight(self, collect_mse):
        # an all-zero bin keeps only the ridge lambda^P in 1/P, which
        # underflows to 0 at 400 pilots and lambda 0.1; its weight is 0, as
        # a dead Wiener bin's is, and no warning is raised
        rng = np.random.default_rng(15)
        r = rng.standard_normal((400, 4)) + 1j * rng.standard_normal((400, 4))
        r[:, 2] = 0
        s = np.exp(2j * np.pi * rng.uniform(size=(400, 4)))
        weights, traces = train_adaptive(("rls",), r, s, 0.05, 0.1,
                                         collect_mse)
        assert weights["rls"][2] == 0
        assert np.all(np.isfinite(weights["rls"]))
        assert np.all(np.isfinite(traces.get("rls", 0.0)))

    @pytest.mark.parametrize("sent_shape", [(2, 3, 12, 8), (2, 1, 12, 8)],
                             ids=["per-row", "shared"])
    def test_rows_train_independently(self, sent_shape):
        # a (2, 3, pilots, N) stack trains each row exactly as its (pilots, N)
        # slice would alone, also when each trial's pilots broadcast over its
        # 3 points
        rng = np.random.default_rng(14)
        shape = (2, 3, 12, 8)
        r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = np.exp(2j * np.pi * rng.uniform(size=sent_shape))
        weights, traces = train_adaptive(("lms", "rls"), r, s, 0.05, 0.9,
                                         collect_mse=True)
        assert traces["rls"].shape == (2, 3, 12)
        for row in np.ndindex(2, 3):
            alone, alone_traces = train_adaptive(
                ("rls", "lms"), r[row], s[row[0], min(row[1], sent_shape[1] - 1)],
                0.05, 0.9, collect_mse=True)
            for det in ("lms", "rls"):
                assert np.array_equal(weights[det][row], alone[det])
                assert np.array_equal(traces[det][row], alone_traces[det])


class TestScaleInvariance:
    def test_closed_form_and_ml_decisions(self):
        rng = np.random.default_rng(12)
        scheme = ModulationScheme.bpsk()
        n = 8
        c = 5.5
        xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sigma = rng.uniform(0.05, 0.5, size=n)
        ch = EffectiveChannel(xi, sigma)
        scaled = EffectiveChannel(np.sqrt(c) * xi, c * sigma)
        for _ in range(50):
            r_f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for weigher in (mrc_weights, mmse_weights):
                a = demodulate(unitary_ifft(equalize(weigher(ch), r_f)),
                               scheme)
                b = demodulate(unitary_ifft(equalize(
                    weigher(scaled), np.sqrt(c) * r_f)), scheme)
                assert np.array_equal(a, b)
            assert np.array_equal(
                MlDetector(ch, scheme, n).detect(r_f[None]),
                MlDetector(scaled, scheme, n).detect(np.sqrt(c) * r_f[None]))

    def test_adaptive_decisions_with_coscaled_hyperparams(self):
        # scaling observations by sqrt(c) is undone by mu/c (LMS) and an
        # initial inverse autocorrelation of 1/c (RLS)
        rng = np.random.default_rng(13)
        c = 4.0
        n = 8
        pilots = [(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                   np.exp(2j * np.pi * rng.uniform(size=n))) for _ in range(30)]
        r, s = (np.array(rows) for rows in zip(*pilots))
        w_base = train_adaptive(("lms",), r, s, 0.05, 0.995)[0]["lms"]
        w_scaled = train_adaptive(("lms",), np.sqrt(c) * r, s, 0.05 / c,
                                  0.995)[0]["lms"]
        assert np.max(np.abs(w_scaled - w_base / np.sqrt(c))) < 1e-10

        state = RlsState.initial(n, 0.995)
        state_scaled = RlsState(np.zeros(n, dtype=complex), np.full(n, 1.0 / c),
                                0.995)
        for r_b, s_b in zip(r, s):
            state, _ = rls_step(state, r_b[None], s_b[None])
            state_scaled, _ = rls_step(state_scaled, np.sqrt(c) * r_b[None],
                                       s_b[None])
        assert np.max(np.abs(state_scaled.w - state.w / np.sqrt(c))) < 1e-10
