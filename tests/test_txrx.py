"""Modulation, prefix handling and transform tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import circulant_from_taps
from uwfde.txrx import (ModulationScheme, append_cp, demodulate, modulate,
                        unitary_fft, unitary_ifft)


class TestSchemes:
    def test_bpsk_map(self):
        scheme = ModulationScheme.bpsk()
        assert np.allclose(modulate(np.array([0, 1]), scheme), [1.0, -1.0])

    def test_qpsk_first_point(self):
        scheme = ModulationScheme.qpsk()
        assert np.allclose(modulate(np.array([0, 0]), scheme),
                           [(1 + 1j) / np.sqrt(2)])

    @pytest.mark.parametrize("name", ["bpsk", "qpsk"])
    def test_unit_average_power(self, name):
        scheme = ModulationScheme.from_name(name)
        assert abs(np.mean(np.abs(scheme.points) ** 2) - 1.0) < 1e-12

    def test_qpsk_gray_adjacency(self):
        # walking the constellation by angle flips exactly one bit at a time
        scheme = ModulationScheme.qpsk()
        order = np.argsort(np.angle(scheme.points))
        ring = list(order) + [order[0]]
        for a, b in zip(ring, ring[1:]):
            assert bin(a ^ b).count("1") == 1

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ModulationScheme.from_name("qam64")


def argmin_demodulate(symbols, scheme):
    """Minimum-distance decisions as a search: the argmin over the distances
    to every constellation point (equidistant points go to the lowest
    label), inverted to bits."""
    dist = np.abs(np.asarray(symbols)[..., None] - scheme.points)
    labels = np.argmin(dist, axis=-1)
    shifts = np.arange(scheme.bits_per_symbol - 1, -1, -1)
    return ((labels[..., None] >> shifts) & 1).reshape(*labels.shape[:-1], -1)


# Symbol parts: exact signed zeros, and floats of any size up to 1e6.
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e6, 1e6, allow_nan=False))


class TestModulateDemodulate:
    def test_bit_count_must_divide(self):
        with pytest.raises(ValueError):
            modulate(np.array([0, 1, 0]), ModulationScheme.qpsk())

    def test_bpsk_round_trip_exhaustive(self):
        # every 12-bit block inverts exactly
        scheme = ModulationScheme.bpsk()
        for bits in itertools.product((0, 1), repeat=12):
            bits = np.array(bits)
            assert np.array_equal(demodulate(modulate(bits, scheme), scheme), bits)

    def test_qpsk_round_trip_random(self):
        scheme = ModulationScheme.qpsk()
        rng = np.random.default_rng(1)
        for _ in range(100):
            bits = rng.integers(0, 2, size=32)
            assert np.array_equal(demodulate(modulate(bits, scheme), scheme), bits)

    def test_small_perturbation_recovered(self):
        scheme = ModulationScheme.qpsk()
        bits = np.array([0, 1, 1, 0, 1, 1])
        symbols = modulate(bits, scheme) + 0.2 * np.exp(1j * 0.4)
        assert np.array_equal(demodulate(symbols, scheme), bits)

    def test_tie_breaks_to_lowest_label(self):
        scheme = ModulationScheme.bpsk()
        assert demodulate(np.zeros(4, dtype=complex), scheme).tolist() == [0] * 4

    @pytest.mark.parametrize("name", ["bpsk", "qpsk"])
    def test_signed_zeros_decide_label_zero(self, name):
        scheme = ModulationScheme.from_name(name)
        symbols = np.array([complex(re, im) for re in (0.0, -0.0)
                            for im in (0.0, -0.0, 0.5, -0.5)])
        assert np.array_equal(demodulate(symbols, scheme),
                              argmin_demodulate(symbols, scheme))

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["bpsk", "qpsk"]),
           shape=st.sampled_from([(1,), (5,), (2, 3), (3, 1, 4)]),
           data=st.data())
    def test_sign_test_matches_the_argmin_oracle(self, name, shape, data):
        scheme = ModulationScheme.from_name(name)
        size = int(np.prod(shape))
        parts = data.draw(st.lists(st.tuples(_PARTS, _PARTS), min_size=size,
                                   max_size=size))
        symbols = np.array([complex(re, im) for re, im in parts]).reshape(shape)
        got = demodulate(symbols, scheme).reshape(*shape, -1)
        want = argmin_demodulate(symbols, scheme).reshape(*shape, -1)
        # A nonzero part far smaller than the distances to the constellation
        # can round those distances to a tie, which argmin gives to the
        # lowest label whatever the sign. The distances' squares are rounded
        # at max(1, |s|^2), so only symbols with such a part are skipped; a
        # bound relative to |s| alone would let ties through for tiny
        # symbols such as -1e-300 (both distances round to one).
        scale = 1e-12 * np.maximum(1.0, np.abs(symbols) ** 2)
        tiny = [(part != 0) & (np.abs(part) < scale)
                for part in (symbols.real, symbols.imag)]
        kept = ~(tiny[0] | tiny[1])
        assert np.array_equal(got[kept], want[kept])


class TestCyclicPrefix:
    def test_zero_length_is_identity(self):
        x = np.arange(4, dtype=complex)
        with_cp = append_cp(x, 0)
        assert np.array_equal(with_cp, x)
        assert not np.shares_memory(with_cp, x)

    def test_layout(self):
        out = append_cp(np.array([1, 2, 3, 4], dtype=complex), 2)
        assert out.tolist() == [3, 4, 1, 2, 3, 4]

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.array_equal(append_cp(x, 5)[5:], x)

    def test_too_long_prefix_rejected(self):
        with pytest.raises(ValueError):
            append_cp(np.ones(4), 5)

    def test_stack_prefixes_each_block(self):
        x = np.arange(8, dtype=complex).reshape(2, 4)
        assert append_cp(x, 1).tolist() == [[3, 0, 1, 2, 3], [7, 4, 5, 6, 7]]

    def test_circularization(self):
        # the reason the prefix exists: linear convolution of the prefixed
        # block equals the circulant matrix acting on the body
        rng = np.random.default_rng(3)
        for trial in range(20):
            n, cp = 16, 5
            ntaps = rng.integers(1, cp + 2)
            taps = rng.standard_normal(ntaps) + 1j * rng.standard_normal(ntaps)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            received = np.convolve(taps, append_cp(x, cp))[cp: n + cp]
            expected = circulant_from_taps(taps, n) @ x
            assert np.max(np.abs(received - expected)) < 1e-10


class TestTransforms:
    def test_unitary_round_trip(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.max(np.abs(unitary_ifft(unitary_fft(x)) - x)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            assert abs(np.linalg.norm(unitary_fft(x)) - np.linalg.norm(x)) < 1e-12

    def test_impulse_flat_spectrum(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        assert np.allclose(np.abs(unitary_fft(x)), 1.0 / np.sqrt(16))

    def test_two_point_by_hand(self):
        spec = unitary_fft(np.array([1.0, -1.0]))
        assert np.allclose(spec, [0.0, 2.0 / np.sqrt(2)])
