"""Amplify-and-forward hop tests."""

import numpy as np
import pytest

from oracle import circulant_from_taps
from uwfde.channel import af_gain
from uwfde.txrx import append_cp, relay_forward, relay_receive


class TestAfGain:
    def test_unit_channel_no_noise(self):
        assert af_gain(1.0, 0.0) == 1.0

    def test_equal_parts(self):
        assert abs(af_gain(1.0, 1.0) - 1.0 / np.sqrt(2)) < 1e-12

    def test_arithmetic(self):
        assert abs(af_gain(0.5, 0.25) - 1.0 / np.sqrt(0.75)) < 1e-12


class TestRelayReceive:
    def test_unit_tap_no_noise_passthrough(self):
        x = np.arange(1, 9, dtype=complex)
        out = relay_receive(append_cp(x, 3), 3, np.array([1.0]), 0.0,
                            np.random.default_rng(0))
        assert np.allclose(out, x)
        assert out.shape == x.shape

    def test_matches_circulant_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            out = relay_receive(append_cp(x, 5), 5, taps, 0.0, rng)
            expected = circulant_from_taps(taps, 16) @ x
            assert np.max(np.abs(out - expected)) < 1e-10

    def test_noise_calibration(self):
        # zero input: per-sample complex variance equals sigma2 within 2%
        rng = np.random.default_rng(2)
        sent = append_cp(np.zeros(64, dtype=complex), 0)
        total, count = 0.0, 0
        for _ in range(2000):
            out = relay_receive(sent, 0, np.array([1.0]), 0.7, rng)
            total += np.sum(np.abs(out) ** 2)
            count += 64
        assert abs(total / count - 0.7) / 0.7 < 0.02

    def test_rejects_short_prefix(self):
        sent = append_cp(np.ones(8), 2)
        with pytest.raises(ValueError):
            relay_receive(sent, 2, np.ones(4), 0.0, np.random.default_rng(0))


class TestRelayForward:
    def test_unit_gain_no_prefix_identity(self):
        y = np.arange(4, dtype=complex)
        assert np.array_equal(relay_forward(y, 1.0, 0), y)

    def test_energy_scales_with_gain_squared(self):
        out = relay_forward(np.ones(8, dtype=complex), 2.0, 0)
        assert abs(np.sum(np.abs(out) ** 2) - 4.0 * 8) < 1e-12

    def test_matches_append_cp_composition(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.array_equal(relay_forward(y, 2.0, 3), append_cp(2.0 * y, 3))


class TestCascade:
    def test_noiseless_end_to_end_matches_double_circulant(self):
        rng = np.random.default_rng(4)
        n, cp = 16, 5
        for _ in range(20):
            h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            zeta = float(rng.uniform(0.5, 2.0))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            at_relay = relay_receive(append_cp(x, cp), cp, h, 0.0, rng)
            forwarded = relay_forward(at_relay, zeta, cp)
            at_dest = relay_receive(forwarded, cp, g, 0.0, rng)
            cascade = zeta * circulant_from_taps(g, n) @ circulant_from_taps(h, n)
            assert np.max(np.abs(at_dest - cascade @ x)) < 1e-10

    def test_average_forward_power_is_bounded(self):
        # unit-power input, unit-power channel, gain from the noise budget:
        # long-run transmit power stays at one
        rng = np.random.default_rng(5)
        sigma2 = 0.5
        zeta = af_gain(1.0, sigma2)
        total, count = 0.0, 0
        for _ in range(500):
            taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            taps /= np.linalg.norm(taps)
            bits = rng.integers(0, 2, size=32)
            x = 1.0 - 2.0 * bits.astype(float)
            received = relay_receive(append_cp(x, 4), 4, taps, sigma2, rng)
            body = relay_forward(received, zeta, 4)[4:]
            total += np.sum(np.abs(body) ** 2)
            count += len(body)
        assert total / count < 1.0 + 0.05
        assert total / count > 1.0 - 0.05
