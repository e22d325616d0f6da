import itertools
import re

import numpy as np
import pytest

from ulpsim.channel import draw_user_pool, select_users
from ulpsim.modem import draw_awgn, qpsk_demodulate, qpsk_modulate, transmit_receive
from ulpsim.precoder import build_conventional, build_unified
from ulpsim.randomness import derived_stream

SQRT2 = np.sqrt(2.0)


class TestQpskMapping:
    def test_all_zero_pair(self):
        assert qpsk_modulate([0, 0])[0] == pytest.approx((1 + 1j) / SQRT2)

    def test_all_one_pair(self):
        assert qpsk_modulate([1, 1])[0] == pytest.approx((-1 - 1j) / SQRT2)

    def test_constellation_geometry(self):
        points = {}
        for b0, b1 in itertools.product((0, 1), repeat=2):
            s = qpsk_modulate([b0, b1])[0]
            assert abs(s) == pytest.approx(1.0)
            points[(b0, b1)] = s
        assert len(set(np.round(list(points.values()), 12))) == 4
        # Gray property: 90-degree neighbours differ in exactly one bit.
        for (ba, sa), (bb, sb) in itertools.permutations(points.items(), 2):
            angle = np.angle(sa / sb)
            if abs(abs(angle) - np.pi / 2) < 1e-9:
                assert sum(x != y for x, y in zip(ba, bb)) == 1

    def test_round_trip_exhaustive(self):
        for b0, b1 in itertools.product((0, 1), repeat=2):
            assert list(qpsk_demodulate(qpsk_modulate([b0, b1]))) == [b0, b1]

    def test_round_trip_random_block(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=4096)
        assert np.array_equal(qpsk_demodulate(qpsk_modulate(bits)), bits)

    def test_quadrant_decision(self):
        assert list(qpsk_demodulate([0.9 + 0.1j])) == [0, 0]

    def test_boundary_decides_zero(self):
        assert list(qpsk_demodulate([0.0 - 1.0j])) == [0, 1]
        assert list(qpsk_demodulate([-1.0 + 0.0j])) == [1, 0]
        decided = qpsk_demodulate([complex(-0.0, -0.0)])
        assert decided.dtype == bool
        assert list(decided) == [0, 0]

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even-length last axis"):
            qpsk_modulate([0, 1, 0])

    def test_float_bits_rejected(self):
        with pytest.raises(TypeError):
            qpsk_modulate(np.array([0.0, 1.0]))

    # Without the check, take wraps -1 and -2 round to the table's entries
    # for 1 and 0, and 2 raises a bare IndexError.
    @pytest.mark.parametrize("bits,first", [
        ([-1, -2], "-1"), ([2, 0], "2"), ([0, 1, 1, 3, 5, 0], "3"), ([[0, 1], [1, -7]], "-7"),
        (np.array([0, 255], dtype=np.uint8), "255"), ([0.5, 1.0], "0.5"),
    ])
    def test_bits_outside_zero_and_one_rejected(self, bits, first):
        with pytest.raises(ValueError, match=f"^bits must be 0 or 1, got {re.escape(first)}$"):
            qpsk_modulate(bits)

    def test_every_pair_is_its_literal_symbol(self):
        bits = np.array([0, 0, 1, 0, 0, 1, 1, 1])
        expected = np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]) / np.sqrt(2.0)
        for sent in (bits, bits.astype(bool)):
            got = qpsk_modulate(sent)
            assert got.dtype == np.complex128
            assert got.tobytes() == expected.tobytes()


class TestAwgn:
    def test_zero_variance(self):
        z = draw_awgn(derived_stream(1), 64, 0.0)
        assert np.array_equal(z, np.zeros(64))

    def test_determinism(self):
        a = draw_awgn(derived_stream(2, 5), 100, 0.3)
        b = draw_awgn(derived_stream(2, 5), 100, 0.3)
        assert np.array_equal(a, b)

    def test_sample_variance(self):
        n0 = 0.37
        n = 100_000
        z = draw_awgn(derived_stream(3), n, n0)
        var = np.mean(np.abs(z) ** 2)
        # |z|^2 is Exp(n0): std n0, so se of the mean is n0/sqrt(n).
        assert abs(var - n0) < 3.0 * n0 / np.sqrt(n)


def random_channel(seed):
    return select_users(draw_user_pool(derived_stream(seed), 20, 8), 8)


class TestTransmitReceive:
    def test_zero_forcing_noiseless_is_exact(self):
        ch = random_channel(4)
        p = build_conventional(ch, m=0.0, sigma2=0.0)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=16)
        x = qpsk_modulate(bits)
        est = transmit_receive(ch, p, x, np.zeros(8))
        assert np.max(np.abs(est - x)) < 1e-9

    def test_noiseless_zero_forcing_ber_is_zero(self):
        ch = random_channel(5)
        p = build_conventional(ch, m=0.0, sigma2=0.0)
        rng = np.random.default_rng(1)
        errors = 0
        for _ in range(50):
            bits = rng.integers(0, 2, size=16)
            est = transmit_receive(ch, p, qpsk_modulate(bits), np.zeros(8))
            errors += int(np.count_nonzero(qpsk_demodulate(est) != bits))
        assert errors == 0

    def test_agc_linearity(self):
        ch = random_channel(6)
        p = build_unified(ch, u=1.0, m=1.0, sigma2=0.2)
        rng = np.random.default_rng(2)
        x = qpsk_modulate(rng.integers(0, 2, size=16))
        z = draw_awgn(derived_stream(9), 8, 0.5)
        with_noise = transmit_receive(ch, p, x, z)
        without = transmit_receive(ch, p, x, np.zeros(8))
        assert np.array_equal(with_noise, without + z / p.beta)

    def test_noiseless_mmse_residual_equals_gain_minus_identity(self):
        ch = random_channel(7)
        p = build_conventional(ch, m=1.0, sigma2=0.3)
        rng = np.random.default_rng(3)
        x = qpsk_modulate(rng.integers(0, 2, size=16))
        est = transmit_receive(ch, p, x, np.zeros(8))
        residual = est - x
        expected = (ch @ p.data_block() / p.beta - np.eye(8)) @ x
        assert np.max(np.abs(residual - expected)) < 1e-12
        assert np.linalg.norm(residual) > 0

    def test_noise_scaling_at_receiver(self):
        # x_hat - E[x_hat] has per-entry variance N0 / beta^2.
        ch = random_channel(8)
        p = build_conventional(ch, m=1.0, sigma2=0.1)
        rng = np.random.default_rng(4)
        x = qpsk_modulate(rng.integers(0, 2, size=16))
        mean = transmit_receive(ch, p, x, np.zeros(8))
        n0 = 0.25
        draws = 10_000
        noise_rng = derived_stream(12)
        dev = np.empty((draws, 8), dtype=complex)
        for i in range(draws):
            z = draw_awgn(noise_rng, 8, n0)
            dev[i] = transmit_receive(ch, p, x, z) - mean
        var = np.mean(np.abs(dev) ** 2)
        target = n0 / p.beta**2
        n = dev.size
        assert abs(var - target) < 3.0 * target / np.sqrt(n)

    def test_energy_accounting(self):
        ch = random_channel(9)
        p = build_conventional(ch, m=0.0, sigma2=0.0)
        d = p.data_block()
        target = np.trace(d @ d.conj().T).real
        assert target == pytest.approx(8.0, rel=1e-9)
        rng = np.random.default_rng(5)
        draws = 10_000
        energies = np.empty(draws)
        for i in range(draws):
            x = qpsk_modulate(rng.integers(0, 2, size=16))
            energies[i] = np.linalg.norm(d @ x) ** 2
        se = np.std(energies) / np.sqrt(draws)
        assert abs(np.mean(energies) - target) < 3.0 * se

    def test_shape_mismatch(self):
        ch = random_channel(10)
        p = build_conventional(ch, m=0.0, sigma2=0.0)
        with pytest.raises(ValueError, match="4 streams but precoder expects 8"):
            transmit_receive(ch, p, np.zeros(4, dtype=complex), np.zeros(4))
        with pytest.raises(ValueError, match="noise shape"):
            transmit_receive(ch, p, np.zeros(8, dtype=complex), np.zeros(7))
