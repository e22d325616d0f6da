import numpy as np
import pytest

from ulpsim.channel import draw_user_pool, select_users
from ulpsim.errors import ConfigurationError, DegeneratePrecoderError, SingularMatrixError
from ulpsim.precoder import (
    SchemeMode,
    build_conventional,
    build_unified,
    effective_gain,
    power_scale,
)
from ulpsim.randomness import derived_stream


def random_channel(seed, n_users=8, n_tx=8, pool=20):
    return select_users(draw_user_pool(derived_stream(seed), pool, n_tx), n_users)


class TestSchemeMode:
    @pytest.mark.parametrize(
        "u,m,label",
        [(0, 0, "LZFP"), (0, 1, "LMMSEP"), (1, 0, "ULZFP"), (1, 1, "ULMMSEP")],
    )
    def test_labels(self, u, m, label):
        assert SchemeMode(u, m).label == label
        assert SchemeMode.from_label(label).label == label

    def test_unknown_label(self):
        with pytest.raises(ConfigurationError):
            SchemeMode.from_label("DPC")

    def test_negative_parameters(self):
        with pytest.raises(ConfigurationError):
            SchemeMode(-1.0, 0.0)

    @pytest.mark.parametrize("u,m", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
    def test_non_finite_parameters(self, u, m):
        with pytest.raises(ConfigurationError, match="finite"):
            SchemeMode(u, m)


class TestPowerScale:
    def test_already_normalized(self):
        f, beta = power_scale(np.eye(2, dtype=complex), 2)
        assert beta == pytest.approx(1.0)
        assert np.allclose(f, np.eye(2))

    def test_scaled_identity(self):
        f, beta = power_scale(2.0 * np.eye(2, dtype=complex), 2)
        assert beta == pytest.approx(0.5)

    def test_trace_after_scaling(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        f, _ = power_scale(raw, 8)
        assert np.trace(f @ f.conj().T).real == pytest.approx(8.0, rel=1e-9)

    def test_projective(self):
        # Any positive prescale of the raw matrix leaves the output unchanged.
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        f1, _ = power_scale(raw, 4)
        f2, _ = power_scale(3.7 * raw, 4)
        assert np.max(np.abs(f1 - f2)) < 1e-12

    def test_zero_matrix(self):
        with pytest.raises(DegeneratePrecoderError):
            power_scale(np.zeros((2, 2), dtype=complex), 2)


class TestBuildConventional:
    def test_identity_channel_zero_forcing(self):
        ch = np.eye(2, dtype=complex)
        p = build_conventional(ch, m=0.0, sigma2=0.0)
        assert p.beta == pytest.approx(1.0)
        assert np.allclose(p.F, np.eye(2))
        assert p.mode.label == "LZFP"

    def test_hand_inverse(self):
        h = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
        p = build_conventional(h, m=0.0, sigma2=0.0)
        h_inv = np.array([[1.0, 0.0], [-1.0, 1.0]])
        beta = np.sqrt(2.0 / 3.0)  # trace(H^-1 H^-H) = 3
        assert p.beta == pytest.approx(beta)
        assert np.allclose(p.F, beta * h_inv, atol=1e-12)
        # Cross-check against the pseudo-inverse route.
        assert np.allclose(p.F / p.beta, np.linalg.pinv(h), atol=1e-10)

    def test_zero_forcing_product_identity(self):
        ch = random_channel(21)
        p = build_conventional(ch, m=0.0, sigma2=0.0)
        assert np.max(np.abs(ch @ p.F - p.beta * np.eye(8))) < 1e-9 * p.beta

    def test_singular_channel(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(SingularMatrixError):
            build_conventional(h, m=0.0, sigma2=0.0)


class TestBuildUnified:
    def test_reduction_to_conventional(self):
        for seed in range(100):
            ch = random_channel(seed)
            for m in (0.0, 1.0):
                conv = build_conventional(ch, m=m, sigma2=0.3)
                uni = build_unified(ch, u=0.0, m=m, sigma2=0.3)
                assert uni.F.shape == conv.F.shape
                assert np.max(np.abs(uni.F - conv.F)) < 1e-12

    def test_identity_channel_closed_form(self):
        ch = np.eye(2, dtype=complex)
        p = build_unified(ch, u=1.0, m=0.0, sigma2=0.0)
        # Raw matrix is 0.5 [I I] with trace(F F^H) = 1, hence beta = sqrt(2).
        assert p.beta == pytest.approx(np.sqrt(2.0))
        assert np.allclose(p.F / p.beta, 0.5 * np.hstack([np.eye(2), np.eye(2)]), atol=1e-12)

    def test_data_block_is_regularized_inverse(self):
        ch = random_channel(33)
        p = build_unified(ch, u=1.0, m=0.0, sigma2=0.0)
        hh = ch.conj().T
        expected = np.linalg.solve(hh @ ch + np.eye(8), hh)
        assert np.max(np.abs(p.data_block() / p.beta - expected)) < 1e-10

    def test_row_space_column_space_agreement(self):
        # With m*sigma2 > 0 both forms of the regularized inverse exist.
        for seed in range(100):
            ch = random_channel(seed + 500)
            m, sigma2, u = 1.0, 0.25, 0.8
            p = build_unified(ch, u=u, m=m, sigma2=sigma2)
            hu = np.vstack([ch, u * np.eye(8)])
            row_form = hu.conj().T @ np.linalg.inv(hu @ hu.conj().T + m * sigma2 * np.eye(16))
            assert np.max(np.abs(p.F / p.beta - row_form)) < 1e-10

    def test_moore_penrose_at_zero_regularizer(self):
        ch = random_channel(77)
        p = build_unified(ch, u=1.0, m=0.0, sigma2=0.0)
        hu = np.vstack([ch, np.eye(8)])
        pinv = p.F / p.beta
        assert np.max(np.abs(hu @ pinv @ hu - hu)) < 1e-10
        assert np.max(np.abs(pinv @ hu @ pinv - pinv)) < 1e-10
        assert np.max(np.abs((hu @ pinv).conj().T - hu @ pinv)) < 1e-10
        assert np.max(np.abs((pinv @ hu).conj().T - pinv @ hu)) < 1e-10

    def test_regularizer_merge(self):
        # The data block depends on u^2 + m*sigma2 only.
        sigma2 = 0.4
        for seed in range(20):
            ch = random_channel(seed + 900)
            m_prime = 1.25
            u_prime = np.sqrt(1.0 - sigma2 * m_prime)
            a = build_unified(ch, u=1.0, m=0.0, sigma2=sigma2)
            b = build_unified(ch, u=u_prime, m=m_prime, sigma2=sigma2)
            assert np.max(np.abs(a.data_block() / a.beta - b.data_block() / b.beta)) < 1e-10

    def test_trace_normalization_full_matrix(self):
        ch = random_channel(8)
        p = build_unified(ch, u=1.0, m=1.0, sigma2=0.1)
        assert np.trace(p.F @ p.F.conj().T).real == pytest.approx(8.0, rel=1e-9)

    def test_data_block_only_normalization(self):
        ch = random_channel(9)
        p = build_unified(ch, u=1.0, m=0.0, sigma2=0.0, normalize_data_block_only=True)
        d = p.data_block()
        assert np.trace(d @ d.conj().T).real == pytest.approx(8.0, rel=1e-9)

    def test_shapes(self):
        ch = random_channel(10)
        assert build_unified(ch, 1.0, 1.0, 0.1).F.shape == (8, 16)
        assert build_unified(ch, 0.0, 1.0, 0.1).F.shape == (8, 8)


class TestEffectiveGain:
    def test_zero_forcing_gives_identity(self):
        ch = random_channel(55)
        p = build_conventional(ch, m=0.0, sigma2=0.0)
        assert np.max(np.abs(effective_gain(ch, p) - np.eye(8))) < 1e-9

    def test_mmse_residual_interference(self):
        ch = random_channel(56)
        p = build_conventional(ch, m=1.0, sigma2=0.5)
        g = effective_gain(ch, p)
        off = g - np.diag(np.diag(g))
        assert np.linalg.norm(off) > 0
        diag = np.diag(g)
        assert np.all(diag.real > 0)
        assert np.max(np.abs(diag.imag)) < 1e-9

    def test_matching_regularizers_match(self):
        # u^2 = 2 with m = 0 equals u^2 + m*sigma2 = 2 with m > 0.
        ch = random_channel(57)
        a = build_unified(ch, u=np.sqrt(2.0), m=0.0, sigma2=1.0)
        b = build_unified(ch, u=1.0, m=1.0, sigma2=1.0)
        assert np.max(np.abs(effective_gain(ch, a) - effective_gain(ch, b))) < 1e-10
