import re

import numpy as np
import pytest

from ulpsim import precoder
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


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestSolveHermitian:
    def test_identity_system(self):
        x = precoder.solve_hermitian(np.eye(2), np.array([[1.0], [2.0]]))
        assert np.allclose(x, [[1.0], [2.0]])

    def test_diagonal_scaling(self):
        x = precoder.solve_hermitian(2.0 * np.eye(2), np.eye(2))
        assert np.allclose(x, 0.5 * np.eye(2))

    def test_residual_random_gram(self):
        rng = np.random.default_rng(5)
        g = crandn(rng, 4, 4)
        a = g @ g.conj().T
        b = crandn(rng, 4, 2)
        x = precoder.solve_hermitian(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10

    def test_residual_bound_many_sizes(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            g = crandn(rng, n, n)
            a = g @ g.conj().T + 1e-3 * np.eye(n)
            b = crandn(rng, n, 1)
            ridge = float(rng.uniform(0, 1))
            x = precoder.solve_hermitian(a, b, ridge)
            m = a + ridge * np.eye(n)
            bound = 1e-10 * (np.linalg.norm(a) + ridge) * max(np.linalg.norm(x), 1.0)
            assert np.linalg.norm(m @ x - b) <= bound

    def test_singular_raises_with_least_eigenvalue(self):
        with pytest.raises(SingularMatrixError, match="least eigenvalue"):
            precoder.solve_hermitian(np.zeros((3, 3)), np.eye(3))

    def test_matches_per_matrix_solves(self):
        rng = np.random.default_rng(7)
        g = crandn(rng, 2, 3, 8, 8)
        a = g @ g.conj().swapaxes(-1, -2)
        b = crandn(rng, 2, 3, 8, 16)
        for ridge in (0.0, 0.3):
            x = precoder.solve_hermitian(a, b, ridge)
            assert x.shape == b.shape
            for i in range(2):
                for j in range(3):
                    assert np.array_equal(x[i, j],
                                          precoder.solve_hermitian(a[i, j], b[i, j], ridge))

    def test_indefinite_member_raises_with_its_index(self):
        a = np.array([[[2.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]]], dtype=complex)
        with pytest.raises(SingularMatrixError, match="indefinite") as info:
            precoder.solve_hermitian(a, np.broadcast_to(np.eye(2), (2, 2, 2)))
        assert info.value.index == 1

    @pytest.mark.parametrize("position", [(0, 0), (1, 2), (2, 2)])
    def test_nan_member_raises_with_its_index(self, position):
        # A zero matrix with one NaN, which eigh cannot take, is named as
        # non-finite, not as an eigenvalue below a NaN scale.
        rng = np.random.default_rng(3)
        g = crandn(rng, 4, 3, 3)
        a = g @ g.conj().swapaxes(-1, -2)
        a[2] = 0.0
        a[2][position] = np.nan
        b = crandn(rng, 4, 3, 2)
        with pytest.raises(SingularMatrixError, match="non-finite") as info:
            precoder.solve_hermitian(a, b)
        assert info.value.index == 2

    def test_infinite_member_raises_as_non_finite(self):
        # An overflowing augmentation weight puts inf on the diagonal.
        a = np.stack([np.eye(3), np.diag([1.0, np.inf, 1.0])])
        with pytest.raises(SingularMatrixError, match="non-finite") as info:
            precoder.solve_hermitian(a, np.ones((2, 3, 1)))
        assert info.value.index == 1

    def test_first_rejected_member_is_named(self):
        a = np.stack([np.eye(3), np.zeros((3, 3)), np.eye(3), np.full((3, 3), np.nan)])
        with pytest.raises(SingularMatrixError, match="least eigenvalue") as info:
            precoder.solve_hermitian(a, np.ones((4, 3, 1)))
        assert info.value.index == 1

    def test_singular_member_raises_with_its_index(self):
        a = np.stack([np.eye(3), 2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)])
        with pytest.raises(SingularMatrixError, match="least eigenvalue") as info:
            precoder.solve_hermitian(a, np.ones((4, 3, 1)))
        assert info.value.index == 2


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

    @pytest.mark.parametrize("label,u,m,message", [
        ("ULZFP", 0.0, 1.0, "scheme ULZFP needs u > 0 (u = 0 makes it LZFP)"),
        ("LMMSEP", 1.0, 0.0, "scheme LMMSEP needs m > 0 (m = 0 makes it LZFP)"),
        ("ULMMSEP", 0.0, 0.0, "scheme ULMMSEP needs u > 0 and m > 0"),
    ])
    def test_label_rejects_a_zero_weight_it_needs(self, label, u, m, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            SchemeMode.from_label(label, u=u, m=m)

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

    @pytest.mark.parametrize("u,m", [(1e-8, 0.0), (1e-170, 0.0), (1e-170, 1.0)])
    def test_regularizer_below_gram_rounding_raises(self, u, m):
        # (u / c)(I - F_data H) would be amplified rounding noise, or 0 / 0.
        # The spectral gains raise the same error.
        h = random_channel(11)
        with pytest.raises(DegeneratePrecoderError, match="below the rounding of H H") as built:
            build_unified(h, u=u, m=m, sigma2=0.0)
        with pytest.raises(DegeneratePrecoderError) as spectral:
            spectral_gains(h, SchemeMode(u, m), 0.0)
        assert str(spectral.value) == str(built.value)

    @pytest.mark.parametrize("build,args", [
        (build_unified, (1.0, 1.0, -0.5)),
        (build_unified, (np.nan, 0.0, 0.1)),
        (build_unified, (1.0, 1.0, np.inf)),
        (build_conventional, (1.0, np.nan)),
        (build_conventional, (-1.0, 0.1)),
    ])
    def test_bad_arguments_rejected_at_entry(self, build, args):
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            build(random_channel(12), *args)

    @pytest.mark.parametrize("u,m", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    def test_one_solve_per_stack(self, u, m, monkeypatch):
        # The bench's solve span wraps precoder.solve_hermitian: each build
        # must call it once, through the module global.
        calls = []
        solve = precoder.solve_hermitian

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return solve(*args, **kwargs)

        monkeypatch.setattr(precoder, "solve_hermitian", counting)
        stack = np.stack([random_channel(seed) for seed in range(25)])
        p = build_unified(stack, u, m, 0.1)
        assert calls == [(25, 8, 8)]
        assert p.beta.shape == (25,)

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


def gram_spectrum(h):
    return np.linalg.eigh(h @ h.conj().swapaxes(-1, -2))


def paper_channels(n=300, seed=61):
    return np.stack([random_channel(seed + i) for i in range(n)])


def spectral_gains(h, mode, sigma2, data_block_only=False):
    """precoder.spectral_gains from the spectrum of h's own Gram stack."""
    return precoder.spectral_gains(gram_spectrum(h), mode, sigma2, h.shape[-1], data_block_only)


def build_gains(h, mode, sigma2, data_block_only=False):
    """(beta H F_data)^T through precoder.build, the reference."""
    return (h @ precoder.build(h, mode, sigma2, data_block_only).data_block()).swapaxes(-1, -2)


def near_singular(h, ratio):
    """h with its least singular value set so that lam_min / ||H H^H||_F is about ratio."""
    u, s, vh = np.linalg.svd(h)
    s[-1] = np.sqrt(ratio * np.linalg.norm(s**2))
    return (u * s) @ vh


def floor_fails(h):
    """Per matrix: does its spectrum fail the rule at c = 0, lam_min > 2 PIVOT_RTOL ||G||_F?"""
    lam = gram_spectrum(h)[0]
    return ~(lam[..., 0] > 2 * precoder.PIVOT_RTOL * np.linalg.norm(lam, axis=-1))


def rejection(gains):
    """(index, message) of the SingularMatrixError that gains() raises, or None if it returns."""
    try:
        gains()
    except SingularMatrixError as error:
        return error.index, str(error)
    return None


class TestSpectralGains:
    # 14 dB is the paper's lowest SNR. The eigendecomposition and the solve
    # both lose about eps * ||H H^H|| / c, so LMMSEP's smaller c at 20-30 dB
    # leaves them some 1e-11 apart.
    SIGMA2 = 10.0 ** -1.4

    @pytest.mark.parametrize("label", ["LMMSEP", "ULZFP", "ULMMSEP"])
    @pytest.mark.parametrize("data_block_only", [False, True])
    @pytest.mark.parametrize("shape", ["paper", "3x5"])
    def test_equals_build_data_block(self, label, data_block_only, shape):
        # At 3 users of 5 antennas, H^H H has two zero eigenvalues that H H^H lacks.
        h = (paper_channels() if shape == "paper"
             else crandn(np.random.default_rng(62), 300, 3, 5))
        mode = SchemeMode.from_label(label)
        want = build_gains(h, mode, self.SIGMA2, data_block_only)
        got = spectral_gains(h, mode, self.SIGMA2, data_block_only)
        error = np.linalg.norm(got - want, axis=(-2, -1))
        assert np.max(error / np.linalg.norm(want, axis=(-2, -1))) < 1e-12

    # At a huge u, c = u^2 leaves the data block's raw power to underflow in
    # both paths, and the trailing block's power to set beta.
    @pytest.mark.parametrize("label", ["ULZFP", "ULMMSEP"])
    @pytest.mark.parametrize("u", [1e100, 1e150])
    def test_huge_u_equals_build(self, label, u):
        h, mode = paper_channels(), SchemeMode.from_label(label, u=u)
        want = build_gains(h, mode, self.SIGMA2)
        got = spectral_gains(h, mode, self.SIGMA2)
        error = np.linalg.norm(got - want, axis=(-2, -1))
        assert np.max(error / np.linalg.norm(want, axis=(-2, -1))) < 1e-12

    @pytest.mark.parametrize("label,sigma2", [("LZFP", 0.1), ("LMMSEP", 1e-40)],
                             ids=["zero_forcing", "vanishing_ridge"])
    def test_zero_forcing_equals_build(self, label, sigma2):
        # At c = 0, or a c far below the rounding of H H^H, both paths
        # lose about eps cond(H)^2, the bound of ZF exactness (criterion 2).
        h, mode = paper_channels(), SchemeMode.from_label(label)
        want = build_gains(h, mode, sigma2)
        got = spectral_gains(h, mode, sigma2)
        cond2 = np.linalg.cond(h) ** 2
        error = np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
        assert np.all(error < 1e-14 * cond2 + 1e-13)

    # lam_min / ||H H^H||_F from 1e-14 to 1e-9 straddles the rule's 2e-12;
    # "random" is 20 random paper-geometry stacks, which the rule accepts.
    @pytest.mark.parametrize("ratio", [*np.logspace(-14, -9, 11), pytest.param(None, id="random")])
    def test_build_rejects_as_spectral_gains_does(self, ratio):
        # At c = 0 both take the same spectrum through the same rule, so they
        # accept a stack alike or name its first failing matrix alike.
        if ratio is None:
            stacks = [paper_channels(25, seed=1000 + 25 * seed) for seed in range(20)]
            assert not any(floor_fails(h).any() for h in stacks)
        else:
            # Matrix 5 is near-singular at ratio, matrix 17 always fails the rule.
            h = paper_channels(25, seed=300)
            h[5], h[17] = near_singular(h[5], ratio), near_singular(h[17], 1e-15)
            assert floor_fails(h)[17]
            stacks = [h, np.delete(h, 17, axis=0)]
        mode = SchemeMode.from_label("LZFP")
        for h in stacks:
            fails = floor_fails(h)
            built = rejection(lambda: precoder.build(h, mode, 0.0))
            assert built == rejection(lambda: spectral_gains(h, mode, 0.0))
            first = int(np.argmax(fails)) if fails.any() else None
            assert (None if built is None else built[0]) == first

    def test_singular_matrix_is_named_by_index(self):
        # A rank-deficient matrix fails the rule at c = 0; a ridge that
        # clears its floor takes it, whatever its norm.
        h, mode = paper_channels(25), SchemeMode.from_label("LMMSEP")
        h[7, 1] = h[7, 0]
        h[3] *= 1e6
        with pytest.raises(SingularMatrixError) as rejected:
            spectral_gains(h, SchemeMode.from_label("LZFP"), 0.1)
        assert rejected.value.index == 7
        with pytest.raises(SingularMatrixError):
            precoder.build(h, SchemeMode.from_label("LZFP"), 0.1)
        spectral_gains(h, mode, 1e-4)

    def test_non_finite_spectrum_or_ridge_rejected(self):
        h = paper_channels(4)
        lam, vecs = gram_spectrum(h)
        lam[2, 0] = np.nan
        with pytest.raises(SingularMatrixError, match="^matrix has non-finite entries$") as nan:
            precoder.spectral_gains((lam, vecs), SchemeMode.from_label("LMMSEP"), 0.1, 8)
        assert nan.value.index == 2
        lam, vecs = gram_spectrum(h)
        vecs[1, 3, 3] = np.inf
        with pytest.raises(SingularMatrixError, match="^matrix has non-finite entries$") as inf:
            precoder.spectral_gains((lam, vecs), SchemeMode.from_label("LMMSEP"), 0.1, 8)
        assert inf.value.index == 1
        with pytest.raises(SingularMatrixError, match="^matrix has non-finite entries$") as inf:
            spectral_gains(h, SchemeMode(1e200, 0.0), 0.1)
        assert inf.value.index == 0

    def test_zero_power_raises_as_power_scale_does(self):
        h = paper_channels(5)
        h[3] = 0.0
        mode = SchemeMode.from_label("LMMSEP")
        with pytest.raises(DegeneratePrecoderError) as built:
            precoder.build(h, mode, 0.1)
        with pytest.raises(DegeneratePrecoderError) as spectral:
            spectral_gains(h, mode, 0.1)
        assert str(spectral.value) == str(built.value)

    @pytest.mark.parametrize("sigma2", [-0.5, np.nan, np.inf])
    def test_bad_noise_variance_rejected(self, sigma2):
        h = paper_channels(2)
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            spectral_gains(h, SchemeMode(1.0, 1.0), sigma2)
