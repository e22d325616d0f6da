import numpy as np
import pytest

from ulpsim.channel import draw_user_pool, select_users, UserPool
from ulpsim.errors import ConfigurationError
from ulpsim.randomness import derived_stream


class TestDrawUserPool:
    def test_same_seed_identical(self):
        a = draw_user_pool(derived_stream(7, 1), 20, 8)
        b = draw_user_pool(derived_stream(7, 1), 20, 8)
        assert np.array_equal(a.rows, b.rows)

    def test_dimensions(self):
        pool = draw_user_pool(derived_stream(0), 20, 8)
        assert pool.rows.shape == (20, 8)
        assert pool.rows.size == 160

    def test_entry_statistics(self):
        # 1e5+ entries: per-entry variance within 3 standard errors of 1,
        # real/imag parts within 3 standard errors of 1/2.
        pool = draw_user_pool(derived_stream(42), 1250, 80)
        z = pool.rows.ravel()
        n = z.size
        assert n == 100_000
        var = np.mean(np.abs(z) ** 2)
        # |z|^2 is Exp(1): std 1, so se of the mean is 1/sqrt(n).
        assert abs(var - 1.0) < 3.0 / np.sqrt(n)
        for part in (z.real, z.imag):
            v = np.mean(part**2)
            # part^2 has variance 2*(1/2)^2 = 1/2.
            assert abs(v - 0.5) < 3.0 * np.sqrt(0.5 / n)
        assert abs(np.mean(z.real)) < 3.0 * np.sqrt(0.5 / n)

    def test_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            draw_user_pool(derived_stream(0), 0, 8)


class TestSelectUsers:
    def test_select_all_preserves_order(self):
        pool = draw_user_pool(derived_stream(3), 5, 4)
        ch = select_users(pool, 5)
        assert ch.selected_user_indices == (0, 1, 2, 3, 4)
        assert np.array_equal(ch.H, pool.rows)

    def test_forced_ordering(self):
        rows = np.array([[5.0], [1.0], [3.0]], dtype=complex)
        ch = select_users(UserPool(rows=rows), 2)
        assert ch.selected_user_indices == (0, 2)

    def test_threshold_property(self):
        pool = draw_user_pool(derived_stream(11), 20, 8)
        ch = select_users(pool, 8)
        norms = np.linalg.norm(pool.rows, axis=1)
        chosen = set(ch.selected_user_indices)
        rest = [i for i in range(20) if i not in chosen]
        assert min(norms[i] for i in chosen) >= max(norms[i] for i in rest)

    def test_tie_break_lowest_index(self):
        rows = np.array([[1.0], [2.0], [2.0], [1.0]], dtype=complex)
        ch = select_users(UserPool(rows=rows), 3)
        assert ch.selected_user_indices == (0, 1, 2)

    def test_permutation_stability(self):
        pool = draw_user_pool(derived_stream(13), 20, 8)
        base = select_users(pool, 8)
        rng = np.random.default_rng(0)
        perm = rng.permutation(20)
        shuffled = select_users(UserPool(rows=pool.rows[perm]), 8)
        key = lambda h: sorted(map(tuple, np.round(h, 12)))
        assert key(base.H) == key(shuffled.H)

    def test_too_many_requested(self):
        pool = draw_user_pool(derived_stream(0), 4, 2)
        with pytest.raises(ConfigurationError):
            select_users(pool, 5)

