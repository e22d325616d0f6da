"""Raw-word streams of stream layout 3 against numpy's own seeding and
Generator decoders, and the Box-Muller transform."""

import numpy as np
import pytest
from scipy import stats

from ulpsim.channel import draw_user_pool
from ulpsim.modem import draw_awgn, qpsk_modulate
from ulpsim.randomness import (
    box_muller,
    derived_stream,
    draw_frame,
    draw_pools,
    frame_buffer,
    frame_word,
    read_words,
    snr_key,
    stream_key,
    uniforms,
    word_bits,
)

MASK64 = (1 << 64) - 1
# 2**32 needs two 32-bit words, 2**53 + 1 is the first integer a float64
# cannot hold, and 2**64 - 1 is the last index.
INDICES = [0, 3, 2**32, 2**53 + 1, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 42, 2**32, 2**63 + 5, -1])
@pytest.mark.parametrize("key", [-5000, 30000, None])
def test_stream_key_matches_seed_sequence(seed, key):
    entropy = [seed & MASK64] + ([] if key is None else [key & MASK64])
    expected = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    got = stream_key(seed, key)
    assert got.dtype == np.uint64 and got.tolist() == expected.tolist()


# With one or two arguments, derived_stream draws the words that layouts 1
# and 2 drew: those of a Philox seeded by SeedSequence(args).
@pytest.mark.parametrize("args", [(0,), (42,), (-1,), (2**63 + 5,), (42, 20000), (7, 1),
                                  (-1, -5000), (2**32, 30000)])
def test_derived_stream_at_index_0_is_seed_sequence_stream(args):
    entropy = [a & MASK64 for a in args]
    expected = np.random.Philox(np.random.SeedSequence(entropy)).random_raw(100)
    for rng in (derived_stream(*args), derived_stream(*args, index=0)):
        assert np.array_equal(rng.bit_generator.random_raw(100), expected)


def test_indexed_streams_do_not_overlap():
    words = [derived_stream(42, 14000, r).bit_generator.random_raw(400) for r in range(4)]
    assert len(set(np.concatenate(words).tolist())) == 1600


def test_started_stream_is_derived_stream():
    # One reused Philox, read_words from streams in any order, keeps no state.
    philox = np.random.Philox(0)
    key = stream_key(42, 14000)
    for r in (3, 2**32, 3, 2**64 - 1, 0, 2**53 + 1):
        expected = derived_stream(42, 14000, r).bit_generator.random_raw(50)
        got = read_words(philox, key, r, 0, np.empty((1, 50), dtype=np.uint64))
        assert np.array_equal(got[0], expected), r


@pytest.mark.parametrize("word", [0, 1, 3, 4, 321])
def test_stream_started_at_a_word_is_derived_stream_from_that_word(word):
    # read_words from word `word` of each stream, one at a time and as one range.
    key = stream_key(42, 14000)
    for r in INDICES:
        expected = derived_stream(42, 14000, r).bit_generator.random_raw(word + 50)[word:]
        got = read_words(np.random.Philox(0), key, r, word, np.empty((1, 50), dtype=np.uint64))
        assert np.array_equal(got[0], expected), r
    for start in (2**32 - 1, 2**64 - 3):
        expected = [derived_stream(42, 14000, r).bit_generator.random_raw(word + 50)[word:]
                    for r in range(start, start + 3)]
        got = read_words(np.random.Philox(0), key, start, word, np.empty((3, 50), np.uint64))
        assert np.array_equal(got, expected), start


def test_uniforms_match_generator_random():
    words = derived_stream(7, 1, 2).bit_generator.random_raw(1000)
    assert np.array_equal(uniforms(words), derived_stream(7, 1, 2).random(1000))
    ends = uniforms(np.array([0, MASK64], dtype=np.uint64))
    assert ends.tolist() == [0.0, 1.0 - 2.0**-53]


def test_word_bits_match_generator_integers():
    words = derived_stream(7, 1, 2).bit_generator.random_raw(1000)
    bits = derived_stream(7, 1, 2).integers(0, 2, 2000)
    sent = word_bits(words)
    assert sent.dtype == bool and np.array_equal(sent, bits)
    assert np.array_equal(qpsk_modulate(sent), qpsk_modulate(bits))


def generator_drawing(word: int) -> np.random.Generator:
    """A Generator whose bit generator's next raw word is `word`.

    PCG64 steps its 128-bit state, then outputs rotr64(hi ^ lo, hi >> 58),
    which is lo when hi = 0: so step back once from the state `word`. Its
    32-bit draws split a word low half first, as Philox's do.
    """
    pcg = np.random.PCG64()
    pcg.state = {"bit_generator": "PCG64", "state": {"state": word, "inc": 1},
                 "has_uint32": 0, "uinteger": 0}
    pcg.advance(2**128 - 1)
    assert pcg.random_raw() == word
    pcg.advance(2**128 - 1)
    return np.random.Generator(pcg)


@pytest.mark.parametrize("word,bits", [
    (0, [0, 0]), (2**31, [1, 0]), (2**32, [0, 0]), (2**63, [0, 1]), (MASK64, [1, 1]),
])
def test_word_bits_of_edge_words(word, bits):
    assert generator_drawing(word).integers(0, 2, 2).tolist() == bits
    words = np.array([word], dtype=np.uint64)
    assert word_bits(words).tolist() == [bool(b) for b in bits]
    # A big-endian array holds the same words in the other byte order.
    assert word_bits(words.astype(">u8")).tolist() == [bool(b) for b in bits]


def test_draws_after_bits_stay_aligned():
    # An even number of bits leaves no half word, so the next draw starts a word.
    rng = derived_stream(9, 8, 7)
    bits = rng.integers(0, 2, 10)
    after = rng.random(3)
    words = derived_stream(9, 8, 7).bit_generator.random_raw(8)
    assert np.array_equal(word_bits(words[:5]), bits)
    assert np.array_equal(uniforms(words[5:]), after)


# 3 tx antennas and 5 pool users make 30 pool words, and a frame of 13
# symbols to 3 users takes 117 words, so frames 0, 1 and 2 start at words 30,
# 147 and 264: 2, 3 and 0 past a multiple of 4. The second range crosses 2**32.
@pytest.mark.parametrize("start,stop", [(0, 4), (2**32 - 2, 2**32 + 1)])
def test_pool_and_frame_draws_are_derived_stream(start, stop):
    seed, snr_db, n_pool, n_tx, k, n_sym, n0 = 11, 20.0, 5, 3, 3, 13, 0.3
    key, philox = stream_key(seed, snr_key(snr_db)), np.random.Philox(0)
    words = frame_buffer(stop - start, k, n_sym)
    # Drawn out of order: no draw depends on the one before.
    frames = {f: draw_frame(philox, key, start, f, n_pool, n_tx, n_sym, n0, words)
              for f in (2, 0, 1)}
    pools = draw_pools(philox, key, start, stop, n_pool, n_tx)
    assert pools.shape == (stop - start, n_pool, n_tx)
    for i, r in enumerate(range(start, stop)):
        rng = derived_stream(seed, snr_key(snr_db), r)
        assert np.array_equal(pools[i], draw_user_pool(rng, n_pool, n_tx)), r
        for f in range(3):
            sent, noise = frames[f]
            assert sent.dtype == bool and sent.shape == (stop - start, n_sym, 2 * k)
            bits = rng.integers(0, 2, 2 * k * n_sym)
            assert np.array_equal(sent[i], bits.reshape(n_sym, 2 * k)), (r, f)
            assert np.array_equal(noise[i], draw_awgn(rng, (k, n_sym), n0).T), (r, f)


def test_frame_word_is_where_the_generator_reaches():
    # As above, the pool takes 30 words and each frame 117.
    n_pool, n_tx, k, n_sym = 5, 3, 3, 13
    assert [frame_word(n_pool, n_tx, k, n_sym, f) for f in range(4)] == [30, 147, 264, 381]
    # After the pool and 3 frames, the stream's Generator reads word 381 next.
    rng = derived_stream(11, 7, 2)
    draw_user_pool(rng, n_pool, n_tx)
    for _ in range(3):
        rng.integers(0, 2, 2 * k * n_sym)
        draw_awgn(rng, (k, n_sym), 1.0)
    words = derived_stream(11, 7, 2).bit_generator.random_raw(382)
    assert rng.bit_generator.random_raw() == words[381]


def test_box_muller_does_not_depend_on_batching():
    # The harness transforms strided (n_real, k, n_sym) views of
    # its noise uniforms, the reference path contiguous (k, n_sym) arrays;
    # lengths 1-79 cover every SIMD tail of the float32 cos and sin.
    for n_sym in range(1, 80):
        u = derived_stream(5, n_sym).random((2, 2, 2, 3, n_sym))
        u1, u2 = u[:, :, 0], u[:, :, 1]
        batched = box_muller(u1, u2, 0.3)
        for i in range(2):
            for j in range(2):
                sliced = box_muller(u1[i, j].copy(), u2[i, j].copy(), 0.3)
                assert np.array_equal(batched[i, j], sliced), n_sym
        entries = [box_muller(a[None], b[None], 0.3)[0]
                   for a, b in zip(u1.ravel(), u2.ravel())]
        assert np.array_equal(batched.ravel(), entries), n_sym


def test_box_muller_radius_keeps_float64_tail():
    u1 = np.full(1000, 1.0 - 2.0**-53)
    u2 = np.linspace(0.0, 1.0, 1000, endpoint=False)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    z = box_muller(u1, u2, 2.0)
    assert np.allclose(np.abs(z), radius, rtol=1e-6, atol=0.0)
    # A zero phase has cos 1 and sin 0 in float32 too, so the radius is exact.
    assert z[0] == radius[0]


def test_box_muller_is_cn_distributed():
    variance = 2.5
    u = derived_stream(11, 3).random((2, 2**20))
    z = box_muller(u[0], u[1], variance)
    phase = np.angle(z) / (2 * np.pi) % 1.0
    assert stats.kstest(phase, "uniform").pvalue > 0.01
    assert stats.kstest(np.abs(z) ** 2 / variance, "expon").pvalue > 0.01
    assert np.mean(np.abs(z) ** 2) == pytest.approx(variance, rel=0.01)


def test_box_muller_dtype_and_zero_variance():
    u = derived_stream(1, 2).random((2, 4, 7))
    assert box_muller(u[0], u[1], 1.0).dtype == np.complex128
    zeros = box_muller(u[0], u[1], 0.0)
    assert zeros.dtype == np.complex128 and zeros.shape == (4, 7) and not zeros.any()
