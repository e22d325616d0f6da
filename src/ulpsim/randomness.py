"""Counter-based random streams for reproducible parallel Monte Carlo.

Philox is keyed and counter-based (Salmon et al., SC'11): a master seed and
an optional integer key give a Philox key, and a work unit's index goes in
the counter, so results never depend on worker count or execution order.
Gaussian variates come from a Box-Muller transform (box_muller) with a
fixed consumption of two uniforms per complex entry, which keeps stream
alignment identical across platforms.

Stream layout 3 (STREAM_LAYOUT): realization r of an SNR reads stream r of
the (seed, SNR) key in the order derived_stream draws it: draw_user_pool,
then per frame integers(0, 2) and draw_awgn. Its words are the pool's
n_pool * n_tx u1, then as many u2; then per frame of k users and n_sym
symbols, k * n_sym bit words in (symbol, user) order, each the (re, im)
bits of one symbol, then k * n_sym noise u1 and as many u2, each in (user,
symbol) order, so frame f starts at word frame_word(n_pool, n_tx, k, n_sym,
f). `read_words` reads any words of any streams with one reused Philox,
and `draw_pools` and `draw_frame` decode them as the Generator would.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_ZEROS4 = (0, 0, 0, 0)
# Version of the mapping from a seed to the values drawn from it, written to
# the config digest and to every run_log.jsonl line. Layout 2 took the
# Box-Muller phase in float32. Layout 3 keys a stream once per (seed, key)
# and puts the realization index in the second Philox counter word.
STREAM_LAYOUT = 3
# Words a stream addresses: its counter's first word counts 2**64 blocks of 4.
STREAM_WORDS = 2**66


def stream_key(master_seed: int, key: int | None = None) -> np.ndarray:
    """Philox's uint64 key pair from SeedSequence([master_seed, key]), each masked
    to 64 bits; a key of None is left out."""
    entropy = [master_seed & _MASK64] + ([] if key is None else [int(key) & _MASK64])
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def derived_stream(master_seed: int, key: int | None = None,
                   index: int = 0) -> np.random.Generator:
    """Generator of stream `index` of (master_seed, key): Philox counters (n, index, 0, 0).

    Two streams of one key could meet only after 2**66 words. At index 0 this
    is Generator(Philox(SeedSequence([master_seed, key]))).
    """
    # Philox's constructor reads Python ints through float64; uint64 arrays stay exact.
    counter = np.array([0, index, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, key), counter=counter))


def frame_word(n_pool: int, n_tx: int, k: int, n_sym: int, frame: int) -> int:
    """The first word of frame `frame` of a stream, whose pool takes 2 * n_pool * n_tx
    words and each frame 3 * k * n_sym; frame = frames gives the end of the stream."""
    return 2 * n_pool * n_tx + 3 * frame * k * n_sym


def read_words(philox: np.random.Philox, key: np.ndarray, start: int, word: int,
               out: np.ndarray) -> np.ndarray:
    """Words [word, word + w) of streams [start, start + n) of key into out, (n, w) uint64.

    Philox makes 4 words per counter value, so stream i is read from the
    counter (word // 4, i, 0, 0), past its first word % 4 words. The call
    builds one state, its key as Python ints, and rewrites only the counter.
    """
    state = {"bit_generator": "Philox", "state": {"counter": None, "key": tuple(map(int, key))},
             "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in range(len(out)):
        state["state"]["counter"] = (word // 4, start + i, 0, 0)
        philox.state = state
        if word % 4:
            philox.random_raw(word % 4)
        out[i] = philox.random_raw(out.shape[1])
    return out


def draw_pools(philox: np.random.Philox, key: np.ndarray, start: int, stop: int,
               n_pool: int, n_tx: int) -> np.ndarray:
    """The CN(0, 1) (n_pool, n_tx) user pools of streams [start, stop), stacked."""
    # Frame 0 starts where the pool ends.
    words = np.empty((stop - start, frame_word(n_pool, n_tx, 0, 0, 0)), dtype=np.uint64)
    u = uniforms(read_words(philox, key, start, 0, words)).reshape(stop - start, 2, n_pool, n_tx)
    return box_muller(u[:, 0], u[:, 1], 1.0)


def frame_buffer(n: int, k: int, n_sym: int) -> np.ndarray:
    """A word buffer for draw_frame, reusable for up to n streams."""
    return np.empty((n, 3 * k * n_sym), dtype=np.uint64)


def draw_frame(philox: np.random.Philox, key: np.ndarray, start: int, frame: int,
               n_pool: int, n_tx: int, n_sym: int, n0: float,
               words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame `frame`'s sent bits and CN(0, n0) noise in streams [start, start + n).

    words is a frame_buffer of n rows, overwritten. The bits are (n, n_sym,
    2 * k) bools, a symbol's users in (re, im) pairs; the noise is an (n,
    n_sym, k) view of its (user, symbol) draw.
    """
    n, k = len(words), words.shape[1] // (3 * n_sym)
    read_words(philox, key, start, frame_word(n_pool, n_tx, k, n_sym, frame), words)
    sent = word_bits(words[:, :k * n_sym]).reshape(n, n_sym, 2 * k)
    u = uniforms(words[:, k * n_sym:]).reshape(n, 2, k, n_sym)
    return sent, box_muller(u[:, 0], u[:, 1], n0).swapaxes(-1, -2)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words, one each, as Generator.random makes them."""
    return (words >> 11) * 2.0**-53


def word_bits(words: np.ndarray) -> np.ndarray:
    """The bits Generator.integers(0, 2) takes from raw words, two per word, as bools.

    integers(0, 2) uses the top bit of a 32-bit half, the low half first, and
    never rejects a value for a range of 2: b0 is the sign bit of the low
    half and b1 that of the high half. Read as little-endian int32 halves
    (a copy only on a big-endian host), a contiguous last axis of n words
    becomes 2n bits in (b0, b1) order.
    """
    return words.astype("<u8", copy=False).view("<i4") < 0


def complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """i.i.d. CN(0, variance) samples; consumes exactly 2 uniforms per entry."""
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    u1 = rng.random(shape)
    return box_muller(u1, rng.random(shape), variance)


def box_muller(u1: np.ndarray, u2: np.ndarray, variance: float) -> np.ndarray:
    """CN(0, variance) samples from two same-shape arrays of uniforms in [0, 1).

    The radius sqrt(-variance * log1p(-u1)) is float64, so even u1 = 1 - 2**-53
    keeps its exact tail. The phase 2*pi*u2 is taken in float64 and cast to
    float32, whose SIMD cos and sin cost a fraction of float64's, and they
    scale the radius into the real and imaginary parts of one complex128 array.
    """
    if variance == 0.0:
        return np.zeros(u1.shape, dtype=np.complex128)
    z = np.empty(u1.shape, dtype=np.complex128)
    # Radius from u1 (log of 1-u1 avoids log(0)), phase from u2.
    r = np.sqrt(-variance * np.log1p(-u1))
    phase = (2 * np.pi * u2).astype(np.float32)
    np.multiply(r, np.cos(phase), out=z.real)
    np.multiply(r, np.sin(phase), out=z.imag)
    return z


def snr_key(snr_db: float) -> int:
    """Stable integer key for an SNR value (milli-dB resolution)."""
    return int(round(snr_db * 1000.0))
