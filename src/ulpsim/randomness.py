"""Counter-based random streams for reproducible parallel Monte Carlo.

Every work unit derives its own Philox generator from a master seed plus a
tuple of integer keys, so results never depend on worker count or execution
order. Gaussian variates come from a Box-Muller transform with a fixed
consumption of two uniforms per complex entry, which keeps stream alignment
identical across platforms. The transform takes its radius in float64, so
the tails stay exact, and its phase in float32, whose SIMD `cos`/`sin` cost
a fraction of the float64 ones; STREAM_LAYOUT versions this choice.

`derived_stream` is the reference form of a stream. The harness reads the
same streams as raw 64-bit Philox words: `stream_keys` derives the Philox
keys of many realizations at once, `start_stream` points one reused Philox
at any word of a key's stream, and `uniforms` and `bit_pairs` decode words
exactly as `Generator.random` and `Generator.integers(0, 2)` would.
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
# numpy's SeedSequence constants: entropy hashing into the 4-word pool (A),
# pool mixing, and hashing the pool out into state words (B).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_ZEROS4 = (0, 0, 0, 0)
# Version of the mapping from a seed to the values drawn from it, written to
# the config digest and to every run_log.jsonl line. Layout 2 took the
# Box-Muller phase in float32; the words each draw consumes are as in 1.
STREAM_LAYOUT = 2


def derived_stream(master_seed: int, *keys: int) -> np.random.Generator:
    """Generator keyed on (master_seed, *keys); identical keys, identical stream."""
    entropy = [master_seed & _MASK64] + [int(k) & _MASK64 for k in keys]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _words32(value: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: 32-bit words, low first, at least one."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(value, hash_const: int, mult: int):
    """SeedSequence's hashmix step; value is an int or a uint64 array of 32-bit words."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _philox_key(entropy: list):
    """SeedSequence(entropy).generate_state(2, np.uint64) for 32-bit entropy words.

    Words shared by every stream stay Python ints; the ones that differ per
    stream are uint64 arrays, so the pool turns into arrays only where they
    enter it.
    """
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, hash_const = _hash(entropy[i] if i < len(entropy) else 0, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hash(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    hash_const = _INIT_B
    state = []
    for value in pool:
        value, hash_const = _hash(value, hash_const, _MULT_B)
        state.append(value)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def stream_keys(master_seed: int, key: int, indices) -> np.ndarray:
    """Philox keys of derived_stream(master_seed, key, r) for each r in indices.

    Returns an (n, 2) uint64 array: row i is the key that the SeedSequence
    of [master_seed, key, indices[i]] (each masked to 64 bits) gives Philox.
    indices must lie in [0, 2**64).
    """
    r = np.asarray(indices, dtype=np.uint64).reshape(-1)
    shared = _words32(master_seed & _MASK64) + _words32(int(key) & _MASK64)
    keys = np.empty((r.size, 2), dtype=np.uint64)
    # An index of 2**32 or more is two entropy words, which changes the hashing.
    for rows, n_words in ((r <= _MASK32, 1), (r > _MASK32, 2)):
        if rows.any():
            words = [r[rows] & _MASK32, r[rows] >> 32][:n_words]
            keys[rows, 0], keys[rows, 1] = _philox_key(shared + words)
    return keys


def start_stream(philox: np.random.Philox, key, word: int = 0) -> np.random.Philox:
    """Point a reused Philox at word `word` of the stream of key, a stream_keys row.

    Its words are then those of the bit generator of the matching
    derived_stream, from word `word` on. Philox makes 4 words per counter
    value, so the counter is set to word // 4 and the first word % 4 words
    of that value are discarded. Returns philox.
    """
    philox.state = {"bit_generator": "Philox",
                    "state": {"counter": (word // 4, 0, 0, 0), "key": key},
                    "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    if word % 4:
        philox.random_raw(word % 4)
    return philox


def uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words, one each, as Generator.random makes them."""
    return (words >> 11) * 2.0**-53


def bit_pairs(words: np.ndarray) -> np.ndarray:
    """b0 + 2*b1 of the two bits Generator.integers(0, 2) takes from each raw word.

    integers(0, 2) uses the top bit of a 32-bit half, the low half first, and
    never rejects a value for a range of 2: b0 is bit 31 and b1 bit 63.
    """
    return (words >> 31 & 1) | (words >> 62 & 2)


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
    float32, and its float32 cos and sin scale the radius into the real and
    imaginary parts of one complex128 array. Each entry consumes one u1 and
    one u2, whatever the precision, so the words every stream reads are as
    in layout 1; only the values differ, by up to about 3e-7 relative.
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
