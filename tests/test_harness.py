import json
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from ulpsim import cli, harness, precoder
from ulpsim.channel import draw_user_pool, select_users
from ulpsim.errors import ConfigurationError, SingularMatrixError
from ulpsim.harness import (
    BerRecord,
    BerTable,
    SimulationConfig,
    _cell_gains,
    _range_errors,
    _spectrum,
    draw_channels,
    run_point,
    run_sweep,
    snr_db_to_noise_variance,
)
from ulpsim.modem import draw_awgn, qpsk_demodulate, qpsk_modulate, transmit_receive
from ulpsim.precoder import SchemeMode
from ulpsim.randomness import derived_stream, draw_pools, snr_key, stream_key

TINY = SimulationConfig(realizations=6, frames=2, symbols_per_frame=10, seed=99)


def channels_of(config, snr_db, start, stop):
    """Channels of realizations [start, stop), as the engine is given them.

    A slice of draw_channels; past the config's realizations (the indices
    near 2**64), the users select_users keeps of one draw_pools block, which
    draw_channels is made of.
    """
    if stop <= config.realizations:
        return draw_channels(config, snr_db)[start:stop]
    key = stream_key(config.seed, snr_key(snr_db))
    pools = draw_pools(np.random.Philox(0), key, start, stop, config.pool_users,
                       config.tx_antennas)
    return select_users(pools, config.active_users)


def gains_of(config, scheme, snr_db, start, stop):
    """The gains of realizations [start, stop), from the spectrum of their channels."""
    return _cell_gains(config, scheme, snr_db, _spectrum(channels_of(config, snr_db, start, stop)))


def range_errors(config, scheme, snr_db, start, stop):
    """_range_errors of realizations [start, stop) on their gains."""
    return _range_errors(config, snr_db, start, gains_of(config, scheme, snr_db, start, stop))


class TestSnrMapping:
    def test_zero_db(self):
        assert snr_db_to_noise_variance(0.0) == pytest.approx(1.0)

    def test_ten_db(self):
        assert snr_db_to_noise_variance(10.0) == pytest.approx(0.1)

    def test_fourteen_db(self):
        assert snr_db_to_noise_variance(14.0) == pytest.approx(10.0**-1.4)


class TestConfigValidation:
    def test_default_is_valid(self):
        SimulationConfig()

    def test_active_exceeds_pool(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(pool_users=4, active_users=8, tx_antennas=8)

    def test_active_must_equal_tx(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(pool_users=20, active_users=4, tx_antennas=8)

    def test_counts_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(realizations=0)

    # A refused value is named by its field; an integer of any type is
    # stored as a Python int, so that digest() can serialize it.
    @pytest.mark.parametrize("values,refused", [
        (dict(realizations=2.5), "realizations"), (dict(frames=1.5), "frames"),
        (dict(seed=1.5), "seed"), (dict(tx_antennas=8.0, active_users=8.0), "tx_antennas"),
        (dict(symbols_per_frame="4"), "symbols_per_frame"),
        (dict(realizations=np.int64(4), seed=np.uint64(2**64 - 1), pool_users=np.int8(9),
              tx_antennas=np.int32(8), active_users=np.int16(8), frames=np.uint8(2),
              symbols_per_frame=np.intp(3)), None),
        # A bool is not a count: True would run 1 realization, False seed 0.
        (dict(realizations=True), "realizations"), (dict(seed=False), "seed"),
    ], ids=["realizations", "frames", "seed", "float_geometry", "string", "numpy_integers",
            "bool_realizations", "bool_seed"])
    def test_counts_and_seed_are_integers(self, values, refused):
        if refused:
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"{refused} must be an integer, got {values[refused]!r}")):
                SimulationConfig(**values)
            return
        config = SimulationConfig(**values)
        assert all(type(getattr(config, name)) is int for name in values)
        plain = SimulationConfig(**{name: int(value) for name, value in values.items()})
        assert config == plain and config.digest() == plain.digest()

    # Every accepted float is stored as a Python float and the flag as a
    # Python bool, so that digest() and the run log serialize the config.
    @pytest.mark.parametrize("values,plain", [
        (dict(snr_db=(np.float32(14.0), 20)), dict(snr_db=(14.0, 20.0))),
        (dict(snr_offset_db=np.float32(1.0)), dict(snr_offset_db=1.0)),
        (dict(normalize_data_block_only=np.bool_(True)), dict(normalize_data_block_only=True)),
        (dict(schemes=(SchemeMode(np.float32(1.0), 0.0),)),
         dict(schemes=(SchemeMode(1.0, 0.0),))),
    ], ids=["numpy_snr", "numpy_offset", "numpy_flag", "numpy_scheme_weight"])
    def test_numpy_scalars_are_stored_as_python_values(self, values, plain, tmp_path):
        config, reference = SimulationConfig(**values), SimulationConfig(**plain)
        assert config == reference and config.digest() == reference.digest()
        assert all(type(s) is float for s in config.snr_db)
        assert type(config.snr_offset_db) is float
        assert type(config.normalize_data_block_only) is bool
        scheme = config.schemes[0]
        assert type(scheme.u) is float and type(scheme.m) is float
        record = BerRecord(scheme.label, scheme.u, scheme.m, config.snr_db[0], 0,
                           config.bits_per_point)
        cli.emit_run_log(BerTable(records=(record,), config=config), tmp_path / "log.jsonl")
        logged = json.loads((tmp_path / "log.jsonl").read_text())
        assert logged["config_sha256"] == reference.digest()

    @pytest.mark.parametrize("values,refused", [
        (dict(snr_db=(14.0, True)), "snr_db"), (dict(snr_db=("14",)), "snr_db"),
        (dict(snr_offset_db=False), "snr_offset_db"), (dict(snr_offset_db="1"), "snr_offset_db"),
    ], ids=["bool_snr", "string_snr", "bool_offset", "string_offset"])
    def test_floats_refuse_bools_and_strings(self, values, refused):
        value = values[refused][-1] if refused == "snr_db" else values[refused]
        with pytest.raises(ConfigurationError, match=re.escape(
                f"{refused} must be a real number, got {value!r}")):
            SimulationConfig(**values)

    # "no" would be read as true, normalizing over the data block alone
    # while the record says otherwise. A number equal to 0 or 1 is no flag either.
    @pytest.mark.parametrize("flag", ["no", "False", 2, None, np.nan, 1, 1.0, 0.0])
    def test_flag_must_equal_true_or_false(self, flag):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"normalize_data_block_only must be True or False, got {flag!r}")):
            SimulationConfig(normalize_data_block_only=flag)

    def test_list_fields_are_stored_as_tuples(self):
        schemes = [SchemeMode.from_label("LZFP"), SchemeMode.from_label("ULMMSEP")]
        config = SimulationConfig(snr_db=[14.0, 20.0], schemes=schemes)
        reference = SimulationConfig(snr_db=(14.0, 20.0), schemes=tuple(schemes))
        assert type(config.snr_db) is tuple and type(config.schemes) is tuple
        assert config == reference and hash(config) == hash(reference)

    @pytest.mark.parametrize("schemes", [("LZFP",), (None,), (SchemeMode(0.0, 0.0), 1.0)])
    def test_schemes_must_be_scheme_modes(self, schemes):
        with pytest.raises(ConfigurationError, match="^schemes must hold SchemeMode values, got "):
            SimulationConfig(schemes=schemes)

    @pytest.mark.parametrize("snr_db", [(20.0, 20.0), (20.0, 20.0004)])
    def test_snrs_sharing_a_stream_key(self, snr_db):
        with pytest.raises(ConfigurationError, match="milli-dB"):
            SimulationConfig(snr_db=snr_db)

    def test_colliding_snrs_are_named_with_their_key(self):
        # Keys are round(1000 * snr_db), ties half to even: 1.5 and 2.5 both
        # round to 2, while 0.5 and 1.4, 0.9 milli-dB apart, round to 0 and 1.
        message = ("snr_db values must differ by at least 1 milli-dB after rounding: 0.0015 "
                   "and 0.0025 share the key round(1000 * snr_db) = 2, with ties rounded "
                   "half to even")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SimulationConfig(snr_db=(0.0015, 0.0025))
        assert SimulationConfig(snr_db=(0.0005, 0.0014)).snr_db == (0.0005, 0.0014)

    def test_replace_is_checked(self):
        with pytest.raises(ConfigurationError, match="milli-dB"):
            replace(SimulationConfig(), snr_db=(20.0, 20.0004))

    @pytest.mark.parametrize("snr_db,offset", [
        (np.nan, 0.0), (np.inf, 0.0), (1e306, 0.0), (-4000.0, 0.0), (14.0, np.nan),
        (14.0, np.inf),
    ])
    def test_snr_needs_finite_noise_variance(self, snr_db, offset):
        with pytest.raises(ConfigurationError, match="noise variance"):
            SimulationConfig(snr_db=(snr_db,), snr_offset_db=offset)

    def test_repeated_scheme_label_rejected(self):
        # Two ULZFP schemes with different u would still share one label.
        schemes = (SchemeMode.from_label("LZFP"), SchemeMode(1.0, 0.0), SchemeMode(2.0, 0.0))
        with pytest.raises(ConfigurationError, match="repeat"):
            SimulationConfig(schemes=schemes)

    # read_words addresses a stream's first 2**66 words. One user of one
    # antenna in a pool of 2 takes 4 pool words and 3 per symbol, so its
    # last frame can end exactly at word 2**66; the paper's 20 x 8 pool
    # takes 320 words and each symbol of 8 users 24.
    @pytest.mark.parametrize("geometry,pool_words,symbol_words", [
        (dict(tx_antennas=1, pool_users=2, active_users=1), 4, 3), ({}, 320, 24),
    ], ids=["one_user", "paper"])
    def test_frames_end_within_the_stream(self, geometry, pool_words, symbol_words):
        most = (2**66 - pool_words) // symbol_words
        SimulationConfig(frames=most, symbols_per_frame=1, **geometry)
        SimulationConfig(frames=1, symbols_per_frame=most, **geometry)
        for frames, symbols in ((most + 1, 1), (1, most + 1), (10**20, 1)):
            words = pool_words + symbol_words * frames * symbols
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"{frames} frames of {symbols} symbols end at word {words} of a stream, "
                    "past the 2**66 words the stream layout addresses")):
                SimulationConfig(frames=frames, symbols_per_frame=symbols, **geometry)

    def test_bits_per_point(self):
        assert SimulationConfig().bits_per_point == 1000 * 10 * 100 * 8 * 2

    def test_digest_changes_with_seed(self):
        assert SimulationConfig(seed=1).digest() != SimulationConfig(seed=2).digest()

    def test_digest_changes_with_every_field(self):
        changed = {
            "tx_antennas": 4, "pool_users": 10, "active_users": 4, "snr_db": (14.0,),
            "schemes": tuple(SchemeMode.from_label(s, u=2.0) for s in precoder.LABELS),
            "realizations": 999, "frames": 9, "symbols_per_frame": 99, "seed": 1,
            "snr_offset_db": 0.5, "normalize_data_block_only": True,
        }
        assert set(changed) == {f.name for f in fields(SimulationConfig)}
        base = SimulationConfig().digest()
        for name, value in changed.items():
            # Set alone, some values (active_users=4) make no valid config.
            config = SimulationConfig()
            object.__setattr__(config, name, value)
            assert config.digest() != base, name

    def test_digest_changes_with_stream_layout(self, monkeypatch):
        from ulpsim import config

        base = SimulationConfig().digest()
        monkeypatch.setattr(config, "STREAM_LAYOUT", config.STREAM_LAYOUT + 1)
        assert SimulationConfig().digest() != base

    def test_default_digest_is_pinned(self):
        assert SimulationConfig().digest() == (
            "1f12d79fbd290d09c8403a2e811e4ed04b9289a78cb1ff214bc70c1d0e89a230")


class TestRunPoint:
    def test_deterministic_across_worker_counts(self):
        scheme = SchemeMode.from_label("LMMSEP")
        records = [run_point(TINY, scheme, 10.0, workers=w) for w in (1, 2, 4)]
        assert len({r.bit_errors for r in records}) == 1

    def test_pool_is_sized_to_its_chunks(self, monkeypatch):
        import concurrent.futures

        sizes, submitted = [], []

        class InlinePool:
            """Records max_workers and runs each submission at once; starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                submitted.append((args[-2], len(args[-1])))
                done = concurrent.futures.Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        scheme = SchemeMode.from_label("LZFP")
        serial = run_point(TINY, scheme, 10.0, workers=1)
        for cpus in (None, 4, 64):
            sizes.clear()
            submitted.clear()
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
            assert run_point(TINY, scheme, 10.0, workers=10**6) == serial
            # One chunk per realization, in a pool no larger than the CPUs.
            assert sizes == [min(TINY.realizations, cpus or 1)]
            assert submitted == [(r, 1) for r in range(TINY.realizations)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lone_cell_draws_its_channels_once(self, monkeypatch, workers):
        # Once, in the calling process; each chunk gets its slice.
        calls = []
        original = harness.draw_channels

        def counted(config, snr_db):
            calls.append(snr_db)
            return original(config, snr_db)

        monkeypatch.setattr(harness, "draw_channels", counted)
        scheme = SchemeMode.from_label("LMMSEP")
        record = run_point(TINY, scheme, 8.0, workers=workers)
        assert calls == [8.0]
        assert record.bit_errors == reference_errors(TINY, scheme, 8.0, 0, TINY.realizations)

    def test_noiseless_zero_forcing_is_error_free(self):
        # SNR large enough that 10^(-snr/10) underflows to exactly 0.
        record = run_point(TINY, SchemeMode(0.0, 0.0), 4000.0)
        assert snr_db_to_noise_variance(4000.0) == 0.0
        assert record.bit_errors == 0

    def test_noiseless_unified_floor(self):
        # README's floor: at 4000 dB the noise variance is 0, so ULMMSEP's
        # regularizer u^2 + m * 0 is ULZFP's, and both keep the residual
        # interference of u = 1, while zero forcing removes it.
        config = SimulationConfig(realizations=2000, frames=1, symbols_per_frame=100, seed=1)
        ulzfp, ulmmsep, lzfp = (run_point(config, SchemeMode.from_label(label), 4000.0)
                                for label in ("ULZFP", "ULMMSEP", "LZFP"))
        assert ulzfp.bit_errors == ulmmsep.bit_errors
        assert 8e-3 <= ulzfp.ber <= 1.2e-2
        assert lzfp.bit_errors == 0

    # TINY's realizations carry 2 frames of 80 entries (8 users x 10
    # symbols). With BLOCK_ENTRIES 1, below a frame, blocks hold 1
    # realization; 160 gives blocks of 2, and 400 blocks of 5 with a partial
    # last block; 800, 2048, 8192 and 10**6 give one block of all 6.
    @pytest.mark.parametrize("label", ["LZFP", "ULMMSEP"])
    @pytest.mark.parametrize("block_entries", [1, 160, 400, 800, 2048, 8192, 10**6])
    def test_range_count_does_not_depend_on_blocking(self, monkeypatch, label, block_entries):
        scheme = SchemeMode.from_label(label)
        whole = range_errors(TINY, scheme, 8.0, 0, TINY.realizations)
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
        parts = [(0, 1), (1, 5), (5, 6)]
        assert sum(range_errors(TINY, scheme, 8.0, a, b) for a, b in parts) == whole
        assert range_errors(TINY, scheme, 8.0, 0, TINY.realizations) == whole
        assert 0 < whole <= TINY.bits_per_point

    # 14 realizations of 3 frames of 800 symbols, with 160 pool entries each,
    # so the frames bind. With BLOCK_ENTRIES 1 and 500, below a frame, and
    # 900, blocks hold 1 realization; 2048 gives blocks of 2, 8192 blocks of
    # 10 and 4, and 20480, the default, one block of all 14. Every frame,
    # the first included, is read at its stream offset.
    @pytest.mark.parametrize("block_entries", [1, 500, 900, 2048, 8192, 20480])
    def test_split_frames_of_many_realizations_match_reference(self, monkeypatch,
                                                               block_entries):
        config = SimulationConfig(realizations=14, frames=3, symbols_per_frame=100, seed=5)
        scheme = SchemeMode.from_label("LMMSEP")
        expected = reference_errors(config, scheme, 4.0, 0, 14)
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
        assert range_errors(config, scheme, 4.0, 0, 14) == expected > 0
        parts = [(0, 3), (3, 13), (13, 14)]
        assert sum(range_errors(config, scheme, 4.0, a, b) for a, b in parts) == expected

    # One tx antenna serving 1 of 1 users: a block's 20480 entries hold only
    # one 20000-symbol frame, so the range is taken a realization at a time
    # and needs no more memory than one of them. The gains are computed
    # before tracing starts, so the peak is the engine's working memory alone.
    def test_long_frames_of_a_small_pool_take_one_realization_at_a_time(self):
        config = SimulationConfig(tx_antennas=1, pool_users=1, active_users=1,
                                  realizations=16, frames=2, symbols_per_frame=20000, seed=3)
        scheme = SchemeMode.from_label("LZFP")

        def peak_bytes(stop):
            gains = gains_of(config, scheme, 10.0, 0, stop)
            tracemalloc.start()
            try:
                _range_errors(config, 10.0, 0, gains)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(16) < 2 * peak_bytes(1)

    # 1-frame realizations of 20 symbols to 8 users: a block holds the 128
    # whose frames fit BLOCK_ENTRIES, so a range of 2000 is 16 blocks, the
    # last partial, and needs no more memory than one of them. The gains are
    # computed before tracing starts (see TestDrawChannels for the draw).
    def test_many_short_realizations_take_one_block_at_a_time(self):
        config = SimulationConfig(realizations=2000, frames=1, symbols_per_frame=20, seed=8)
        scheme = SchemeMode.from_label("ULMMSEP")

        def peak_bytes(stop):
            gains = gains_of(config, scheme, 10.0, 0, stop)
            tracemalloc.start()
            try:
                _range_errors(config, 10.0, 0, gains)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(2000) < 2 * peak_bytes(harness.BLOCK_ENTRIES // 160)

    def test_singular_build_names_its_realization(self):
        # The gains of a cell are computed from the spectrum of all its
        # realizations, so a matrix's index in the stack is its realization.
        channels = draw_channels(TINY, 8.0).copy()
        channels[3] = 0.0
        message = r"^precoder build failed at realization 3 \(scheme LZFP, 8.0 dB\): matrix is"
        with pytest.raises(SingularMatrixError, match=message):
            _cell_gains(TINY, SchemeMode.from_label("LZFP"), 8.0, _spectrum(channels))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            run_point(TINY, SchemeMode.from_label("LZFP"), 10.0, workers=workers)

    @pytest.mark.parametrize("workers", [2.0, "2", None, True])
    def test_workers_must_be_an_integer(self, workers):
        # The config's integer rule: True is not one worker, nor 2.0 two.
        with pytest.raises(ConfigurationError, match="^workers must be an integer, got "):
            run_point(TINY, SchemeMode.from_label("LZFP"), 10.0, workers=workers)
        with pytest.raises(ConfigurationError, match="^workers must be an integer, got "):
            run_sweep(TINY, workers=workers)

    def test_numpy_integer_workers_run(self):
        record = run_point(TINY, SchemeMode.from_label("LZFP"), 10.0, workers=np.int64(2))
        assert record == run_point(TINY, SchemeMode.from_label("LZFP"), 10.0)

    def test_sweep_checks_workers_before_it_draws(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(harness, "draw_channels", lambda *args: drawn.append(args))
        with pytest.raises(ConfigurationError, match="^workers must be >= 1, got 0$"):
            run_sweep(TINY, workers=0)
        assert drawn == []

    def test_point_snr_checked(self):
        with pytest.raises(ConfigurationError, match="noise variance"):
            run_point(TINY, SchemeMode.from_label("LZFP"), float("nan"))

    def test_record_metadata(self):
        record = run_point(TINY, SchemeMode.from_label("LZFP"), 6.0)
        assert record.scheme_label == "LZFP"
        assert record.bits_total == TINY.bits_per_point
        assert 0.0 <= record.ber <= 1.0

    def test_standard_error_formula(self):
        record = BerRecord("LZFP", 0.0, 0.0, 10.0, bit_errors=50, bits_total=1000)
        p = 0.05
        assert record.standard_error == pytest.approx(np.sqrt(p * (1 - p) / 1000))
        assert not record.low_confidence
        assert BerRecord("LZFP", 0, 0, 10.0, 9, 1000).low_confidence

    @pytest.mark.parametrize("label,snr_db,bit_errors,bits_total,message", [
        ("LMMSEP", 10.0, 5, 1000, "scheme LMMSEP has u = 0.0, m = 0.0, which make LZFP"),
        ("LZFP", 10.0, 0, 0, "bits_total must be >= 1, got 0"),
        ("LZFP", 10.0, -1, 1000, "bit_errors must be between 0 and bits_total 1000, got -1"),
        ("LZFP", 10.0, 1001, 1000,
         "bit_errors must be between 0 and bits_total 1000, got 1001"),
        ("LZFP", float("nan"), 5, 1000, "snr_db must be finite, got nan"),
    ], ids=["mislabelled", "no_bits", "negative_errors", "errors_past_total", "nan_snr"])
    def test_invalid_record_rejected(self, label, snr_db, bit_errors, bits_total, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            BerRecord(label, 0.0, 0.0, snr_db, bit_errors, bits_total)

    @pytest.mark.parametrize("field,value,message", [
        ("bit_errors", 2.5, "bit_errors must be an integer, got 2.5"),
        ("bit_errors", None, "bit_errors must be an integer, got None"),
        ("bits_total", "10", "bits_total must be an integer, got '10'"),
        ("snr_db", True, "snr_db must be a real number, got True"),
        ("bit_errors", True, "bit_errors must be an integer, got True"),
    ], ids=["fractional_errors", "no_errors", "string_total", "bool_snr", "bool_errors"])
    def test_record_field_types_rejected(self, field, value, message):
        values = dict(scheme_label="LZFP", u=0.0, m=0.0, snr_db=14.0, bit_errors=2, bits_total=10)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            BerRecord(**{**values, field: value})

    def test_record_stores_python_values(self):
        record = BerRecord("LMMSEP", np.float32(0.0), np.int64(1), np.float32(14.0),
                           np.int64(3), np.uint32(10))
        assert [type(getattr(record, f.name)) for f in fields(record)] == [
            str, float, float, float, int, int]
        assert record == BerRecord("LMMSEP", 0.0, 1.0, 14.0, 3, 10)


def reference_errors(config, scheme, snr_db, start, stop):
    """range_errors one realization at a time, through derived_stream and the public layers."""
    k, n_sym = config.active_users, config.symbols_per_frame
    n0 = snr_db_to_noise_variance(snr_db + config.snr_offset_db)
    errors = 0
    for r in range(start, stop):
        rng = derived_stream(config.seed, snr_key(snr_db), r)
        h = select_users(draw_user_pool(rng, config.pool_users, config.tx_antennas), k)
        prec = precoder.build(h, scheme, n0, config.normalize_data_block_only)
        for _ in range(config.frames):
            bits = rng.integers(0, 2, 2 * k * n_sym)
            x = qpsk_modulate(bits).reshape(n_sym, k).T
            est = transmit_receive(h, prec, x, draw_awgn(rng, (k, n_sym), n0))
            errors += int(np.count_nonzero(qpsk_demodulate(est.T.reshape(-1)) != bits))
    return errors


class TestRangeErrorsMatchReference:
    """The raw-word engine against the per-realization draws it replaces.

    The engine's gains come from the spectrum, the reference's from
    precoder.build; the counts are equal.

    At the default BLOCK_ENTRIES, 20x10x100 puts all 20 realizations in one
    block (25 would fit), 600x1x1 all 600 (2560 would fit), and 3x7x700 all 3
    (3 would fit).
    """

    @pytest.mark.parametrize("shape,seed,snr_db,offset,label,data_block_only", [
        ((20, 10, 100), 42, -5.0, 0.0, "LMMSEP", False),
        ((20, 10, 100), 2**40 + 3, 4000.0, 0.0, "ULZFP", True),
        ((600, 1, 1), 2**40 + 3, 14.0, -15.0, "ULMMSEP", True),
        ((600, 1, 1), 7, -5.0, 0.0, "LZFP", False),
        ((3, 7, 700), 2**40 + 3, -5.0, -15.0, "ULMMSEP", False),
        ((3, 7, 700), 42, 20.0, -15.0, "LZFP", True),
    ])
    def test_range_equals_reference(self, shape, seed, snr_db, offset, label, data_block_only):
        realizations, frames, symbols = shape
        config = SimulationConfig(realizations=realizations, frames=frames,
                                  symbols_per_frame=symbols, seed=seed, snr_offset_db=offset,
                                  normalize_data_block_only=data_block_only)
        scheme = SchemeMode.from_label(label)
        errors = range_errors(config, scheme, snr_db, 0, realizations)
        assert errors == reference_errors(config, scheme, snr_db, 0, realizations)
        assert errors > 0

    # 3 tx antennas and 5 pool users: 30 pool words, then frames of 3159
    # words, so frames 0 to 4 start at words 30, 3189, 6348, 9507 and 12666,
    # which are 2, 1, 0, 3 and 2 past a multiple of 4. Every frame, the first
    # included, is read at its own offset. The 1053-symbol frames bind: with
    # BLOCK_ENTRIES 1 and 2048 blocks hold 1 realization, with 3159 they hold
    # 3 and a partial 1, and with 10**6 all 4 share one block.
    @pytest.mark.parametrize("block_entries", [1, 2048, 3159, 10**6])
    def test_unaligned_stream_offsets(self, monkeypatch, block_entries):
        config = SimulationConfig(tx_antennas=3, active_users=3, pool_users=5,
                                  realizations=4, frames=5, symbols_per_frame=351, seed=11)
        scheme = SchemeMode.from_label("ULMMSEP")
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
        errors = range_errors(config, scheme, 0.0, 0, 4)
        assert errors == reference_errors(config, scheme, 0.0, 0, 4) > 0

    # 300x1x20 at the default BLOCK_ENTRIES: frames of 8 users x 20 symbols
    # make blocks of 128 realizations, so the whole range makes blocks of
    # 128, 128 and a partial 44, and the parts (0, 7), (7, 251) and (251,
    # 300) make blocks of 7, then 128 and a partial 116, then 49.
    def test_frame_budget_binds_with_a_partial_last_block(self):
        assert harness.BLOCK_ENTRIES // (8 * 20) == 128
        config = SimulationConfig(realizations=300, frames=1, symbols_per_frame=20, seed=21)
        scheme = SchemeMode.from_label("LMMSEP")
        expected = reference_errors(config, scheme, 0.0, 0, 300)
        assert range_errors(config, scheme, 0.0, 0, 300) == expected > 0
        parts = [(0, 7), (7, 251), (251, 300)]
        assert sum(range_errors(config, scheme, 0.0, a, b) for a, b in parts) == expected

    def test_exact_zero_decides_bit_zero(self):
        # As in qpsk_demodulate: with every estimate exactly 0, each 1 bit sent
        # is an error. Zero gains at a noiseless SNR (4000 dB, whose noise
        # variance underflows to 0) make every received part +-0.
        config = SimulationConfig(realizations=3, frames=2, symbols_per_frame=5)
        k, n_sym = config.active_users, config.symbols_per_frame
        ones = 0
        for r in range(config.realizations):
            rng = derived_stream(config.seed, snr_key(4000.0), r)
            draw_user_pool(rng, config.pool_users, config.tx_antennas)
            for _ in range(config.frames):
                ones += int(rng.integers(0, 2, 2 * k * n_sym).sum())
                draw_awgn(rng, (k, n_sym), 1.0)
        gains = np.zeros((config.realizations, k, k), dtype=np.complex128)
        assert _range_errors(config, 4000.0, 0, gains) == ones > 0

    def test_indices_past_32_bits(self):
        # A range across 2**53 + 1, the first index a float64 cannot hold,
        # and one that ends at the last index, 2**64 - 1.
        config = SimulationConfig(frames=2, symbols_per_frame=50, seed=2**64 - 1)
        scheme = SchemeMode.from_label("ULZFP")
        for start, stop in ((2**53 - 1, 2**53 + 2), (2**64 - 3, 2**64)):
            errors = range_errors(config, scheme, 0.0, start, stop)
            assert errors == reference_errors(config, scheme, 0.0, start, stop) > 0, start


def reference_channels(config, snr_db, start, stop):
    """Channel r of [start, stop) through derived_stream and the public channel layer."""
    return np.array([
        select_users(draw_user_pool(derived_stream(config.seed, snr_key(snr_db), r),
                                    config.pool_users, config.tx_antennas), config.active_users)
        for r in range(start, stop)])


# 3 tx antennas and 5 pool users make 30 pool words, so frame 0 starts 2
# words past a multiple of 4.
ODD_POOL = SimulationConfig(tx_antennas=3, active_users=3, pool_users=5, realizations=7,
                            frames=3, symbols_per_frame=13, seed=11)


class TestDrawChannels:
    # The paper's 20 x 8 pools make blocks of 128 realizations, so 300 end
    # in a partial block of 44; ODD_POOL's 7 fit one block.
    @pytest.mark.parametrize("config,snr_db", [
        (SimulationConfig(realizations=300, frames=1, symbols_per_frame=1, seed=21), 14.0),
        (ODD_POOL, 0.0),
    ], ids=["paper_partial_block", "odd_pool"])
    def test_equals_reference(self, config, snr_db):
        channels = draw_channels(config, snr_db)
        assert channels.shape == (config.realizations, config.active_users, config.tx_antennas)
        expected = reference_channels(config, snr_db, 0, config.realizations)
        assert channels.tobytes() == expected.tobytes()
        assert not channels.flags.writeable

    def test_indices_past_53_bits(self):
        # Across 2**53 + 1, the first index a float64 cannot hold, and up to
        # the last index, 2**64 - 1.
        config = SimulationConfig(seed=2**64 - 1)
        for start, stop in ((2**53 - 1, 2**53 + 2), (2**64 - 3, 2**64)):
            got = channels_of(config, 20.0, start, stop)
            assert got.tobytes() == reference_channels(config, 20.0, start, stop).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("config,label,snr_db", [
        (TINY, "LMMSEP", 8.0),
        (ODD_POOL, "ULMMSEP", 0.0),
        (SimulationConfig(realizations=300, frames=1, symbols_per_frame=1, seed=21), "LZFP",
         0.0),
    ], ids=["tiny", "odd_pool", "paper_partial_block"])
    def test_shared_channels_give_the_lone_count(self, workers, config, label, snr_db):
        scheme = SchemeMode.from_label(label)
        # As in a sweep: gains from the spectrum of the SNR's shared channels.
        lone = run_point(config, scheme, snr_db, workers=workers)
        shared = run_point(config, scheme, snr_db, workers=workers,
                           gains=gains_of(config, scheme, snr_db, 0, config.realizations))
        assert shared == lone
        assert lone.bit_errors == reference_errors(config, scheme, snr_db, 0,
                                                   config.realizations) > 0

    # 2000 realizations of the paper's 20 x 8 pool are drawn in blocks of
    # 128, so beyond the channels it returns, the draw needs no more memory
    # than one such block.
    def test_working_memory_is_one_pool_block(self):
        def working_bytes(realizations):
            config = SimulationConfig(realizations=realizations, frames=1,
                                      symbols_per_frame=1, seed=8)
            tracemalloc.start()
            try:
                channels = draw_channels(config, 10.0)
                return tracemalloc.get_traced_memory()[1] - channels.nbytes
            finally:
                tracemalloc.stop()

        working_bytes(1)  # the first draw in a process also fills one-time caches
        assert working_bytes(2000) < 2 * working_bytes(harness.BLOCK_ENTRIES // 160)

    @pytest.mark.parametrize("shape", [(5, 8, 8), (7, 8, 8), (6, 8, 7), (6, 64), (8, 8)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"gains must have shape (6, 8, 8) "
                                           f"(realizations, active_users, active_users), "
                                           f"got {shape}")):
            run_point(TINY, SchemeMode.from_label("LZFP"), 10.0,
                      gains=np.zeros(shape, dtype=np.complex128))

    @pytest.mark.parametrize("shape", [(5, 8, 8), (6, 8, 7), (8, 8)])
    def test_wrong_gains_shape_rejected(self, shape):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"gains must have shape (6, 8, 8) "
                                           f"(realizations, active_users, active_users), "
                                           f"got {shape}")):
            run_point(TINY, SchemeMode.from_label("LMMSEP"), 10.0,
                      gains=np.zeros(shape, dtype=np.complex128))

    @pytest.mark.parametrize("bad,at", [
        (complex(np.nan, 0.0), 0), (complex(np.inf, 0.0), 3), (complex(0.0, -np.inf), 5),
        (complex(np.nan, np.nan), 2),
    ], ids=["nan", "inf", "imag_neg_inf", "nan_nan"])
    def test_non_finite_gains_rejected(self, bad, at):
        # A NaN y decides bit 0, so such gains would give a record with no warning.
        gains = np.repeat(np.eye(8, dtype=np.complex128)[None], 6, axis=0)
        gains[at:, 2, 5] = bad
        with pytest.raises(ConfigurationError,
                           match=f"^gains of realization {at} hold a non-finite entry$"):
            run_point(TINY, SchemeMode.from_label("LZFP"), 20.0, gains=gains)


class TestRunSweep:
    def test_cardinality_and_ordering(self):
        cfg = SimulationConfig(realizations=2, frames=1, symbols_per_frame=4)
        table = run_sweep(cfg)
        assert len(table.records) == 12
        keys = [(r.snr_db, r.scheme_label) for r in table.records]
        for i in range(0, 12, 4):
            group = keys[i : i + 4]
            assert len({snr for snr, _ in group}) == 1
            assert [s for _, s in group] == sorted(s for _, s in group)
        assert [k[0] for k in keys] == sorted(k[0] for k in keys)

    def test_ber_non_increasing_with_snr(self):
        cfg = SimulationConfig(realizations=40, frames=2, symbols_per_frame=20,
                               snr_db=(0.0, 10.0), seed=7)
        table = run_sweep(cfg)
        for label in ("LZFP", "LMMSEP"):
            low = table.lookup(label, 0.0)
            high = table.lookup(label, 10.0)
            slack = 3.0 * (low.standard_error + high.standard_error)
            assert high.ber <= low.ber + slack

    def test_sweep_is_reproducible(self):
        cfg = SimulationConfig(realizations=3, frames=1, symbols_per_frame=5)
        a = run_sweep(cfg)
        b = run_sweep(cfg, workers=2)
        assert [r.bit_errors for r in a.records] == [r.bit_errors for r in b.records]

    def test_sweep_calls_run_point_once_per_cell(self, monkeypatch):
        """run_sweep looks run_point up as a module global once per (SNR, scheme).

        The benchmark in bench/ times those calls: its closed loop runs until
        it has seen a minimum number of them (MIN_CALLS), and point_ms_p50 is
        their median latency. A sweep that stopped calling run_point would
        make that loop run forever, so the calls stay until the benchmark
        measures sweeps some other way.
        """
        calls = []
        original = harness.run_point

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "run_point", counted)
        cfg = SimulationConfig(realizations=2, frames=1, symbols_per_frame=4,
                               snr_db=(10.0, 20.0))
        table = run_sweep(cfg)
        assert len(calls) == len(cfg.snr_db) * len(cfg.schemes) == len(table.records)
        assert len(set(calls)) == len(calls)


    def test_sweep_draws_channels_once_per_snr(self, monkeypatch):
        calls = []
        original = harness.draw_channels

        def counted(config, snr_db):
            calls.append(snr_db)
            return original(config, snr_db)

        monkeypatch.setattr(harness, "draw_channels", counted)
        cfg = SimulationConfig(realizations=2, frames=1, symbols_per_frame=4,
                               snr_db=(10.0, 20.0, 30.0))
        run_sweep(cfg)
        assert calls == [10.0, 20.0, 30.0]

    def test_schemes_share_each_snr_channels(self, monkeypatch):
        """The common random numbers the harness promises: every scheme at one
        SNR takes its gains from one spectrum, eigh of the Gram stack of that
        SNR's channels, and the SNRs' spectra differ."""
        offered = []
        gains = harness.precoder.spectral_gains

        def recorded(spectrum, mode, *args):
            offered.append((mode.label, spectrum))
            return gains(spectrum, mode, *args)

        monkeypatch.setattr(harness.precoder, "spectral_gains", recorded)
        cfg = replace(TINY, snr_db=(10.0, 20.0))
        run_sweep(cfg)
        assert len(offered) == 8
        for snr_db, cells in zip(cfg.snr_db, (offered[:4], offered[4:])):
            assert sorted(label for label, _ in cells) == sorted(precoder.LABELS)
            spectrum = cells[0][1]
            assert all(s is spectrum for _, s in cells)
            h = draw_channels(cfg, snr_db)
            lam, vecs = np.linalg.eigh(h @ h.conj().swapaxes(-1, -2))
            assert np.array_equal(spectrum[0], lam) and np.array_equal(spectrum[1], vecs)
        assert not np.array_equal(offered[0][1][0], offered[4][1][0])

    def test_zero_forcing_and_a_ridge_short_of_the_floor_build(self, monkeypatch):
        # At 400 dB LMMSEP's c = 1e-40 is far below 2e-12 * ||H H^H||, the
        # floor a ridge alone would have to clear; LZFP's c is 0. Both build
        # their gains from the SNR's spectrum, as ULZFP does, since lam_min
        # clears the floor, and the sweep's records equal the lone cells'.
        offered = []
        gains = harness.precoder.spectral_gains

        def recorded(spectrum, mode, *args):
            offered.append(mode.label)
            return gains(spectrum, mode, *args)

        monkeypatch.setattr(harness.precoder, "spectral_gains", recorded)
        cfg = replace(TINY, snr_db=(400.0,), schemes=tuple(
            SchemeMode.from_label(label) for label in ("LZFP", "LMMSEP", "ULZFP")))
        table = run_sweep(cfg)
        assert offered == ["LMMSEP", "LZFP", "ULZFP"]
        assert table.records == tuple(run_point(cfg, scheme, 400.0)
                                      for scheme in sorted(cfg.schemes, key=lambda s: s.label))

    def test_no_cell_builds_or_solves(self, monkeypatch):
        # Every cell, LZFP and lone cells included, takes spectral gains.
        cfg = replace(TINY, snr_db=(8.0, 400.0))
        sweep = run_sweep(cfg).records
        lone = [run_point(cfg, scheme, 8.0) for scheme in cfg.schemes]

        def refused(*args, **kwargs):
            raise AssertionError("a cell built a precoder")

        monkeypatch.setattr(precoder, "build", refused)
        monkeypatch.setattr(precoder, "solve_hermitian", refused)
        assert run_sweep(cfg).records == sweep
        assert [run_point(cfg, scheme, 8.0) for scheme in cfg.schemes] == lone

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("data_block_only", [False, True])
    def test_sweep_counts_equal_lone_counts(self, workers, data_block_only):
        cfg = SimulationConfig(realizations=7, frames=2, symbols_per_frame=10, seed=31,
                               snr_db=(4.0, 14.0), normalize_data_block_only=data_block_only)
        table = run_sweep(cfg, workers=workers)
        lone = [run_point(cfg, scheme, snr_db, workers=workers) for snr_db in cfg.snr_db
                for scheme in sorted(cfg.schemes, key=lambda s: s.label)]
        assert table.records == tuple(lone)
        assert all(r.bit_errors > 0 for r in lone)

    @pytest.mark.parametrize("workers,lone", [(1, False), (2, False), (1, True), (2, True)],
                             ids=["1", "2", "lone-1", "lone-2"])
    def test_zeroed_channel_raises_the_lone_cells_error(self, monkeypatch, workers, lone):
        original = harness.draw_channels

        def fourth_zeroed(config, snr_db):
            channels = original(config, snr_db).copy()
            channels[4] = 0.0
            return channels

        monkeypatch.setattr(harness, "draw_channels", fourth_zeroed)
        cfg = replace(TINY, schemes=(SchemeMode.from_label("LMMSEP"),), snr_db=(8.0,))
        message = (r"^precoder build failed at realization 4 \(scheme LMMSEP, 8.0 dB\): "
                   r"raw precoder has zero \(or non-finite\) power$")
        with pytest.raises(SingularMatrixError, match=message):
            if lone:
                run_point(cfg, cfg.schemes[0], 8.0, workers=workers)
            else:
                run_sweep(cfg, workers=workers)

    @pytest.mark.parametrize("workers,lone", [(1, False), (2, False), (1, True), (2, True)],
                             ids=["1", "2", "lone-1", "lone-2"])
    def test_singular_channel_names_its_realization(self, monkeypatch, workers, lone):
        # With 2 workers, realization 4 is the second of the chunk [3, 6). A
        # lone run_point draws its channels through the same draw_channels.
        original = harness.draw_channels

        def fourth_zeroed(config, snr_db):
            channels = original(config, snr_db).copy()
            channels[4] = 0.0
            return channels

        monkeypatch.setattr(harness, "draw_channels", fourth_zeroed)
        cfg = replace(TINY, schemes=(SchemeMode.from_label("LZFP"),), snr_db=(8.0,))
        with pytest.raises(SingularMatrixError, match=r"realization 4 \(scheme LZFP, 8.0 dB\)"):
            if lone:
                run_point(cfg, cfg.schemes[0], 8.0, workers=workers)
            else:
                run_sweep(cfg, workers=workers)


class TestReductionAndLookup:
    def test_reduction_gap_exactly_zero(self):
        # A unified scheme with u=0 shares streams and reduces to the plain
        # scheme with the same m, so the measured gap is exactly zero.
        cfg = SimulationConfig(realizations=4, frames=1, symbols_per_frame=8)
        unified_zero = run_point(cfg, SchemeMode(0.0, 0.0), 12.0)
        conventional = run_point(cfg, SchemeMode.from_label("LZFP"), 12.0)
        assert unified_zero.bit_errors == conventional.bit_errors

    def test_missing_record(self):
        table = run_sweep(SimulationConfig(realizations=2, frames=1, symbols_per_frame=4))
        with pytest.raises(KeyError):
            table.lookup("LMMSEP", 99.0)
