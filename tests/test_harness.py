import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from ulpsim import harness, precoder
from ulpsim.channel import draw_user_pool, select_users
from ulpsim.errors import ConfigurationError, SingularMatrixError
from ulpsim.harness import (
    BerRecord,
    SimulationConfig,
    _range_errors,
    ber_gap,
    run_point,
    run_sweep,
    snr_db_to_noise_variance,
)
from ulpsim.modem import draw_awgn, qpsk_demodulate, qpsk_modulate, transmit_receive
from ulpsim.precoder import SchemeMode
from ulpsim.randomness import derived_stream, snr_key

TINY = SimulationConfig(realizations=6, frames=2, symbols_per_frame=10, seed=99)


class TestSnrMapping:
    def test_zero_db(self):
        assert snr_db_to_noise_variance(0.0) == pytest.approx(1.0)

    def test_ten_db(self):
        assert snr_db_to_noise_variance(10.0) == pytest.approx(0.1)

    def test_fourteen_db(self):
        assert snr_db_to_noise_variance(14.0) == pytest.approx(10.0**-1.4)


class TestConfigValidation:
    def test_default_is_valid(self):
        SimulationConfig().validate()

    def test_active_exceeds_pool(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(pool_users=4, active_users=8, tx_antennas=8).validate()

    def test_active_must_equal_tx(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(pool_users=20, active_users=4, tx_antennas=8).validate()

    def test_counts_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(realizations=0).validate()

    @pytest.mark.parametrize("snr_db", [(20.0, 20.0), (20.0, 20.0004)])
    def test_snrs_sharing_a_stream_key(self, snr_db):
        with pytest.raises(ConfigurationError, match="milli-dB"):
            SimulationConfig(snr_db=snr_db).validate()

    @pytest.mark.parametrize("snr_db,offset", [
        (np.nan, 0.0), (np.inf, 0.0), (1e306, 0.0), (-4000.0, 0.0), (14.0, np.nan),
        (14.0, np.inf),
    ])
    def test_snr_needs_finite_noise_variance(self, snr_db, offset):
        with pytest.raises(ConfigurationError, match="noise variance"):
            SimulationConfig(snr_db=(snr_db,), snr_offset_db=offset).validate()

    def test_repeated_scheme_label_rejected(self):
        # Two ULZFP schemes with different u would still share one label.
        schemes = (SchemeMode.from_label("LZFP"), SchemeMode(1.0, 0.0), SchemeMode(2.0, 0.0))
        with pytest.raises(ConfigurationError, match="repeat"):
            SimulationConfig(schemes=schemes).validate()

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
            assert SimulationConfig(**{name: value}).digest() != base, name

    def test_digest_changes_with_stream_layout(self, monkeypatch):
        base = SimulationConfig().digest()
        monkeypatch.setattr(harness, "STREAM_LAYOUT", harness.STREAM_LAYOUT + 1)
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

        sizes = []

        class InlinePool:
            """Records max_workers and runs each submission at once; starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = concurrent.futures.Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        scheme = SchemeMode.from_label("LZFP")
        record = run_point(TINY, scheme, 10.0, workers=10**6)
        assert sizes == [TINY.realizations]
        assert record == run_point(TINY, scheme, 10.0, workers=1)

    def test_noiseless_zero_forcing_is_error_free(self):
        # SNR large enough that 10^(-snr/10) underflows to exactly 0.
        record = run_point(TINY, SchemeMode(0.0, 0.0), 4000.0)
        assert snr_db_to_noise_variance(4000.0) == 0.0
        assert record.bit_errors == 0

    # TINY's realizations carry 160 pool entries and 2 frames of 80 symbols:
    # 1 gives blocks of 1 realization, their frames taken 1 at a time; 400
    # gives blocks of 2 realizations, and 2048, 8192 and 10**6 one block of
    # all 6, each realization's words in one call.
    @pytest.mark.parametrize("label", ["LZFP", "ULMMSEP"])
    @pytest.mark.parametrize("block_entries", [1, 400, 2048, 8192, 10**6])
    def test_range_count_does_not_depend_on_blocking(self, monkeypatch, label, block_entries):
        scheme = SchemeMode.from_label(label)
        whole = _range_errors(TINY, scheme, 8.0, 0, TINY.realizations)
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
        parts = [(0, 1), (1, 5), (5, 6)]
        assert sum(_range_errors(TINY, scheme, 8.0, a, b) for a, b in parts) == whole
        assert _range_errors(TINY, scheme, 8.0, 0, TINY.realizations) == whole
        assert 0 < whole <= TINY.bits_per_point

    # 14 realizations of 3 frames of 800 symbols, with 160 pool entries each:
    # 1 gives blocks of 1 realization and 900 blocks of 5, both taking frames
    # 1 at a time; 2048 gives blocks of 12 and 2 taking frames 2 at a time,
    # and 8192 one block whose realizations take all their words in one call.
    # Every frame group after the first is read at its stream offset.
    @pytest.mark.parametrize("block_entries", [1, 900, 2048, 8192])
    def test_split_frames_of_many_realizations_match_reference(self, monkeypatch,
                                                               block_entries):
        config = SimulationConfig(realizations=14, frames=3, symbols_per_frame=100, seed=5)
        scheme = SchemeMode.from_label("LMMSEP")
        expected = reference_errors(config, scheme, 4.0, 0, 14)
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
        assert _range_errors(config, scheme, 4.0, 0, 14) == expected > 0
        parts = [(0, 3), (3, 13), (13, 14)]
        assert sum(_range_errors(config, scheme, 4.0, a, b) for a, b in parts) == expected

    # One tx antenna serving 1 of 1 users: the pools of all 16 realizations
    # fit in one block, their 20000-symbol frames do not, so the range is
    # taken a realization at a time and needs no more memory than one of them.
    def test_long_frames_of_a_small_pool_take_one_realization_at_a_time(self):
        config = SimulationConfig(tx_antennas=1, pool_users=1, active_users=1,
                                  realizations=16, frames=2, symbols_per_frame=20000, seed=3)
        scheme = SchemeMode.from_label("LZFP")

        def peak_bytes(stop):
            tracemalloc.start()
            try:
                _range_errors(config, scheme, 10.0, 0, stop)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(16) < 2 * peak_bytes(1)

    def test_singular_build_names_its_realization(self, monkeypatch):
        select = harness.chan.select_users

        def zero_third_channel(pool, n_active):
            channel = select(pool, n_active)
            channel[2] = 0.0
            return channel

        monkeypatch.setattr(harness.chan, "select_users", zero_third_channel)
        with pytest.raises(SingularMatrixError, match="realization 3 "):
            _range_errors(TINY, SchemeMode.from_label("LZFP"), 8.0, 1, 6)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            run_point(TINY, SchemeMode.from_label("LZFP"), 10.0, workers=workers)

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


def reference_errors(config, scheme, snr_db, start, stop):
    """_range_errors one realization at a time, through derived_stream and the public layers."""
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

    With 2048 block entries, 20x10x100 makes blocks of 12 and 8 realizations
    with frames taken 2 at a time, 600x1x1 puts 12 realizations in a block,
    and 3x7x700 puts all 3 in one block with frames taken 1 at a time.
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
        errors = _range_errors(config, scheme, snr_db, 0, realizations)
        assert errors == reference_errors(config, scheme, snr_db, 0, realizations)
        assert errors > 0

    # 3 tx antennas and 5 pool users: 30 pool words, then frames of 3159
    # words, so frames 1 to 4 start at words 3189, 6348, 9507 and 12666,
    # which are 1, 0, 3 and 2 past a multiple of 4. With 1 or 2048 block
    # entries every frame after the first is read at its own offset.
    @pytest.mark.parametrize("block_entries", [1, 2048, 10**6])
    def test_unaligned_stream_offsets(self, monkeypatch, block_entries):
        config = SimulationConfig(tx_antennas=3, active_users=3, pool_users=5,
                                  realizations=4, frames=5, symbols_per_frame=351, seed=11)
        scheme = SchemeMode.from_label("ULMMSEP")
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_entries)
        errors = _range_errors(config, scheme, 0.0, 0, 4)
        assert errors == reference_errors(config, scheme, 0.0, 0, 4) > 0

    def test_exact_zero_decides_bit_zero(self, monkeypatch):
        # As in qpsk_demodulate: with every estimate exactly 0, each 1 bit sent is an error.
        monkeypatch.setattr(harness.modem, "transmit_receive", lambda h, prec, x, z: 0.0 * x)
        config = SimulationConfig(realizations=3, frames=2, symbols_per_frame=5)
        k, n_sym = config.active_users, config.symbols_per_frame
        ones = 0
        for r in range(config.realizations):
            rng = derived_stream(config.seed, snr_key(10.0), r)
            draw_user_pool(rng, config.pool_users, config.tx_antennas)
            for _ in range(config.frames):
                ones += int(rng.integers(0, 2, 2 * k * n_sym).sum())
                draw_awgn(rng, (k, n_sym), 1.0)
        scheme = SchemeMode.from_label("LZFP")
        assert _range_errors(config, scheme, 10.0, 0, config.realizations) == ones > 0

    def test_indices_past_32_bits(self):
        # A range across 2**53 + 1, the first index a float64 cannot hold,
        # and one that ends at the last index, 2**64 - 1.
        config = SimulationConfig(frames=2, symbols_per_frame=50, seed=-1)
        scheme = SchemeMode.from_label("ULZFP")
        for start, stop in ((2**53 - 1, 2**53 + 2), (2**64 - 3, 2**64)):
            errors = _range_errors(config, scheme, 0.0, start, stop)
            assert errors == reference_errors(config, scheme, 0.0, start, stop) > 0, start


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


class TestBerGap:
    def test_self_gap_zero(self):
        table = run_sweep(SimulationConfig(realizations=2, frames=1, symbols_per_frame=4))
        assert ber_gap(table, "LZFP", "LZFP", 14.0) == 0.0

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
            ber_gap(table, "LZFP", "LMMSEP", 99.0)
