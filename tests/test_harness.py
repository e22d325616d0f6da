import numpy as np
import pytest

from ulpsim.errors import ConfigurationError
from ulpsim.harness import (
    BerRecord,
    SimulationConfig,
    _realization_errors,
    ber_gap,
    run_point,
    run_sweep,
    snr_db_to_noise_variance,
)
from ulpsim.precoder import SchemeMode

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

    def test_bits_per_point(self):
        assert SimulationConfig().bits_per_point == 1000 * 10 * 100 * 8 * 2

    def test_digest_changes_with_seed(self):
        assert SimulationConfig(seed=1).digest() != SimulationConfig(seed=2).digest()


class TestRunPoint:
    def test_deterministic_across_worker_counts(self):
        scheme = SchemeMode.from_label("LMMSEP")
        records = [run_point(TINY, scheme, 10.0, workers=w) for w in (1, 2, 4)]
        assert len({r.bit_errors for r in records}) == 1

    def test_noiseless_zero_forcing_is_error_free(self):
        # SNR large enough that 10^(-snr/10) underflows to exactly 0.
        record = run_point(TINY, SchemeMode(0.0, 0.0), 4000.0)
        assert snr_db_to_noise_variance(4000.0) == 0.0
        assert record.bit_errors == 0

    def test_error_counts_are_sums_of_realization_counts(self):
        scheme = SchemeMode.from_label("ULZFP")
        record = run_point(TINY, scheme, 8.0)
        partials = [
            _realization_errors(TINY, scheme, 8.0, r) for r in range(TINY.realizations)
        ]
        assert sum(partials) == record.bit_errors
        assert record.bit_errors <= record.bits_total

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
