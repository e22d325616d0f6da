import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ulpsim import cli, harness
from ulpsim.errors import ConfigurationError
from ulpsim.harness import SimulationConfig, run_sweep
from ulpsim.precoder import SchemeMode
from ulpsim.randomness import STREAM_LAYOUT

TINY_FLAGS = ["--realizations", "3", "--frames", "1", "--symbols", "5", "--seed", "42"]


class TestConfigFile:
    def test_empty_config_gives_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# nothing but a comment\n\n")
        config = cli.build_config(cli.read_config_file(path))
        assert config.tx_antennas == 8
        assert config.pool_users == 20
        assert config.realizations == 1000
        assert config.snr_db == (14.0, 20.0, 30.0)

    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "seed = 7\n"
            "snr_db = 14, 20, 30   # table grid\n"
            "schemes = LZFP, ULZFP\n"
            "normalize_data_block_only = true\n"
        )
        config = cli.build_config(cli.read_config_file(path))
        assert config.seed == 7
        assert config.snr_db == (14.0, 20.0, 30.0)
        assert [s.label for s in config.schemes] == ["LZFP", "ULZFP"]
        assert config.normalize_data_block_only

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("antennas = 8\n")
        with pytest.raises(ConfigurationError, match="antennas"):
            cli.read_config_file(path)

    def test_malformed_value_names_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("realizations = many\n")
        with pytest.raises(ConfigurationError, match="realizations"):
            cli.read_config_file(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfrealizations = 2\nframes = 1\n")
        config = cli.build_config(cli.read_config_file(path))
        assert (config.realizations, config.frames) == (2, 1)

    def test_unset_weights_take_the_scheme_default(self):
        assert cli.build_config({}).schemes == SimulationConfig().schemes
        only_u = cli.build_config({"u": 0.5, "schemes": ("ULMMSEP",)}).schemes
        assert only_u == (SchemeMode.from_label("ULMMSEP", u=0.5),)

    def test_dimension_constraint_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("active_users = 9\ntx_antennas = 8\n")
        with pytest.raises(ConfigurationError):
            cli.build_config(cli.read_config_file(path))

    def test_build_leaves_its_values_unchanged(self, tmp_path):
        # One parsed file built twice: the second build must not fall back to
        # the default schemes and weights.
        path = tmp_path / "run.cfg"
        path.write_text("schemes = LMMSEP\nm = 2\nu = 3\n")
        values = cli.read_config_file(path)
        parsed = dict(values)
        first = cli.build_config(values)
        assert values == parsed
        assert cli.build_config(values) == first
        assert first.schemes == (SchemeMode.from_label("LMMSEP", m=2.0),)


class TestSci:
    @pytest.mark.parametrize(
        "value,text",
        [(0.15, "1.50e-1"), (0.055, "5.50e-2"), (2e-05, "2.00e-5"), (0.0, "0.00e0"), (1.0, "1.00e0")],
    )
    def test_format(self, value, text):
        assert cli.sci(value) == text

    def test_round_trip(self):
        for v in (0.15, 1e-5, 0.999999, 123.456):
            assert float(cli.sci(v)) == pytest.approx(v, rel=5e-3)


@pytest.fixture(scope="module")
def table():
    return run_sweep(SimulationConfig(realizations=3, frames=1, symbols_per_frame=5))


class TestEmitters:

    def test_result_csv_layout(self, table, tmp_path):
        cli.emit_table(table, tmp_path / "r.csv", tmp_path / "g.csv")
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "scheme", "u", "m", "bit_errors", "bits_total",
                           "ber", "std_err", "low_confidence"]
        assert len(rows) == 13

    def test_gap_csv_pairs(self, table, tmp_path):
        cli.emit_gaps(table, tmp_path / "g.csv")
        with open(tmp_path / "g.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        pairs = {(r["scheme_a"], r["scheme_b"]) for r in rows}
        assert pairs == {("LZFP", "LMMSEP"), ("ULZFP", "ULMMSEP")}
        assert len(rows) == 6

    def test_round_trip_is_exact(self, table, tmp_path):
        cli.emit_table(table, tmp_path / "r.csv", tmp_path / "g.csv")
        records = cli.read_table_csv(tmp_path / "r.csv")
        assert len(records) == len(table.records)
        for got, want in zip(records, table.records):
            assert got.bit_errors == want.bit_errors
            assert got.bits_total == want.bits_total
            assert got.ber == want.ber

    def test_plot_data(self, table, tmp_path):
        cli.emit_plot_data(table, tmp_path / "p.csv")
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 12
        for row, record in zip(rows, table.records):
            assert row["scheme"] == record.scheme_label
            assert row["ber"] == cli.sci(record.ber)

    def test_run_log_provenance(self, table, tmp_path):
        cli.emit_run_log(table, tmp_path / "log.jsonl")
        lines = (tmp_path / "log.jsonl").read_text().splitlines()
        assert len(lines) == 12
        entry = json.loads(lines[0])
        assert entry["seed"] == table.config.seed
        assert entry["config_sha256"] == table.config.digest()
        assert entry["ber"] == table.records[0].ber
        assert {json.loads(line)["stream_layout"] for line in lines} == {STREAM_LAYOUT}


# Invalid command lines, each with a fragment of its one-line message. New
# cases go at the end, so that each case keeps its id.
BAD_INPUTS = [
    (["point", "--scheme", "ULZFP", "--u", "nan", "--point-snr", "20"], "u=nan"),
    (["point", "--scheme", "ULMMSEP", "--m", "inf", "--point-snr", "20"], "m=inf"),
    (["point", "--scheme", "LZFP", "--point-snr", "nan"], "SNR nan dB"),
    (["point", "--scheme", "LZFP", "--point-snr", "inf"], "SNR inf dB"),
    (["point", "--scheme", "LZFP", "--point-snr", "1e306"], "SNR 1e+306 dB"),
    (["point", "--scheme", "LZFP", "--point-snr", "-4000"], "SNR -4000.0 dB"),
    (["point", "--scheme", "LZFP", "--point-snr", "20", "--workers", "0"], "workers"),
    (["sweep", "--snr", "20,20"], "at least 1 milli-dB"),
    (["sweep", "--snr", "20,abc"], "--snr: invalid _floats value: '20,abc'"),
    (["sweep", "--snr-offset-db", "nan"], "offset nan dB"),
    (["sweep", "--workers", "-1"], "workers"),
    (["sweep", "--schemes", "LZFP,LMMSEP,LZFP"], "must not repeat"),
    (["sweep", "--realizations", "x"], "--realizations: invalid int value: 'x'"),
    (["sweep", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    (["point", "--point-snr", "20"], "required: --scheme"),
    (["point", "--scheme", "ULZFP", "--schemes", "LZFP,LZFP", "--point-snr", "20"],
     "unrecognized arguments: --schemes"),
    # point runs one cell and writes no file: it takes neither --snr nor --out.
    (["point", "--scheme", "LZFP", "--point-snr", "20", "--snr", "5"],
     "ambiguous option: --snr"),
    (["point", "--scheme", "LZFP", "--point-snr", "20", "--out", "d"],
     "unrecognized arguments: --out d"),
    (["point", "--scheme", "ULMMSEP", "--m", "0", "--point-snr", "20"],
     "scheme ULMMSEP needs m > 0 (m = 0 makes it ULZFP)"),
    # A weight the scheme does not use is checked all the same.
    (["point", "--scheme", "LZFP", "--u", "nan", "--point-snr", "20"], "u=nan"),
    (["point", "--scheme", "LZFP", "--m", "inf", "--point-snr", "20"], "m=inf"),
    # A seed outside [0, 2**64) would alias one inside it.
    (["point", "--scheme", "LZFP", "--point-snr", "0", "--seed", "-1"],
     "seed must be in [0, 2**64), got -1"),
    (["sweep", "--seed", "18446744073709551658"],
     "seed must be in [0, 2**64), got 18446744073709551658"),
    # Below about -3066.9 dB the largest noise draw, 53 ln2 N0, overflows.
    (["point", "--scheme", "LZFP", "--point-snr", "-3075"], "noise variance"),
    (["point", "--scheme", "LZFP", "--point-snr", "20", "--snr-offset-db", "-3095"],
     "noise variance"),
    (["sweep", "--workers", "x"], "--workers: invalid int value: 'x'"),
    # Above about 1.797e305 dB the noise draw is finite but the milli-dB key
    # overflows; at -1e306 dB it is the noise draw that overflows.
    (["point", "--scheme", "LZFP", "--point-snr", "1e306"],
     "SNR 1e+306 dB at offset 0.0 dB has a finite noise variance, but its milli-dB key "
     "round(1000 * snr_db) overflows"),
    (["point", "--scheme", "LZFP", "--point-snr=-1e306"],
     "SNR -1e+306 dB at offset 0.0 dB must be finite, with a noise variance N0 whose "
     "largest draw 53 ln2 N0 is finite"),
]


class TestMain:
    def test_sweep_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["sweep", *TINY_FLAGS, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("results.csv", "gaps.csv", "plot.csv", "run_log.jsonl"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_point_prints_one_record(self, capsys):
        code = cli.main(["point", *TINY_FLAGS, "--scheme", "LZFP", "--point-snr", "14"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "LZFP"

    @pytest.mark.parametrize("scheme,key,flag,expected", [
        ("ULZFP", "u", None, 3.0),
        ("ULZFP", "u", "2", 2.0),
        ("ULMMSEP", "m", None, 3.0),
        ("ULMMSEP", "m", "0.5", 0.5),
    ])
    def test_point_takes_u_and_m_from_file_unless_flagged(self, scheme, key, flag, expected,
                                                          tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 3\n")
        flags = ["point", *TINY_FLAGS, "--scheme", scheme, "--point-snr", "20"]
        from_file = flags + ["--config", str(cfg)] + ([f"--{key}", flag] if flag else [])
        from_flag = flags + [f"--{key}", str(expected)]
        rows = []
        for argv in (from_file, from_flag):
            assert cli.main(argv) == 0
            header, row = capsys.readouterr().out.strip().splitlines()
            rows.append(dict(zip(header.split(","), row.split(","))))
        assert float(rows[0][key]) == expected
        assert rows[0] == rows[1]

    def test_gaps_from_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(["sweep", *TINY_FLAGS, "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["gaps", "--table", str(out / "results.csv")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "snr_db,scheme_a,scheme_b,gap"
        assert len(lines) == 7

    def test_gaps_from_csv_with_byte_order_mark(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(["sweep", *TINY_FLAGS, "--out", str(out)])
        plain = out / "results.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        capsys.readouterr()
        assert cli.main(["gaps", "--table", str(plain)]) == 0
        expected = capsys.readouterr()
        assert cli.main(["gaps", "--table", str(marked)]) == 0
        assert capsys.readouterr() == expected

    def test_configuration_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key = 1\n")
        assert cli.main(["sweep", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("flags,message", BAD_INPUTS,
                             ids=[f"flags{i}" for i in range(len(BAD_INPUTS))])
    def test_bad_input_exits_1_with_one_line(self, flags, message, tmp_path, capsys):
        out = ["--out", str(tmp_path / "x")] if flags[0] == "sweep" else []
        # The case's flags come last, so that they override TINY_FLAGS' seed.
        assert cli.main([flags[0], *TINY_FLAGS, *flags[1:], *out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text,message", [
        ("u = 0\n", "scheme ULZFP needs u > 0 (u = 0 makes it LZFP)"),
        ("normalize_data_block_only = maybe\n",
         "{cfg}:1: key 'normalize_data_block_only': expected a boolean, got 'maybe'"),
        ("seed = 1\nrealizations = 3\n# seed = 4\nseed = 7\n", "{cfg}:4: repeated key 'seed'"),
        ("u = -1\nschemes = LZFP\n",
         "scheme parameters must be finite and nonnegative: u=-1.0, m=1.0"),
    ], ids=["u0", "bad_boolean", "repeated_key", "unused_negative_u"])
    def test_bad_config_file_exits_1_naming_the_cause(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        argv = ["sweep", "--config", str(cfg), *TINY_FLAGS, "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([flag])
        assert exit_info.value.code == 0
        assert "ulpsim" in capsys.readouterr().out

    def test_module_entry_point(self):
        src = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "ulpsim", "--version"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout.startswith("ulpsim ")

    @pytest.mark.parametrize("column,value,message", [
        ("u", None, "missing column 'u'"),
        ("bit_errors", "x", "invalid literal"),
        ("scheme", "LZFP", "repeated record for scheme LZFP at 14.0 dB"),
        ("bits_total", "0", "bits_total must be >= 1, got 0"),
        ("bit_errors", "500", "bit_errors must be between 0 and bits_total 240, got 500"),
        ("bit_errors", "-1", "bit_errors must be between 0 and bits_total 240, got -1"),
        ("u", "0", "scheme ULMMSEP has u = 0.0, m = 1.0, which make LMMSEP"),
        ("m", "nan", "scheme parameters must be finite and nonnegative"),
        ("snr_db", "nan", "snr_db must be finite, got nan"),
        ("snr_db", "inf", "snr_db must be finite, got inf"),
    ])
    def test_malformed_table_exits_1_naming_file_and_row(self, column, value, message,
                                                         tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["sweep", *TINY_FLAGS, "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fields = [f for f in rows[0] if value is not None or f != column]
        if value is not None:
            rows[2][column] = value
        table = tmp_path / "table.csv"
        with open(table, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert cli.main(["gaps", "--table", str(table)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # A missing column is named on the header line, before any row is read.
        line = f"{table}:{1 if value is None else 4}: {message}"
        assert captured.err.startswith(f"configuration error: {line}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("content,message", [
        (b"", "{table}:1: missing column 'snr_db', 'scheme', 'u', 'm', 'bit_errors', "
              "'bits_total'"),
        (b"foo,bar\n", "{table}:1: missing column 'snr_db', 'scheme', 'u', 'm', "
                       "'bit_errors', 'bits_total'"),
        (b"\xff\xfesnr_db,scheme\n", "{table}: not UTF-8 text: 'utf-8' codec can't decode"),
        (b"x" * 131073 + b"\n", "{table}:1: field larger than field limit (131072)"),
        (b"snr_db,scheme,u,m,bit_errors,bits_total\n14,LZFP," + b"0" * 131073 + b",0,0,240\n",
         "{table}:2: field larger than field limit (131072)"),
        (b"snr_db,scheme,u,m,bit_errors,bits_total\n14,LZFP,0\n",
         "{table}:2: row has 3 of the header's 6 fields"),
        (b"snr_db,scheme,u,m,bit_errors,bits_total\n\n14,LZFP,0,0,0,240,7\n",
         "{table}:3: row has 7 of the header's 6 fields"),
        # Read by name, the last bit_errors would give a gap of 3.00e-1.
        (b"snr_db,scheme,u,m,bit_errors,bits_total,bit_errors\n"
         b"14,LZFP,0,0,1,10,5\n14,LMMSEP,0,1,2,10,2\n",
         "{table}:1: repeated column 'bit_errors'"),
    ], ids=["empty", "foreign_header", "not_utf8", "oversized_header_field",
            "oversized_row_field", "short_row", "long_row", "repeated_column"])
    def test_unreadable_table_exits_1_naming_the_file(self, content, message,
                                                      tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_bytes(content)
        assert cli.main(["gaps", "--table", str(table)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"configuration error: {message.format(table=table)}")
        assert captured.err.count("\n") == 1

    def test_overflowing_u_exits_2_with_one_line(self, capsys):
        flags = ["point", "--scheme", "ULZFP", "--u", "1e200", "--point-snr", "20"]
        assert cli.main([*flags, *TINY_FLAGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "non-finite" in err

    def test_huge_u_runs(self, capsys):
        # c = 1e300 is finite and H H^H + c I well conditioned; the data
        # block's share of the power underflows, which leaves BER near 1/2.
        flags = ["point", "--scheme", "ULMMSEP", "--u", "1e150", "--point-snr", "20"]
        assert cli.main([*flags, *TINY_FLAGS]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        header, row = captured.out.splitlines()
        assert row.startswith("20.0,ULMMSEP,1e+150,1.0,")
        # Up to u = 1.3e154, whose c = u^2 = 1.69e308 is finite, the spectral
        # rule's norm of about sqrt(8) c would overflow unless it is scaled.
        for scheme, m in (("ULZFP", "0.0"), ("ULMMSEP", "1.0")):
            for u in ("1e154", "1.3e154"):
                flags = ["point", "--scheme", scheme, "--u", u, "--point-snr", "20"]
                assert cli.main([*flags, *TINY_FLAGS]) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                row = dict(zip(*csv.reader(captured.out.splitlines())))
                assert (row["scheme"], float(row["u"]), row["m"]) == (scheme, float(u), m)
                assert abs(int(row["bit_errors"]) / int(row["bits_total"]) - 0.5) < 0.2

    def test_snr_above_the_noise_draw_bound_runs(self, capsys):
        # N0 = 4.8e306, whose largest noise draw 53 ln2 N0 is finite.
        flags = ["point", "--scheme", "LZFP", "--point-snr", "-3066.8"]
        assert cli.main([*flags, *TINY_FLAGS]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1].startswith("-3066.8,LZFP,")

    def test_power_too_small_to_normalize_exits_2_with_one_line(self, capsys):
        # The ridge m N0 = 1e157 leaves a raw power near 1e-313, whose
        # n_tx / power would overflow.
        flags = ["point", "--scheme", "LMMSEP", "--m", "1e300", "--point-snr", "1430"]
        assert cli.main([*flags, *TINY_FLAGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: precoder build failed at realization 0 "
                              "(scheme LMMSEP, 1430.0 dB): raw precoder power ")
        assert "so small that n_tx / power overflows" in err and err.count("\n") == 1

    def test_vanishing_u_exits_2_with_one_line(self, capsys):
        flags = ["point", "--scheme", "ULZFP", "--u", "1e-9", "--point-snr", "20"]
        assert cli.main([*flags, *TINY_FLAGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "below the rounding of H H^H" in err

    @pytest.mark.parametrize("line,cell", [
        ("m = 1e300", "(scheme LMMSEP, 14.0 dB)"),  # zero power: lam / c^2 underflows
        ("u = 1e-9", "(scheme ULZFP, 14.0 dB)"),  # u^2 lost in the rounding of H H^H
    ])
    def test_refused_sweep_names_its_cell(self, line, cell, tmp_path, capsys):
        config = tmp_path / "refused.cfg"
        config.write_text(f"{line}\n")
        argv = ["sweep", "--config", str(config), *TINY_FLAGS, "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: precoder build failed at realization 0 ")
        assert cell in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_numerical_error_exit_code(self, monkeypatch, tmp_path):
        from ulpsim.errors import SingularMatrixError

        def boom(config, workers=1):
            raise SingularMatrixError("synthetic failure")

        monkeypatch.setattr(harness, "run_sweep", boom)
        assert cli.main(["sweep", *TINY_FLAGS, "--out", str(tmp_path / "x")]) == 2

    def test_out_of_memory_exits_1_with_one_line(self, monkeypatch, capsys):
        def boom(config, scheme, snr_db, workers=1):
            raise MemoryError("Unable to allocate 175. TiB for an array")

        monkeypatch.setattr(harness, "run_point", boom)
        assert cli.main(["point", "--scheme", "LZFP", "--point-snr", "20", *TINY_FLAGS]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "out of memory: Unable to allocate 175. TiB for an array\n"

    # The channels of 1e16 realizations pass numpy's largest array size in
    # bytes, and those of 1e20 its largest dimension; both commands draw
    # their channels before they run a block.
    @pytest.mark.parametrize("argv", [
        ["sweep", "--realizations", "10000000000000000"],
        ["point", "--scheme", "LZFP", "--point-snr", "20",
         "--realizations", "100000000000000000000"],
    ], ids=["sweep_1e16", "point_1e20"])
    def test_huge_realizations_exit_1_with_one_line(self, argv, tmp_path):
        src = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = ["--out", str(tmp_path)] if argv[0] == "sweep" else []
        done = subprocess.run([sys.executable, "-m", "ulpsim", *argv, *out], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith(f"out of memory: the channels of {argv[-1]} realizations ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    # A frame of 3e18 symbols ends within a stream's 2**66 words, but its
    # buffer of 7.2e19 words passes numpy's largest dimension; both commands
    # draw one realization's channels, then fail at the frame's word buffer.
    @pytest.mark.parametrize("command", [
        ["sweep", "--schemes", "LZFP,LMMSEP"], ["point", "--scheme", "LZFP", "--point-snr", "20"],
    ], ids=["sweep", "point"])
    def test_huge_symbols_exit_1_with_one_line(self, command, tmp_path):
        src = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = ["--out", str(tmp_path)] if command[0] == "sweep" else []
        argv = [*command, "--realizations", "1", "--frames", "1",
                "--symbols", "3000000000000000000", *out]
        done = subprocess.run([sys.executable, "-m", "ulpsim", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith(
            "out of memory: the frames of 3000000000000000000 symbols do not fit: ")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    # 1e19 frames would end past word 2**66 of a stream, which the layout
    # cannot address: the config is rejected before any work starts.
    def test_huge_frames_exit_1_with_one_line(self):
        src = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = ["point", "--scheme", "LZFP", "--point-snr", "20", "--realizations", "1",
                "--frames", "10000000000000000000", "--symbols", "1"]
        done = subprocess.run([sys.executable, "-m", "ulpsim", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            "configuration error: 10000000000000000000 frames of 1 symbols end at word "
            "240000000000000000320 of a stream, past the 2**66 words the stream layout "
            "addresses\n")

    def test_failed_sweep_removes_the_directories_it_made(self, tmp_path, capsys):
        # The channels of 1e16 realizations do not fit, so each sweep fails
        # after its --out is made. Directories that were there stay as they were.
        kept, empty = tmp_path / "kept", tmp_path / "empty"
        kept.mkdir()
        empty.mkdir()
        (kept / "notes.txt").write_text("mine")
        for out in (tmp_path / "od" / "sub", kept / "new" / "sub", kept, empty):
            argv = ["sweep", "--realizations", "10000000000000000", "--out", str(out)]
            assert cli.main(argv) == 1
            assert capsys.readouterr().err.startswith("out of memory: the channels of ")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "empty", "kept", "kept/notes.txt"]

    def test_failed_sweep_keeps_a_directory_it_wrote_to(self, monkeypatch, tmp_path):
        out = tmp_path / "od" / "sub"

        def boom(config, workers=1):
            (out / "partial.csv").write_text("")
            raise MemoryError("synthetic failure")

        monkeypatch.setattr(harness, "run_sweep", boom)
        assert cli.main(["sweep", *TINY_FLAGS, "--out", str(out)]) == 1
        assert [p.name for p in out.parent.iterdir()] == ["sub"]
        assert [p.name for p in out.iterdir()] == ["partial.csv"]

    def test_io_error_exit_code(self, monkeypatch, tmp_path):
        # An --out that cannot be made fails before the sweep runs.
        monkeypatch.setattr(harness, "run_sweep", lambda config, workers=1: pytest.fail("ran"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["sweep", *TINY_FLAGS, "--out", str(blocker / "sub")]) == 3
