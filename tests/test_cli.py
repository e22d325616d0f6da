import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ulpsim import cli
from ulpsim.errors import ConfigurationError
from ulpsim.harness import SimulationConfig, run_sweep
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

    def test_dimension_constraint_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("active_users = 9\ntx_antennas = 8\n")
        with pytest.raises(ConfigurationError):
            cli.build_config(cli.read_config_file(path))


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
        assert pairs == {("LZFP", "LMMSEP"), ("LZFP_u0", "LMMSEP_u0"), ("ULZFP", "ULMMSEP")}
        assert len(rows) == 9

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
        assert len(lines) == 10

    def test_configuration_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key = 1\n")
        assert cli.main(["sweep", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("flags,message", BAD_INPUTS,
                             ids=[f"flags{i}" for i in range(len(BAD_INPUTS))])
    def test_bad_input_exits_1_with_one_line(self, flags, message, tmp_path, capsys):
        out = ["--out", str(tmp_path / "x")] if flags[0] == "sweep" else []
        assert cli.main([*flags, *TINY_FLAGS, *out]) == 1
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
    ], ids=["u0", "bad_boolean", "repeated_key"])
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
        line = f"{table}:{2 if value is None else 4}: {message}"
        assert captured.err.startswith(f"configuration error: {line}")
        assert captured.err.count("\n") == 1

    def test_overflowing_u_exits_2_with_one_line(self, capsys):
        flags = ["point", "--scheme", "ULZFP", "--u", "1e200", "--point-snr", "20"]
        assert cli.main([*flags, *TINY_FLAGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_numerical_error_exit_code(self, monkeypatch, tmp_path):
        from ulpsim.errors import SingularMatrixError

        def boom(config, workers=1):
            raise SingularMatrixError("synthetic failure")

        monkeypatch.setattr(cli, "run_sweep", boom)
        assert cli.main(["sweep", *TINY_FLAGS, "--out", str(tmp_path / "x")]) == 2

    def test_io_error_exit_code(self, monkeypatch, tmp_path):
        # An --out that cannot be made fails before the sweep runs.
        monkeypatch.setattr(cli, "run_sweep", lambda config, workers=1: pytest.fail("ran"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["sweep", *TINY_FLAGS, "--out", str(blocker / "sub")]) == 3
