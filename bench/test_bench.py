"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import (SCHEME_PARAMS, Checker, Record, TooFewSamples,  # noqa: E402
                    load_reference, percentile)
from workloads import SIZES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHANNELS = SIZES["full"]["sweep_channels"]


def run_bench(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SIZES["full"]))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "2", "--seconds", "2",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    human = lines[:-1]
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
                   for line in human), metric["name"]
        assert math.isfinite(result["metrics"][metric["name"]]["value"])
    if trace:
        assert result["metrics"]["trace.replica_exact"]["value"] == 1.0
    else:
        assert any(line.split()[0] == "point_ms_p90" and " ms (" in line for line in human)
    assert any(line.split()[:2] == ["failed_frac", "0"] for line in human)


def test_not_runnable_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_frames",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def fair_table(checker):
    """Records whose counts sit on each cell's reference BER."""
    exp = checker.expected
    records = []
    for scheme, snr, offset in exp.cells:
        p = checker.tolerance(scheme, snr + offset, exp.realizations)[0]
        errors = round(p * exp.bits_total)
        u, m = SCHEME_PARAMS[scheme]
        records.append(Record(scheme, u, m, snr, offset, errors, exp.bits_total,
                              errors / exp.bits_total))
    return records


@pytest.fixture
def checker():
    return Checker(load_reference(), CHANNELS.expected())


def test_checker_accepts_fair_table(checker):
    checker.check_table(fair_table(checker))
    checker.check_pooled()
    assert checker.failed == 0 and checker.attempted == 12, checker.failures


def test_checker_rejects_error_count_past_tolerance(checker):
    records = fair_table(checker)
    r = records[0]
    hi = checker.tolerance(r.scheme, r.snr_db, CHANNELS.realizations)[2]
    errors = math.floor(hi * r.bits_total) + 1
    assert errors <= r.bits_total
    records[0] = replace(r, bit_errors=errors, ber=errors / r.bits_total)
    checker.check_table(records)
    assert checker.failed == 1


def test_checker_rejects_dropped_record(checker):
    checker.check_table(fair_table(checker)[1:])
    assert checker.failed == 1 and checker.attempted == 12


def test_checker_rejects_duplicated_snr(checker):
    records = fair_table(checker)
    checker.check_table(records + [records[3]])
    assert checker.failed == 2 and checker.attempted == 13


def test_checker_rejects_mislabelled_record(checker):
    records = fair_table(checker)
    records[0] = replace(records[0], m=1.0 - records[0].m)
    checker.check_table(records)
    assert checker.failed == 1


def test_checker_rejects_bias_only_the_pooled_counts_show(checker):
    for _ in range(300):
        records = []
        for r in fair_table(checker):
            lo, hi = checker.tolerance(r.scheme, r.snr_db, CHANNELS.realizations)[1:]
            errors = math.floor((r.ber + (hi - r.ber) / 4) * r.bits_total)
            records.append(replace(r, bit_errors=errors, ber=errors / r.bits_total))
        checker.check_table(records)
    assert checker.failed == 0
    checker.check_pooled()
    assert checker.failed > 0


def test_checker_requires_twins_to_match():
    grid = SIZES["full"]["point_grid"]
    checker = Checker(load_reference(), grid.expected())
    records = fair_table(checker)
    twin = len(records) - 1
    records[twin] = replace(records[twin], bit_errors=records[twin].bit_errors + 1)
    checker.check_table(records)
    assert checker.failed == 2


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_failed_records_give_nonzero_exit(monkeypatch, capsys):
    import run

    reference = load_reference()
    skewed = {k: {**v, "ber": 0.9, "channel_var": 0.0} for k, v in reference["cells"].items()}
    monkeypatch.setattr(run, "load_reference", lambda: {**reference, "cells": skewed})
    code = run.main(["--workload", "sweep_channels", "--seconds", "1.5", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] == result["attempted"]


def test_noise_variance_error_gives_nonzero_exit(monkeypatch, capsys):
    """A real defect: the noise variance of every realization four times too high (6 dB)."""
    import run
    from ulpsim import harness

    variance = harness.snr_db_to_noise_variance
    monkeypatch.setattr(harness, "snr_db_to_noise_variance",
                        lambda snr_db: 4.0 * variance(snr_db))
    code = run.main(["--workload", "sweep_frames", "--seconds", "10"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] > 0
