"""Behaviour-preservation gate: the output files of pinned sweeps, byte for byte.

A refactor that keeps the random-stream layout and the arithmetic must leave
every hash below unchanged, at any worker count. Every cell runs on the
channels harness.draw_channels drew: a sweep draws each SNR's channels once
and holds them while that SNR's cells run, at 16 * users * tx antennas
bytes per realization, and a lone run_point draws its cell's channels the
same way. Every frame is read at its offset in its stream. At harness's
default BLOCK_ENTRIES, every sweep below runs each cell's realizations in
one block (see harness._range_errors), and the 600x1x1 sweep draws its
channels in blocks of 128 realizations and a partial last block (see
harness.draw_channels).

Each run_log.jsonl line holds the config digest and the stream layout
(randomness.STREAM_LAYOUT), so a new layout changes its hash. Layout 2, the
float32 Box-Muller phase, left the counts of these sweeps, and so the hashes
of results.csv, gaps.csv and plot.csv, as they were in layout 1. Layout 3
keys each SNR's streams once and puts the realization index in the Philox
counter, so every realization draws new values: it moved the counts, and
every hash below. The gaps.csv hashes were re-pinned when its LZFP_u0,
LMMSEP_u0 rows, which repeated the LZFP,LMMSEP rows, were dropped.
"""

import hashlib

import pytest

from ulpsim import cli

GOLDEN_SHA256 = {
    "results.csv": "53aeef59bddd2b054b847d90646d872265da77c30cf71119270e1cafdc46570b",
    "run_log.jsonl": "c3d14141bb240b4e89652d570e7f51f65c3d0b43853a96ffbd41499bd7e43055",
    "gaps.csv": "3802d104676b5fecb44260a8afa84d1761538703d81f5525bb7cd316b0f64206",
    "plot.csv": "237838d458627aebcc0a0a26a3bd00adf97eebc53e7b60d098a7f49daaa893e3",
}

MANY_BLOCKS_SHA256 = {
    "results.csv": "63679394f673deec330ce25f35a637b07e20a11a80f9974182234f09268d8769",
    "run_log.jsonl": "9592c45766b759abfb309e527f719cd254f16a28f623ec9847d105a06ad8bb49",
    "gaps.csv": "a22d73cfad03906976daac861ae03723789ae45b1fad263f2c7077d2273f743b",
    "plot.csv": "44c904f3df3e09a664fbc5874e52a2de124250d541d5d1072c66cc6a28185889",
}

SPLIT_FRAMES_SHA256 = {
    "results.csv": "576bb617c2a3769b6535171d0560da526c81abf8264e3e0791b31ec0ecf8299d",
    "run_log.jsonl": "47c49492971bf62b99140e7de65a6e7709b59a03e8efb835074a0b2b89928cf1",
    "gaps.csv": "63f0375dcd5cf5a6bee7c5a9a85384b492264c9ffb475e7ddbe88cbd7df88699",
    "plot.csv": "7ecb3cd246584547b925a330a7ae220dfc94585a2fcb81315da2fc725165b484",
}


def check_sweep(tmp_path, workers, flags, hashes):
    argv = ["sweep", *flags, "--seed", "42", "--workers", str(workers), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for name, digest in hashes.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("workers", [1, 2])
def test_pinned_sweep_outputs(tmp_path, workers):
    check_sweep(tmp_path, workers, ["--realizations", "20"], GOLDEN_SHA256)


@pytest.mark.parametrize("workers", [1, 2])
def test_pinned_many_blocks_outputs(tmp_path, workers):
    flags = ["--realizations", "600", "--frames", "1", "--symbols", "1"]
    check_sweep(tmp_path, workers, flags, MANY_BLOCKS_SHA256)


@pytest.mark.parametrize("workers", [1, 2])
def test_pinned_split_frames_outputs(tmp_path, workers):
    flags = ["--realizations", "3", "--frames", "7", "--symbols", "700"]
    check_sweep(tmp_path, workers, flags, SPLIT_FRAMES_SHA256)
