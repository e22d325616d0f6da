"""Behaviour-preservation gate: the output files of pinned sweeps, byte for byte.

A refactor that keeps the random-stream layout and the arithmetic must leave
every hash below unchanged, at any worker count. With 2048 block entries
(see harness._range_errors), the 20-realization sweep makes blocks of 12
and 8 realizations whose frames are taken 2 at a time; the 600x1x1 sweep
spans 50 blocks of 12 realizations, each reading all its words in one call;
and the 3x7x700 sweep puts its 3 realizations in one block whose frames are
taken 1 at a time, each frame read from its offset in every stream.

Each run_log.jsonl line holds the config digest and the stream layout
(randomness.STREAM_LAYOUT), so a new layout changes its hash. Layout 2, the
float32 Box-Muller phase, left the counts of these sweeps, and so the hashes
of results.csv, gaps.csv and plot.csv, as they were in layout 1.
"""

import hashlib

import pytest

from ulpsim import cli

GOLDEN_SHA256 = {
    "results.csv": "1b9e6f5024a731b3ef500b35dd311ffb3d284bfcd4c5158c95d3c0e89be98a4b",
    "run_log.jsonl": "3581424d27063149b824877c307d096e12ec2106749bc7cdaeea709e64840e02",
    "gaps.csv": "e349660b04f200490430ce855c9026e79af5947a46754930e7142113e2bdae3d",
    "plot.csv": "144e1a6cc7448978ac7b7c36efcd859d3a8366833a0091d2a362a83807440bb2",
}

MANY_BLOCKS_SHA256 = {
    "results.csv": "9d160f2120d9f3534e644312bfef4d7890fa61b28c26bb35ecae3bc52c758ca0",
    "run_log.jsonl": "130fae179b7bf9cf6978a38b9eb44139e587da2582ef3cad716baaa8b688fff9",
    "gaps.csv": "88f8e42e6cc069514ff778e0a6be675d1b56603ab74305aa5cad7976bfd31f7d",
    "plot.csv": "54645c716380aa49ffe66bce1884b69b3a1df5c17d2133083e176af053385b5b",
}

SPLIT_FRAMES_SHA256 = {
    "results.csv": "8532834ebb4b2f49c242b8860086ba830bc8c1d5b8b770de0bd75c43ee7ca48c",
    "run_log.jsonl": "68bb4efef9fa930495647dcfcd62e83b86ceff32dbbdae9ec72c224e642cda5e",
    "gaps.csv": "927e028011a08346b9b55422e88be16e1d5f38894f274ce457327db4153f5645",
    "plot.csv": "e56da25a30dbad1cb8a97a9f38275cec70062349d3aa96d44d78e13a85cd95ad",
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
