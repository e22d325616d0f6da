"""Behaviour-preservation gate: the output files of pinned sweeps, byte for byte.

A refactor that keeps the random-stream layout and the arithmetic must leave
every hash below unchanged, at any worker count. Besides the default-shape
sweep, one sweep spans many blocks of whole realizations and one splits
each realization's frames into groups (see harness.BLOCK_ENTRIES).
"""

import hashlib

import pytest

from ulpsim import cli

GOLDEN_SHA256 = {
    "results.csv": "1b9e6f5024a731b3ef500b35dd311ffb3d284bfcd4c5158c95d3c0e89be98a4b",
    "run_log.jsonl": "497a02227e3ea3a7bf3b464607b4148adbfbd50318c79e04d793da543b8bef2b",
    "gaps.csv": "e349660b04f200490430ce855c9026e79af5947a46754930e7142113e2bdae3d",
    "plot.csv": "144e1a6cc7448978ac7b7c36efcd859d3a8366833a0091d2a362a83807440bb2",
}

MANY_BLOCKS_SHA256 = {
    "results.csv": "9d160f2120d9f3534e644312bfef4d7890fa61b28c26bb35ecae3bc52c758ca0",
    "run_log.jsonl": "83d3adddb703c2ebd1d7b46b25ab13f22e8b8ffe33d77cf1375393b80fb6d4ba",
    "gaps.csv": "88f8e42e6cc069514ff778e0a6be675d1b56603ab74305aa5cad7976bfd31f7d",
    "plot.csv": "54645c716380aa49ffe66bce1884b69b3a1df5c17d2133083e176af053385b5b",
}

SPLIT_FRAMES_SHA256 = {
    "results.csv": "8532834ebb4b2f49c242b8860086ba830bc8c1d5b8b770de0bd75c43ee7ca48c",
    "run_log.jsonl": "be4e8755cc422d7f924ededf516f19b96db124b9f2ad82d3ae2b790421c4f15e",
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
