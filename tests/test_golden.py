"""Behaviour-preservation gate: the output files of a pinned sweep, byte for byte.

A refactor that keeps the random-stream layout and the arithmetic must leave
every hash below unchanged, at any worker count.
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


@pytest.mark.parametrize("workers", [1, 2])
def test_pinned_sweep_outputs(tmp_path, workers):
    argv = ["sweep", "--realizations", "20", "--seed", "42",
            "--workers", str(workers), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
